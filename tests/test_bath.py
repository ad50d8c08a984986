import numpy as np
import pytest

from dampol.constants import EPS0, HBAR
from dampol.errors import SingularOperatorError
from dampol.coupling import CouplingTensor, builtin_model, coupling_from_lagrangian, structure_tensor
from dampol.bath import (
    assemble_bath_hamiltonian,
    bath_coefficients,
    bath_mode_form,
    hamiltonian_equivalence,
    polarization_selfenergy_kernel,
    verify_bath_canonical,
    verify_bath_independence,
    verify_linkage,
)
from dampol.lattice import FrequencyGrid, build_lattice
from dampol.oracle import assemble_hamiltonian
from dampol.susceptibility import Susceptibility, chi_at

from test_coupling import scalar_coupling


@pytest.fixture(scope="module")
def bath_setup():
    lat = build_lattice(2, 1.0)
    grid = FrequencyGrid.midpoint(10, 3.0, eta_factor=1.0)
    coupling = coupling_from_lagrangian(builtin_model("local_lorentz", lat, grid))
    st = structure_tensor(coupling)
    chi = Susceptibility(coupling)
    bath = bath_coefficients(coupling, chi)
    return lat, grid, coupling, st, chi, bath


class TestCoefficients:
    def test_single_site_scalar_values(self, single_site):
        grid = FrequencyGrid.midpoint(1, 2.0)
        tau = 1.3
        coupling = scalar_coupling(single_site, grid, tau)
        chi = Susceptibility(coupling)
        bath = bath_coefficients(coupling, chi)
        assert np.allclose(bath.delta_coeff[0], np.eye(3) / tau)
        chi_up = chi_at(coupling, grid.nodes[0] + 1j * grid.eta).mat[0, 0]
        assert np.allclose(bath.pole_coeff[0], (HBAR / EPS0) * tau / chi_up * np.eye(3))

    def test_linkage_definitional(self, bath_setup):
        lat, grid, coupling, st, chi, bath = bath_setup
        assert verify_linkage(bath, coupling, chi) <= 1e-12

    def test_singular_coupling_rejected(self, single_site):
        grid = FrequencyGrid.midpoint(2, 2.0)
        kern = np.zeros((2, 3, 3), dtype=complex)
        kern[0] = np.diag([1.0, 1.0, 0.0])
        kern[1] = np.eye(3)
        coupling = CouplingTensor(single_site, grid, kern)
        with pytest.raises(SingularOperatorError) as err:
            bath_coefficients(coupling, Susceptibility(coupling))
        assert err.value.node == 0


class TestRowBuilder:
    def test_rows_match_pair_formulas(self, small_lattice):
        K = 8
        grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
        coupling = coupling_from_lagrangian(builtin_model("local_lorentz", small_lattice, grid))
        bath = bath_coefficients(coupling, Susceptibility(coupling))
        v, nodes, t = small_lattice.cell_volume, grid.nodes, coupling.kernels

        def close(got, ref):
            return np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

        for k in range(K):
            co, counter = bath.rows(coupling, k)
            for l in range(K):
                pole = 1.0 / (nodes[k] - nodes[l] + 1j * bath.eta)
                assert close(co[l], pole * v * bath.pole_coeff[k] @ t[l].T)
                anti = -1.0 / (nodes[k] + nodes[l])
                assert close(counter[l], anti * v * bath.pole_coeff[k] @ t[l].conj().T)
            assert close(bath.delta_row(coupling, k), v * bath.delta_coeff[k] @ t[k].T)


class TestCanonicalIdentity:
    def test_machine_exact(self, bath_setup):
        lat, grid, coupling, st, chi, bath = bath_setup
        assert verify_bath_canonical(bath, coupling) <= 1e-12

    def test_perturbed_coefficient_flagged(self, bath_setup):
        lat, grid, coupling, st, chi, bath = bath_setup
        res = verify_bath_canonical(bath.perturbed_delta(1.1), coupling)
        assert res == pytest.approx(1.1**2 - 1.0, rel=1e-6)

    def test_single_site_scalar_cancellation(self, single_site):
        grid = FrequencyGrid.midpoint(3, 3.0)
        coupling = scalar_coupling(single_site, grid, 0.8)
        bath = bath_coefficients(coupling, Susceptibility(coupling))
        assert verify_bath_canonical(bath, coupling) <= 1e-13


class TestIndependence:
    def test_residuals_converge(self, small_lattice):
        vals = []
        for K in (12, 24):
            grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
            coupling = coupling_from_lagrangian(builtin_model("local_lorentz", small_lattice, grid))
            st = structure_tensor(coupling)
            bath = bath_coefficients(coupling, Susceptibility(coupling))
            vals.append(verify_bath_independence(bath, coupling, st))
        assert vals[0]["polarization"] / vals[1]["polarization"] >= 1.7
        assert vals[0]["momentum"] / vals[1]["momentum"] >= 1.5

    def test_two_routes_agree(self, bath_setup):
        lat, grid, coupling, st, chi, bath = bath_setup
        report = verify_bath_independence(bath, coupling, st)
        assert report["route_agreement"] <= 1e-10

    @pytest.mark.parametrize("K", [4, 16])
    def test_form_route_runs_once(self, small_lattice, monkeypatch, K):
        # the form-commutator route is only the node-0 cross-check, whatever K
        import dampol.bath as bath_mod
        calls = {"bath_mode_form": 0, "commutator": 0}

        def counting(name):
            inner = getattr(bath_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(bath_mod, name, counting(name))
        grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
        coupling = coupling_from_lagrangian(builtin_model("local_lorentz", small_lattice, grid))
        bath = bath_coefficients(coupling, Susceptibility(coupling))
        report = verify_bath_independence(bath, coupling, structure_tensor(coupling))
        assert calls == {"bath_mode_form": 1, "commutator": 1}
        assert set(report) == {"polarization", "momentum", "route_agreement"}

    def test_bath_mode_commutes_weakly(self, bath_setup):
        # a single sanity point: the commutator with the polarization is much
        # smaller than the generic mode-polarization commutator scale
        from dampol.fields import commutator, medium_polarization_form, medium_mode_form
        lat, grid, coupling, st, chi, bath = bath_setup
        k = grid.n_nodes // 2
        cb = bath_mode_form(bath, coupling, k)
        p = medium_polarization_form(coupling)
        raw = commutator(medium_mode_form(coupling, k), p).norm()
        assert commutator(cb, p).norm() <= 0.2 * raw


class TestHamiltonianForms:
    def test_weak_equivalence_converges(self, small_lattice):
        vals = []
        for K in (8, 16):
            grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
            coupling = coupling_from_lagrangian(builtin_model("local_lorentz", small_lattice, grid))
            st = structure_tensor(coupling)
            chi = Susceptibility(coupling)
            bath = bath_coefficients(coupling, chi)
            ham = assemble_hamiltonian(coupling, st)
            vals.append(hamiltonian_equivalence(coupling, st, bath, ham))
        assert vals[0]["hermiticity_defect"] <= 1e-12
        assert vals[0]["weak"] / vals[1]["weak"] >= 1.8

    def test_bath_form_field_sector_exact(self, bath_setup):
        lat, grid, coupling, st, chi, bath = bath_setup
        ham = assemble_hamiltonian(coupling, st)
        ham2 = assemble_bath_hamiltonian(coupling, st, bath, ham)
        fs = slice(0, 2 * ham.mt)
        ms = slice(2 * ham.mt, ham.dim)
        diff = ham2.h - ham.h
        assert np.linalg.norm(diff[fs, fs]) <= 1e-12
        assert np.linalg.norm(diff[fs, ms]) <= 1e-12

    def test_local_model_selfenergy_site_diagonal(self, bath_setup):
        lat, grid, coupling, st, chi, bath = bath_setup
        se = polarization_selfenergy_kernel(coupling, st)
        offsite = se.mat.copy()
        for s in range(lat.n_sites):
            offsite[3 * s: 3 * s + 3, 3 * s: 3 * s + 3] = 0.0
        assert np.linalg.norm(offsite) <= 1e-12 * np.linalg.norm(se.mat)

    def test_nonlocal_model_selfenergy_has_offsite_parts(self, small_lattice, grid12):
        coupling = coupling_from_lagrangian(
            builtin_model("gaussian_nonlocal", small_lattice, grid12, {"corr_length": 0.9}))
        st = structure_tensor(coupling)
        se = polarization_selfenergy_kernel(coupling, st)
        offsite = se.mat.copy()
        for s in range(small_lattice.n_sites):
            offsite[3 * s: 3 * s + 3, 3 * s: 3 * s + 3] = 0.0
        assert np.linalg.norm(offsite) > 1e-6 * np.linalg.norm(se.mat)


class TestBathModeAlgebra:
    def _smeared_deviation(self, K):
        lat = build_lattice(2, 1.0)
        grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
        coupling = coupling_from_lagrangian(builtin_model("local_lorentz", lat, grid))
        bath = bath_coefficients(coupling, Susceptibility(coupling))
        from dampol.fields import commutator
        w = grid.weights
        forms = [bath_mode_form(bath, coupling, k) for k in range(K)]
        dev = np.zeros((lat.dim, lat.dim), dtype=complex)
        dev_cc = np.zeros_like(dev)
        for k in range(K):
            for l in range(K):
                c = commutator(forms[k], forms[l].dagger()).mat
                if k == l:
                    c = c - np.eye(lat.dim) / lat.cell_volume / w[k]
                dev += w[k] * w[l] * c
                dev_cc += w[k] * (w[l] * grid.nodes[l] / grid.omega_max) \
                    * commutator(forms[k], forms[l]).mat
        scale = np.sum(w) * np.sqrt(lat.dim) / lat.cell_volume * lat.cell_volume
        return np.linalg.norm(dev) / scale, np.linalg.norm(dev_cc) / scale

    def test_canonical_pair_deviation_shrinks(self):
        # weak-form deviation of [Cb, Cb^dag] from the node delta, and of
        # [Cb, Cb] from zero, both fall under refinement
        coarse = self._smeared_deviation(12)
        fine = self._smeared_deviation(24)
        assert fine[0] < coarse[0] / 1.4
        assert fine[1] < coarse[1] / 1.4
