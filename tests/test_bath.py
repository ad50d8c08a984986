import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from dampol.constants import EPS0, HBAR
from dampol.errors import SingularOperatorError
from dampol.coupling import (
    builtin_model,
    coupling_from_lagrangian,
    structure_tensor,
)
from dampol import bath as bath_module
from dampol.bath import (
    INVERTIBILITY_RTOL,
    assemble_bath_hamiltonian,
    bath_coefficients,
    bath_mode_form,
    hamiltonian_equivalence,
    polarization_selfenergy_kernel,
    require_invertible,
    verify_bath_canonical,
    verify_bath_independence,
    verify_linkage,
)
from dampol.fields import medium_polarization_form
from dampol.lattice import FrequencyGrid, build_lattice, frobenius_cond
from dampol.oracle import assemble_hamiltonian
from dampol.susceptibility import Susceptibility, chi_stack

from reference import blocks, coupling_from_real, from_kernels, gram_stack, random_coupling, sites
from test_coupling import scalar_coupling, site_kernels
from test_fields import medium_mode_form, site_commutator
from test_oracle import embed


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
        assert np.allclose(sites(bath.layout, bath.delta_blocks[0]), np.eye(3) / tau)
        chi_up = sites(chi.layout, chi_stack(coupling, [grid.nodes[0] + 1j * grid.eta]))[0, 0, 0]
        assert np.allclose(sites(bath.layout, bath.pole_blocks[0]), (HBAR / EPS0) * tau / chi_up * np.eye(3))

    def test_linkage_definitional(self, bath_setup):
        lat, grid, coupling, st, chi, bath = bath_setup
        assert verify_linkage(bath, coupling, chi) <= 1e-12

    def test_singular_coupling_rejected(self, single_site):
        grid = FrequencyGrid.midpoint(2, 2.0)
        kern = np.zeros((2, 3, 3), dtype=complex)
        kern[0] = np.diag([1.0, 1.0, 0.0])
        kern[1] = np.eye(3)
        coupling = from_kernels(single_site, grid, kern)
        with pytest.raises(SingularOperatorError) as err:
            bath_coefficients(coupling, Susceptibility(coupling))
        assert err.value.node == 0

    @pytest.mark.parametrize("coupling_node, chi_node", [(1, None), (None, 2), (2, 1), (1, 1)])
    def test_first_singular_node_named(self, single_site, coupling_node, chi_node):
        # the batched check names the node and cond that the per-node loop,
        # coupling kernel before susceptibility at each node, would name
        grid = FrequencyGrid.midpoint(4, 2.0)
        kern = np.stack([np.diag([1.0, 1.2, 0.8]) + 0.1j * k for k in range(4)])
        if coupling_node is not None:
            kern[coupling_node] = np.diag([1.0, 1.0, 0.0])
        coupling = from_kernels(single_site, grid, kern)
        chi = Susceptibility(coupling)
        if chi_node is not None:
            # remove one direction of chi at that node: rank d - 1 up to round-off
            up = sites(chi.layout, chi.above_cut_blocks[chi_node])
            u = np.linalg.svd(up)[2][0].conj()
            chi = chi.perturbed(blocks(single_site.one_block, -up @ np.outer(u, u.conj())))
        what, node, cond = first_singular_reference(coupling, chi)
        with pytest.raises(SingularOperatorError, match=f"^{what} not invertible at node {node} ") as err:
            bath_coefficients(coupling, chi)
        assert err.value.node == node
        assert err.value.cond == pytest.approx(cond, rel=1e-12)


def first_singular_reference(coupling, chi):
    """The per-node invertibility loop the batched check replaced: (what, node, cond)."""
    for k in range(coupling.grid.n_nodes):
        for what, mat in (("coupling kernel", site_kernels(coupling)[k]),
                          ("susceptibility", sites(chi.layout, chi.above_cut_blocks[k]))):
            sv = np.linalg.svd(mat, compute_uv=False)
            if sv[-1] <= INVERTIBILITY_RTOL * sv[0] or sv[0] == 0.0:
                return what, k, sv[0] / sv[-1] if sv[-1] > sv[0] / np.finfo(float).max else np.inf
    raise AssertionError("every node invertible")


def invertibility_verdict(layout, named):
    """(node, message, cond) of the `SingularOperatorError` that `require_invertible` raises, or None."""
    try:
        require_invertible(layout, *((what, stack, layout.inv_or_nan(stack)) for what, stack in named))
    except SingularOperatorError as err:
        return err.node, str(err), err.cond
    return None


def unscreened(monkeypatch):
    """The check with no node cleared by its Frobenius bound: every node takes the batched SVD."""
    monkeypatch.setattr(bath_module, "frobenius_cond", lambda a, a_inv: np.full(len(a), np.inf))


class TestInvertibilityScreen:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st_.integers(0, 2**32 - 1), low=st_.sampled_from([-9.5, -10.2, -12.0]),
           scale=st_.sampled_from([1.0, 8.795355955080751e-240, 1e200]),
           zero=st_.sampled_from([None, None, "block", "node"]))
    def test_sweep_gives_the_unscreened_verdict(self, seed, low, scale, zero):
        # n = 2: node k of each stack is the identity but for one block, a
        # random orthogonal pair around diag(1, 1, s) with s from 10^low to 1e-8,
        # across both the screen (kappa_F about 5 / s against 5e9) and the gate
        # (kappa_2 = 1 / s against 1e10), optionally with an exactly singular
        # block or a zero node; at every scale, the screened check raises for
        # the node, with the message and cond, that the unscreened one does
        layout = build_lattice(2, 1.0).sector_layout
        rng = np.random.default_rng(seed)
        K = 12

        def sweep():
            stack = np.tile(layout.identity, (K, 1)) + 0j
            part = layout.block_view(stack)
            for k, s in enumerate(10.0 ** rng.uniform(low, -8.0, K)):
                q1, q2 = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
                part[k, rng.integers(8)] = q1 @ np.diag([1.0, 1.0, s]) @ q2
            if zero == "block":
                part[rng.integers(K), rng.integers(8)] = np.diag([1.0, 1.0, 0.0])
            elif zero == "node":
                stack[rng.integers(K)] = 0.0
            return scale * stack

        named = [("coupling kernel", sweep()), ("susceptibility", sweep())]
        got = invertibility_verdict(layout, named)
        with pytest.MonkeyPatch.context() as mp:
            unscreened(mp)
            assert invertibility_verdict(layout, named) == got
        # against the per-node loop on the site operators
        def singular(mat):
            sv = np.linalg.svd(mat, compute_uv=False)
            return sv[-1] <= INVERTIBILITY_RTOL * sv[0] or sv[0] == 0.0

        first = next(((k, what) for k in range(K) for what, stack in named if singular(sites(layout, stack[k]))),
                     None)
        if first is None:
            assert got is None
        else:
            k, what = first
            assert got[0] == k and got[1].startswith(f"{what} not invertible at node {k} ")

    def test_tiny_strength_screened_without_warnings(self, single_site, monkeypatch):
        # n = 1, K = 1 at strength 8.8e-240: the coupling's inverse has entries
        # near 1e240, whose squares overflow unscaled; under the suite's warning
        # filter its bound is finite and clears it, and chi, which underflows
        # to zero, is named as the unscreened check names it
        grid = FrequencyGrid.midpoint(1, 3.0)
        coupling = coupling_from_lagrangian(builtin_model(
            "local_lorentz", single_site, grid, {"strength": 8.795355955080751e-240}))
        chi = Susceptibility(coupling)
        layout, t = coupling.layout, coupling.flat
        assert frobenius_cond(t, layout.inv_or_nan(t))[0] <= 0.5 / INVERTIBILITY_RTOL
        named = [("coupling kernel", t), ("susceptibility", chi.above_cut_blocks)]
        got = invertibility_verdict(layout, named)
        assert got[:2] == (0, "susceptibility not invertible at node 0 (singular-value ratio 0.000e+00 at q = (0, 0, 0))")
        unscreened(monkeypatch)
        assert invertibility_verdict(layout, named) == got


class TestRowBuilder:
    def test_rows_match_pair_formulas(self, small_lattice):
        K = 8
        grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
        sectors = coupling_from_lagrangian(builtin_model("local_lorentz", small_lattice, grid))
        v, nodes = small_lattice.cell_volume, grid.nodes

        def close(got, ref):
            return np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

        # in the sector layout, and in the dense layout a leaking run takes
        for coupling in (sectors, sectors.relaid(small_lattice.one_block)):
            bath, layout, t = bath_coefficients(coupling, Susceptibility(coupling)), coupling.layout, site_kernels(coupling)
            delta_coeff, pole_coeff = (sites(layout, b) for b in (bath.delta_blocks, bath.pole_blocks))
            for k in range(K):
                co, counter = (sites(layout, r) for r in bath.rows(k))
                for l in range(K):
                    pole = 1.0 / (nodes[k] - nodes[l] + 1j * bath.grid.eta)
                    assert close(co[l], pole * v * pole_coeff[k] @ t[l].T)
                    anti = -1.0 / (nodes[k] + nodes[l])
                    assert close(counter[l], anti * v * pole_coeff[k] @ t[l].conj().T)
                delta = sites(layout, bath.delta_row(k))
                assert close(delta, v * delta_coeff[k] @ t[k].T)


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


def independence_reference(bath, coupling):
    """The per-node loop `verify_bath_independence` replaced: four node sums
    per node, each its own product, and the node-0 form-commutator route."""
    lattice, grid = coupling.lattice, coupling.grid
    K, d, v = grid.n_nodes, lattice.dim, lattice.cell_volume
    w, nodes = grid.weights, grid.nodes
    dens = v * gram_stack(site_kernels(coupling))
    dens_flat = dens.reshape(K, d * d)
    delta_coeff, pole_coeff = (sites(bath.layout, b) for b in (bath.delta_blocks, bath.pole_blocks))
    num_p = num_w = den_p = den_w = 0.0
    for k in range(K):
        res = w / (nodes[k] - nodes + 1j * bath.grid.eta)
        anti = w / (nodes[k] + nodes)
        sums = (np.stack([res, anti, res * nodes, anti * nodes]) @ dens_flat).reshape(4, d, d)
        base = v * delta_coeff[k] @ dens[k]
        pol = base + v * pole_coeff[k] @ (sums[0] - sums[1].conj())
        mom = nodes[k] * base + v * pole_coeff[k] @ (sums[2] + sums[3].conj())
        num_p += w[k] * np.linalg.norm(pol) ** 2
        den_p += w[k] * np.linalg.norm(base) ** 2
        num_w += w[k] * np.linalg.norm(mom) ** 2
        den_w += w[k] * (nodes[k] * np.linalg.norm(base)) ** 2
        if k == 0:
            pol_0 = pol
    comm_p = site_commutator(bath_mode_form(bath, 0),
                             medium_polarization_form(coupling)).mat
    agree_p = np.linalg.norm(comm_p - 1j * HBAR * pol_0) / np.linalg.norm(comm_p)
    return {"polarization": np.sqrt(num_p / den_p), "momentum": np.sqrt(num_w / den_w),
            "route_agreement": agree_p}


class TestIndependence:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n_nodes=st_.integers(1, 6), seed=st_.integers(0, 2**32 - 1))
    def test_matches_per_node_loop(self, single_site, n_nodes, seed):
        # a Lagrangian coupling, and complex kernels whose spectral densities
        # have the nonzero imaginary node sum that a sum rule would cancel
        grid = FrequencyGrid.midpoint(n_nodes, 3.0)
        rng = np.random.default_rng(seed)
        lagrangian = coupling_from_real(random_coupling(single_site, grid, rng))
        shape = (n_nodes, single_site.dim, single_site.dim)
        violator = from_kernels(single_site, grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for coupling in (lagrangian, violator):
            bath = bath_coefficients(coupling, Susceptibility(coupling))
            got = verify_bath_independence(bath, coupling, structure_tensor(coupling))
            ref = independence_reference(bath, coupling)
            assert got["polarization"] == pytest.approx(ref["polarization"], rel=1e-12)
            assert got["momentum"] == pytest.approx(ref["momentum"], rel=1e-12)
            assert got["route_agreement"] == pytest.approx(ref["route_agreement"],
                                                           rel=1e-12, abs=1e-15)

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
        lat, grid, coupling, st, chi, bath = bath_setup
        k = grid.n_nodes // 2
        cb = bath_mode_form(bath, k)
        p = medium_polarization_form(coupling)
        raw = site_commutator(medium_mode_form(coupling, k), p).norm()
        assert site_commutator(cb, p).norm() <= 0.2 * raw


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
            assert assemble_bath_hamiltonian(coupling, st, bath).hermiticity_defect() <= 1e-12
        assert vals[0]["weak"] / vals[1]["weak"] >= 1.8

    def test_bath_form_field_sector_exact(self, bath_setup):
        lat, grid, coupling, st, chi, bath = bath_setup
        ham = assemble_hamiltonian(coupling, st)
        ham2 = assemble_bath_hamiltonian(coupling, st, bath)
        assert [g.tolist() for g in ham2.groups] == [g.tolist() for g in ham.groups]
        fs = slice(0, 2 * ham.mt)
        ms = slice(2 * ham.mt, ham.dim)
        diff = embed(ham2, ham2.blocks) - embed(ham, ham.blocks)
        assert np.linalg.norm(diff[fs, fs]) <= 1e-12
        assert np.linalg.norm(diff[fs, ms]) <= 1e-12

    def test_local_model_selfenergy_site_diagonal(self, bath_setup):
        lat, grid, coupling, st, chi, bath = bath_setup
        se = sites(st.layout, polarization_selfenergy_kernel(coupling, st))
        offsite = se.copy()
        for s in range(lat.n_sites):
            offsite[3 * s: 3 * s + 3, 3 * s: 3 * s + 3] = 0.0
        assert np.linalg.norm(offsite) <= 1e-12 * np.linalg.norm(se)

    def test_nonlocal_model_selfenergy_has_offsite_parts(self, small_lattice, grid12):
        coupling = coupling_from_lagrangian(
            builtin_model("gaussian_nonlocal", small_lattice, grid12, {"corr_length": 0.9}))
        st = structure_tensor(coupling)
        se = sites(st.layout, polarization_selfenergy_kernel(coupling, st))
        offsite = se.copy()
        for s in range(small_lattice.n_sites):
            offsite[3 * s: 3 * s + 3, 3 * s: 3 * s + 3] = 0.0
        assert np.linalg.norm(offsite) > 1e-6 * np.linalg.norm(se)


class TestBathModeAlgebra:
    def _smeared_deviation(self, K):
        lat = build_lattice(2, 1.0)
        grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
        coupling = coupling_from_lagrangian(builtin_model("local_lorentz", lat, grid))
        bath = bath_coefficients(coupling, Susceptibility(coupling))
        w = grid.weights
        forms = [bath_mode_form(bath, k) for k in range(K)]
        dev = np.zeros((lat.dim, lat.dim), dtype=complex)
        dev_cc = np.zeros_like(dev)
        for k in range(K):
            for l in range(K):
                c = site_commutator(forms[k], forms[l].dagger()).mat
                if k == l:
                    c = c - np.eye(lat.dim) / lat.cell_volume / w[k]
                dev += w[k] * w[l] * c
                dev_cc += w[k] * (w[l] * grid.nodes[l] / grid.omega_max) \
                    * site_commutator(forms[k], forms[l]).mat
        scale = np.sum(w) * np.sqrt(lat.dim) / lat.cell_volume * lat.cell_volume
        return np.linalg.norm(dev) / scale, np.linalg.norm(dev_cc) / scale

    def test_canonical_pair_deviation_shrinks(self):
        # weak-form deviation of [Cb, Cb^dag] from the node delta, and of
        # [Cb, Cb] from zero, both fall under refinement
        coarse = self._smeared_deviation(12)
        fine = self._smeared_deviation(24)
        assert fine[0] < coarse[0] / 1.4
        assert fine[1] < coarse[1] / 1.4
