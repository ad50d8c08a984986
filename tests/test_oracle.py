import numpy as np
import pytest

from dampol.constants import HBAR
from dampol.errors import DampolError
from dampol.coupling import (
    CouplingTensor,
    StructureTensor,
    builtin_model,
    coupling_from_lagrangian,
    structure_tensor,
)
from dampol.diagonalize import fano_residual, mode_coefficients
from dampol.green import sweep_at_nodes
from dampol.lattice import FrequencyGrid, TensorKernel, build_lattice
from dampol.oracle import (
    QuadraticHamiltonian,
    assemble_hamiltonian,
    diagonal_form_check,
    heisenberg_residual,
    mode_rows,
    symplectic_spectrum,
)
from dampol.susceptibility import Susceptibility

from test_coupling import scalar_coupling


@pytest.fixture(scope="module")
def lorentz_setup():
    lat = build_lattice(2, 1.0)
    grid = FrequencyGrid.midpoint(10, 3.0, eta_factor=1.0)
    coupling = coupling_from_lagrangian(builtin_model("local_lorentz", lat, grid))
    st = structure_tensor(coupling)
    ham = assemble_hamiltonian(coupling, st)
    return lat, grid, coupling, st, ham


class TestAssembly:
    def test_dimensions(self, lorentz_setup):
        lat, grid, coupling, st, ham = lorentz_setup
        mt = lat.transverse_basis.shape[1]
        assert ham.dim == 2 * mt + 2 * grid.n_nodes * lat.dim
        assert mt == 2 * (lat.n_sites - 1) + 3

    def test_hermiticity(self, lorentz_setup):
        lat, grid, coupling, st, ham = lorentz_setup
        assert ham.hermiticity_defect() <= 1e-13

    def test_dagger_index_matches_dense_permutation(self, lorentz_setup):
        lat, grid, coupling, st, ham = lorentz_setup
        rng = np.random.default_rng(5)
        dim = ham.dim
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rand = QuadraticHamiltonian(lattice=lat, grid=grid, h=h, mt=ham.mt)
        x = np.zeros((dim, dim))
        x[rand.slice_a, rand.slice_a] = np.eye(ham.mt)
        x[rand.slice_p, rand.slice_p] = np.eye(ham.mt)
        for k in range(grid.n_nodes):
            x[rand.slice_c(k), rand.slice_cdag(k)] = np.eye(lat.dim)
            x[rand.slice_cdag(k), rand.slice_c(k)] = np.eye(lat.dim)
        rows = rng.standard_normal((lat.dim, dim)) + 1j * rng.standard_normal((lat.dim, dim))
        assert np.array_equal(rand.hc_rows(rows), rows.conj() @ x)
        h_sym = (h + h.T) / 2.0
        adj = (x @ h_sym.conj() @ x).T
        assert rand.hermiticity_defect() == float(np.linalg.norm(adj - h_sym) / np.linalg.norm(h_sym))

    def test_zero_coupling_decouples(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        zero = CouplingTensor.zero(small_lattice, grid)
        st = StructureTensor(kernel=TensorKernel.zero(small_lattice), source=zero)
        ham = assemble_hamiltonian(zero, st)
        # no cross blocks between field and medium sectors
        fs = slice(0, 2 * ham.mt)
        ms = slice(2 * ham.mt, ham.dim)
        assert np.linalg.norm(ham.h[fs, ms]) == 0.0
        assert np.linalg.norm(ham.h[ms, fs]) == 0.0

    def test_coupling_and_quadratic_terms_together(self, small_lattice, lorentz_setup):
        # structural: cross blocks and the quadratic potential term are both
        # present for a coupled model, both absent for the free one
        lat, grid, coupling, st, ham = lorentz_setup
        fs = slice(0, 2 * ham.mt)
        ms = slice(2 * ham.mt, ham.dim)
        assert np.linalg.norm(ham.h[fs, ms]) > 0
        a = ham.slice_a
        curl_energy = lat.cell_volume / 2.0 * lat.transverse_basis.T @ lat.double_curl_matrix \
            @ lat.transverse_basis / lat.cell_volume
        quad_extra = ham.h[a, a] - curl_energy
        assert np.linalg.norm(quad_extra) > 0

    def test_single_site_single_node_entries(self, single_site):
        grid = FrequencyGrid.midpoint(1, 2.0)
        tau = 0.7
        coupling = scalar_coupling(single_site, grid, tau)
        st = structure_tensor(coupling)
        ham = assemble_hamiltonian(coupling, st)
        om, w = grid.nodes[0], grid.weights[0]
        # medium oscillator block: hbar * omega on the diagonal (symmetrized halves)
        cblk = ham.h[ham.slice_cdag(0), ham.slice_c(0)]
        assert np.allclose(cblk, 0.5 * HBAR * om * np.eye(3))
        # bilinear coupling block
        ablk = ham.h[ham.slice_c(0), ham.slice_a]
        expected = 0.5 * HBAR * om * np.sqrt(w) * tau * np.eye(3)
        assert np.allclose(ablk, expected)

    def test_dimension_cap(self, small_lattice):
        grid = FrequencyGrid.midpoint(512, 3.0)
        coupling = CouplingTensor.zero(small_lattice, grid)
        st = StructureTensor(kernel=TensorKernel.zero(small_lattice), source=coupling)
        with pytest.raises(DampolError):
            assemble_hamiltonian(coupling, st)


class TestHeisenberg:
    def test_all_equations_machine_exact(self, lorentz_setup):
        lat, grid, coupling, st, ham = lorentz_setup
        res = heisenberg_residual(ham, coupling, st)
        assert res["potential_rate"] <= 1e-12
        assert res["momentum_rate"] <= 1e-12
        assert res["medium_rate"] <= 1e-12
        assert res["polarization_rate"] <= 1e-12
        assert res["polarization_rate_last_term"] <= 1e-12
        assert res["wave_source"] <= 1e-12

    def test_random_model(self, small_lattice, rng):
        grid = FrequencyGrid.midpoint(6, 4.0)
        from dampol.coupling import random_coupling
        coupling = coupling_from_lagrangian(random_coupling(small_lattice, grid, rng))
        st = structure_tensor(coupling)
        ham = assemble_hamiltonian(coupling, st)
        res = heisenberg_residual(ham, coupling, st)
        assert max(res.values()) <= 1e-11

    def test_canonical_pair_via_rows(self, lorentz_setup):
        from dampol.oracle import _momentum_density_rows, _polarization_rows
        lat, grid, coupling, st, ham = lorentz_setup
        u_p = _polarization_rows(ham, coupling)
        u_w = _momentum_density_rows(ham, coupling, st)
        comm = u_w @ ham.commutation_matrix @ u_p.T
        expected = -1j * HBAR * np.eye(lat.dim) / lat.cell_volume
        assert np.allclose(comm, expected, atol=1e-12)
        self_comm = u_p @ ham.commutation_matrix @ u_p.T
        assert np.linalg.norm(self_comm) <= 1e-12


class TestDiagonalForm:
    def test_zero_coupling_exact(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        zero = CouplingTensor.zero(small_lattice, grid)
        st = StructureTensor(kernel=TensorKernel.zero(small_lattice), source=zero)
        ham = assemble_hamiltonian(zero, st)
        modes = mode_coefficients(zero, sweep_at_nodes(Susceptibility(zero), side=-1))
        assert diagonal_form_check(ham, modes) <= 1e-13

    def test_matches_kernel_route_within_factor_three(self, lorentz_setup):
        lat, grid, coupling, st, ham = lorentz_setup
        modes = mode_coefficients(coupling, sweep_at_nodes(Susceptibility(coupling), side=-1))
        oracle_res = diagonal_form_check(ham, modes)
        fano = fano_residual(modes, coupling, st)
        peak = fano.max_residual()
        assert oracle_res <= 3.0 * peak
        assert oracle_res >= peak / 3.0

    def test_residual_converges(self):
        lat = build_lattice(2, 1.0)
        vals = []
        for K in (8, 16):
            grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
            coupling = coupling_from_lagrangian(builtin_model("local_lorentz", lat, grid))
            st = structure_tensor(coupling)
            ham = assemble_hamiltonian(coupling, st)
            modes = mode_coefficients(coupling, sweep_at_nodes(Susceptibility(coupling), side=-1))
            vals.append(diagonal_form_check(ham, modes))
        assert vals[0] / vals[1] >= 1.5


class TestSpectrum:
    def test_real_positive_spectrum(self, lorentz_setup):
        # positive away from the three structural zero modes of the flat
        # uniform-potential direction (six eigenvalues in Jordan pairs)
        lat, grid, coupling, st, ham = lorentz_setup
        spec = symplectic_spectrum(ham)
        assert spec["max_imag_rel"] <= 1e-9
        assert spec["n_zero_modes"] == 6
        assert spec["min_positive"] > 0
        assert spec["n_negative"] == spec["n_positive"] == (ham.dim - 6) // 2

    def test_mode_rows_shape(self, lorentz_setup):
        lat, grid, coupling, st, ham = lorentz_setup
        modes = mode_coefficients(coupling, sweep_at_nodes(Susceptibility(coupling), side=-1))
        rows = mode_rows(ham, modes, 0)
        assert rows.shape == (lat.dim, ham.dim)
