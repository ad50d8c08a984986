from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from dampol import lattice, oracle
from dampol.bath import bath_coefficients
from dampol.cli import Pipeline, ScenarioConfig, stage_oracle
from dampol.constants import HBAR
from dampol.errors import DampolError
from dampol.coupling import (
    StructureTensor,
    builtin_model,
    coupling_from_lagrangian,
    structure_tensor,
)
from dampol.diagonalize import fano_residual, mode_coefficients, node_families
from dampol.fields import medium_momentum_form, medium_polarization_form
from dampol.green import node_propagator
from dampol.lattice import FrequencyGrid, build_lattice
from dampol.oracle import (
    QuadraticHamiltonian,
    assemble_hamiltonian,
    canonical_dim,
    diagonal_form_check,
    heisenberg_residual,
    mode_frequencies,
    mode_rows,
    symplectic_spectrum,
)
from dampol.susceptibility import Susceptibility

from conftest import traced_peak
from reference import (
    basis,
    coupling_from_real,
    double_curl_matrix,
    random_coupling,
    sites,
    transverse_basis,
    zero_coupling,
)
from test_coupling import scalar_coupling, site_kernels
from test_fields import medium_mode_form

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def lorentz_setup():
    lat = build_lattice(2, 1.0)
    grid = FrequencyGrid.midpoint(10, 3.0, eta_factor=1.0)
    coupling = coupling_from_lagrangian(builtin_model("local_lorentz", lat, grid))
    st = structure_tensor(coupling)
    ham = assemble_hamiltonian(coupling, st)
    return lat, grid, coupling, st, ham


# -- the canonical slots (a, p, x, y) in order, as the dense references index them


def canonical_slices(ham):
    """The a, p, x and y slot ranges, from mt, K and d: the x and y slots node-major, node k's at k d."""
    mt, n = ham.mt, ham.grid.n_nodes * ham.lattice.dim
    return slice(0, mt), slice(mt, 2 * mt), slice(2 * mt, 2 * mt + n), slice(2 * mt + n, 2 * mt + 2 * n)


# -- the ladder basis zeta = (a, p, c, c^dag), kept here as the reference -------
# The x and y slots of the quadrature basis hold c and c^dag in the ladder basis.


def ladder_slices(ham, k):
    """The slots of node k's c and c^dag, which are its x and y slots."""
    d, (_, _, x, y) = ham.lattice.dim, canonical_slices(ham)
    x0, y0 = x.start + k * d, y.start + k * d
    return slice(x0, x0 + d), slice(y0, y0 + d)


def ladder_unitary(ham):
    """Dense U with zeta = U xi: a and p kept, c = (x + i y)/sqrt(2), c^dag = (x - i y)/sqrt(2)."""
    _, _, x, y = canonical_slices(ham)
    s = np.sqrt(0.5) * np.eye(x.stop - x.start)
    u = np.eye(ham.dim, dtype=complex)
    u[x, x], u[x, y] = s, 1j * s
    u[y, x], u[y, y] = s, -1j * s
    return u


def ladder_dagger_index(ham):
    """The involution perm with zeta^dag = zeta[perm]: a and p Hermitian, c <-> c^dag."""
    _, _, x, y = canonical_slices(ham)
    return np.r_[0:x.start, y, x]


def ladder_commutation(ham):
    """Sigma_zeta with [zeta_i, zeta_j] = Sigma_ij: i hbar on (a, p), 1 on (c, c^dag)."""
    sig = np.zeros((ham.dim, ham.dim), dtype=complex)
    a, p, x, y = canonical_slices(ham)
    sig[a, p] = 1j * HBAR * np.eye(ham.mt)
    sig[p, a] = -1j * HBAR * np.eye(ham.mt)
    n = x.stop - x.start
    sig[x, y] = np.eye(n)
    sig[y, x] = -np.eye(n)
    return sig


def commutation(ham):
    """Dense Sigma with [xi_i, xi_j] = Sigma_ij: i hbar on (a, p), i on (x, y)."""
    sig = np.zeros((ham.dim, ham.dim), dtype=complex)
    a, p, x, y = canonical_slices(ham)
    for first, second, value in ((a, p, 1j * HBAR), (x, y, 1j)):
        eye = np.eye(first.stop - first.start)
        sig[first, second] = value * eye
        sig[second, first] = -value * eye
    return sig


def close(got, ref, rtol):
    return np.linalg.norm(got - ref) <= rtol * np.linalg.norm(ref)


# -- the dense reference: one dim x dim matrix over the canonical slots ---------


def embed(ham, blocks):
    """Per-group blocks (of h or of R) placed in one dense dim x dim matrix."""
    out = np.zeros((ham.dim, ham.dim), dtype=blocks[0].dtype)
    for g, b in zip(ham.groups, blocks):
        out[np.ix_(g, g)] = b
    return out


def dense(ham):
    """The dense symmetric coefficient matrix of a form."""
    return embed(ham, ham.symmetric_blocks())


def one_block(lat, grid, h):
    """A form stored as one block over every canonical slot."""
    return QuadraticHamiltonian(layout=lat.one_block, grid=grid, mt=lat.n_transverse,
                                groups=(np.arange(h.shape[0]),), blocks=[h], sector_leak=np.inf)


def dense_rows(ham, rows):
    """The (..., d, dim) site rows of (..., E) canonical rows.

    Each group's (b, G) block has the rows of its block's basis columns:
    they are rotated back to sites and placed in the group's slots.
    """
    rot = basis(ham.layout)
    out = np.zeros(rows.shape[:-1] + (ham.lattice.dim, ham.dim), dtype=complex)
    first = 0
    for group, view in zip(ham.groups, ham.row_views(rows)):
        b = view.shape[-2]
        out[..., group] = rot[:, first:first + b] @ view
        first += b
    return out


def momentum_rotation(ham):
    """Orthogonal Q with site-ordered rows @ Q the rows in the form's slot order.

    Each node's x and y slots run over the momentum basis: the d sites of
    a slot block are rotated by kron(F, I_3); a and p are kept.
    """
    q = np.eye(ham.dim)
    ladder = slice(2 * ham.mt, ham.dim)
    f3 = np.kron(ham.lattice.momentum_basis, np.eye(3))
    q[ladder, ladder] = np.kron(np.eye(2 * ham.grid.n_nodes), f3)
    return q


class TestAssembly:
    def test_dimensions(self, lorentz_setup):
        lat, grid, coupling, st, ham = lorentz_setup
        mt = lat.n_transverse
        assert ham.dim == 2 * mt + 2 * grid.n_nodes * lat.dim
        assert mt == 2 * (lat.n_sites - 1) + 3

    def test_hermiticity(self, lorentz_setup):
        lat, grid, coupling, st, ham = lorentz_setup
        assert ham.hermiticity_defect() <= 1e-13

    def test_stored_form_is_its_own_symmetric_part(self, lorentz_setup):
        lat, grid, coupling, st, ham = lorentz_setup
        assert all(s is b for s, b in zip(ham.symmetric_blocks(), ham.blocks))
        h = np.arange(ham.dim**2, dtype=complex).reshape(ham.dim, ham.dim)
        rand = one_block(lat, grid, h)
        assert np.array_equal(rand.symmetric_blocks()[0], (h + h.T) / 2.0)

    def test_symmetric_part_and_defect_taken_once_per_stage(self, monkeypatch):
        # the stage reads the symmetric part five times and the defect twice
        counts = dict.fromkeys(("_symmetric", "_defect"), 0)
        for name in counts:
            prop = QuadraticHamiltonian.__dict__[name]

            def counted(ham, func=prop.func, name=name):
                counts[name] += 1
                return func(ham)
            monkeypatch.setattr(prop, "func", counted)
        stage_oracle(oracle_pipeline("local_lorentz", 2, 4))
        assert counts == {"_symmetric": 1, "_defect": 1}

    def test_a_change_drops_the_symmetric_part_and_defect(self, lorentz_setup):
        lat, grid, coupling, st, ham = lorentz_setup
        h = np.arange(ham.dim**2, dtype=float).reshape(ham.dim, ham.dim)
        form = one_block(lat, grid, (h + h.T).astype(complex))
        assert form.hermiticity_defect() == 0.0 and form.symmetric_blocks()[0] is form.blocks[0]
        left, right = np.random.default_rng(2).standard_normal((2, 2, form.row_size)) + 0j
        form.accumulate(right, right, 1j)   # a symmetric imaginary part
        assert form.hermiticity_defect() > 0.0
        form.accumulate(left, right, 1.0)   # an asymmetric real part
        assert np.array_equal(form.symmetric_blocks()[0], (form.blocks[0] + form.blocks[0].T) / 2.0)

    def test_hermiticity_defect_matches_permuted_adjoint(self, lorentz_setup):
        # the ladder-basis definition: the adjoint of zeta^T q zeta has the
        # coefficients conj(q)^T with the c and c^dag slots swapped
        lat, grid, coupling, st, ham = lorentz_setup
        rng = np.random.default_rng(5)
        dim, u, perm = ham.dim, ladder_unitary(ham), ladder_dagger_index(ham)
        for noise in (1.0, 1e-6):
            x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = x + x.conj().T + noise * y
            rand = one_block(lat, grid, h)
            h_zeta = u.conj() @ dense(rand) @ u.conj().T   # h_xi = U^T h_zeta U
            adj = h_zeta[np.ix_(perm, perm)].conj().T
            ref = np.linalg.norm(adj - h_zeta) / np.linalg.norm(h_zeta)
            assert abs(rand.hermiticity_defect() - ref) <= 1e-9 * ref
        # the adjoint of a row set: conjugate and swap in the ladder basis, conjugate here
        rows = rng.standard_normal((lat.dim, dim)) + 1j * rng.standard_normal((lat.dim, dim))
        assert close((rows @ u).conj(), rows.conj()[:, perm] @ u, 1e-15)

    def test_dynamics_is_the_quadrature_conversion(self, lorentz_setup):
        # R = -i U^dag K_zeta U with K_zeta = 2 Sigma_zeta h_zeta, the real
        # quadrature matrix of the ladder-basis dynamical matrix (Colpa 1978)
        lat, grid, coupling, st, ham = lorentz_setup
        u = ladder_unitary(ham)
        for form in (ham, random_form(lat, grid, np.random.default_rng(8))):
            h_zeta = u.conj() @ dense(form) @ u.conj().T
            ref = -1j * u.conj().T @ (2.0 * ladder_commutation(form) @ h_zeta) @ u
            assert np.linalg.norm(ref.imag) <= 1e-15 * np.linalg.norm(ref)
            assert close(embed(form, form.dynamics()), ref.real, 1e-14)
        sig_xi = u.conj().T @ ladder_commutation(ham) @ u.conj()   # [xi, xi^T] = U^-1 Sigma_zeta U^-T
        assert close(commutation(ham), sig_xi, 1e-15)

    def test_zero_coupling_decouples(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        zero = zero_coupling(small_lattice, grid)
        st = StructureTensor(zero.layout, np.zeros(zero.layout.size, dtype=complex))
        ham = assemble_hamiltonian(zero, st)
        # no cross blocks between field and medium sectors
        fs = slice(0, 2 * ham.mt)
        ms = slice(2 * ham.mt, ham.dim)
        h = dense(ham)
        assert np.linalg.norm(h[fs, ms]) == 0.0
        assert np.linalg.norm(h[ms, fs]) == 0.0

    def test_coupling_and_quadratic_terms_together(self, small_lattice, lorentz_setup):
        # structural: cross blocks and the quadratic potential term are both
        # present for a coupled model, both absent for the free one
        lat, grid, coupling, st, ham = lorentz_setup
        fs = slice(0, 2 * ham.mt)
        ms = slice(2 * ham.mt, ham.dim)
        h = dense(ham)
        assert np.linalg.norm(h[fs, ms]) > 0
        a = canonical_slices(ham)[0]
        curl_energy = lat.cell_volume / 2.0 * transverse_basis(lat).T @ double_curl_matrix(lat) \
            @ transverse_basis(lat) / lat.cell_volume
        quad_extra = h[a, a] - curl_energy
        assert np.linalg.norm(quad_extra) > 0

    def test_single_site_single_node_entries(self, single_site):
        grid = FrequencyGrid.midpoint(1, 2.0)
        tau = 0.7
        coupling = scalar_coupling(single_site, grid, tau)
        st = structure_tensor(coupling)
        ham = assemble_hamiltonian(coupling, st)
        om, w = grid.nodes[0], grid.weights[0]
        a, _, x, y = canonical_slices(ham)
        h = dense(ham)   # one site: the momentum basis is the site itself
        # medium oscillator: hbar omega c^dag c = hbar omega (x^2 + y^2)/2
        assert np.allclose(h[x, x], 0.5 * HBAR * om * np.eye(3))
        assert np.allclose(h[y, y], 0.5 * HBAR * om * np.eye(3))
        assert not np.any(h[x, y])
        # bilinear coupling: hbar omega sqrt(w) tau / 2 on each symmetrized c
        # and c^dag block of the ladder basis; with real tau both land in x
        expected = 0.5 * HBAR * om * np.sqrt(w) * tau * np.eye(3)
        assert np.allclose(h[x, a], np.sqrt(2.0) * expected)
        assert not np.any(h[y, a])

    def test_dimension_cap(self, small_lattice):
        grid = FrequencyGrid.midpoint(512, 3.0)
        coupling = zero_coupling(small_lattice, grid)
        st = StructureTensor(coupling.layout, np.zeros(coupling.layout.size, dtype=complex))
        with pytest.raises(DampolError):
            assemble_hamiltonian(coupling, st)


class TestLadderRows:
    """`ladder_rows` against the per-node ladder-basis formulas each operator had, times U Q.

    U converts the ladder slots to quadratures and Q rotates their sites to
    the momentum basis (`momentum_rotation`).  The rows, stored per group
    in the form's layout basis, are rotated back to site rows first
    (`dense_rows`).
    """

    @pytest.fixture(scope="class", params=["random_n1_K7", "lorentz_n2_K12"])
    def case(self, request):
        if request.param == "random_n1_K7":   # w = 3/7 is not dyadic
            lat, grid = build_lattice(1, 1.0), FrequencyGrid.midpoint(7, 3.0, eta_factor=1.0)
            coupling = coupling_from_real(random_coupling(lat, grid, np.random.default_rng(7), diag_weight=3.0))
        else:
            lat, grid = build_lattice(2, 1.0), FrequencyGrid.midpoint(12, 3.0, eta_factor=1.0)
            coupling = coupling_from_lagrangian(builtin_model("local_lorentz", lat, grid))
        st = structure_tensor(coupling)
        return lat, grid, coupling, st, assemble_hamiltonian(coupling, st)

    def test_polarization_and_momentum(self, case):
        lat, grid, coupling, st, ham = case
        v, finv, t = lat.cell_volume, sites(st.layout, st.inverse), site_kernels(coupling)
        u_p = np.zeros((lat.dim, ham.dim), dtype=complex)
        u_w = np.zeros((lat.dim, ham.dim), dtype=complex)
        for k in range(grid.n_nodes):
            s = np.sqrt(v * grid.weights[k])
            c, cdag = ladder_slices(ham, k)
            u_p[:, c] += -1j * HBAR * s * t[k].T
            u_p[:, cdag] += 1j * HBAR * s * t[k].conj().T
            coeff = -grid.nodes[k] * (v * t[k] @ finv).T
            u_w[:, c] += s * coeff
            u_w[:, cdag] += s * coeff.conj()
        pol, mom = medium_polarization_form(coupling), medium_momentum_form(coupling, st)
        u = ladder_unitary(ham) @ momentum_rotation(ham)
        assert close(dense_rows(ham, ham.ladder_rows(pol.alpha, pol.beta)), u_p @ u, 1e-15)
        assert close(dense_rows(ham, ham.ladder_rows(mom.alpha, mom.beta)), u_w @ u, 1e-15)

    def test_medium_modes(self, case):
        lat, grid, coupling, st, ham = case
        u = ladder_unitary(ham) @ momentum_rotation(ham)
        for k in range(grid.n_nodes):
            old = np.zeros((lat.dim, ham.dim), dtype=complex)
            old[:, ladder_slices(ham, k)[0]] = np.eye(lat.dim) / np.sqrt(
                lat.cell_volume * grid.weights[k])
            cm = medium_mode_form(coupling, k)
            assert close(dense_rows(ham, ham.ladder_rows(cm.alpha, cm.beta)), old @ u, 1e-15)

    def test_bath_rows(self, case):
        lat, grid, coupling, st, ham = case
        bath = bath_coefficients(coupling, Susceptibility(coupling))
        v, w = lat.cell_volume, grid.weights
        u = ladder_unitary(ham) @ momentum_rotation(ham)
        for k in range(grid.n_nodes):
            co, counter = (sites(bath.layout, r) for r in bath.rows(k))
            old = np.zeros((lat.dim, ham.dim), dtype=complex)
            for l in range(grid.n_nodes):
                c, cdag = ladder_slices(ham, l)
                old[:, c] = np.sqrt(v * w[l]) * co[l]
                old[:, cdag] = np.sqrt(v * w[l]) * counter[l]
            got = ham.ladder_rows(*bath.rows(k))
            assert close(dense_rows(ham, got), old @ u, 1e-15)

    def test_mode_rows(self, case):
        lat, grid, coupling, st, ham = case
        prop = node_propagator(Susceptibility(coupling))
        modes = mode_coefficients(prop)
        potential, momentum, res, anti = (sites(modes.layout, f) for f in (
            modes.potential, modes.momentum, modes.resonant, modes.antiresonant))
        v, phi = lat.cell_volume, transverse_basis(lat)
        u = ladder_unitary(ham) @ momentum_rotation(ham)
        a, p = canonical_slices(ham)[:2]
        families = node_families(prop)
        resonant = families[2].copy()
        got = dense_rows(ham, mode_rows(ham, *families))
        for k in range(grid.n_nodes):
            old = np.zeros((lat.dim, ham.dim), dtype=complex)
            old[:, a] = np.sqrt(v) * potential[k] @ phi
            old[:, p] = np.sqrt(v) * momentum[k] @ phi
            for l in range(grid.n_nodes):
                s = np.sqrt(v * grid.weights[l])
                c, cdag = ladder_slices(ham, l)
                old[:, c] += s * res[k, l]
                old[:, cdag] += s * anti[k, l]
            old[:, ladder_slices(ham, k)[0]] += np.eye(lat.dim) / np.sqrt(v * grid.weights[k])
            assert close(got[k], old @ u, 1e-15)
        assert np.array_equal(resonant, families[2])   # the caller's stack is kept


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

    def test_wave_source_flags_a_source_defect(self, lorentz_setup, monkeypatch):
        # the scale is the largest of L A, the second rate and the source, about
        # 18 times the source on this model: a 1e-8 relative defect in the
        # source term alone still shows well above TOL_EXACT = 1e-10
        lat, grid, coupling, st, ham = lorentz_setup
        monkeypatch.setattr(oracle, "MU0", oracle.MU0 * (1.0 + 1e-8))
        assert heisenberg_residual(ham, coupling, st)["wave_source"] > 2e-10

    def test_random_model(self, small_lattice, rng):
        grid = FrequencyGrid.midpoint(6, 4.0)
        coupling = coupling_from_real(random_coupling(small_lattice, grid, rng))
        st = structure_tensor(coupling)
        ham = assemble_hamiltonian(coupling, st)
        res = heisenberg_residual(ham, coupling, st)
        assert max(res.values()) <= 1e-11

    def test_canonical_pair_via_rows(self, lorentz_setup):
        lat, grid, coupling, st, ham = lorentz_setup
        pol, mom = medium_polarization_form(coupling), medium_momentum_form(coupling, st)
        u_p = dense_rows(ham, ham.ladder_rows(pol.alpha, pol.beta))
        u_w = dense_rows(ham, ham.ladder_rows(mom.alpha, mom.beta))
        comm = u_w @ commutation(ham) @ u_p.T
        expected = -1j * HBAR * np.eye(lat.dim) / lat.cell_volume
        assert np.allclose(comm, expected, atol=1e-12)
        self_comm = u_p @ commutation(ham) @ u_p.T
        assert np.linalg.norm(self_comm) <= 1e-12


class TestDiagonalForm:
    def test_zero_coupling_exact(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        zero = zero_coupling(small_lattice, grid)
        st = StructureTensor(zero.layout, np.zeros(zero.layout.size, dtype=complex))
        ham = assemble_hamiltonian(zero, st)
        assert diagonal_form_check(ham, node_propagator(Susceptibility(zero))) <= 1e-13

    def test_matches_kernel_route_within_factor_three(self, lorentz_setup):
        lat, grid, coupling, st, ham = lorentz_setup
        prop = node_propagator(Susceptibility(coupling))
        oracle_res = diagonal_form_check(ham, prop)
        fano = fano_residual(mode_coefficients(prop), coupling, st)
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
            vals.append(diagonal_form_check(ham, node_propagator(Susceptibility(coupling))))
        assert vals[0] / vals[1] >= 1.5


def complex_route(ham):
    """The reference spectrum: the complex eigensolver on K = 2 Sigma h_sym."""
    return np.linalg.eigvals(2.0 * commutation(ham) @ dense(ham)) / HBAR


def complex_route_spectrum(ham):
    """`complex_route` in the return shape of `mode_frequencies`: one group, no leak."""
    return complex_route(ham), 1, 0.0


def dense_route(r):
    """The frequencies of one real eigensolve of a whole R."""
    return 1j * np.linalg.eigvals(r) / HBAR


def off_group(groups, m):
    """The entries of m that couple two different groups."""
    label = np.empty(m.shape[0], dtype=int)
    for i, g in enumerate(groups):
        label[g] = i
    return m[label[:, None] != label[None, :]]


def positive_frequencies(evals, zero_tol=oracle.ZERO_MODE_TOL):
    keep = (evals.real > 0) & (np.abs(evals) > zero_tol * np.max(np.abs(evals)))
    return np.sort(evals.real[keep])


def random_form(lat, grid, rng, dagger_hermitian=True):
    """A random quadratic form on the canonical basis of (lat, grid)."""
    dim = canonical_dim(lat, grid.n_nodes)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if dagger_hermitian:   # the adjoint form has the coefficients conj(x)^T
        x = x + x.conj().T
    return one_block(lat, grid, x)


def same_multiset(a, b, tol):
    """Greedy nearest matching of two eigenvalue lists within tol."""
    rest = list(b)
    for x in a:
        j = int(np.argmin(np.abs(np.asarray(rest) - x)))
        if abs(rest[j] - x) > tol:
            return False
        rest.pop(j)
    return not rest


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
        prop = node_propagator(Susceptibility(coupling))
        rows = mode_rows(ham, *node_families(prop))
        assert rows.shape == (grid.n_nodes, ham.row_size)
        assert [v.shape for v in ham.row_views(rows)] == [
            (grid.n_nodes, 3, g.size) for g in ham.groups]

    @pytest.mark.parametrize("model", ["local_lorentz", "gaussian_nonlocal", "uniaxial_local",
                                       "random_coupling"])
    def test_matches_complex_route(self, small_lattice, model, monkeypatch):
        grid = FrequencyGrid.midpoint(6, 3.0, eta_factor=1.0)
        if model == "random_coupling":
            coupling = coupling_from_real(random_coupling(small_lattice, grid, np.random.default_rng(3)))
        else:
            coupling = coupling_from_lagrangian(builtin_model(model, small_lattice, grid))
        ham = assemble_hamiltonian(coupling, structure_tensor(coupling))
        # the random coupling's positions and momenta couple, so its one block
        # takes the general route; every built-in model's sectors the half-size one
        calls, (evals, _, _) = eigvals_calls(mode_frequencies, ham)
        assert calls == (1 if model == "random_coupling" else 0)
        assert (position_momentum_norm(ham) > 0.0) == (model == "random_coupling")
        got = positive_frequencies(evals)
        ref = positive_frequencies(complex_route(ham))
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref) / ref) <= 1e-10
        spec = symplectic_spectrum(ham)
        monkeypatch.setattr(oracle, "mode_frequencies", complex_route_spectrum)
        spec_ref = symplectic_spectrum(ham)
        for key in ("n_positive", "n_negative", "n_zero_modes"):
            assert spec[key] == spec_ref[key]
        assert spec["n_positive"] == (ham.dim - spec["n_zero_modes"]) // 2

    def test_unstable_form_still_flagged(self, single_site, monkeypatch):
        ham = random_form(single_site, FrequencyGrid.midpoint(4, 3.0), np.random.default_rng(11))
        assert ham.hermiticity_defect() <= 1e-14
        assert symplectic_spectrum(ham)["max_imag_rel"] > 1e-6
        monkeypatch.setattr(oracle, "mode_frequencies", complex_route_spectrum)
        assert symplectic_spectrum(ham)["max_imag_rel"] > 1e-6

    def test_non_hermitian_form_raises(self, single_site):
        ham = random_form(single_site, FrequencyGrid.midpoint(4, 3.0), np.random.default_rng(12),
                          dagger_hermitian=False)
        with pytest.raises(DampolError, match="not dagger-Hermitian"):
            symplectic_spectrum(ham)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n_nodes=st_.integers(1, 4), seed=st_.integers(0, 2**32 - 1))
    def test_random_dagger_hermitian_forms(self, single_site, n_nodes, seed):
        ham = random_form(single_site, FrequencyGrid.midpoint(n_nodes, 3.0),
                          np.random.default_rng(seed))
        assert ham.hermiticity_defect() < 1e-13
        k_dyn = 2.0 * commutation(ham) @ ham.symmetric_blocks()[0]
        assert close(1j * ham.dynamics()[0], k_dyn, 1e-15)
        ref = complex_route(ham)
        assert same_multiset(mode_frequencies(ham)[0], ref, 1e-9 * np.max(np.abs(ref)))


def eigvals_calls(fn, *args):
    """fn(*args) with `np.linalg.eigvals` counted: the number of calls and the result."""
    calls, solve = [], np.linalg.eigvals

    def counted(a):
        calls.append(a.shape)
        return solve(a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvals", counted)
        result = fn(*args)
    return len(calls), result


def position_momentum_norm(ham):
    """||Re h_sym[q, m]|| / ||Re h_sym|| over every group: the block the half-size route needs to be 0."""
    num = den = 0.0
    for (b, na, _, _), h in zip(ham._frame, ham.symmetric_blocks()):
        a, p, x, y = ham._slots(na, b)
        q, m = np.r_[a, x], np.r_[p, y]
        num += np.linalg.norm(h.real[np.ix_(q, m)]) ** 2
        den += np.linalg.norm(h.real) ** 2
    return float(np.sqrt(num / den))


def decoupled_form(lat, grid, rng, v_eigs, t_eigs):
    """A one-block form whose positions q = (a, x) and momenta m = (p, y) do not couple:
    random symmetric halves V and T with the given eigenvalues."""
    dim = canonical_dim(lat, grid.n_nodes)
    h = np.zeros((dim, dim), dtype=complex)
    a, p, x, y = canonical_slices(one_block(lat, grid, h))
    for slots, eigs in (((a, x), v_eigs), ((p, y), t_eigs)):
        idx = np.r_[slots]
        o, _ = np.linalg.qr(rng.standard_normal((idx.size, idx.size)))
        half = (o * eigs) @ o.T
        h[np.ix_(idx, idx)] = (half + half.T) / 2.0
    return one_block(lat, grid, h)


def half_eigs(rng, n, negative):
    """n eigenvalues in [0.5, 2] in magnitude, the first `negative` of them negative."""
    eigs = rng.uniform(0.5, 2.0, n)
    eigs[:negative] *= -1.0
    return eigs


class TestHalfSizeRoute:
    """The spectrum from the position and momentum halves against the general eigensolver."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(on_lattice=st_.booleans(), n_nodes=st_.integers(1, 3), negative=st_.integers(0, 2),
           seed=st_.integers(0, 2**32 - 1))
    def test_decoupled_forms_match_dense_route(self, single_site, small_lattice, on_lattice,
                                               n_nodes, negative, seed):
        lat = small_lattice if on_lattice else single_site
        grid, rng = FrequencyGrid.midpoint(n_nodes, 3.0), np.random.default_rng(seed)
        n = canonical_dim(lat, n_nodes) // 2
        ham = decoupled_form(lat, grid, rng, half_eigs(rng, n, negative), half_eigs(rng, n, 0))
        calls, (got, _, _) = eigvals_calls(mode_frequencies, ham)
        assert calls == 0
        ref = dense_route(ham.dynamics()[0])
        assert same_multiset(got, ref, 1e-10 * np.max(np.abs(ref)))
        assert spectrum_counts(got) == spectrum_counts(ref)
        # V has `negative` eigenvalues at or below -0.5, far above the zero threshold
        imag = symplectic_spectrum(ham)["max_imag_rel"]
        assert imag > 1e-6 if negative else imag == 0.0

    @pytest.mark.parametrize("on_lattice", [False, True])
    def test_indefinite_momentum_half_takes_the_general_route(self, single_site, small_lattice,
                                                              on_lattice):
        lat = small_lattice if on_lattice else single_site
        grid, rng = FrequencyGrid.midpoint(2, 3.0), np.random.default_rng(5)
        n = canonical_dim(lat, grid.n_nodes) // 2
        ham = decoupled_form(lat, grid, rng, half_eigs(rng, n, 0), half_eigs(rng, n, 1))
        assert position_momentum_norm(ham) == 0.0
        calls, (got, _, _) = eigvals_calls(mode_frequencies, ham)
        assert calls == 1
        ref = complex_route(ham)
        assert same_multiset(got, ref, 1e-9 * np.max(np.abs(ref)))
        assert symplectic_spectrum(ham)["max_imag_rel"] > 1e-6

    @pytest.mark.parametrize("name,n", [("lorentz", 2), ("gaussian", 2), ("uniaxial", 2),
                                        ("lorentz", 3)])
    def test_shipped_oracle_stage_never_calls_eigvals(self, name, n):
        pipe = Pipeline(replace(ScenarioConfig.from_file(CONFIG_DIR / f"{name}.ini"), n_per_axis=n))
        calls, report = eigvals_calls(stage_oracle, pipe)
        assert calls == 0
        assert report["passed"]
        assert position_momentum_norm(pipe.hamiltonian) == 0.0


def spectrum_counts(evals):
    """(zero, positive, negative) counts with the oracle's zero-mode rule."""
    nonzero = evals[np.abs(evals) > oracle.ZERO_MODE_TOL * np.max(np.abs(evals))]
    return evals.size - nonzero.size, int(np.sum(nonzero.real > 0)), int(np.sum(nonzero.real < 0))


class TestSectorSpectrum:
    """The per-sector solve against one dense eigensolve of the same quadrature matrix."""

    @pytest.mark.parametrize("model,n,K,k0_transverse", [
        ("local_lorentz", 2, 6, True),
        ("gaussian_nonlocal", 2, 6, True),
        ("uniaxial_local", 2, 6, True),
        ("local_lorentz", 2, 6, False),
        ("local_lorentz", 3, 3, True),
        ("local_lorentz", 4, 1, True),
    ])
    def test_matches_dense_eigvals(self, model, n, K, k0_transverse):
        lat = build_lattice(n, 1.0, k0_transverse)
        grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
        coupling = coupling_from_lagrangian(builtin_model(model, lat, grid))
        st = structure_tensor(coupling)
        ham = assemble_hamiltonian(coupling, st)
        got, n_sectors, leak = mode_frequencies(ham)
        leak_tol = lattice.SECTOR_LEAK_TOL
        dense = coupling.relaid(lat.one_block)   # the assembly unsplit
        whole = assemble_hamiltonian(dense, structure_tensor(dense))
        (r,) = whole.dynamics()
        ref = dense_route(r)
        assert n_sectors == np.unique(lat.momentum_sector).size > 1
        assert leak <= leak_tol
        assert np.linalg.norm(off_group(ham.groups, r)) <= leak_tol * np.linalg.norm(r)
        assert spectrum_counts(got) == spectrum_counts(ref)
        scale = np.max(np.abs(ref))
        keep = np.abs(ref) > oracle.ZERO_MODE_TOL * scale
        assert same_multiset(got[np.abs(got) > oracle.ZERO_MODE_TOL * scale], ref[keep],
                             1e-10 * scale)
        spec = symplectic_spectrum(ham)
        assert spec["n_sectors"] == n_sectors and spec["sector_leak"] == leak

    def test_random_coupling_is_one_group(self, small_lattice):
        grid = FrequencyGrid.midpoint(6, 3.0, eta_factor=1.0)
        coupling = coupling_from_real(
            random_coupling(small_lattice, grid, np.random.default_rng(3)))
        ham = assemble_hamiltonian(coupling, structure_tensor(coupling))
        spec = symplectic_spectrum(ham)
        assert spec["n_sectors"] == len(ham.blocks) == 1
        assert spec["sector_leak"] > lattice.SECTOR_LEAK_TOL
        # the one block is the whole form, and its spectrum the dense eigvals of R
        assert ham.blocks[0].shape == (ham.dim, ham.dim)
        got = mode_frequencies(ham)[0]
        ref = dense_route(ham.dynamics()[0])
        assert same_multiset(got, ref, 1e-10 * np.max(np.abs(ref)))

    def test_traced_peak_within_the_block_bytes(self, lorentz_setup):
        # one group at a time, its position and momentum halves, the Cholesky
        # factor and L^T V L: 0.286 times the float64 bytes of the blocks,
        # 8 sum G^2, measured at n = 2, K = 10 (eight groups of about 64)
        lat, grid, coupling, st, ham = lorentz_setup
        symplectic_spectrum(ham)
        peak, _ = traced_peak(symplectic_spectrum, ham)
        assert peak <= 0.31 * 8 * sum(g.size**2 for g in ham.groups)


def oracle_pipeline(model, n, K, k0_transverse=True):
    return Pipeline(ScenarioConfig(n_per_axis=n, k0_transverse=k0_transverse, n_nodes=K,
                                   omega_max=3.0, eta_factor=1.0, model=model))


def agree(a, b):
    return abs(a - b) <= 1e-10 * abs(b) or max(abs(a), abs(b)) <= 1e-13


class TestSectorBlocks:
    """The per-sector form against the same assembly stored as one block."""

    @pytest.mark.parametrize("model,n,K,k0_transverse", [
        ("local_lorentz", 2, 6, True),
        ("gaussian_nonlocal", 2, 6, True),
        ("uniaxial_local", 2, 6, True),
        ("local_lorentz", 2, 6, False),
        ("local_lorentz", 3, 4, True),
        ("local_lorentz", 4, 1, True),
    ])
    def test_sector_route_matches_one_block(self, model, n, K, k0_transverse):
        pipe = oracle_pipeline(model, n, K, k0_transverse)
        sectors = stage_oracle(pipe)
        ham = pipe.hamiltonian
        leak_tol = lattice.SECTOR_LEAK_TOL
        dense = oracle_pipeline(model, n, K, k0_transverse)
        dense.chi = Susceptibility(pipe.coupling.relaid(pipe.lattice.one_block))   # every form one block
        whole = stage_oracle(dense)
        one = dense.hamiltonian
        assert len(one.blocks) == 1
        assert len(ham.blocks) == np.unique(pipe.lattice.momentum_sector).size > 1

        h = one.blocks[0]
        for g, block in zip(ham.groups, ham.blocks):
            assert close(block, h[np.ix_(g, g)], 1e-13)
        assert np.linalg.norm(off_group(ham.groups, h)) <= leak_tol * np.linalg.norm(h)

        for a, b in zip(sectors["checks"], whole["checks"], strict=True):
            assert (a["check_id"], a["passed"]) == (b["check_id"], b["passed"])
            for key in ("residual", "min_positive", "frobenius", "oracle_residual",
                        "kernel_residual", "n_zero_modes"):
                if key in a:
                    assert agree(a[key], b[key]), (a["check_id"], key, a[key], b[key])

        got, ref = mode_frequencies(ham)[0], mode_frequencies(one)[0]
        scale = np.max(np.abs(ref))
        assert spectrum_counts(got) == spectrum_counts(ref)
        assert same_multiset(got[np.abs(got) > oracle.ZERO_MODE_TOL * scale],
                             ref[np.abs(ref) > oracle.ZERO_MODE_TOL * scale], 1e-10 * scale)

    @staticmethod
    def stage_peak(n):
        """The traced peak of the oracle stage on lorentz.ini at n_per_axis = n, inputs cached,
        in units of the rows of every node, 16 K E bytes: the bath form's row stack, its
        (K, d, dim) site rows stored as one (b, G) block per slot group."""
        pipe = Pipeline(replace(ScenarioConfig.from_file(CONFIG_DIR / "lorentz.ini"), n_per_axis=n))
        pipe.propagator, pipe.streamed, pipe.bath, pipe.chi.above_cut_blocks
        peak, _ = traced_peak(stage_oracle, pipe)
        ham = pipe.hamiltonian
        assert ham.row_size < pipe.lattice.dim * ham.dim / 7   # the blocks hold a fraction of d dim
        return peak / (16 * pipe.grid.n_nodes * ham.row_size)

    def test_oracle_stage_traced_peak(self):
        # K = 12, n = 2: measured 8.22 (2.9 MB)
        assert self.stage_peak(2) <= 8.75

    def test_oracle_stage_traced_peak_n3(self):
        # K = 12, n = 3: measured 7.88 (18.3 MB)
        assert self.stage_peak(3) <= 8.5
