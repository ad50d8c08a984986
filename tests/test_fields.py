import numpy as np
import pytest

from dampol.constants import HBAR
from dampol.errors import DampolError
from dampol.coupling import structure_tensor
from dampol.diagonalize import mode_coefficients, momentum_family
from dampol.fields import (
    commutator,
    constitutive_check,
    evolve,
    field_form,
    maxwell_check,
    medium_mode_form,
    medium_momentum_form,
    medium_polarization_form,
    noise_commutator_expected,
    noise_mode_form,
    time_derivative,
    vector_potential_route_defect,
)
from dampol.green import sweep_at_nodes
from dampol.lattice import TensorKernel
from dampol.susceptibility import Susceptibility


@pytest.fixture(scope="module")
def setup(request):
    # one random Lagrangian model shared by the whole module
    import numpy as np
    from dampol.coupling import coupling_from_lagrangian, random_coupling
    from dampol.lattice import FrequencyGrid, build_lattice
    lat = build_lattice(2, 1.0)
    grid = FrequencyGrid.midpoint(10, 6.0)
    rng = np.random.default_rng(42)
    coupling = coupling_from_lagrangian(random_coupling(lat, grid, rng))
    st = structure_tensor(coupling)
    chi = Susceptibility(coupling)
    sweep = sweep_at_nodes(chi, side=-1)
    modes = mode_coefficients(coupling, sweep)
    return lat, grid, coupling, st, chi, sweep, modes


class TestCanonicalMatterAlgebra:
    def test_momentum_polarization_commutator(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        w = medium_momentum_form(coupling, st)
        p = medium_polarization_form(coupling)
        expected = -1j * HBAR * TensorKernel.identity(lat)
        assert commutator(w, p).allclose(expected, tol=1e-10)

    def test_polarization_self_commutator_vanishes(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        p = medium_polarization_form(coupling)
        scale = HBAR * TensorKernel.identity(lat).norm()
        assert commutator(p, p).norm() <= 1e-10 * scale

    def test_momentum_self_commutator_vanishes(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        w = medium_momentum_form(coupling, st)
        scale = HBAR * TensorKernel.identity(lat).norm()
        assert commutator(w, w).norm() <= 1e-10 * scale

    def test_medium_mode_canonical(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        k = 3
        c = medium_mode_form(coupling, k)
        got = commutator(c, c.dagger())
        expected = (1.0 / grid.weights[k]) * TensorKernel.identity(lat)
        assert got.allclose(expected, tol=1e-12)

    def test_cross_basis_commutator_rejected(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        p = medium_polarization_form(coupling)
        pn = field_form("Pn", coupling, sweep)
        with pytest.raises(DampolError):
            commutator(p, pn)


class TestNoiseCommutator:
    def test_matches_cut_discontinuity(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        for k in (0, 4, grid.n_nodes - 1):
            pn = noise_mode_form(coupling, k)
            got = commutator(pn, pn.dagger())
            expected = noise_commutator_expected(coupling, k)
            assert got.allclose(expected, tol=1e-10)

    def test_distinct_nodes_commute(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        a = noise_mode_form(coupling, 2)
        b = noise_mode_form(coupling, 7)
        assert commutator(a, b.dagger()).norm() == 0.0


class TestFieldForms:
    def test_zero_coupling_noise_and_polarization_vanish(self, small_lattice):
        from dampol.coupling import CouplingTensor
        from dampol.lattice import FrequencyGrid
        grid = FrequencyGrid.midpoint(4, 3.0)
        zero = CouplingTensor.zero(small_lattice, grid)
        sweep = sweep_at_nodes(Susceptibility(zero), side=-1)
        assert np.linalg.norm(field_form("Pn", zero, sweep).alpha) == 0.0
        assert np.linalg.norm(field_form("P", zero, sweep).alpha) == 0.0

    def test_displacement_is_transverse(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        d_form = field_form("D", coupling, sweep)
        pl = lat.longitudinal_matrix
        long_part = pl[None] @ d_form.alpha
        assert np.linalg.norm(long_part) <= 1e-12 * np.linalg.norm(d_form.alpha)

    def test_vector_potential_two_routes_agree(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        a_form = field_form("A", coupling, sweep)
        assert vector_potential_route_defect(a_form, modes.momentum) <= 1e-10
        # the stack-free family the CLI reads is the same kernel set
        momentum = momentum_family(coupling, sweep)
        assert np.array_equal(momentum, modes.momentum)
        assert vector_potential_route_defect(a_form, momentum) <= 1e-10

    def test_single_site_electric_field_scalar(self, single_site):
        from dampol.lattice import FrequencyGrid
        from test_coupling import scalar_coupling
        grid = FrequencyGrid.midpoint(1, 2.0)
        tau = 0.8
        coupling = scalar_coupling(single_site, grid, tau)
        chi = Susceptibility(coupling)
        sweep = sweep_at_nodes(chi, side=-1)
        e_form = field_form("E", coupling, sweep)
        from dampol.green import solve_green
        om = grid.nodes[0]
        g_up = solve_green(chi, om + 1j * grid.eta).kernel
        expected = 1j * HBAR * om**2 * g_up.mat[0, 0] * tau
        assert e_form.alpha[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_hermitian_fields(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        for kind in ("A", "B", "E", "P", "Pn", "D"):
            assert field_form(kind, coupling, sweep).hermiticity_defect() == 0.0

    def test_electric_field_transverse_part_is_potential_rate(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        e_form = field_form("E", coupling, sweep)
        a_form = field_form("A", coupling, sweep)
        et = lat.transverse_matrix[None] @ e_form.alpha
        adot = time_derivative(a_form).alpha
        assert np.linalg.norm(et + adot) <= 1e-10 * np.linalg.norm(et)

    def test_longitudinal_decomposition_converges(self, setup):
        # [E]_L = -[P]_L holds in the vanishing-offset limit; the defect per
        # node is controlled by eta over the node frequency
        lat, _, coupling0, st, chi, sweep, modes = setup
        from dampol.coupling import builtin_model, coupling_from_lagrangian
        from dampol.lattice import FrequencyGrid
        defects = []
        for K in (16, 32):
            grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
            coupling = coupling_from_lagrangian(builtin_model("local_lorentz", lat, grid))
            sw = sweep_at_nodes(Susceptibility(coupling), side=-1)
            e_form = field_form("E", coupling, sw)
            p_form = field_form("P", coupling, sw)
            pl = lat.longitudinal_matrix
            num = np.linalg.norm(pl[None] @ (e_form.alpha + p_form.alpha))
            den = max(np.linalg.norm(pl[None] @ e_form.alpha), 1e-300)
            defects.append(num / den)
        assert defects[1] < defects[0] / 1.5


class TestEvolution:
    def test_zero_time_identity(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        form = field_form("E", coupling, sweep)
        out = evolve(form, 0.0)
        assert np.array_equal(out.alpha, form.alpha)

    def test_group_property(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        form = field_form("B", coupling, sweep)
        a = evolve(evolve(form, 0.7), 1.1)
        b = evolve(form, 1.8)
        assert np.allclose(a.alpha, b.alpha, atol=1e-14)
        assert a.time == pytest.approx(b.time)

    def test_equal_time_commutator_time_independent(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        a_form = field_form("A", coupling, sweep)
        e_form = field_form("E", coupling, sweep)
        base = commutator(e_form, a_form)
        for t in (0.7, 3.1):
            moved = commutator(evolve(e_form, t), evolve(a_form, t))
            assert moved.allclose(base, tol=1e-11)


class TestConsistencyChecks:
    def test_constitutive_identity(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        p_form = field_form("P", coupling, sweep)
        e_form = field_form("E", coupling, sweep)
        pn_form = field_form("Pn", coupling, sweep)
        assert constitutive_check(p_form, e_form, pn_form, chi) <= 1e-10

    def test_maxwell_identity(self, setup):
        lat, grid, coupling, st, chi, sweep, modes = setup
        b_form = field_form("B", coupling, sweep)
        d_form = field_form("D", coupling, sweep)
        assert maxwell_check(b_form, d_form) <= 1e-10

    def test_maxwell_vacuum(self, small_lattice):
        from dampol.coupling import CouplingTensor
        from dampol.lattice import FrequencyGrid
        grid = FrequencyGrid.midpoint(4, 3.0)
        zero = CouplingTensor.zero(small_lattice, grid)
        sweep = sweep_at_nodes(Susceptibility(zero), side=-1)
        b_form = field_form("B", zero, sweep)
        d_form = field_form("D", zero, sweep)
        assert maxwell_check(b_form, d_form) <= 1e-12


class TestEqualTimeCanonicalCommutator:
    def test_potential_momentum_pair_converges(self):
        # [Pi, A] = -i hbar delta_T reconstructed from the diagonal modes.
        # Completeness of the mode family on the field sector requires the
        # medium to be lossy at the dressed mode frequencies, so use a broad
        # line covering the lattice light lines.  The uniform (k = 0)
        # transverse block is excluded: its flat direction is a structural
        # zero mode outside the positive-frequency family for any band.
        from dampol.constants import EPS0, HBAR
        from dampol.coupling import builtin_model, coupling_from_lagrangian
        from dampol.lattice import FrequencyGrid, build_lattice
        lat = build_lattice(2, 1.0)
        uniform = np.kron(np.ones((lat.n_sites, lat.n_sites)) / lat.n_sites, np.eye(3))
        q = lat.transverse_matrix - uniform
        devs = []
        for K in (32, 64):
            grid = FrequencyGrid.midpoint(K, 8.0, eta_factor=1.0)
            coupling = coupling_from_lagrangian(builtin_model(
                "local_lorentz", lat, grid,
                {"resonance": 3.5, "width": 2.0, "strength": 2.0}))
            sweep = sweep_at_nodes(Susceptibility(coupling), side=-1)
            a_form = field_form("A", coupling, sweep)
            pi_form = EPS0 * time_derivative(a_form)
            got = commutator(pi_form, a_form).mat
            expected = -1j * HBAR * q / lat.cell_volume
            devs.append(np.linalg.norm(q @ got @ q - expected) / np.linalg.norm(expected))
        assert devs[1] < devs[0] / 1.3
