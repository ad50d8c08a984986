from pathlib import Path

import numpy as np
import pytest

from dampol.cli import Pipeline, ScenarioConfig, stage_fields
from dampol.constants import HBAR
from dampol.errors import DampolError
from dampol.coupling import structure_tensor
from dampol.diagonalize import mode_coefficients, momentum_family
from dampol.fields import (
    BASIS_MEDIUM,
    LinearBosonicForm,
    commutator,
    constitutive_check,
    field_forms,
    longitudinal_defect,
    maxwell_check,
    medium_momentum_form,
    medium_polarization_form,
    noise_commutator_expected,
    noise_mode_form,
    vector_potential_route_defect,
)
from dampol.green import node_propagator
from dampol.oracle import node_modes
from dampol.susceptibility import Susceptibility

from conftest import traced_peak
from reference import (
    TensorKernel,
    longitudinal_matrix,
    random_coupling,
    time_derivative,
    transverse_matrix,
    zero_coupling,
)


def medium_mode_form(coupling, k):
    """The bare medium annihilator at node k as a form: row k of the oracle's `node_modes`."""
    grid, layout = coupling.grid, coupling.layout
    alpha = node_modes(layout, grid, np.zeros((grid.n_nodes, grid.n_nodes, layout.size), dtype=complex))[k]
    return LinearBosonicForm(layout=layout, grid=grid, alpha=alpha, basis=BASIS_MEDIUM,
                             creators=np.zeros_like(alpha))


def site_commutator(a, b):
    """`commutator` as a site kernel, rotated back from its blocks: the dense view the assertions compare."""
    return TensorKernel(a.layout.lattice, a.layout.sites(commutator(a, b)))


@pytest.fixture(scope="module")
def setup(request):
    # one random Lagrangian model shared by the whole module
    import numpy as np
    from dampol.coupling import coupling_from_lagrangian
    from dampol.lattice import FrequencyGrid, build_lattice
    lat = build_lattice(2, 1.0)
    grid = FrequencyGrid.midpoint(10, 6.0)
    rng = np.random.default_rng(42)
    coupling = coupling_from_lagrangian(random_coupling(lat, grid, rng))
    st = structure_tensor(coupling)
    chi = Susceptibility(coupling)
    prop = node_propagator(chi)
    modes = mode_coefficients(prop)
    return lat, grid, coupling, st, chi, prop, modes


class TestCanonicalMatterAlgebra:
    def test_momentum_polarization_commutator(self, setup):
        lat, grid, coupling, st, chi, prop, modes = setup
        w = medium_momentum_form(coupling, st)
        p = medium_polarization_form(coupling)
        expected = -1j * HBAR * TensorKernel.identity(lat)
        assert site_commutator(w, p).allclose(expected, tol=1e-10)

    def test_polarization_self_commutator_vanishes(self, setup):
        lat, grid, coupling, st, chi, prop, modes = setup
        p = medium_polarization_form(coupling)
        scale = HBAR * TensorKernel.identity(lat).norm()
        assert site_commutator(p, p).norm() <= 1e-10 * scale

    def test_momentum_self_commutator_vanishes(self, setup):
        lat, grid, coupling, st, chi, prop, modes = setup
        w = medium_momentum_form(coupling, st)
        scale = HBAR * TensorKernel.identity(lat).norm()
        assert site_commutator(w, w).norm() <= 1e-10 * scale

    def test_medium_mode_canonical(self, setup):
        lat, grid, coupling, st, chi, prop, modes = setup
        k = 3
        c = medium_mode_form(coupling, k)
        got = site_commutator(c, c.dagger())
        expected = (1.0 / grid.weights[k]) * TensorKernel.identity(lat)
        assert got.allclose(expected, tol=1e-12)

    def test_cross_basis_commutator_rejected(self, setup):
        lat, grid, coupling, st, chi, prop, modes = setup
        p = medium_polarization_form(coupling)
        pn = field_forms(prop)["Pn"]
        with pytest.raises(DampolError, match="different mode families"):
            commutator(p, pn)

    def test_cross_layout_commutator_rejected(self, lorentz_coupling):
        lattice = lorentz_coupling.lattice
        p = medium_polarization_form(lorentz_coupling)
        with pytest.raises(DampolError, match="different kernel layouts"):
            commutator(p, medium_polarization_form(lorentz_coupling.relaid(lattice.one_block)))


class TestNoiseCommutator:
    def test_matches_cut_discontinuity(self, setup):
        lat, grid, coupling, st, chi, prop, modes = setup
        for k in (0, 4, grid.n_nodes - 1):
            pn = noise_mode_form(coupling, k)
            got = site_commutator(pn, pn.dagger())
            expected = TensorKernel(lat, chi.layout.sites(noise_commutator_expected(coupling, k)))
            assert got.allclose(expected, tol=1e-10)

    def test_distinct_nodes_commute(self, setup):
        lat, grid, coupling, st, chi, prop, modes = setup
        a = noise_mode_form(coupling, 2)
        b = noise_mode_form(coupling, 7)
        assert site_commutator(a, b.dagger()).norm() == 0.0


class TestFieldForms:
    def test_zero_coupling_noise_and_polarization_vanish(self, small_lattice):
        from dampol.lattice import FrequencyGrid
        grid = FrequencyGrid.midpoint(4, 3.0)
        zero = zero_coupling(small_lattice, grid)
        forms = field_forms(node_propagator(Susceptibility(zero)))
        assert np.linalg.norm(forms["Pn"].alpha) == 0.0
        assert np.linalg.norm(forms["P"].alpha) == 0.0

    def test_one_adjoint_per_node_for_all_kinds(self, setup):
        # the six kinds share one upper-cut stack: the kernel stack is read
        # and its adjoint formed once, not once per kind
        lat, grid, coupling, st, chi, prop, modes = setup
        calls = []

        class CountedReads:
            coupling = prop.coupling
            chi = prop.chi
            layout = prop.layout

            @property
            def blocks(self):
                calls.append(1)
                return prop.blocks
        forms = field_forms(CountedReads())
        assert sorted(forms) == sorted(("A", "B", "E", "P", "Pn", "D"))
        assert len(calls) == 1

    def test_displacement_is_transverse(self, setup):
        lat, grid, coupling, st, chi, prop, modes = setup
        d_form = field_forms(prop)["D"]
        alpha = d_form.layout.sites(d_form.alpha)
        long_part = longitudinal_matrix(lat)[None] @ alpha
        assert np.linalg.norm(long_part) <= 1e-12 * np.linalg.norm(alpha)
        assert longitudinal_defect(d_form) <= 1e-12

    def test_vector_potential_two_routes_agree(self, setup):
        lat, grid, coupling, st, chi, prop, modes = setup
        a_form = field_forms(prop)["A"]
        layout = a_form.layout
        assert vector_potential_route_defect(a_form, layout.blocks(modes.momentum)) <= 1e-10
        # the stack-free family the CLI reads is the same kernel set
        momentum = momentum_family(prop)
        assert np.array_equal(layout.sites(momentum), modes.momentum)
        assert vector_potential_route_defect(a_form, momentum) <= 1e-10

    def test_single_site_electric_field_scalar(self, single_site):
        from dampol.lattice import FrequencyGrid
        from test_coupling import scalar_coupling
        grid = FrequencyGrid.midpoint(1, 2.0)
        tau = 0.8
        coupling = scalar_coupling(single_site, grid, tau)
        chi = Susceptibility(coupling)
        prop = node_propagator(chi)
        e_form = field_forms(prop)["E"]
        from dampol.green import solve_green
        om = grid.nodes[0]
        g_up = chi.layout.sites(solve_green(chi, [om + 1j * grid.eta]))[0]
        expected = 1j * HBAR * om**2 * g_up[0, 0] * tau
        assert e_form.layout.sites(e_form.alpha)[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_hermitian_fields(self, setup):
        lat, grid, coupling, st, chi, prop, modes = setup
        forms = field_forms(prop)
        for kind in ("A", "B", "E", "P", "Pn", "D"):
            assert np.array_equal(forms[kind].beta, forms[kind].alpha.conj())

    def test_electric_field_transverse_part_is_potential_rate(self, setup):
        lat, grid, coupling, st, chi, prop, modes = setup
        forms = field_forms(prop)
        e_form, a_form = forms["E"], forms["A"]
        et = transverse_matrix(lat)[None] @ e_form.layout.sites(e_form.alpha)
        adot = a_form.layout.sites(time_derivative(a_form).alpha)
        assert np.linalg.norm(et + adot) <= 1e-10 * np.linalg.norm(et)

    def test_longitudinal_decomposition_converges(self, setup):
        # [E]_L = -[P]_L holds in the vanishing-offset limit; the defect per
        # node is controlled by eta over the node frequency
        lat, _, coupling0, st, chi, prop, modes = setup
        from dampol.coupling import builtin_model, coupling_from_lagrangian
        from dampol.lattice import FrequencyGrid
        defects = []
        for K in (16, 32):
            grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
            coupling = coupling_from_lagrangian(builtin_model("local_lorentz", lat, grid))
            forms = field_forms(node_propagator(Susceptibility(coupling)))
            e_alpha, p_alpha = (forms[kind].layout.sites(forms[kind].alpha) for kind in "EP")
            pl = longitudinal_matrix(lat)
            num = np.linalg.norm(pl[None] @ (e_alpha + p_alpha))
            den = max(np.linalg.norm(pl[None] @ e_alpha), 1e-300)
            defects.append(num / den)
        assert defects[1] < defects[0] / 1.5


class TestEvolution:
    def test_equal_time_commutator_time_independent(self, setup):
        # d/dt [E, A] = [dE/dt, A] + [E, dA/dt]: each node's phase rate
        # cancels between the two halves of the pairing
        lat, grid, coupling, st, chi, prop, modes = setup
        forms = field_forms(prop)
        a_form, e_form = forms["A"], forms["E"]
        left = site_commutator(time_derivative(e_form), a_form)
        rate = left + site_commutator(e_form, time_derivative(a_form))
        assert left.norm() > 0.0
        assert rate.norm() <= 1e-13 * left.norm()


class TestConsistencyChecks:
    def test_constitutive_identity(self, setup):
        lat, grid, coupling, st, chi, prop, modes = setup
        forms = field_forms(prop)
        assert constitutive_check(forms["P"], forms["E"], forms["Pn"], chi) <= 1e-10

    def test_constitutive_with_perturbed_chi(self, setup):
        # the P form must carry the susceptibility the propagator was solved with
        lat, grid, coupling, st, chi, prop, modes = setup
        pert = np.zeros((lat.dim, lat.dim))
        pert[0, 1] = 0.05
        broken = chi.perturbed(lat.one_block.blocks(pert))
        forms = field_forms(node_propagator(broken))
        assert constitutive_check(forms["P"], forms["E"], forms["Pn"], broken) <= 1e-10

    def test_maxwell_identity(self, setup):
        lat, grid, coupling, st, chi, prop, modes = setup
        forms = field_forms(prop)
        assert maxwell_check(forms["B"], forms["D"]) <= 1e-10

    def test_maxwell_vacuum(self, small_lattice):
        from dampol.lattice import FrequencyGrid
        grid = FrequencyGrid.midpoint(4, 3.0)
        zero = zero_coupling(small_lattice, grid)
        forms = field_forms(node_propagator(Susceptibility(zero)))
        assert maxwell_check(forms["B"], forms["D"]) <= 1e-12


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
        q = transverse_matrix(lat) - uniform
        devs = []
        for K in (32, 64):
            grid = FrequencyGrid.midpoint(K, 8.0, eta_factor=1.0)
            coupling = coupling_from_lagrangian(builtin_model(
                "local_lorentz", lat, grid,
                {"resonance": 3.5, "width": 2.0, "strength": 2.0}))
            a_form = field_forms(node_propagator(Susceptibility(coupling)))["A"]
            pi_form = EPS0 * time_derivative(a_form)
            got = site_commutator(pi_form, a_form).mat
            expected = -1j * HBAR * q / lat.cell_volume
            devs.append(np.linalg.norm(q @ got @ q - expected) / np.linalg.norm(expected))
        assert devs[1] < devs[0] / 1.3


class TestFieldsStageCost:
    # traced peak of the whole fields stage, field trace included, on
    # lorentz.ini at n = 3 (d = 81, one 3 x 3 and thirteen 6 x 6 blocks),
    # K = 12, in (K, size) complex block stacks: one (K, d, d) site stack is
    # 13.75 of them.  The trace rotates its amplitudes into the layout basis,
    # so no site stack is formed
    PEAK_STACKS = 10.9   # measured 10.30

    def test_traced_peak_in_block_stacks(self, tmp_path):
        cfg = ScenarioConfig.from_file(Path(__file__).parent.parent / "configs" / "lorentz.ini")
        cfg.n_per_axis = 3
        pipe = Pipeline(cfg)
        pipe.propagator, pipe.structure   # inputs, as in a run
        stack = 16 * pipe.grid.n_nodes * pipe.lattice.sector_layout.size
        peak, report = traced_peak(stage_fields, pipe, tmp_path)
        peak /= stack
        assert report["passed"]
        assert (tmp_path / "field_trace.csv").exists()
        assert peak <= self.PEAK_STACKS, f"traced peak {peak:.2f} block stacks"
