import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from dampol import diagonalize
from dampol.constants import MU0
from dampol.coupling import (
    builtin_model,
    coupling_from_lagrangian,
    structure_tensor,
)
from dampol.diagonalize import (
    ModeChecks,
    fano_residual,
    mode_coefficients,
    streamed_mode_checks,
    wave_diagnostic,
)
from dampol.green import node_propagator
from dampol.lattice import FrequencyGrid, build_lattice
from dampol.susceptibility import Susceptibility

from conftest import traced_peak
from reference import (
    TensorKernel,
    commutation_matrix,
    coupling_from_real,
    from_kernels,
    random_coupling,
    sites,
    transverse_matrix,
    zero_coupling,
)
from test_coupling import scalar_coupling


def make_modes(coupling):
    prop = node_propagator(Susceptibility(coupling))
    return mode_coefficients(prop), prop


class TestAssembly:
    def test_zero_coupling(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        zero = zero_coupling(small_lattice, grid)
        modes, _ = make_modes(zero)
        assert np.linalg.norm(modes.potential) == 0.0
        assert np.linalg.norm(modes.momentum) == 0.0
        assert np.linalg.norm(modes.resonant) == 0.0
        assert np.linalg.norm(modes.antiresonant) == 0.0

    def test_single_site_momentum_scalar(self, single_site):
        grid = FrequencyGrid.midpoint(3, 3.0)
        tau = 0.6
        coupling = scalar_coupling(single_site, grid, tau)
        modes, prop = make_modes(coupling)
        k = 1
        om = grid.nodes[k]
        g = sites(prop.layout, prop.blocks[k])[0, 0]
        assert sites(prop.layout, modes.momentum[k])[0, 0] == pytest.approx(1j * MU0 * om * tau * g)

    def test_transversality_of_first_two_families(self, random_lagrangian):
        modes, prop = make_modes(random_lagrangian)
        pt = transverse_matrix(random_lagrangian.lattice)
        for fam in (sites(prop.layout, modes.potential), sites(prop.layout, modes.momentum)):
            proj = fam @ pt
            assert np.linalg.norm(proj - fam) <= 1e-12 * max(np.linalg.norm(fam), 1e-300)


class TestMomentumFamily:
    def test_matches_mode_coefficients(self, random_lagrangian):
        modes, prop = make_modes(random_lagrangian)
        assert np.array_equal(diagonalize.momentum_family(prop), modes.momentum)

    def test_traced_peak_below_two_stacks(self):
        # the shipped lattice and node count: the (K, size) transfer and result
        # blocks, 2.25 block stacks at n = 2, where one is an eighth of a (K, d, d) stack
        lattice = build_lattice(2, 1.0)
        grid = FrequencyGrid.midpoint(12, 3.0, eta_factor=1.0)
        coupling = coupling_from_lagrangian(builtin_model("local_lorentz", lattice, grid))
        prop = node_propagator(Susceptibility(coupling))
        lattice._symbols   # the operator symbols, cached on the lattice as in a run, before tracing
        K, d = grid.n_nodes, lattice.dim
        peak, _ = traced_peak(diagonalize.momentum_family, prop)
        assert peak < 0.3 * K * d * d * 16, f"traced peak {peak / (K * d * d * 16):.2f} stacks"


class TestFanoResiduals:
    def test_ratio_identity_machine_zero(self, random_lagrangian):
        modes, _ = make_modes(random_lagrangian)
        st = structure_tensor(random_lagrangian)
        rep = fano_residual(modes, random_lagrangian, st)
        assert rep.potential_ratio <= 1e-14

    def test_zero_coupling_all_zero(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        zero = zero_coupling(small_lattice, grid)
        modes, _ = make_modes(zero)
        # structure tensor is undefined for zero coupling; substitute the
        # zero kernel directly
        from dampol.coupling import StructureTensor
        st = StructureTensor(zero.layout, np.zeros(zero.layout.size, dtype=complex))
        rep = fano_residual(modes, zero, st)
        assert rep.wave == 0.0
        assert max(rep.resonant.values()) == 0.0
        assert max(rep.antiresonant.values()) == 0.0

    def test_wave_diagnostic_machine_zero(self, lorentz_coupling):
        assert wave_diagnostic(node_propagator(Susceptibility(lorentz_coupling))) <= 1e-12

    def test_residuals_converge_first_order(self, small_lattice):
        vals = []
        for K in (16, 32):
            grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
            coupling = coupling_from_lagrangian(builtin_model("local_lorentz", small_lattice, grid))
            modes, _ = make_modes(coupling)
            rep = fano_residual(modes, coupling, structure_tensor(coupling))
            vals.append(rep)
        assert vals[0].wave / vals[1].wave >= 1.7
        assert max(vals[0].resonant.values()) / max(vals[1].resonant.values()) >= 1.7
        assert max(vals[0].antiresonant.values()) / max(vals[1].antiresonant.values()) >= 1.7


class TestCommutationChecks:
    def test_zero_coupling_exact(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        zero = zero_coupling(small_lattice, grid)
        modes, _ = make_modes(zero)
        for k, l in ((0, 0), (1, 3)):
            got = commutation_matrix(modes, k, l)
            if k == l:
                expected = (1.0 / grid.weights[k]) * TensorKernel.identity(small_lattice)
                assert got.allclose(expected)
            else:
                assert got.norm() == 0.0

    def test_smeared_deviations_converge(self, small_lattice):
        c1, c13 = [], []
        for K in (24, 48):
            grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
            coupling = coupling_from_lagrangian(builtin_model("local_lorentz", small_lattice, grid))
            modes, _ = make_modes(coupling)
            rep = fano_residual(modes, coupling, structure_tensor(coupling))
            c1.append(max(rep.commutation.values()))
            c13.append(max(rep.annihilator.values()))
        assert c1[0] / c1[1] >= 1.5
        assert c13[0] / c13[1] >= 1.5

    @pytest.mark.parametrize("name, n, dense", [
        pytest.param("local_lorentz", 2, False, id="local_lorentz-n2"),
        pytest.param("uniaxial_local", 2, False, id="uniaxial_local-n2"),
        pytest.param("gaussian_nonlocal", 2, False, id="gaussian_nonlocal-n2"),
        pytest.param("random_coupling", 2, False, id="random_coupling-n2"),
        pytest.param("local_lorentz", 3, False, id="local_lorentz-n3"),
        pytest.param("third_profile", 2, False, id="third_profile-n2"),
        pytest.param("gaussian_nonlocal", 2, True, id="gaussian_nonlocal-n2-dense"),
        pytest.param("local_lorentz", 3, True, id="local_lorentz-n3-dense"),
    ])
    def test_streamed_matches_stacked(self, name, n, dense, monkeypatch):
        # `dense`: the stacked reference runs on the coupling re-laid into the
        # one dense block, the streamed pass in the sector blocks
        lattice, grid = build_lattice(n, 1.0), FrequencyGrid.midpoint(12, 8.0)
        if name == "random_coupling":
            coupling = coupling_from_real(random_coupling(lattice, grid, np.random.default_rng(20240817)))
        else:
            coupling = coupling_from_lagrangian(builtin_model(
                "local_lorentz" if name == "third_profile" else name, lattice, grid))
        if name == "third_profile":
            monkeypatch.setitem(diagonalize.SMEAR_PROFILES, "quadratic", lambda x: x**2)
        ref = coupling.relaid(lattice.one_block) if dense else coupling
        modes, _ = make_modes(ref)
        rep = fano_residual(modes, ref, structure_tensor(ref))
        sc = streamed_mode_checks(node_propagator(Susceptibility(coupling)), structure_tensor(coupling))
        if name == "third_profile":
            assert len(sc.resonant) == 3 and len(sc.annihilator) == 6
        assert_same_checks(sc, rep, rel=1e-12)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(n_nodes=st_.integers(1, 6), seed=st_.integers(0, 2**32 - 1))
    def test_streamed_matches_stacked_random_single_site(self, single_site, n_nodes, seed):
        # a Lagrangian coupling, and complex kernels whose node sums break the
        # constraints that make some of the streamed pass's terms vanish
        grid = FrequencyGrid.midpoint(n_nodes, 3.0)
        rng = np.random.default_rng(seed)
        lagrangian = coupling_from_real(random_coupling(single_site, grid, rng))
        shape = (n_nodes, single_site.dim, single_site.dim)
        violator = from_kernels(single_site, grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for coupling in (lagrangian, violator):
            modes, prop = make_modes(coupling)
            st = structure_tensor(coupling)
            assert_same_checks(streamed_mode_checks(prop, st), fano_residual(modes, coupling, st),
                               rel=1e-11)

    def test_offdiagonal_pair_decreases_under_refinement(self, small_lattice):
        norms = []
        for K in (16, 32):
            grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
            coupling = coupling_from_lagrangian(builtin_model("local_lorentz", small_lattice, grid))
            modes, _ = make_modes(coupling)
            # same physical frequency pair at both resolutions, well separated;
            # off the diagonal the exact value is zero
            k = K // 4
            l = 3 * K // 4
            norms.append(commutation_matrix(modes, k, l).norm()
                         * grid.weights[k])
        assert norms[1] < norms[0]


def assert_same_checks(got: ModeChecks, expected: ModeChecks, rel: float):
    """Every field of two `ModeChecks` equal to `rel`, key sets included."""
    for name in (f.name for f in dataclasses.fields(ModeChecks)):
        a, b = getattr(got, name), getattr(expected, name)
        if isinstance(b, dict):
            assert a.keys() == b.keys(), name
        assert a == pytest.approx(b, rel=rel), name
    assert got.max_residual() == pytest.approx(expected.max_residual(), rel=rel)


class TestStreamedCost:
    """The streamed pass sums pair rows by GEMM and holds O(K d^2) numbers."""

    def test_never_forms_pair_rows(self, lorentz_coupling, lorentz_structure, monkeypatch):
        prop = node_propagator(Susceptibility(lorentz_coupling))
        expected = streamed_mode_checks(prop, lorentz_structure)

        def refuse(*args):
            raise AssertionError("the streamed pass formed the pair rows")

        monkeypatch.setattr(diagonalize, "mode_coefficients", refuse)
        assert streamed_mode_checks(prop, lorentz_structure) == expected

    # traced peaks in (K, size) complex block stacks of the n = 2 sector layout
    # (eight 3 x 3 blocks, an eighth of a (K, d, d) stack) on the refine_kernels
    # lattice and model at its second level, K = 128; the node sweep and the
    # bath sums stay below the streamed pass, which sets the refine_kernels peak
    STREAMED_STACKS = 13.8      # measured 13.15
    SWEEP_STACKS = 4.3          # measured 4.10
    INDEPENDENCE_STACKS = 6.35  # measured 6.07: the sums, then the node-0 cross-check
    # at K = 1024 a whole (2 K, K) Cauchy coefficient matrix of chi at the
    # nodes would be 28 stacks by itself; its rows come in chunks instead
    DEEP_SWEEP_STACKS = 4.25    # measured 4.06

    @staticmethod
    def refine_model(n_nodes):
        """The refine_kernels coupling at n_nodes, its structure tensor and one (K, size) stack's bytes."""
        lattice = build_lattice(2, 1.0)
        grid = FrequencyGrid.midpoint(n_nodes, 3.0, eta_factor=1.0)
        coupling = coupling_from_lagrangian(builtin_model(
            "local_lorentz", lattice, grid, {"resonance": 1.5, "width": 0.6, "strength": 1.0}))
        layout = coupling.layout
        coupling.density   # a shared input, cached before tracing
        assert layout is lattice.sector_layout and layout.size == lattice.dim**2 // 8
        return coupling, structure_tensor(coupling), grid.n_nodes * layout.size * 16

    @pytest.fixture(scope="class")
    def refine_level(self):
        return self.refine_model(128)

    def test_streamed_pass_traced_peak(self, refine_level):
        coupling, st, stack = refine_level
        prop = node_propagator(Susceptibility(coupling))
        peak = traced_peak(streamed_mode_checks, prop, st)[0] / stack
        assert peak <= self.STREAMED_STACKS, f"traced peak {peak:.2f} stacks"

    def test_node_sweep_traced_peak(self, refine_level):
        coupling, st, stack = refine_level
        peak = traced_peak(node_propagator, Susceptibility(coupling))[0] / stack
        assert peak <= self.SWEEP_STACKS, f"traced peak {peak:.2f} stacks"

    def test_deep_node_sweep_traced_peak(self):
        coupling, _, stack = self.refine_model(1024)
        peak = traced_peak(node_propagator, Susceptibility(coupling))[0] / stack
        assert peak <= self.DEEP_SWEEP_STACKS, f"traced peak {peak:.2f} stacks"

    def test_bath_independence_traced_peak(self, refine_level):
        from dampol.bath import bath_coefficients, verify_bath_independence
        coupling, st, stack = refine_level
        bath = bath_coefficients(coupling, Susceptibility(coupling))
        peak = traced_peak(verify_bath_independence, bath, coupling, st)[0] / stack
        assert peak <= self.INDEPENDENCE_STACKS, f"traced peak {peak:.2f} stacks"
