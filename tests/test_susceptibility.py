import re
from types import SimpleNamespace

import numpy as np
import pytest

from dampol.constants import EPS0, HBAR
from dampol.errors import PoleError
from dampol.coupling import (
    builtin_model,
    coupling_from_lagrangian,
    spectral_moments,
    structure_tensor,
)
from dampol.lattice import FrequencyGrid, build_lattice, frobenius_cond, rel_norms, sq_norms, unit_scale
from dampol.susceptibility import (
    Susceptibility,
    asymptote_residual,
    chi_stack,
    discontinuity,
    reflection_residuals,
    verify_kramers_kronig,
    verify_sum_rules,
)

from conftest import traced_peak
from reference import TensorKernel, blocks, chi_asymptotic, from_kernels, gram_stack, sites, zero_coupling
from test_coupling import scalar_coupling, site_kernels


def chi_kernel(coupling, z):
    """The susceptibility kernel at one point, its blocks rotated back to sites."""
    return TensorKernel(coupling.lattice, sites(coupling.layout, chi_stack(coupling, [z]))[0])


def site_discontinuity(coupling):
    """The (K, d, d) cut discontinuity in the site basis."""
    return sites(coupling.layout, discontinuity(coupling))


def scalar_chi_oracle(grid, tau, z):
    """Independent scalar evaluation: sum over nodes of the resonance pair."""
    g = HBAR * grid.weights * abs(tau) ** 2 / EPS0
    return np.sum(2.0 * g * grid.nodes / (grid.nodes**2 - z**2))


class TestChiAt:
    """One-point evaluations."""

    def test_zero_coupling(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        chi = chi_kernel(zero_coupling(small_lattice, grid), 1.0 + 0.5j)
        assert chi.norm() == 0.0

    def test_single_node_scalar_closed_form(self, single_site):
        grid = FrequencyGrid.midpoint(1, 2.0)
        tau = 0.8
        coupling = scalar_coupling(single_site, grid, tau)
        z = 0.4 + 0.3j
        chi = chi_kernel(coupling, z)
        w1, g = grid.nodes[0], HBAR * grid.weights[0] * tau**2 / EPS0
        expected = 2.0 * g * w1 / (w1**2 - z**2)
        assert np.allclose(chi.mat, expected * np.eye(3))

    def test_multi_node_scalar_oracle(self, single_site):
        grid = FrequencyGrid.midpoint(6, 4.0)
        tau = 0.5
        coupling = scalar_coupling(single_site, grid, tau)
        z = 1.1 + 0.2j
        chi = chi_kernel(coupling, z)
        assert np.allclose(chi.mat, scalar_chi_oracle(grid, tau, z) * np.eye(3))

    def test_real_on_imaginary_axis(self, random_lagrangian):
        chi = chi_kernel(random_lagrangian, 2.0j)
        assert np.linalg.norm(chi.mat.imag) <= 1e-14 * chi.norm()

    def test_pole_error_on_node(self, lorentz_coupling):
        node = lorentz_coupling.grid.nodes[3]
        with pytest.raises(PoleError):
            chi_kernel(lorentz_coupling, complex(node))

    @pytest.mark.parametrize("side", [+1, -1])
    def test_matches_einsum_definition(self, random_lagrangian, side):
        grid = random_lagrangian.grid
        dens = random_lagrangian.lattice.cell_volume * gram_stack(site_kernels(random_lagrangian))
        for z in (grid.nodes[3] + side * 1j * grid.eta, 2.3 + side * 0.7j, -1.1 + side * 0.05j):
            res = np.einsum("k,kij->ij", grid.weights / (grid.nodes - z), dens)
            anti = np.einsum("k,kij->ij", grid.weights / (grid.nodes + z), dens.conj())
            ref = (HBAR / EPS0) * (res + anti)
            got = chi_kernel(random_lagrangian, z).mat
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


class TestChiStack:
    def test_matches_one_point_evaluations(self, random_lagrangian, rng):
        grid = random_lagrangian.grid
        zs = np.concatenate([grid.nodes + 1j * grid.eta, grid.nodes - 1j * grid.eta,
                             rng.uniform(-4, 4, 5) + 1j * rng.uniform(-1, 1, 5), [0.5 * grid.nodes[0]]])
        stack = chi_stack(random_lagrangian, zs)
        assert stack.shape == (zs.size, random_lagrangian.layout.size)
        for z, mat in zip(zs, stack):
            ref = chi_stack(random_lagrangian, [z])[0]
            assert np.linalg.norm(mat - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_sector_blocks_match_site_stack(self, lorentz_coupling):
        zs = np.array([1.2 + 0.3j, -0.7 - 0.1j, 2.0j])
        sector, one = lorentz_coupling.lattice.sector_layout, lorentz_coupling.lattice.one_block
        ref = sites(one, chi_stack(lorentz_coupling.relaid(one), zs))
        got = sites(sector, chi_stack(lorentz_coupling, zs))
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_perturbed_blocks_add_the_perturbation(self, random_lagrangian):
        d = random_lagrangian.lattice.dim
        pert = np.zeros((d, d))
        pert[0, 1] = 0.3
        chi = Susceptibility(random_lagrangian).perturbed(blocks(random_lagrangian.lattice.one_block, pert))
        zs = np.array([1.2 + 0.3j, -0.7 - 0.1j])
        assert chi.layout is random_lagrangian.lattice.one_block
        assert chi.source is random_lagrangian
        assert np.array_equal(chi.blocks_at(zs), chi_stack(random_lagrangian, zs) + blocks(chi.layout, pert))

    def test_pole_error_names_the_point_on_a_node(self, lorentz_coupling):
        node = lorentz_coupling.grid.nodes[3]
        with pytest.raises(PoleError, match=re.escape(f"z = {complex(node)} sits on a quadrature node")):
            chi_stack(lorentz_coupling, [1.0 + 0.5j, node, 0.3])


class TestDiscontinuity:
    def test_node_value_matches_kernel_product(self, random_lagrangian):
        # direct kernel-multiply oracle at a node
        k = 4
        t = TensorKernel(random_lagrangian.lattice, site_kernels(random_lagrangian)[k])
        oracle = (2.0j * np.pi * HBAR / EPS0) * (t.T @ t.conj())
        assert TensorKernel(t.lattice, site_discontinuity(random_lagrangian)[k]).allclose(oracle, tol=1e-12)

    def test_negative_frequency_mirror(self, random_lagrangian):
        # the mirror relation disc(-w) = conj(disc(w)) = -disc(w).T at a node
        disc = TensorKernel(random_lagrangian.lattice, site_discontinuity(random_lagrangian)[5])
        assert disc.conj().allclose(-disc.T, tol=1e-12)

    def test_lossy_sign(self, random_lagrangian):
        # -i * disc must be positive semidefinite for a lossy medium
        mat = -1j * site_discontinuity(random_lagrangian)[6]
        evals = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
        assert evals[0] >= -1e-12 * max(evals[-1], 1e-300)


class TestKramersKronig:
    def test_zero_coupling(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        coupling = zero_coupling(small_lattice, grid)
        assert verify_kramers_kronig(Susceptibility(coupling), [1.0 + 1.0j]) == 0.0

    def test_one_node_model(self, single_site):
        grid = FrequencyGrid.midpoint(1, 2.0)
        coupling = scalar_coupling(single_site, grid, 0.7)
        assert verify_kramers_kronig(Susceptibility(coupling), [1j * grid.nodes[0]]) <= 1e-12

    def test_random_model_machine_precision(self, random_lagrangian, rng):
        zs = [complex(rng.uniform(-3, 3), rng.uniform(0.1, 2.0) * rng.choice([-1, 1])) for _ in range(5)]
        assert verify_kramers_kronig(Susceptibility(random_lagrangian), zs) <= 1e-10

    def test_real_point_rejected(self, lorentz_coupling):
        with pytest.raises(PoleError, match="needs Im z != 0"):
            verify_kramers_kronig(Susceptibility(lorentz_coupling), [1.0 + 0.5j, 0.7])

    def test_flags_a_broken_representation(self, lorentz_coupling, monkeypatch):
        # the right side reads the discontinuity, not chi_stack: a 1e-6 defect in
        # one node's discontinuity shows at first order
        import dampol.susceptibility as sus
        exact = sus.discontinuity

        def broken(coupling):
            disc = exact(coupling)
            disc[3] *= 1.0 + 1e-6
            return disc
        monkeypatch.setattr(sus, "discontinuity", broken)
        assert verify_kramers_kronig(Susceptibility(lorentz_coupling), [1.0 + 0.5j]) > 1e-9


class TestSumRules:
    def test_all_three_machine_precision(self, random_lagrangian):
        st = structure_tensor(random_lagrangian)
        report = verify_sum_rules(random_lagrangian, st)
        assert report.moment0 <= 1e-12
        assert report.moment1 <= 1e-12
        assert report.moment2 <= 1e-12

    def test_first_moment_recovers_structure(self, lorentz_coupling):
        st = structure_tensor(lorentz_coupling)
        report = verify_sum_rules(lorentz_coupling, st)
        assert report.moment1 <= 1e-13


class TestTinyCoupling:
    """At strength 1e-101 chi is about 1e-203 and its squared entries underflow.

    Unscaled, every residual of the chi stage reads exactly 0; the norms are
    taken after one exact power-of-two scale, so a 1e-8 relative defect
    injected into one chi block fails its check (TOL_EXACT = 1e-10).
    """

    ZS = [0.4 + 0.7j, -1.1 + 0.3j, 2.0 - 1.2j]

    @pytest.fixture(scope="class")
    def tiny(self):
        lat = build_lattice(2, 1.0)
        grid = FrequencyGrid.midpoint(12, 3.0, eta_factor=1.0)
        coupling = coupling_from_lagrangian(builtin_model(
            "local_lorentz", lat, grid, {"resonance": 1.5, "width": 0.6, "strength": 1e-101}))
        top = np.abs(chi_stack(coupling, self.ZS)).max()
        assert 1e-210 < top < 1e-195
        return coupling, structure_tensor(coupling), top

    def test_kramers_kronig_measures_and_flags_a_defect(self, tiny, monkeypatch):
        import dampol.susceptibility as sus
        coupling, _, top = tiny
        assert 0.0 < verify_kramers_kronig(Susceptibility(coupling), self.ZS) <= 1e-14
        exact = sus.chi_stack

        def defective(*args):
            out = exact(*args)
            out[1, 0] += 1e-8 * top   # one entry of one block at the second point
            return out
        monkeypatch.setattr(sus, "chi_stack", defective)
        assert verify_kramers_kronig(Susceptibility(coupling), self.ZS) > 1e-9

    def test_reflections_flag_a_defect(self, tiny):
        coupling, _, top = tiny
        chi = Susceptibility(coupling)
        d = coupling.lattice.dim
        pert = np.zeros((d, d), dtype=complex)
        pert[0, 1] = (1.0 + 1.0j) * 1e-8 * top   # breaks both reflections in the block it enters
        bad = chi.perturbed(blocks(coupling.lattice.one_block, pert))
        res = reflection_residuals(bad.layout, bad.blocks_at, self.ZS)
        assert res["transpose"] > 1e-9 and res["conjugation"] > 1e-9

    def test_sum_rules_flag_a_defect(self, tiny):
        coupling, st, _ = tiny
        assert verify_sum_rules(coupling, st).moment1 <= 1e-15
        mat = st.blocks
        assert verify_sum_rules(coupling, type(st)(st.layout, mat * (1.0 + 1e-8))).moment1 > 1e-9
        mom = coupling.moments
        for name in ("imag0", "imag2"):
            broken = SimpleNamespace(**{**vars(mom), name: getattr(mom, name) + 1e-8 * mat.real},
                                     structure_gap=mom.structure_gap)
            report = verify_sum_rules(SimpleNamespace(moments=broken, grid=coupling.grid), st)
            assert getattr(report, name.replace("imag", "moment")) > 1e-9

    def test_scaled_ratio_is_the_unscaled_one_bit_for_bit(self, rng):
        num, den = rng.standard_normal((2, 4, 30)) * 37.0
        assert np.array_equal(rel_norms(num, den), np.sqrt(sq_norms(num)) / np.sqrt(sq_norms(den)))
        assert unit_scale(0.0) == 1.0 and unit_scale(3.0) == 0.25 and unit_scale(1e-300) * 1e-300 >= 0.5

    def test_long_rows_give_the_unscaled_ratio_bit_for_bit(self, rng):
        # 5 MB of complex rows go in chunks of two and three: a lone row of
        # this length would come out of np.einsum in another order
        num, den = rng.standard_normal((2, 9, 36864)) + 1j * rng.standard_normal((2, 9, 36864))
        assert np.array_equal(rel_norms(num, den), np.sqrt(sq_norms(num)) / np.sqrt(sq_norms(den)))

    def test_ratio_holds_no_copy_of_an_operand(self, rng):
        # the rows are scaled an eighth at a time, so the call allocates about
        # an eighth of one operand, not a scaled copy of each
        num, den = rng.standard_normal((2, 64, 4096)) + 1j * rng.standard_normal((2, 64, 4096))
        peak, _ = traced_peak(rel_norms, num, den)
        assert peak <= num.nbytes / 4

    def test_chunked_bound_is_the_whole_stack_one_bit_for_bit(self, rng):
        # 5 MB of complex rows go in chunks of two and three, each row scaled
        # by its own power of two, as a scaled copy of the whole stack scales it
        def bound(x):
            unit = unit_scale(np.abs(x).max(axis=-1))
            return np.sqrt(sq_norms(x * unit[:, None])) / unit
        a, a_inv = rng.standard_normal((2, 9, 36864)) + 1j * rng.standard_normal((2, 9, 36864))
        a[0] *= 1e200
        a_inv[1] *= 1e-200
        a_inv[2] = 0.0
        assert np.array_equal(frobenius_cond(a, a_inv), bound(a) * bound(a_inv))

    def test_bound_holds_no_copy_of_an_operand(self, rng):
        # the rows are scaled a chunk at a time, as in `rel_norms`
        a, a_inv = rng.standard_normal((2, 256, 4096)) + 1j * rng.standard_normal((2, 256, 4096))
        peak, _ = traced_peak(frobenius_cond, a, a_inv)
        assert peak <= a.nbytes / 4


class TestAsymptotics:
    def test_large_z_matches_structure(self, lorentz_coupling):
        st = structure_tensor(lorentz_coupling)
        z = 1e3 * lorentz_coupling.grid.omega_max * (1.0 + 0.3j)
        chi = chi_kernel(lorentz_coupling, z)
        asym = TensorKernel(lorentz_coupling.lattice, sites(st.layout, chi_asymptotic(st, z)))
        assert (chi - asym).norm() <= 1e-5 * asym.norm()

    def test_quartic_decay_ratio(self, lorentz_coupling):
        st = structure_tensor(lorentz_coupling)
        z1 = 50.0 * lorentz_coupling.grid.omega_max * 1j
        r1 = asymptote_residual(lorentz_coupling, st, z1)
        r2 = asymptote_residual(lorentz_coupling, st, 2 * z1)
        assert r1 / r2 == pytest.approx(16.0, rel=0.3)


def asymptote_residual_extended(coupling, structure, z):
    """chi(z) - chi_asymptotic(z) by direct subtraction in extended precision.

    Both terms are summed from the coupling's density blocks, the ones S is
    the moment of: the figure is ill-conditioned in S, so a reference whose
    densities differ from S's by round-off, such as the dense Gram, would
    move it by 1e-7 relative.
    """
    nodes = coupling.grid.nodes.astype(np.longdouble)
    w = coupling.grid.weights.astype(np.longdouble)
    dens = coupling.density.astype(np.clongdouble)
    z = np.clongdouble(z)
    chi = np.einsum("k,kn->n", w / (nodes - z), dens) + np.einsum("k,kn->n", w / (nodes + z), dens.conj())
    corr = chi + structure.blocks.astype(np.clongdouble) / z**2
    return HBAR / EPS0 * float(np.sqrt(np.sum(np.abs(corr) ** 2)) / np.linalg.norm(structure.blocks))


def shipped_or_violating_coupling(name, lattice):
    """A shipped model on the shipped grid, or a random complex coupling that
    breaks the even-moment sum rules."""
    grid = FrequencyGrid.midpoint(12, 3.0)
    if name != "sum_rule_violator":
        return coupling_from_lagrangian(builtin_model(name, lattice, grid))
    rng = np.random.default_rng(8)
    d = lattice.dim
    kernels = 0.5 * (rng.standard_normal((12, d, d)) + 1j * rng.standard_normal((12, d, d)))
    return from_kernels(lattice, grid, kernels / lattice.cell_volume)


def reversed_nodes(coupling):
    """The coupling with its node order reversed, moments included.

    A grid must be increasing, so this stands in for a coupling with the
    fields the asymptote and the structure tensor read.
    """
    grid, layout = coupling.grid, coupling.layout
    nodes, weights, dens = grid.nodes[::-1], grid.weights[::-1], coupling.density[::-1]
    return SimpleNamespace(lattice=coupling.lattice, layout=layout, density=dens,
                           grid=SimpleNamespace(nodes=nodes, weights=weights),
                           moments=spectral_moments(nodes, weights, dens, layout))


class TestAsymptoteExpansion:
    @pytest.mark.parametrize("name", ["local_lorentz", "gaussian_nonlocal", "uniaxial_local",
                                      "sum_rule_violator"])
    def test_matches_extended_precision_subtraction(self, small_lattice, name):
        coupling = shipped_or_violating_coupling(name, small_lattice)
        st = structure_tensor(coupling)
        for z in (150j, 300j):
            assert asymptote_residual(coupling, st, z) == pytest.approx(
                asymptote_residual_extended(coupling, st, z), rel=1e-10, abs=0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="no extended precision on this platform")
    @pytest.mark.parametrize("name", ["local_lorentz", "gaussian_nonlocal", "uniaxial_local"])
    def test_quartic_figure_matches_extended_precision_subtraction(self, small_lattice, name):
        # the m1 - S gap must keep what rounding S to float64 dropped: without
        # it the figure moves by 5e-9 on local_lorentz
        coupling = shipped_or_violating_coupling(name, small_lattice)
        st = structure_tensor(coupling)

        def quartic(residual):
            return abs(residual(coupling, st, 150j) / residual(coupling, st, 300j) / 16 - 1)
        assert quartic(asymptote_residual) == pytest.approx(
            quartic(asymptote_residual_extended), rel=1e-9, abs=0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="no extended precision on this platform")
    def test_quartic_ratio_independent_of_node_order(self, small_lattice):
        # the stage-chi figure |ratio/16 - 1| is a difference of two nearly
        # equal ratios; a 1e-12 error in either residual moves it by 1e-8.
        # The ratio is ill-conditioned in S, so S must not depend on the node
        # order either: a float64 node sum moves this figure by 5.6e-9
        # figure; the reversed coupling brings its own S, from the same evaluator
        coupling = shipped_or_violating_coupling("gaussian_nonlocal", small_lattice)
        reversed_order = reversed_nodes(coupling)

        def quartic(c):
            st = structure_tensor(c)
            return abs(asymptote_residual(c, st, 150j) / asymptote_residual(c, st, 300j) / 16 - 1)
        assert quartic(reversed_order) == pytest.approx(quartic(coupling), rel=1e-9, abs=0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="no extended precision on this platform")
    def test_structure_bit_identical_under_node_reversal(self, small_lattice):
        coupling = shipped_or_violating_coupling("gaussian_nonlocal", small_lattice)
        assert np.array_equal(structure_tensor(reversed_nodes(coupling)).blocks,
                              structure_tensor(coupling).blocks)

    def test_violator_breaks_quartic_decay(self, small_lattice):
        coupling = shipped_or_violating_coupling("sum_rule_violator", small_lattice)
        st = structure_tensor(coupling)
        ratio = asymptote_residual(coupling, st, 150j) / asymptote_residual(coupling, st, 300j)
        assert abs(ratio / 16.0 - 1.0) > 0.3


class TestSusceptibilityObject:
    def test_on_cut_sides_differ_by_disc(self, random_lagrangian):
        chi = Susceptibility(random_lagrangian)
        k = 5
        omega = random_lagrangian.grid.nodes[k]
        jump = chi_kernel(random_lagrangian, omega + 1j * chi.eta) \
            - chi_kernel(random_lagrangian, omega - 1j * chi.eta)
        # finite-eta jump approaches the exact node discontinuity
        exact = TensorKernel(random_lagrangian.lattice, site_discontinuity(random_lagrangian)[k])
        assert jump.norm() > 0.2 * exact.norm()

    def test_symmetries(self, random_lagrangian, rng):
        chi = Susceptibility(random_lagrangian)
        zs = [complex(rng.uniform(-2, 2), rng.uniform(0.2, 1.5)) for _ in range(4)]
        res = reflection_residuals(chi.layout, chi.blocks_at, zs)
        assert res["transpose"] <= 1e-12
        assert res["conjugation"] <= 1e-12

    def test_reflection_evaluates_one_stack(self, lorentz_coupling):
        # every point and both reflections of it in one call, in order
        chi, calls = Susceptibility(lorentz_coupling), []

        def evaluate(pts):
            calls.append(pts)
            return chi.blocks_at(pts)
        zs = np.array([1.0 + 0.5j, -0.3 - 0.2j])
        reflection_residuals(chi.layout, evaluate, zs)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.concatenate([zs, -zs, -zs.conj()]))

    def test_sector_residuals_match_site_kernels(self, lorentz_coupling):
        # the block-by-block transpose and conjugate are those of the site kernels
        chi = Susceptibility(lorentz_coupling)
        d = lorentz_coupling.lattice.dim
        rng = np.random.default_rng(3)
        pert = rng.standard_normal((d, d)) * 1e-3
        broken = chi.perturbed(blocks(lorentz_coupling.lattice.one_block, pert))
        z = 1.1 + 0.4j
        for c in (chi, broken):
            here, minus, mirror = (TensorKernel(c.lattice, m) for m in sites(c.layout,
                c.blocks_at([z, -z, -np.conj(z)])))
            res = reflection_residuals(c.layout, c.blocks_at, [z])
            assert res["transpose"] == pytest.approx((here.T - minus).norm() / here.norm(),
                                                     rel=1e-8, abs=1e-15)
            assert res["conjugation"] == pytest.approx((here.conj() - mirror).norm() / here.norm(),
                                                       rel=1e-8, abs=1e-15)

    def test_perturbation_breaks_transpose_symmetry(self, random_lagrangian, rng):
        chi = Susceptibility(random_lagrangian)
        d = random_lagrangian.lattice.dim
        asym = np.zeros((d, d))
        asym[0, 1] = 0.05
        broken = chi.perturbed(blocks(random_lagrangian.lattice.one_block, asym))
        res = reflection_residuals(broken.layout, broken.blocks_at, [1.0 + 0.5j])
        assert res["transpose"] > 1e-6


class TestLagrangianEvenSymmetry:
    def test_chi_even_in_frequency(self, random_lagrangian, rng):
        # the Lagrangian route makes the spectral density real node by node,
        # which adds an even-frequency symmetry on top of the generic ones
        for _ in range(4):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 1.5))
            here = chi_kernel(random_lagrangian, z)
            there = chi_kernel(random_lagrangian, -z)
            assert (here - there).norm() <= 1e-12 * here.norm()
