import numpy as np
import pytest

from dampol.errors import DampolError, SingularOperatorError
from dampol import green
from dampol.green import (
    COND_LIMIT,
    TOL_SOLVE,
    condition_numbers,
    node_propagator,
    solve_green,
    solve_stack,
    verify_adjoint,
    wave_operator,
)
from dampol.lattice import FrequencyGrid, build_lattice, frobenius_cond
from dampol.susceptibility import Susceptibility, chi_stack, reflection_residuals

from reference import TensorKernel, blocks, longitudinal_matrix, site_positions, sites, zero_coupling
from test_coupling import scalar_coupling


def vacuum_chi(lattice, grid):
    return Susceptibility(zero_coupling(lattice, grid))


def green_at(chi, z):
    """The propagator kernel at one point, rotated back to sites."""
    return TensorKernel(chi.lattice, sites(chi.layout, solve_green(chi, [z]))[0])


class TestVacuumClosedForms:
    def test_longitudinal_block(self):
        lat = build_lattice(2, 1.0)
        grid = FrequencyGrid.midpoint(4, 3.0)
        z = 1.3 - 0.4j
        g = green_at(vacuum_chi(lat, grid), z)
        pl = TensorKernel(lat, longitudinal_matrix(lat) / lat.cell_volume)
        gl = g @ pl
        assert gl.allclose((1.0 / z**2) * pl, tol=1e-12)

    def test_transverse_fourier_modes(self):
        lat = build_lattice(2, 1.0)
        grid = FrequencyGrid.midpoint(4, 3.0)
        z = 0.9 - 0.7j
        g = green_at(vacuum_chi(lat, grid), z)
        # per-mode oracle: assemble from Fourier blocks
        oracle = np.zeros((lat.dim, lat.dim), dtype=complex)
        for kidx in range(lat.n_sites):
            kvec = lat.kvecs[kidx]
            ksq = kvec @ kvec
            if ksq == 0:
                block = np.eye(3) / z**2
            else:
                khat = kvec / np.sqrt(ksq)
                pt_block = np.eye(3) - np.outer(khat, khat)
                block = pt_block / (z**2 - ksq) + np.outer(khat, khat) / z**2
            phase = np.exp(1j * (site_positions(lat) @ kvec))
            site_mat = np.outer(phase, phase.conj()) / lat.n_sites
            oracle += np.kron(site_mat, block)
        assert np.allclose(g.mat, oracle / lat.cell_volume, atol=1e-12)


class TestSingleSiteClosedForm:
    def test_one_node_scalar(self):
        lat = build_lattice(1, 1.0)
        grid = FrequencyGrid.midpoint(1, 2.0)
        tau = 0.8
        coupling = scalar_coupling(lat, grid, tau)
        z = 1.4 - 0.3j
        g = green_at(Susceptibility(coupling), z)
        chi_scalar = sites(coupling.layout, chi_stack(coupling, [z]))[0, 0, 0]
        expected = 1.0 / (z**2 * (1.0 + chi_scalar))
        assert np.allclose(g.mat, expected * np.eye(3), atol=1e-12 * abs(expected))


class TestResiduals:
    def test_defining_residual_small(self, random_lagrangian, rng):
        chi = Susceptibility(random_lagrangian)
        zs = [complex(rng.uniform(0.3, 5.0), -rng.uniform(0.05, 1.0)) for _ in range(3)]
        _, residual, failures, _ = solve_stack(chi, zs)
        assert not failures
        assert np.all(residual <= TOL_SOLVE)

    def test_adjoint_residual_small(self, random_lagrangian, rng):
        # points above the cut, where the node propagator never sits
        chi = Susceptibility(random_lagrangian)
        zs = [complex(rng.uniform(0.3, 5.0), rng.uniform(0.05, 1.0)) for _ in range(3)]
        assert verify_adjoint(chi, zs, solve_green(chi, zs)) <= TOL_SOLVE

    def test_adjoint_flags_broken_symmetry(self, random_lagrangian):
        chi = Susceptibility(random_lagrangian)
        d = random_lagrangian.lattice.dim
        pert = np.zeros((d, d))
        pert[0, 1] = 0.05
        broken = chi.perturbed(blocks(random_lagrangian.lattice.one_block, pert))
        assert verify_adjoint(broken, [1.0 - 0.4j], solve_green(broken, [1.0 - 0.4j])) > 1e-6

    def test_real_z_rejected(self, random_lagrangian):
        with pytest.raises(DampolError):
            solve_green(Susceptibility(random_lagrangian), [1.0 - 0.5j, 1.0])


class TestSymmetries:
    def test_reciprocity_and_conjugation(self, random_lagrangian, rng):
        chi = Susceptibility(random_lagrangian)
        zs = [complex(rng.uniform(-4, 4), rng.choice([-1, 1]) * rng.uniform(0.1, 1.0)) for _ in range(4)]
        sym = reflection_residuals(chi.layout, lambda pts: solve_green(chi, pts), zs)
        assert sym["transpose"] <= 1e-9
        assert sym["conjugation"] <= 1e-9

    def test_reflection_matches_site_kernels(self, lorentz_coupling):
        # the block-by-block transpose and conjugate are the site kernels'
        chi = Susceptibility(lorentz_coupling)
        z = 1.2 - 0.3j
        here, minus, mirror = (green_at(chi, p) for p in (z, -z, -np.conj(z)))
        sym = reflection_residuals(chi.layout, lambda pts: solve_green(chi, pts), [z])
        assert sym["transpose"] == pytest.approx((here.T - minus).norm() / here.norm(), rel=1e-6, abs=1e-15)
        assert sym["conjugation"] == pytest.approx((here.conj() - mirror).norm() / here.norm(),
                                                   rel=1e-6, abs=1e-15)

    def test_upper_from_lower(self, random_lagrangian):
        # the field forms read the propagator above the cut as this adjoint
        chi = Susceptibility(random_lagrangian)
        omega = random_lagrangian.grid.nodes[4]
        eta = random_lagrangian.grid.eta
        lower = green_at(chi, omega - 1j * eta)
        upper = green_at(chi, omega + 1j * eta)
        assert lower.conj().T.allclose(upper, tol=1e-10)


class TestSweep:
    def test_node_sweep(self, lorentz_coupling):
        chi = Susceptibility(lorentz_coupling)
        prop = node_propagator(chi)
        grid, d = lorentz_coupling.grid, lorentz_coupling.lattice.dim
        assert prop.coupling is lorentz_coupling
        assert sites(prop.layout, prop.blocks).shape == (grid.n_nodes, d, d)
        assert prop.residual.shape == prop.cond.shape == (grid.n_nodes,)
        assert np.all(prop.residual <= TOL_SOLVE)
        assert np.all(prop.z.imag == -grid.eta)

    def test_entries_sit_at_nodes_below_cut(self, random_lagrangian):
        grid = random_lagrangian.grid
        prop = node_propagator(Susceptibility(random_lagrangian))
        assert list(prop.z) == list(grid.nodes - 1j * grid.eta)

    def test_stack_equals_one_point_solves(self, random_lagrangian):
        chi = Susceptibility(random_lagrangian)
        prop = node_propagator(chi)
        for k, z in enumerate(prop.z):
            blocks, residual, _, mat = solve_stack(chi, [z])
            ref = sites(prop.layout, blocks[0])
            assert np.linalg.norm(sites(prop.layout, prop.blocks[k]) - ref) <= 1e-13 * np.linalg.norm(ref)
            assert prop.residual[k] == pytest.approx(residual[0], rel=1e-12, abs=1e-15)
            assert prop.cond[k] == pytest.approx(condition_numbers(prop.layout, mat, blocks)[0], rel=1e-12)

    def test_exactly_singular_nodes_named_together(self, lorentz_coupling, monkeypatch):
        # an exactly singular node makes the batched inv raise for the whole
        # stack; the sweep still names every failed node in one error
        # with the blocks of one size of the n = 2 sector layout
        chi = Susceptibility(lorentz_coupling)
        grid, v = lorentz_coupling.grid, lorentz_coupling.lattice.cell_volume
        zs = grid.nodes - 1j * grid.eta
        mats = wave_operator(chi.blocks_at(zs), zs, chi.layout)
        mats *= v
        (part,) = chi.layout.parts(mats)
        singular = [part[1], part[3]]
        inv = np.linalg.inv

        def inv_failing_on_singular(a):
            stack = a if a.ndim == 4 else a[None]
            if any(np.array_equal(m, s) for m in stack for s in singular):
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(a)
        monkeypatch.setattr(np.linalg, "inv", inv_failing_on_singular)
        with pytest.raises(SingularOperatorError, match=r"sweep failed at indices \[1, 3\]: \{1: ") as err:
            node_propagator(chi)
        assert str(err.value).count("near-singular (cond = inf)") == 2

    def test_duplicates_identical(self, lorentz_coupling):
        chi = Susceptibility(lorentz_coupling)
        z = 1.0 - 0.2j
        assert np.array_equal(solve_green(chi, [z]), solve_green(chi, [z]))

    def test_failed_node_raises_naming_it(self, small_lattice):
        # vacuum with node 1 on the light line |k| = pi of the n = 2 lattice:
        # a vanishing offset makes that wave operator singular
        assert np.isclose(np.linalg.norm(small_lattice.kvecs, axis=1), np.pi).any()
        grid = FrequencyGrid(nodes=[1.0, np.pi], weights=[2.0, 2.0], eta=1e-14, omega_max=4.0)
        with pytest.raises(SingularOperatorError, match=r"sweep failed at indices \[1\]: \{1: "):
            node_propagator(vacuum_chi(small_lattice, grid))

    def test_wave_operator_shape(self, small_lattice):
        grid = FrequencyGrid.midpoint(2, 2.0)
        chi = vacuum_chi(small_lattice, grid)
        layout = small_lattice.sector_layout
        w = wave_operator(chi.blocks_at([1.0 + 1.0j])[0], 1.0 + 1.0j, layout)
        assert w.shape == (layout.size,)
        assert sites(layout, w).shape == (small_lattice.dim, small_lattice.dim)


class TestConditionNumber:
    def test_two_norm_condition_from_the_singular_values(self, random_lagrangian):
        chi = Susceptibility(random_lagrangian)
        z = 1.1 - 0.3j
        blocks, _, _, operator = solve_stack(chi, [z])
        layout = chi.layout
        cond = condition_numbers(layout, operator, blocks)
        mat = chi.lattice.cell_volume * sites(layout, wave_operator(chi_stack(random_lagrangian, [z])[0], z, layout))
        assert cond[0] == pytest.approx(np.linalg.cond(mat), rel=1e-12, abs=0)

    def test_sweep_gives_the_unscreened_failures(self, small_lattice, monkeypatch):
        # vacuum at n = 2 near the light line |k| = pi, where cond grows as 1 / eta:
        # points cleared by their Frobenius bound, points screened that pass, and
        # points that fail, besides two far off the line; every point fails or
        # passes with the message, and the first failure raises with the cond,
        # of the check without the screen, in which every point takes an SVD
        chi = vacuum_chi(small_lattice, FrequencyGrid.midpoint(4, 4.0))
        dim = small_lattice.dim
        zs = np.r_[np.pi - 1j * np.logspace(-3, -13, 41), 1.0 - 0.3j, 2.0 + 0.5j]
        blocks, residual, failures, mat = solve_stack(chi, zs)
        bound = dim * frobenius_cond(mat, blocks * small_lattice.cell_volume)
        cond = dim * condition_numbers(chi.layout, mat, blocks)
        assert np.any(bound <= COND_LIMIT / 2)
        assert np.any((bound > COND_LIMIT / 2) & (cond <= COND_LIMIT))
        assert np.any(cond > COND_LIMIT)
        with pytest.raises(SingularOperatorError) as screened:
            solve_green(chi, zs)
        monkeypatch.setattr(green, "frobenius_cond", lambda a, a_inv: np.full(len(a), np.inf))
        _, ref_residual, ref_failures, _ = solve_stack(chi, zs)
        assert failures == ref_failures
        assert np.array_equal(residual, ref_residual)
        with pytest.raises(SingularOperatorError) as ref:
            solve_green(chi, zs)
        assert (str(screened.value), screened.value.cond) == (str(ref.value), ref.value.cond)

    def test_exactly_singular_raises_singular_operator(self, small_lattice, monkeypatch):
        def singular(mat):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "inv", singular)
        chi = vacuum_chi(small_lattice, FrequencyGrid.midpoint(4, 3.0))
        with pytest.raises(SingularOperatorError, match="near-singular"):
            solve_green(chi, [1.0 - 0.3j])
