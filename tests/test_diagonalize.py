import numpy as np
import pytest

from dampol.constants import MU0
from dampol.errors import DampolError
from dampol.coupling import CouplingTensor, builtin_model, coupling_from_lagrangian, structure_tensor
from dampol.diagonalize import (
    annihilator_commutator,
    commutation_deviation,
    commutation_matrix,
    fano_residual,
    mode_coefficients,
    smeared_annihilator_norm,
    smeared_commutation_deviation,
    streamed_mode_checks,
    wave_diagnostic,
)
from dampol.fields import field_form
from dampol.green import green_sweep, sweep_at_nodes
from dampol.lattice import FrequencyGrid, TensorKernel
from dampol.susceptibility import Susceptibility

from test_coupling import scalar_coupling


def make_modes(coupling):
    sweep = sweep_at_nodes(Susceptibility(coupling), side=-1)
    return mode_coefficients(coupling, sweep), sweep


class TestAssembly:
    def test_zero_coupling(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        zero = CouplingTensor.zero(small_lattice, grid)
        modes, _ = make_modes(zero)
        assert np.linalg.norm(modes.potential) == 0.0
        assert np.linalg.norm(modes.momentum) == 0.0
        assert np.linalg.norm(modes.resonant) == 0.0
        assert np.linalg.norm(modes.antiresonant) == 0.0
        # the resonant family is then the pure Kronecker part
        k = 2
        got = modes.resonant_kernel(k, k)
        expected = (1.0 / grid.weights[k]) * TensorKernel.identity(small_lattice)
        assert got.allclose(expected)

    def test_single_site_momentum_scalar(self, single_site):
        grid = FrequencyGrid.midpoint(3, 3.0)
        tau = 0.6
        coupling = scalar_coupling(single_site, grid, tau)
        modes, sweep = make_modes(coupling)
        k = 1
        om = grid.nodes[k]
        g = sweep[k].kernel.mat[0, 0]
        assert modes.momentum[k][0, 0] == pytest.approx(1j * MU0 * om * tau * g)

    def test_transversality_of_first_two_families(self, random_lagrangian):
        modes, _ = make_modes(random_lagrangian)
        pt = random_lagrangian.lattice.transverse_matrix
        for fam in (modes.potential, modes.momentum):
            proj = fam @ pt
            assert np.linalg.norm(proj - fam) <= 1e-12 * max(np.linalg.norm(fam), 1e-300)

    def test_requires_matching_sweep(self, random_lagrangian):
        chi = Susceptibility(random_lagrangian)
        bad = green_sweep(chi, random_lagrangian.grid.nodes[:-1] - 1j * random_lagrangian.grid.eta)
        with pytest.raises(DampolError):
            mode_coefficients(random_lagrangian, bad)

    def test_every_evaluator_rejects_sweep_above_cut(self, lorentz_coupling, lorentz_structure):
        above = sweep_at_nodes(Susceptibility(lorentz_coupling), side=+1)
        with pytest.raises(DampolError, match="below the cut"):
            mode_coefficients(lorentz_coupling, above)
        with pytest.raises(DampolError, match="below the cut"):
            streamed_mode_checks(lorentz_coupling, above, lorentz_structure)
        with pytest.raises(DampolError, match="below the cut"):
            wave_diagnostic(lorentz_coupling, above)
        with pytest.raises(DampolError, match="below the cut"):
            field_form("E", lorentz_coupling, above)


class TestFanoResiduals:
    def test_ratio_identity_machine_zero(self, random_lagrangian):
        modes, _ = make_modes(random_lagrangian)
        st = structure_tensor(random_lagrangian)
        rep = fano_residual(modes, random_lagrangian, st)
        assert rep.potential_ratio <= 1e-14

    def test_zero_coupling_all_zero(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        zero = CouplingTensor.zero(small_lattice, grid)
        modes, _ = make_modes(zero)
        # structure tensor is undefined for zero coupling; substitute the
        # zero kernel directly
        from dampol.coupling import StructureTensor
        st = StructureTensor(kernel=TensorKernel.zero(small_lattice), source=zero)
        rep = fano_residual(modes, zero, st)
        assert rep.wave == 0.0
        assert rep.resonant == 0.0
        assert rep.antiresonant == 0.0

    def test_wave_diagnostic_machine_zero(self, lorentz_coupling):
        sweep = sweep_at_nodes(Susceptibility(lorentz_coupling), side=-1)
        assert wave_diagnostic(lorentz_coupling, sweep) <= 1e-12

    def test_residuals_converge_first_order(self, small_lattice):
        vals = []
        for K in (16, 32):
            grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
            coupling = coupling_from_lagrangian(builtin_model("local_lorentz", small_lattice, grid))
            modes, _ = make_modes(coupling)
            rep = fano_residual(modes, coupling, structure_tensor(coupling))
            vals.append(rep)
        assert vals[0].wave / vals[1].wave >= 1.7
        assert vals[0].resonant / vals[1].resonant >= 1.7
        assert vals[0].antiresonant / vals[1].antiresonant >= 1.7


class TestCommutationChecks:
    def test_zero_coupling_exact(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        zero = CouplingTensor.zero(small_lattice, grid)
        modes, _ = make_modes(zero)
        for k, l in ((0, 0), (1, 3)):
            got = commutation_matrix(modes, k, l)
            if k == l:
                expected = (1.0 / grid.weights[k]) * TensorKernel.identity(small_lattice)
                assert got.allclose(expected)
            else:
                assert got.norm() == 0.0
            assert annihilator_commutator(modes, k, l).norm() == 0.0

    def test_deviation_kernel_is_matrix_minus_delta(self, lorentz_coupling):
        modes, _ = make_modes(lorentz_coupling)
        k = 3
        dev = commutation_deviation(modes, k, k)
        mat = commutation_matrix(modes, k, k)
        delta = (1.0 / lorentz_coupling.grid.weights[k]) * TensorKernel.identity(lorentz_coupling.lattice)
        assert dev.allclose(mat - delta, tol=1e-13)

    def test_smeared_deviations_converge(self, small_lattice):
        c1, c13 = [], []
        for K in (24, 48):
            grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
            coupling = coupling_from_lagrangian(builtin_model("local_lorentz", small_lattice, grid))
            modes, _ = make_modes(coupling)
            c1.append(max(smeared_commutation_deviation(modes).values()))
            c13.append(max(smeared_annihilator_norm(modes).values()))
        assert c1[0] / c1[1] >= 1.5
        assert c13[0] / c13[1] >= 1.5

    def test_streamed_matches_stacked(self, lorentz_coupling):
        modes, sweep = make_modes(lorentz_coupling)
        st = structure_tensor(lorentz_coupling)
        rep = fano_residual(modes, lorentz_coupling, st)
        sc = streamed_mode_checks(lorentz_coupling, sweep, st)
        assert sc.max_residual() == pytest.approx(rep.max_residual(), rel=1e-12)
        assert sc.potential_ratio == pytest.approx(rep.potential_ratio, rel=1e-12)
        assert sc.wave == pytest.approx(rep.wave, rel=1e-12)
        assert max(sc.resonant.values()) == pytest.approx(rep.resonant, rel=1e-12)
        assert max(sc.antiresonant.values()) == pytest.approx(rep.antiresonant, rel=1e-12)
        assert max(sc.commutation.values()) == pytest.approx(
            max(smeared_commutation_deviation(modes).values()), rel=1e-12)
        assert max(sc.annihilator.values()) == pytest.approx(
            max(smeared_annihilator_norm(modes).values()), rel=1e-12)

    def test_offdiagonal_pair_decreases_under_refinement(self, small_lattice):
        norms = []
        for K in (16, 32):
            grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
            coupling = coupling_from_lagrangian(builtin_model("local_lorentz", small_lattice, grid))
            modes, _ = make_modes(coupling)
            # same physical frequency pair at both resolutions, well separated
            k = K // 4
            l = 3 * K // 4
            norms.append(commutation_deviation(modes, k, l).norm()
                         * grid.weights[k])
        assert norms[1] < norms[0]
