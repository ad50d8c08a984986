"""Brute-force ground truth: the full Hamiltonian as a quadratic form.

The canonical operator vector collects the transverse field amplitudes and
their momenta (in a real orthonormal transverse basis, rescaled to unit
commutators) together with the medium ladder operators per frequency node:

    zeta = ( a, p, c[k=0..K-1], c^dag[k=0..K-1] )

The Hamiltonian becomes H = zeta^T h zeta up to an additive constant, and
every Heisenberg equation and mode identity reduces to matrix algebra with
the dynamical matrix built from h and the commutation structure.  Nothing
here uses the propagator or the analytic mode formulas, which is what makes
the checks in this module an independent route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import EPS0, HBAR, MU0
from .coupling import CouplingTensor, StructureTensor
from .diagonalize import SMEAR_PROFILES, ModeCoefficients
from .errors import DampolError
from .lattice import FrequencyGrid, Lattice

MAX_CANONICAL_DIM = 8000


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Hermitian quadratic form over the canonical operator basis."""

    lattice: Lattice
    grid: FrequencyGrid
    h: np.ndarray
    mt: int

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    # -- basis bookkeeping -------------------------------------------------

    @property
    def slice_a(self):
        return slice(0, self.mt)

    @property
    def slice_p(self):
        return slice(self.mt, 2 * self.mt)

    def slice_c(self, k: int):
        d = self.lattice.dim
        base = 2 * self.mt
        return slice(base + k * d, base + (k + 1) * d)

    def slice_cdag(self, k: int):
        d = self.lattice.dim
        base = 2 * self.mt + self.grid.n_nodes * d
        return slice(base + k * d, base + (k + 1) * d)

    @cached_property
    def dagger_index(self) -> np.ndarray:
        """Involution perm with zeta^dag = zeta[perm] (a, p Hermitian; c <-> c^dag).

        As a 0/1 matrix X it acts by indexing: X @ M = M[perm] and
        M @ X = M[:, perm].
        """
        base, n_ladder = 2 * self.mt, self.grid.n_nodes * self.lattice.dim
        return np.concatenate([np.arange(base), base + n_ladder + np.arange(n_ladder),
                               base + np.arange(n_ladder)])

    @cached_property
    def commutation_matrix(self) -> np.ndarray:
        """c-number matrix Sigma with [zeta_i, zeta_j] = Sigma_ij."""
        sig = np.zeros((self.dim, self.dim), dtype=complex)
        eye = np.eye(self.mt)
        sig[self.slice_a, self.slice_p] = 1j * HBAR * eye
        sig[self.slice_p, self.slice_a] = -1j * HBAR * eye
        d = self.lattice.dim
        for k in range(self.grid.n_nodes):
            sig[self.slice_c(k), self.slice_cdag(k)] = np.eye(d)
            sig[self.slice_cdag(k), self.slice_c(k)] = -np.eye(d)
        return sig

    @cached_property
    def dynamical_matrix(self) -> np.ndarray:
        """Matrix realizing [zeta, H] = K zeta.

        The commutation matrix is a scaled sector permutation, so the
        product is assembled by row moves instead of a dense matmul.
        """
        h_sym = (self.h + self.h.T) / 2.0
        out = np.empty_like(h_sym)
        out[self.slice_a] = 2j * HBAR * h_sym[self.slice_p]
        out[self.slice_p] = -2j * HBAR * h_sym[self.slice_a]
        for k in range(self.grid.n_nodes):
            out[self.slice_c(k)] = 2.0 * h_sym[self.slice_cdag(k)]
            out[self.slice_cdag(k)] = -2.0 * h_sym[self.slice_c(k)]
        return out

    def hermiticity_defect(self) -> float:
        h_sym = (self.h + self.h.T) / 2.0
        perm = self.dagger_index
        adj = h_sym.conj()[np.ix_(perm, perm)].T
        return float(np.linalg.norm(adj - h_sym) / max(np.linalg.norm(h_sym), 1e-300))

    # -- canonical rows of the basic operators -----------------------------

    @cached_property
    def rows_vector_potential(self) -> np.ndarray:
        rows = np.zeros((self.lattice.dim, self.dim), dtype=complex)
        rows[:, self.slice_a] = self.lattice.transverse_basis / np.sqrt(self.lattice.cell_volume)
        return rows

    @cached_property
    def rows_field_momentum(self) -> np.ndarray:
        rows = np.zeros((self.lattice.dim, self.dim), dtype=complex)
        rows[:, self.slice_p] = self.lattice.transverse_basis / np.sqrt(self.lattice.cell_volume)
        return rows

    def rows_medium(self, k: int) -> np.ndarray:
        rows = np.zeros((self.lattice.dim, self.dim), dtype=complex)
        scale = 1.0 / np.sqrt(self.lattice.cell_volume * self.grid.weights[k])
        rows[:, self.slice_c(k)] = scale * np.eye(self.lattice.dim)
        return rows

    def rows_medium_dagger(self, k: int) -> np.ndarray:
        rows = np.zeros((self.lattice.dim, self.dim), dtype=complex)
        scale = 1.0 / np.sqrt(self.lattice.cell_volume * self.grid.weights[k])
        rows[:, self.slice_cdag(k)] = scale * np.eye(self.lattice.dim)
        return rows

    def hc_rows(self, rows: np.ndarray) -> np.ndarray:
        return rows.conj()[..., self.dagger_index]

    def commutator_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rows of [O, H] for an operator with the given coefficient rows."""
        return rows @ self.dynamical_matrix


def _polarization_rows(ham: QuadraticHamiltonian, coupling: CouplingTensor) -> np.ndarray:
    v = ham.lattice.cell_volume
    rows = np.zeros((ham.lattice.dim, ham.dim), dtype=complex)
    for k in range(ham.grid.n_nodes):
        s = np.sqrt(v * ham.grid.weights[k])
        rows[:, ham.slice_c(k)] += -1j * HBAR * s * coupling.kernels[k].T
        rows[:, ham.slice_cdag(k)] += 1j * HBAR * s * coupling.kernels[k].conj().T
    return rows


def _momentum_density_rows(ham: QuadraticHamiltonian, coupling: CouplingTensor,
                           structure: StructureTensor) -> np.ndarray:
    v = ham.lattice.cell_volume
    finv = structure.inverse.mat
    rows = np.zeros((ham.lattice.dim, ham.dim), dtype=complex)
    for k in range(ham.grid.n_nodes):
        s = np.sqrt(v * ham.grid.weights[k])
        coeff = -ham.grid.nodes[k] * (v * coupling.kernels[k] @ finv).T
        rows[:, ham.slice_c(k)] += s * coeff
        rows[:, ham.slice_cdag(k)] += s * coeff.conj()
    return rows


def assemble_hamiltonian(coupling: CouplingTensor, structure: StructureTensor,
                         lattice: Lattice | None = None,
                         grid: FrequencyGrid | None = None) -> QuadraticHamiltonian:
    """Assemble the five pieces of the model Hamiltonian term by term.

    Pieces: transverse field energy, medium oscillators, bilinear
    field-medium coupling, the quadratic vector-potential term with the
    structure tensor, and the electrostatic energy of the longitudinal
    polarization.  The bilinear and quadratic coupling pieces enter
    together or not at all: both are linear/quadratic in the same kernels.
    """
    lattice = lattice or coupling.lattice
    grid = grid or coupling.grid
    if not lattice.compatible(coupling.lattice):
        raise DampolError("lattice does not match the coupling")
    if grid.n_nodes != coupling.grid.n_nodes or not np.allclose(grid.nodes, coupling.grid.nodes):
        raise DampolError("grid does not match the coupling")
    mt = lattice.transverse_basis.shape[1]
    d = lattice.dim
    K = grid.n_nodes
    dim = 2 * mt + 2 * K * d
    if dim > MAX_CANONICAL_DIM:
        raise DampolError(f"canonical dimension {dim} exceeds the safety cap {MAX_CANONICAL_DIM}")
    v = lattice.cell_volume

    ham = QuadraticHamiltonian(lattice=lattice, grid=grid, h=np.zeros((dim, dim), dtype=complex), mt=mt)
    h = ham.h

    def acc(left: np.ndarray, right: np.ndarray, coef: complex):
        h[:] += coef * (left.T @ right)

    u_a = ham.rows_vector_potential
    u_pi = ham.rows_field_momentum

    # field energy
    acc(u_pi, u_pi, v / (2.0 * EPS0))
    acc(u_a, lattice.double_curl_matrix @ u_a, v / (2.0 * MU0))

    # medium oscillators and the bilinear coupling; the per-node rows only
    # touch their own blocks, so write those directly
    phi_a = u_a[:, ham.slice_a]
    for k in range(K):
        wk, om = grid.weights[k], grid.nodes[k]
        h[ham.slice_cdag(k), ham.slice_c(k)] += HBAR * om * np.eye(d)
        block = HBAR * wk * om * v**2 / np.sqrt(v * wk) * (coupling.kernels[k] @ phi_a)
        h[ham.slice_c(k), ham.slice_a] += block
        h[ham.slice_cdag(k), ham.slice_a] += block.conj()

    # quadratic vector-potential term
    acc(u_a, structure.kernel.mat @ u_a, 0.5 * HBAR * v**2)

    # electrostatic energy of the longitudinal polarization
    u_p_long = lattice.longitudinal_matrix @ _polarization_rows(ham, coupling)
    acc(u_p_long, u_p_long, v / (2.0 * EPS0))

    h[:] = (h + h.T) / 2.0
    return ham


# -- Heisenberg equations ---------------------------------------------------


def _rel(num_rows: np.ndarray, scale_rows: np.ndarray) -> float:
    return float(np.linalg.norm(num_rows) / max(np.linalg.norm(scale_rows), 1e-300))


def heisenberg_residual(ham: QuadraticHamiltonian, coupling: CouplingTensor,
                        structure: StructureTensor) -> dict:
    """Relative residuals of the equations of motion, all as row identities.

    Every equation is exact discrete algebra, so these come out at machine
    precision; they validate the assembly, the basis bookkeeping, and the
    canonical-pair constraints of the coupling.
    """
    lattice, grid = ham.lattice, ham.grid
    v, d, K = lattice.cell_volume, lattice.dim, grid.n_nodes
    u_a, u_pi = ham.rows_vector_potential, ham.rows_field_momentum
    u_p = _polarization_rows(ham, coupling)
    u_w = _momentum_density_rows(ham, coupling, structure)
    pt, pl = lattice.transverse_matrix, lattice.longitudinal_matrix
    fmat = structure.kernel.mat
    out = {}

    def ddt(rows):
        return (-1j / HBAR) * ham.commutator_rows(rows)

    # potential rate
    rhs = u_pi / EPS0
    out["potential_rate"] = _rel(ddt(u_a) - rhs, rhs)

    # field-momentum rate
    rhs = (lattice.laplacian_matrix @ u_a) / MU0 \
        + HBAR * v * pt @ fmat @ u_w - HBAR * v * pt @ fmat @ u_a
    out["momentum_rate"] = _rel(ddt(u_pi) - rhs, rhs)

    # medium-mode rate, worst node
    worst = 0.0
    long_p = pl @ u_p
    for k in range(K):
        u_c = ham.rows_medium(k)
        om = grid.nodes[k]
        rhs = -1j * om * u_c \
            - 1j * om * v * coupling.kernels[k].conj() @ u_a \
            + (1.0 / EPS0) * v * coupling.kernels[k].conj() @ long_p
        worst = max(worst, _rel(ddt(u_c) - rhs, rhs))
    out["medium_rate"] = worst

    # polarization rate; the last term must vanish through the coupling
    # constraint and is also reported alone
    t1 = np.zeros_like(u_p)
    t2 = np.zeros_like(u_p)
    t3 = np.zeros_like(u_p)
    finv = structure.inverse.mat
    for k in range(K):
        wk, om = grid.weights[k], grid.nodes[k]
        t1 += -HBAR * wk * om * v * coupling.kernels[k].T @ ham.rows_medium(k)
        s_bar = v * coupling.kernels[k].conj() @ finv    # conj of the momentum coefficient
        chain = v**2 * coupling.kernels[k].T @ s_bar @ fmat
        t2 += -HBAR * wk * om * v * chain @ u_a
        t3 += (-1j * HBAR / EPS0) * wk * v * coupling.density_stack[k] @ pl @ u_p
    rhs_half = t1 + t2 + t3
    rhs = rhs_half + ham.hc_rows(rhs_half)
    out["polarization_rate"] = _rel(ddt(u_p) - rhs, rhs)
    vanishing = t3 + ham.hc_rows(t3)
    out["polarization_rate_last_term"] = _rel(vanishing, rhs)

    # wave equation with the transverse polarization rate as source
    accel = (-1.0 / HBAR**2) * u_a @ ham.dynamical_matrix @ ham.dynamical_matrix
    lhs = lattice.laplacian_matrix @ u_a - accel
    src = -MU0 * pt @ ddt(u_p)
    out["wave_source"] = _rel(lhs - src, src)
    return out


# -- diagonal-form master check ---------------------------------------------


def mode_rows(ham: QuadraticHamiltonian, modes: ModeCoefficients, k: int) -> np.ndarray:
    """Canonical rows of the diagonalizing annihilator at node k."""
    lattice, grid = ham.lattice, ham.grid
    v = lattice.cell_volume
    sqv = np.sqrt(v)
    phi = lattice.transverse_basis
    rows = np.zeros((lattice.dim, ham.dim), dtype=complex)
    rows[:, ham.slice_a] = sqv * modes.potential[k] @ phi
    rows[:, ham.slice_p] = sqv * modes.momentum[k] @ phi
    for l in range(grid.n_nodes):
        s = np.sqrt(v * grid.weights[l])
        rows[:, ham.slice_c(l)] += s * modes.resonant[k, l]
        rows[:, ham.slice_cdag(l)] += s * modes.antiresonant[k, l]
    rows[:, ham.slice_c(k)] += np.eye(lattice.dim) / np.sqrt(v * grid.weights[k])
    return rows


def _smear_columns(ham: QuadraticHamiltonian) -> np.ndarray:
    """Test matrix condensing the ladder sectors with the smear profiles.

    The two-frequency content of the master check is distributional, so its
    residual rows are paired against smooth frequency profiles, mirroring
    the weak-form residuals of the defining equations.
    """
    lattice, grid = ham.lattice, ham.grid
    d = lattice.dim
    v = lattice.cell_volume
    x = grid.nodes / grid.omega_max
    profs = [fn(x) for fn in SMEAR_PROFILES.values()]
    n_prof = len(profs)
    cols = np.zeros((ham.dim, 2 * ham.mt + 2 * n_prof * d))
    cols[ham.slice_a, :ham.mt] = np.eye(ham.mt)
    cols[ham.slice_p, ham.mt:2 * ham.mt] = np.eye(ham.mt)
    for p, prof in enumerate(profs):
        for l in range(grid.n_nodes):
            scale = np.sqrt(grid.weights[l] / v) * prof[l]
            base = 2 * ham.mt + p * d
            cols[ham.slice_c(l), base:base + d] = scale * np.eye(d)
            base = 2 * ham.mt + (n_prof + p) * d
            cols[ham.slice_cdag(l), base:base + d] = scale * np.eye(d)
    return cols


def diagonal_form_check(ham: QuadraticHamiltonian, modes: ModeCoefficients) -> float:
    """Weak-form residual of [C(w_k), H] = hbar w_k C(w_k) over all nodes.

    This is the master identity equivalent to the four defining equations at
    once, evaluated through the assembled Hamiltonian rather than through
    kernel arithmetic.  The residual rows are split by canonical sector and
    each sector is normalized by its own right-hand-side size (the creator
    sector borrows the annihilator sector's scale, which carries the exact
    singular part); the reported value is the worst sector.  This mirrors
    how the kernel-route residuals are normalized, so the two routes are
    directly comparable.
    """
    grid = ham.grid
    d = ham.lattice.dim
    n_prof = len(SMEAR_PROFILES)
    cols = _smear_columns(ham)
    kdyn_cols = ham.dynamical_matrix @ cols
    groups = {
        "a": np.s_[:, 0:ham.mt],
        "p": np.s_[:, ham.mt:2 * ham.mt],
        "c": np.s_[:, 2 * ham.mt:2 * ham.mt + n_prof * d],
        "cdag": np.s_[:, 2 * ham.mt + n_prof * d:],
    }
    num = {g: 0.0 for g in groups}
    den = {g: 0.0 for g in groups}
    for k in range(grid.n_nodes):
        rows = mode_rows(ham, modes, k)
        res = rows @ kdyn_cols - HBAR * grid.nodes[k] * (rows @ cols)
        rhs = HBAR * grid.nodes[k] * (rows @ cols)
        for g, sl in groups.items():
            num[g] += grid.weights[k] * np.linalg.norm(res[sl]) ** 2
            den[g] += grid.weights[k] * np.linalg.norm(rhs[sl]) ** 2
    den["cdag"] = den["c"]
    return max(float(np.sqrt(num[g] / max(den[g], 1e-300))) for g in groups)


def symplectic_spectrum(ham: QuadraticHamiltonian, zero_tol: float = 1e-6) -> dict:
    """Eigenvalues of the dynamical matrix: the discrete mode frequencies.

    For a stable quadratic form the spectrum is real and comes in opposite
    pairs.  When the k = 0 Fourier mode sits in the transverse subspace the
    uniform vector-potential direction is exactly flat (the bilinear and
    quadratic coupling terms complete a square), which contributes three
    structural zero modes; they are counted separately, not as
    instabilities.  Their Jordan structure makes the numerical eigenvalues
    scatter at the square root of machine precision, hence the loose
    `zero_tol`.
    """
    evals = np.linalg.eigvals(ham.dynamical_matrix) / HBAR
    scale = max(np.max(np.abs(evals)), 1e-300)
    nonzero = evals[np.abs(evals) > zero_tol * scale]
    max_imag = float(np.max(np.abs(nonzero.imag)) / scale) if nonzero.size else 0.0
    pos = np.sort(nonzero.real[nonzero.real > 0])
    return {
        "max_imag_rel": max_imag,
        "min_positive": float(pos[0]) if pos.size else float("nan"),
        "max_positive": float(pos[-1]) if pos.size else float("nan"),
        "n_positive": int(pos.size),
        "n_zero_modes": int(evals.size - nonzero.size),
        "n_negative": int(np.sum(nonzero.real < 0)),
    }
