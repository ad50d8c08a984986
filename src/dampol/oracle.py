"""Brute-force ground truth: the full Hamiltonian as a quadratic form.

The canonical operator vector collects the transverse field amplitudes and
their momenta (in a real orthonormal transverse basis, rescaled to unit
commutators) together with the Hermitian quadratures of the medium ladder
operators per frequency node, c = (x + i y)/sqrt(2):

    xi = ( a, p, x[k=0..K-1], y[k=0..K-1] )

The Hamiltonian becomes H = xi^T h xi up to an additive constant.  Every
basis operator is Hermitian, so the adjoint of a form or of an operator's
rows is its complex conjugate, H is Hermitian exactly when the symmetric
part of h is real, and the dynamical matrix is i times a real matrix R
(Colpa, Physica A 93, 327, 1978).  Every Heisenberg equation and mode
identity reduces to matrix algebra with R.  Only `QuadraticHamiltonian`
knows this layout: the medium operators keep their one definition as forms
over the medium modes (`fields.py`, `bath.py`), and
`QuadraticHamiltonian.ladder_rows` places a form's coefficients.  The
assembly, Heisenberg equations and spectrum use neither the propagator nor
the analytic mode formulas, so they are an independent route; the master
check tests those formulas against it, one node's kernels at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import EPS0, HBAR, MU0
from .coupling import CouplingTensor, StructureTensor
from .diagonalize import node_families, smear_profiles
from .errors import ConfigError, DampolError
from .fields import medium_mode_form, medium_momentum_form, medium_polarization_form
from .green import NodePropagator
from .lattice import FrequencyGrid, Lattice

#: largest canonical dimension the dense oracle assembles; one dim x dim
#: complex array is 16 dim^2 bytes, 256 MB at the cap
MAX_CANONICAL_DIM = 4000

#: relative dagger-Hermiticity defect a quadratic form may carry
HERMITICITY_TOL = 1e-12

#: largest off-sector part of the momentum-rotated R, relative to R, for
#: which the spectrum is solved sector by sector
SECTOR_LEAK_TOL = 1e-13

#: eigenvalues smaller than this fraction of the largest are zero modes
ZERO_MODE_TOL = 1e-6


def canonical_dim(lattice: Lattice, n_nodes: int) -> int:
    """Size of the canonical basis (a, p, x, y) on a lattice with n_nodes nodes."""
    return 2 * lattice.transverse_basis.shape[1] + 2 * n_nodes * lattice.dim


def check_canonical_dim(lattice: Lattice, n_nodes: int) -> int:
    """The canonical dimension, or `ConfigError` when it exceeds `MAX_CANONICAL_DIM`."""
    dim = canonical_dim(lattice, n_nodes)
    if dim > MAX_CANONICAL_DIM:
        raise ConfigError(
            f"projected canonical dimension {dim} exceeds the cap {MAX_CANONICAL_DIM}")
    return dim


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

    @property
    def slice_x(self):
        """The x quadratures of every node, node-major: node k at 2 mt + k d."""
        return slice(2 * self.mt, 2 * self.mt + self.grid.n_nodes * self.lattice.dim)

    @property
    def slice_y(self):
        """The y quadratures, in the same order as the x slots."""
        return slice(2 * self.mt + self.grid.n_nodes * self.lattice.dim, self.dim)

    @cached_property
    def commutation_matrix(self) -> np.ndarray:
        """c-number matrix Sigma with [xi_i, xi_j] = Sigma_ij: i hbar on (a, p), i on (x, y)."""
        sig = np.zeros((self.dim, self.dim), dtype=complex)
        for first, second, value in ((self.slice_a, self.slice_p, 1j * HBAR),
                                     (self.slice_x, self.slice_y, 1j)):
            eye = np.eye(first.stop - first.start)
            sig[first, second] = value * eye
            sig[second, first] = -value * eye
        return sig

    def dynamics(self) -> np.ndarray:
        """The real matrix R with [xi, H] = i R xi, a fresh array the caller owns.

        The commutation matrix pairs a with p and x with y, so R = -2 i Sigma
        Re(h_sym) is assembled by row moves of the real part instead of a
        dense matmul.  The imaginary part of h is the form's Hermiticity
        defect, which `hermiticity_defect` measures.
        """
        h_real = self.symmetric_h().real
        out = np.empty(self.h.shape)
        for dst, src, coef in ((self.slice_a, self.slice_p, 2.0 * HBAR),
                               (self.slice_p, self.slice_a, -2.0 * HBAR),
                               (self.slice_x, self.slice_y, 2.0),
                               (self.slice_y, self.slice_x, -2.0)):
            np.multiply(h_real[src], coef, out=out[dst])
        return out

    def symmetric_h(self) -> np.ndarray:
        """(h + h^T)/2: `h` itself when it is exactly symmetric, as both assemblers store it."""
        if np.array_equal(self.h, self.h.T):
            return self.h
        return (self.h + self.h.T) / 2.0

    # -- dense assembly -----------------------------------------------------

    def accumulate(self, left: np.ndarray, right: np.ndarray, coef: complex):
        """h += coef left^T right, the product scaled in place."""
        prod = left.T @ right
        prod *= coef
        self.h[:] += prod

    def add_field_energy(self):
        """The transverse field energy: the momentum and the double-curl potential terms."""
        v, u_a = self.lattice.cell_volume, self.rows_vector_potential
        self.accumulate(self.rows_field_momentum, self.rows_field_momentum, v / (2.0 * EPS0))
        self.accumulate(u_a, self.lattice.double_curl_matrix @ u_a, v / (2.0 * MU0))

    def symmetrize(self):
        """h = (h + h^T)/2 in place."""
        h = self.h
        h += h.T   # numpy buffers the overlapping transpose: one temporary, not two
        h /= 2.0

    def hermiticity_defect(self) -> float:
        """||h_sym - h_sym^dag|| / ||h_sym||, the adjoint form being the conjugate.

        Every basis operator is Hermitian, so the adjoint of the form
        xi^T q xi has the coefficients conj(q)^T, and the defect of the
        symmetric part is twice its imaginary part.
        """
        h_sym = self.symmetric_h()
        return float(2.0 * np.linalg.norm(h_sym.imag) / max(np.linalg.norm(h_sym), 1e-300))

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

    def ladder_rows(self, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Canonical rows of sum_l w_l v [alpha_l C(w_l) + beta_l C^dag(w_l)].

        The basis holds the quadratures of c_l = sqrt(v w_l) C(w_l) =
        (x_l + i y_l)/sqrt(2), so a (K, n, d) stack pair enters the x slots
        as s (alpha + beta) and the y slots as i s (alpha - beta), with
        s = sqrt(v w_l / 2).  The adjoint of the operator has the conjugate
        rows.
        """
        K, n, d = alpha.shape
        s = np.sqrt(0.5 * self.lattice.cell_volume * self.grid.weights)[:, None, None]
        rows = np.zeros((n, self.dim), dtype=complex)
        rows[:, self.slice_x] = (s * (alpha + beta)).transpose(1, 0, 2).reshape(n, K * d)
        rows[:, self.slice_y] = (1j * s * (alpha - beta)).transpose(1, 0, 2).reshape(n, K * d)
        return rows

    def smear_columns(self) -> np.ndarray:
        """Test matrix condensing the ladder coefficients with the smear profiles.

        The two-frequency content of the master check is distributional, so
        its residual rows are paired against smooth frequency profiles,
        mirroring the weak-form residuals of the defining equations.  The
        columns read an operator's a and p coefficients, then its smeared c
        and its smeared c^dag coefficients, one group per profile each: of
        a row r, the c coefficient is (r_x - i r_y)/sqrt(2) and the c^dag
        coefficient (r_x + i r_y)/sqrt(2).
        """
        grid, d, base = self.grid, self.lattice.dim, 2 * self.mt
        scale = np.sqrt(0.5 * grid.weights / self.lattice.cell_volume) * smear_profiles(grid)
        n_cols = len(scale) * d
        # block (l, p) of a ladder sector: sqrt(q_l / (2 v)) profile_p(w_l) times the identity
        ladder = np.kron(scale.T, np.eye(d))
        cols = np.zeros((self.dim, base + 2 * n_cols), dtype=complex)
        cols[:base, :base] = np.eye(base)
        cols[self.slice_x, base:] = np.hstack([ladder, ladder])
        cols[self.slice_y, base:] = np.hstack([-1j * ladder, 1j * ladder])
        return cols


def assemble_hamiltonian(coupling: CouplingTensor, structure: StructureTensor) -> QuadraticHamiltonian:
    """Assemble the five pieces of the model Hamiltonian term by term.

    Pieces: transverse field energy, medium oscillators, bilinear
    field-medium coupling, the quadratic vector-potential term with the
    structure tensor, and the electrostatic energy of the longitudinal
    polarization.  The bilinear and quadratic coupling pieces enter
    together or not at all: both are linear/quadratic in the same kernels.
    A canonical dimension above `MAX_CANONICAL_DIM` is a configuration
    error, raised before anything is allocated.
    """
    lattice, grid = coupling.lattice, coupling.grid
    d, v = lattice.dim, lattice.cell_volume
    dim = check_canonical_dim(lattice, grid.n_nodes)
    ham = QuadraticHamiltonian(lattice=lattice, grid=grid, h=np.zeros((dim, dim), dtype=complex),
                               mt=lattice.transverse_basis.shape[1])
    h = ham.h
    ham.add_field_energy()

    # medium oscillators: hbar omega_k c^dag c = hbar omega_k (x^2 + y^2)/2 up to a constant
    ladder = np.arange(2 * ham.mt, dim)
    h[ladder, ladder] += np.tile(np.repeat(0.5 * HBAR * grid.nodes, d), 2)

    # bilinear coupling: each a times the medium operator with the node
    # kernels hbar omega_k v (T_k phi)^T, the c^dag kernels their conjugates
    u_a = ham.rows_vector_potential
    alpha = (HBAR * v * grid.nodes[:, None, None]
             * (coupling.kernels @ u_a[:, ham.slice_a])).transpose(0, 2, 1)
    h[ham.slice_a] += ham.ladder_rows(alpha, alpha.conj())

    # quadratic vector-potential term
    ham.accumulate(u_a, structure.kernel.mat @ u_a, 0.5 * HBAR * v**2)

    # electrostatic energy of the longitudinal polarization
    pol = medium_polarization_form(coupling)
    u_p_long = lattice.longitudinal_matrix @ ham.ladder_rows(pol.alpha, pol.beta)
    ham.accumulate(u_p_long, u_p_long, v / (2.0 * EPS0))
    ham.symmetrize()
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
    v, K = lattice.cell_volume, grid.n_nodes
    u_a, u_pi = ham.rows_vector_potential, ham.rows_field_momentum
    pol, mom = medium_polarization_form(coupling), medium_momentum_form(coupling, structure)
    u_p, u_w = ham.ladder_rows(pol.alpha, pol.beta), ham.ladder_rows(mom.alpha, mom.beta)
    pt, pl = lattice.transverse_matrix, lattice.longitudinal_matrix
    fmat = structure.kernel.mat
    r = ham.dynamics()
    out = {}

    def ddt(rows):
        # (-i / hbar) [O, H] = rows R / hbar, as real GEMMs: no complex copy of R
        return (rows.real @ r + 1j * (rows.imag @ r)) / HBAR

    # potential rate
    rhs = u_pi / EPS0
    out["potential_rate"] = _rel(ddt(u_a) - rhs, rhs)

    # field-momentum rate
    rhs = (lattice.laplacian_matrix @ u_a) / MU0 \
        + HBAR * v * pt @ fmat @ u_w - HBAR * v * pt @ fmat @ u_a
    out["momentum_rate"] = _rel(ddt(u_pi) - rhs, rhs)

    # medium-mode rate at the worst node, and the node sums of the
    # polarization rate, whose last term must vanish through the coupling
    # constraint and is also reported alone
    worst = 0.0
    long_p = pl @ u_p
    t1 = np.zeros_like(u_p)
    t2 = np.zeros_like(u_p)
    finv = structure.inverse.mat
    for k in range(K):
        cm = medium_mode_form(coupling, k)
        u_c = ham.ladder_rows(cm.alpha, cm.beta)
        wk, om = grid.weights[k], grid.nodes[k]
        rhs = -1j * om * u_c \
            - 1j * om * v * coupling.kernels[k].conj() @ u_a \
            + (1.0 / EPS0) * v * coupling.kernels[k].conj() @ long_p
        worst = max(worst, _rel(ddt(u_c) - rhs, rhs))
        t1 += -HBAR * wk * om * v * coupling.kernels[k].T @ u_c
        s_bar = v * coupling.kernels[k].conj() @ finv    # conj of the momentum coefficient
        chain = v**2 * coupling.kernels[k].T @ s_bar @ fmat
        t2 += -HBAR * wk * om * v * chain @ u_a
    out["medium_rate"] = worst
    # P is Hermitian, so the last term (-i hbar/eps0) v s_0 P_L P plus its adjoint reads only Im s_0
    t3 = (HBAR / EPS0) * v * coupling.moments.imag0 @ pl @ u_p
    rhs_half = t1 + t2 + t3
    rhs = rhs_half + rhs_half.conj()
    out["polarization_rate"] = _rel(ddt(u_p) - rhs, rhs)
    vanishing = t3 + t3.conj()
    out["polarization_rate_last_term"] = _rel(vanishing, rhs)

    # wave equation with the transverse polarization rate as source
    lhs = lattice.laplacian_matrix @ u_a - ddt(ddt(u_a))
    src = -MU0 * pt @ ddt(u_p)
    out["wave_source"] = _rel(lhs - src, src)
    return out


# -- diagonal-form master check ---------------------------------------------


def mode_rows(ham: QuadraticHamiltonian, k: int, potential: np.ndarray, momentum: np.ndarray,
              resonant: np.ndarray, antiresonant: np.ndarray) -> np.ndarray:
    """Canonical rows of the diagonalizing annihilator at node k, from its four families.

    The medium part is the resonant family plus the node's own mode C(w_k),
    whose kernel is the Kronecker delta over the quadrature weight.
    """
    lattice = ham.lattice
    v = lattice.cell_volume
    sqv = np.sqrt(v)
    phi = lattice.transverse_basis
    alpha = resonant.copy()
    alpha[k] += np.eye(lattice.dim) / (v * ham.grid.weights[k])
    rows = ham.ladder_rows(alpha, antiresonant)
    rows[:, ham.slice_a] = sqv * potential @ phi
    rows[:, ham.slice_p] = sqv * momentum @ phi
    return rows


def diagonal_form_check(ham: QuadraticHamiltonian, prop: NodePropagator) -> float:
    """Weak-form residual of [C(w_k), H] = hbar w_k C(w_k) over all nodes.

    This is the master identity equivalent to the four defining equations at
    once, evaluated through the assembled Hamiltonian rather than through
    kernel arithmetic, one node's kernels at a time.  The residual rows are
    split by canonical sector and each sector is normalized by its own
    right-hand-side size (the creator sector borrows the annihilator
    sector's scale, which carries the exact singular part); the reported
    value is the worst sector.  This mirrors how the kernel-route residuals
    are normalized, so the two routes are directly comparable.
    """
    grid = ham.grid
    cols = ham.smear_columns()
    cdag = (cols.shape[1] + 2 * ham.mt) // 2   # first c^dag column: the halves are equal
    r = ham.dynamics()
    kdyn_cols = 1j * (r @ cols.real + 1j * (r @ cols.imag))   # K cols with K = i R
    del r
    groups = {
        "a": np.s_[:, 0:ham.mt],
        "p": np.s_[:, ham.mt:2 * ham.mt],
        "c": np.s_[:, 2 * ham.mt:cdag],
        "cdag": np.s_[:, cdag:],
    }
    num = {g: 0.0 for g in groups}
    den = {g: 0.0 for g in groups}
    for k, families in enumerate(node_families(prop)):
        rows = mode_rows(ham, k, *families)
        rhs = HBAR * grid.nodes[k] * (rows @ cols)
        res = rows @ kdyn_cols - rhs
        for g, sl in groups.items():
            num[g] += grid.weights[k] * np.linalg.norm(res[sl]) ** 2
            den[g] += grid.weights[k] * np.linalg.norm(rhs[sl]) ** 2
    den["cdag"] = den["c"]
    return max(float(np.sqrt(num[g] / max(den[g], 1e-300))) for g in groups)


def mode_frequencies(ham: QuadraticHamiltonian) -> tuple[np.ndarray, int, float]:
    """Every eigenvalue of K / hbar, as i eig(R) / hbar.

    Each ladder quadrature block of R is rotated from lattice sites to the
    real `Lattice.momentum_basis`, one block at a time, in place.  A
    translation-invariant form then couples no two momentum sectors, and
    each sector is solved alone.  When the off-sector part of the rotated R
    exceeds `SECTOR_LEAK_TOL` relative to R, as for a random coupling, the
    whole matrix is one group instead.  The solver is the general
    nonsymmetric one, so complex frequencies of an unstable form still
    show.  A form that is not dagger-Hermitian has no real R and raises
    instead of losing its imaginary part.  Returns the eigenvalues, the
    number of groups solved and the relative off-sector norm.
    """
    defect = ham.hermiticity_defect()
    if defect > HERMITICITY_TOL:
        raise DampolError(
            f"quadratic form is not dagger-Hermitian: relative defect {defect:.3e} "
            f"(limit {HERMITICITY_TOL:g})")
    r = ham.dynamics()
    lattice = ham.lattice
    f, d, m = lattice.momentum_basis, lattice.dim, lattice.n_sites
    for start in range(2 * ham.mt, ham.dim, d):
        blk = slice(start, start + d)
        r[blk] = (f.T @ r[blk].reshape(m, -1)).reshape(d, -1)
        rotated = r[:, blk].reshape(-1, m, 3).transpose(0, 2, 1) @ f
        r[:, blk] = rotated.transpose(0, 2, 1).reshape(-1, d)
    # a and p follow the transverse basis; each rotated ladder block is (momentum column, component)
    labels = np.concatenate([lattice.transverse_sector, lattice.transverse_sector,
                             np.tile(np.repeat(lattice.momentum_sector, 3), 2 * ham.grid.n_nodes)])
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    off_sq = 0.0
    for g in groups:
        rows = r[g]
        rows[:, g] = 0.0
        off_sq += float(np.vdot(rows, rows))
    leak = float(np.sqrt(off_sq) / max(np.linalg.norm(r), 1e-300))
    if leak > SECTOR_LEAK_TOL:
        groups = [np.arange(ham.dim)]
    evals = np.concatenate([np.linalg.eigvals(r[np.ix_(g, g)]) for g in groups])
    return 1j * evals / HBAR, len(groups), leak


def symplectic_spectrum(ham: QuadraticHamiltonian) -> dict:
    """Eigenvalues of the dynamical matrix: the discrete mode frequencies.

    For a stable quadratic form the spectrum is real and comes in opposite
    pairs.  When the k = 0 Fourier mode sits in the transverse subspace the
    uniform vector-potential direction is exactly flat (the bilinear and
    quadratic coupling terms complete a square), which contributes three
    structural zero modes; they are counted separately, not as
    instabilities.  Their Jordan structure makes the numerical eigenvalues
    scatter at the square root of machine precision, hence the loose
    `ZERO_MODE_TOL`.  The scale and the counts are taken over all sectors.
    """
    evals, n_sectors, leak = mode_frequencies(ham)
    scale = max(np.max(np.abs(evals)), 1e-300)
    nonzero = evals[np.abs(evals) > ZERO_MODE_TOL * scale]
    max_imag = float(np.max(np.abs(nonzero.imag)) / scale) if nonzero.size else 0.0
    pos = np.sort(nonzero.real[nonzero.real > 0])
    return {
        "max_imag_rel": max_imag,
        "min_positive": float(pos[0]) if pos.size else float("nan"),
        "max_positive": float(pos[-1]) if pos.size else float("nan"),
        "n_positive": int(pos.size),
        "n_zero_modes": int(evals.size - nonzero.size),
        "n_negative": int(np.sum(nonzero.real < 0)),
        "n_sectors": n_sectors,
        "sector_leak": leak,
    }
