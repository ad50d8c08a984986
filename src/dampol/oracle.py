"""Brute-force ground truth: the full Hamiltonian as a quadratic form.

The canonical operator vector collects the transverse field amplitudes and
their momenta (in a real orthonormal transverse basis, rescaled to unit
commutators) together with the Hermitian quadratures of the medium ladder
operators per frequency node, c = (x + i y)/sqrt(2):

    xi = ( a, p, x[k=0..K-1], y[k=0..K-1] )

Each node's x and y slots run over the real `Lattice.momentum_basis`
(momentum column, then component) instead of the lattice sites; the
transverse basis of a and p is built per momentum sector already.  The
Hamiltonian becomes H = xi^T h xi up to an additive constant.  Every basis
operator is Hermitian, so the adjoint of a form or of an operator's rows is
its complex conjugate, H is Hermitian exactly when the symmetric part of h
is real, and the dynamical matrix is i times a real matrix R (Colpa,
Physica A 93, 327, 1978).  A translation-invariant medium couples lattice
momentum q only with -q, so h is stored as one block per {q, -q} sector;
when an operator the assembly reads leaks across sectors, as a random
coupling does, the form is one block.  Every Heisenberg equation and mode
identity reduces to matrix algebra with R, block by block.  Only
`QuadraticHamiltonian` knows this layout: the medium operators keep their
one definition as forms over the medium modes (`fields.py`, `bath.py`),
built here in `Lattice.one_block`, whose site stacks are views of the
blocks, and `QuadraticHamiltonian.ladder_rows` places a form's coefficients.  The
assembly, Heisenberg equations and spectrum use neither the propagator nor
the analytic mode formulas, so they are an independent route; the master
check tests those formulas against it, one node's kernels at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .constants import EPS0, HBAR, MU0
from .coupling import CouplingTensor, StructureTensor
from .diagonalize import node_families, smear_profiles
from .errors import ConfigError, DampolError
from .fields import medium_mode_form, medium_momentum_form, medium_polarization_form
from .green import NodePropagator
from .lattice import FrequencyGrid, Lattice

#: largest canonical dimension the oracle assembles; it bounds the full-width
#: row stacks, of which the bath form's (K, d, dim) complex stack is the
#: largest: 16 K d dim bytes, below 8 dim^2 as 2 K d < dim, 128 MB at the cap
MAX_CANONICAL_DIM = 4000

#: relative dagger-Hermiticity defect a quadratic form may carry
HERMITICITY_TOL = 1e-12

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


def sector_leak(coupling: CouplingTensor, structure: StructureTensor, *extra: np.ndarray) -> float:
    """Largest off-sector part of the site operators an assembler reads, each relative to its whole.

    The operators are the coupling kernels, the structure kernel and any
    `extra` (..., d, d) operators; every other operator an assembler reads
    must be the lattice's own or built from these, since the blocks keep
    no product between two sectors.  A translation-invariant operator maps
    every {q, -q} sector of `Lattice.momentum_basis` into itself, so its
    off-sector part is round-off (`Lattice.sector_leak`).
    """
    return max(coupling.sector_leak, coupling.lattice.sector_leak(structure.kernel.mat, *extra))


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Hermitian quadratic form over the canonical operator basis, one block per slot group.

    `groups[i]` holds the canonical slots of `blocks[i]` in ascending order,
    so inside a block the a, p, x and y slots follow one another and pair
    in order; no term of the form couples two groups.  `sector_leak` is the
    off-sector part of the site operators the assembly read, which decided
    the grouping.
    """

    lattice: Lattice
    grid: FrequencyGrid
    mt: int
    groups: tuple
    blocks: list
    sector_leak: float

    @classmethod
    def zero(cls, lattice: Lattice, grid: FrequencyGrid, leak: float) -> "QuadraticHamiltonian":
        """The zero form, one block per momentum sector unless `leak` exceeds the lattice's tolerance.

        The sector of a and p is that of their transverse-basis column, that
        of x and y that of their momentum column (`Lattice.sector_groups`).
        """
        mt = lattice.transverse_basis.shape[1]
        groups = lattice.sector_groups(2, 2 * grid.n_nodes, leak)
        return cls(lattice=lattice, grid=grid, mt=mt, groups=groups,
                   blocks=[np.zeros((g.size, g.size), dtype=complex) for g in groups],
                   sector_leak=leak)

    @property
    def dim(self) -> int:
        return sum(g.size for g in self.groups)

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

    def _local_slices(self, group: np.ndarray) -> tuple:
        """The a, p, x and y slots of a group, as slices of its block."""
        na = int(np.count_nonzero(group < self.mt))
        nx = group.size // 2 - na
        return (slice(0, na), slice(na, 2 * na), slice(2 * na, 2 * na + nx),
                slice(2 * na + nx, group.size))

    def dynamics(self) -> list:
        """The real R with [xi, H] = i R xi, one fresh block per group.

        The commutation matrix pairs a with p and x with y inside each
        group, so R = -2 i Sigma Re(h_sym) is assembled by row moves of the
        real part instead of a dense matmul.  The imaginary part of h is
        the form's Hermiticity defect, which `hermiticity_defect` measures.
        """
        out = []
        for group, h in zip(self.groups, self.symmetric_blocks()):
            a, p, x, y = self._local_slices(group)
            h_real, r = h.real, np.empty(h.shape)
            for dst, src, coef in ((a, p, 2.0 * HBAR), (p, a, -2.0 * HBAR),
                                   (x, y, 2.0), (y, x, -2.0)):
                np.multiply(h_real[src], coef, out=r[dst])
            out.append(r)
        return out

    def symmetric_blocks(self) -> list:
        """(h + h^T)/2 per block: the stored block itself when exactly symmetric, as both assemblers store it."""
        return [b if np.array_equal(b, b.T) else (b + b.T) / 2.0 for b in self.blocks]

    def merged(self) -> "QuadraticHamiltonian":
        """The same form as one block over every slot: the dense embedding of the blocks."""
        h = np.zeros((self.dim, self.dim), dtype=complex)
        for group, b in zip(self.groups, self.blocks):
            h[np.ix_(group, group)] = b
        return replace(self, groups=(np.arange(self.dim),), blocks=[h])

    # -- assembly, block by block -------------------------------------------

    def _products(self, left: np.ndarray, right: np.ndarray):
        # only the columns of one group meet: the other products are zero as long as
        # `sector_leak` saw every operator that built the rows
        for group, block in zip(self.groups, self.blocks):
            yield block, left[:, group].T @ right[:, group]

    def accumulate(self, left: np.ndarray, right: np.ndarray, coef: complex):
        """h += coef left^T right, each block's product scaled in place."""
        for block, prod in self._products(left, right):
            prod *= coef
            block += prod

    def add_hermitian(self, left: np.ndarray, right: np.ndarray):
        """h += left^T right plus its adjoint."""
        for block, half in self._products(left, right):
            block += half
            block += half.conj().T

    def add_field_energy(self):
        """The transverse field energy: the momentum and the double-curl potential terms."""
        v, u_a = self.lattice.cell_volume, self.rows_vector_potential
        self.accumulate(self.rows_field_momentum, self.rows_field_momentum, v / (2.0 * EPS0))
        self.accumulate(u_a, self.lattice.double_curl_matrix @ u_a, v / (2.0 * MU0))

    def symmetrize(self):
        """h = (h + h^T)/2 in place."""
        for block in self.blocks:
            block += block.T   # numpy buffers the overlapping transpose: one temporary, not two
            block /= 2.0

    def hermiticity_defect(self) -> float:
        """||h_sym - h_sym^dag|| / ||h_sym||, the adjoint form being the conjugate.

        Every basis operator is Hermitian, so the adjoint of the form
        xi^T q xi has the coefficients conj(q)^T, and the defect of the
        symmetric part is twice its imaginary part.  The squared norms are
        summed over the blocks.
        """
        sym = self.symmetric_blocks()
        imag = np.sqrt(sum(np.linalg.norm(b.imag) ** 2 for b in sym))
        whole = np.sqrt(sum(np.linalg.norm(b) ** 2 for b in sym))
        return float(2.0 * imag / max(whole, 1e-300))

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
        s = sqrt(v w_l / 2), its site index rotated to the momentum basis.
        The adjoint of the operator has the conjugate rows.
        """
        K, n, d = alpha.shape
        f, m = self.lattice.momentum_basis, self.lattice.n_sites
        s = np.sqrt(0.5 * self.lattice.cell_volume * self.grid.weights)[:, None, None]
        rows = np.zeros((n, self.dim), dtype=complex)
        for slots, coef in ((self.slice_x, s * (alpha + beta)), (self.slice_y, 1j * s * (alpha - beta))):
            # contract the sites of the (K, n, M, 3) view: (K, n, 3, M) in momentum columns
            rotated = np.tensordot(coef.reshape(K, n, m, 3), f, axes=([2], [0]))
            rows[:, slots] = rotated.transpose(1, 0, 3, 2).reshape(n, K * d)
        return rows

    def smear_columns(self) -> np.ndarray:
        """Test matrix condensing the ladder coefficients with the smear profiles.

        The two-frequency content of the master check is distributional, so
        its residual rows are paired against smooth frequency profiles,
        mirroring the weak-form residuals of the defining equations.  The
        columns read an operator's a and p coefficients, then its smeared c
        and its smeared c^dag coefficients at each lattice site, one group
        per profile each: of a row r, the c coefficient is (r_x - i r_y)/sqrt(2)
        and the c^dag coefficient (r_x + i r_y)/sqrt(2), in the momentum
        basis of the ladder slots.  Every weak norm is taken over whole groups
        of columns, which an orthogonal rotation within a group leaves
        unchanged, so no rotation back to sites is needed and each column
        reads one momentum sector.
        """
        grid, lattice, base = self.grid, self.lattice, 2 * self.mt
        scale = np.sqrt(0.5 * grid.weights / lattice.cell_volume) * smear_profiles(grid)
        n_cols = len(scale) * lattice.dim
        # block (l, p) of a ladder sector: sqrt(q_l / (2 v)) profile_p(w_l) times the identity
        ladder = np.kron(scale.T, np.eye(lattice.dim))
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
    The form is stored per momentum sector when the coupling kernels and
    the structure kernel conserve lattice momentum (`sector_leak`).
    A canonical dimension above `MAX_CANONICAL_DIM` is a configuration
    error, raised before anything is allocated.
    """
    lattice, grid = coupling.lattice, coupling.grid
    d, v = lattice.dim, lattice.cell_volume
    check_canonical_dim(lattice, grid.n_nodes)
    ham = QuadraticHamiltonian.zero(lattice, grid, sector_leak(coupling, structure))
    ham.add_field_energy()

    # medium oscillators: hbar omega_k c^dag c = hbar omega_k (x^2 + y^2)/2 up to a
    # constant; and the bilinear coupling, each a times the medium operator with
    # the node kernels hbar omega_k v (T_k phi)^T, the c^dag kernels their conjugates
    oscillators = np.zeros(ham.dim)
    oscillators[2 * ham.mt:] = np.tile(np.repeat(0.5 * HBAR * grid.nodes, d), 2)
    u_a = ham.rows_vector_potential
    alpha = (HBAR * v * grid.nodes[:, None, None]
             * (coupling.kernels @ u_a[:, ham.slice_a])).transpose(0, 2, 1)
    a_rows = ham.ladder_rows(alpha, alpha.conj())
    for group, block in zip(ham.groups, ham.blocks):
        block[np.diag_indices(group.size)] += oscillators[group]
        a = ham._local_slices(group)[0]
        block[a] += a_rows[np.ix_(group[a], group)]

    # quadratic vector-potential term
    ham.accumulate(u_a, structure.kernel.mat @ u_a, 0.5 * HBAR * v**2)

    # electrostatic energy of the longitudinal polarization
    pol = medium_polarization_form(coupling, lattice.one_block)
    u_p_long = lattice.longitudinal_matrix @ ham.ladder_rows(*pol.sites())
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
    one = lattice.one_block
    pol, mom = medium_polarization_form(coupling, one), medium_momentum_form(coupling, structure, one)
    u_p, u_w = ham.ladder_rows(*pol.sites()), ham.ladder_rows(*mom.sites())
    pt, pl = lattice.transverse_matrix, lattice.longitudinal_matrix
    fmat = structure.kernel.mat
    r = ham.dynamics()
    out = {}

    def ddt(rows):
        # (-i / hbar) [O, H] = rows R / hbar, block by block as real GEMMs: no complex copy of R
        rate = np.empty_like(rows)
        for group, r_g in zip(ham.groups, r):
            sub = rows[:, group]
            rate[:, group] = (sub.real @ r_g + 1j * (sub.imag @ r_g)) / HBAR
        return rate

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
        u_c = ham.ladder_rows(*medium_mode_form(coupling, k, one).sites())
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

    # wave equation with the transverse polarization rate as source; L A and
    # the second rate nearly cancel at weak coupling, so the scale is the
    # largest of the three terms, not the source alone
    lap, acc = lattice.laplacian_matrix @ u_a, ddt(ddt(u_a))
    src = -MU0 * pt @ ddt(u_p)
    scale = max(np.linalg.norm(lap), np.linalg.norm(acc), np.linalg.norm(src), 1e-300)
    out["wave_source"] = float(np.linalg.norm(lap - acc - src) / scale)
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
    kdyn_cols = np.empty_like(cols)   # K cols with K = i R, block by block
    for group, r_g in zip(ham.groups, ham.dynamics()):
        sub = cols[group]
        kdyn_cols[group] = 1j * (r_g @ sub.real + 1j * (r_g @ sub.imag))
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
    """Every eigenvalue of K / hbar, as i eig(R) / hbar, one block of R at a time.

    A form stored per momentum sector has one block per sector; a form
    whose inputs leak across sectors, as a random coupling's do, is one
    block.  The solver is the general nonsymmetric one, so complex
    frequencies of an unstable form still show.  A form that is not
    dagger-Hermitian has no real R and raises instead of losing its
    imaginary part.  Returns the eigenvalues, the number of blocks solved
    and the form's input `sector_leak`.
    """
    defect = ham.hermiticity_defect()
    if defect > HERMITICITY_TOL:
        raise DampolError(
            f"quadratic form is not dagger-Hermitian: relative defect {defect:.3e} "
            f"(limit {HERMITICITY_TOL:g})")
    evals = np.concatenate([np.linalg.eigvals(r_g) for r_g in ham.dynamics()])
    return 1j * evals / HBAR, len(ham.blocks), ham.sector_leak


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
