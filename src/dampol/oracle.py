"""Brute-force ground truth: the full Hamiltonian as a quadratic form.

The canonical operator vector collects the transverse field amplitudes and
their momenta (in a real orthonormal transverse basis, rescaled to unit
commutators) together with the Hermitian quadratures of the medium ladder
operators per frequency node, c = (x + i y)/sqrt(2):

    xi = ( a, p, x[k=0..K-1], y[k=0..K-1] )

Each node's x and y slots run over the real momentum basis F of
`lattice.py` (momentum column, then component) instead of the lattice
sites; the transverse basis of a and p is built per momentum sector
already.  The Hamiltonian becomes H = xi^T h xi up to an additive constant.  Every basis
operator is Hermitian, so the adjoint of a form or of an operator's rows is
its complex conjugate, H is Hermitian exactly when the symmetric part of h
is real, and the dynamical matrix is i times a real matrix R (Colpa,
Physica A 93, 327, 1978).  A translation-invariant medium couples lattice
momentum q only with -q, so h is stored as one block per {q, -q} sector;
when the run's inputs leak across sectors, as a random coupling does, the
form is one block.  Every Heisenberg equation and mode identity reduces to
matrix algebra with R, block by block.

Only `QuadraticHamiltonian` knows this layout.  The medium operators keep
their one definition as forms over the medium modes (`fields.py`,
`bath.py`), built in the coupling's kernel layout in the complex plane-wave
basis, which the oracle reads in its real frame (`SectorLayout.real_blocks`):
the basis F, one slot group per {q, -q} sector, or one of every slot for a
dense block.  The canonical rows of an operator are one (b, G) block per
group, b the group's size in F and G its slots, and
`QuadraticHamiltonian.ladder_rows` places a form's blocks in the real frame
by a reshape.  No row stack spans two groups.  The assembly, Heisenberg
equations and spectrum use neither the propagator nor the analytic mode
formulas, so they are an independent route; the master check tests those
formulas against it, every node's families at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import EPS0, HBAR, MU0
from .coupling import CouplingTensor, StructureTensor
from .diagonalize import node_families, smear_profiles
from .errors import ConfigError, DampolError
from .fields import medium_momentum_form, medium_polarization_form
from .green import NodePropagator
from .lattice import FrequencyGrid, Lattice, SectorLayout, rel_norms, sq_norms

#: largest canonical dimension the oracle assembles.  It bounds the largest
#: row stacks, the rows of every node at once (the master check's and the bath
#: form's): 16 K E bytes, with E = sum_g b_g G_g <= d dim the entries of one
#: operator's rows, below 8 dim^2 as 2 K d < dim, 128 MB at the cap.  Per
#: momentum sector E is about 2 K sum_g b_g^2, at most about 6 / d of d dim.
MAX_CANONICAL_DIM = 4000

#: relative dagger-Hermiticity defect a quadratic form may carry
HERMITICITY_TOL = 1e-12

#: eigenvalues smaller than this fraction of the largest are zero modes
ZERO_MODE_TOL = 1e-6


def canonical_dim(lattice: Lattice, n_nodes: int) -> int:
    """Size of the canonical basis (a, p, x, y) on a lattice with n_nodes nodes."""
    return 2 * lattice.n_transverse + 2 * n_nodes * lattice.dim


def check_canonical_dim(lattice: Lattice, n_nodes: int) -> int:
    """The canonical dimension, or `ConfigError` when it exceeds `MAX_CANONICAL_DIM`."""
    dim = canonical_dim(lattice, n_nodes)
    if dim > MAX_CANONICAL_DIM:
        raise ConfigError(
            f"projected canonical dimension {dim} exceeds the cap {MAX_CANONICAL_DIM}")
    return dim


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Hermitian quadratic form over the canonical operator basis, one block per slot group.

    The groups are those of the real frame of `layout` (`SectorLayout.slot_groups`):
    `groups[i]` holds the canonical slots of `blocks[i]` in ascending order,
    so inside a block the a, p, x and y slots follow one another and pair
    in order; no term of the form couples two groups.  `sector_leak` is the
    coupling's, the off-sector part of the inputs that chose `layout`.

    The canonical rows of operators are flat (..., E) arrays: each is one
    (b, G) block per group, its rows the block's basis columns and its
    columns the group's slots, stored one after the other (`row_views`).
    """

    layout: SectorLayout
    grid: FrequencyGrid
    mt: int
    groups: tuple
    blocks: list
    sector_leak: float

    @classmethod
    def zero(cls, coupling: CouplingTensor) -> "QuadraticHamiltonian":
        """The zero form of an assembly from the coupling and what derives from it, in the coupling's layout.

        In `Lattice.one_block` it is one group of every slot.
        """
        layout = coupling.layout
        groups = layout.slot_groups(2, 2 * coupling.grid.n_nodes)
        return cls(layout=layout, grid=coupling.grid, mt=coupling.lattice.n_transverse,
                   groups=groups, blocks=[np.zeros((g.size, g.size), dtype=complex) for g in groups],
                   sector_leak=coupling.sector_leak)

    @property
    def lattice(self) -> Lattice:
        return self.layout.lattice

    @property
    def dim(self) -> int:
        return sum(g.size for g in self.groups)

    # -- basis bookkeeping -------------------------------------------------

    def _slots(self, na: int, b: int) -> tuple:
        """The a, p, x and y slots of a group with n_a a slots and block size b, as slices of its block."""
        x = 2 * na + self.grid.n_nodes * b
        return slice(0, na), slice(na, 2 * na), slice(2 * na, x), slice(x, 2 * x - 2 * na)

    @cached_property
    def _frame(self) -> list:
        """Per group: its block size b, its number n_a of a slots, their (b, n_a) coordinates, its row offset."""
        out, offset = [], 0
        for (_, coords), group in zip(self.layout.transverse, self.groups):
            out.append((coords.shape[0], coords.shape[1], coords, offset))
            offset += coords.shape[0] * group.size
        return out

    @property
    def row_size(self) -> int:
        """E, the entries of one operator's canonical rows."""
        b, _, _, offset = self._frame[-1]
        return offset + b * self.groups[-1].size

    def row_views(self, rows: np.ndarray) -> list:
        """Views of (..., E) rows as one (..., b, G) array per group."""
        lead = rows.shape[:-1]
        return [rows[..., o:o + b * g.size].reshape(lead + (b, g.size))
                for (b, _, _, o), g in zip(self._frame, self.groups)]

    def _group_dynamics(self, frame: tuple, h: np.ndarray) -> np.ndarray:
        """The real R with [xi, H] = i R xi of one group, from its frame and its symmetric block h.

        The commutation matrix pairs a with p and x with y inside each
        group, so R = -2 i Sigma Re(h_sym) is assembled by row moves of the
        real part instead of a dense matmul.  The imaginary part of h is
        the form's Hermiticity defect, which `hermiticity_defect` measures.
        """
        b, na, _, _ = frame
        a, p, x, y = self._slots(na, b)
        h_real, r = h.real, np.empty(h.shape)
        for dst, src, coef in ((a, p, 2.0 * HBAR), (p, a, -2.0 * HBAR),
                               (x, y, 2.0), (y, x, -2.0)):
            np.multiply(h_real[src], coef, out=r[dst])
        return r

    def times_dynamics(self, rows: np.ndarray) -> np.ndarray:
        """rows R = (-i) [O, H] for the (..., E) rows of operators O, group by group.

        Each group's R is formed, applied to the real and imaginary parts of
        its rows as two real GEMMs, and dropped: no R outlives the call.
        """
        out = np.empty_like(rows)
        for frame, h, src, dst in zip(self._frame, self.symmetric_blocks(),
                                      self.row_views(rows), self.row_views(out)):
            r = self._group_dynamics(frame, h)
            dst[...] = src.real @ r + 1j * (src.imag @ r)
        return out

    def symmetric_blocks(self) -> list:
        """(h + h^T)/2 per block: the stored block itself when exactly symmetric, as both assemblers store it.

        Taken once per state of the blocks, as is `hermiticity_defect`: the
        methods that change a block in place drop both, and each assembler
        ends in `symmetrize`.
        """
        return self._symmetric

    @cached_property
    def _symmetric(self) -> list:
        return [b if np.array_equal(b, b.T) else (b + b.T) / 2.0 for b in self.blocks]

    def _changed(self):
        """Drop what was derived from the blocks: called by every method that changes them."""
        self.__dict__.pop("_symmetric", None)
        self.__dict__.pop("_defect", None)

    # -- assembly, block by block -------------------------------------------

    def act(self, op: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """op @ rows for (..., size) blocks in `layout`, read in its real frame, and (..., E) rows, leading axes broadcast."""
        lead = np.broadcast_shapes(op.shape[:-1], rows.shape[:-1])
        out = np.empty(lead + (self.row_size,), dtype=np.result_type(op, rows))
        for o, r, dst in zip(self.layout.real_blocks(op), self.row_views(rows), self.row_views(out)):
            np.matmul(o, r, out=dst)
        return out

    def _products(self, left: np.ndarray, right: np.ndarray):
        # each group's rows meet only their own group: the cross-group products are
        # zero as long as no operator that built the rows leaks out of the layout's blocks
        for block, lv, rv in zip(self.blocks, self.row_views(left), self.row_views(right)):
            size = block.shape[0]
            yield block, lv.reshape(-1, size).T @ rv.reshape(-1, size)

    def accumulate(self, left: np.ndarray, right: np.ndarray, coef: complex):
        """h += coef left^T right, each block's product scaled in place."""
        self._changed()
        for block, prod in self._products(left, right):
            prod *= coef
            block += prod

    def add_hermitian(self, left: np.ndarray, right: np.ndarray):
        """h += left^T right plus its adjoint."""
        self._changed()
        for block, half in self._products(left, right):
            block += half
            block += half.conj().T

    def add_field_energy(self):
        """The transverse field energy: the momentum and the double-curl potential terms."""
        v, u_a = self.lattice.cell_volume, self.rows_vector_potential
        self.accumulate(self.rows_field_momentum, self.rows_field_momentum, v / (2.0 * EPS0))
        self.accumulate(u_a, self.act(self.layout.op("double_curl_matrix"), u_a), v / (2.0 * MU0))

    def symmetrize(self):
        """h = (h + h^T)/2 in place."""
        self._changed()
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
        return self._defect

    @cached_property
    def _defect(self) -> float:
        sym = self.symmetric_blocks()
        imag = np.sqrt(sum(np.linalg.norm(b.imag) ** 2 for b in sym))
        whole = np.sqrt(sum(np.linalg.norm(b) ** 2 for b in sym))
        return float(2.0 * imag / max(whole, 1e-300))

    # -- canonical rows of the basic operators -----------------------------

    def _field_rows(self, first: int) -> np.ndarray:
        rows = np.zeros(self.row_size, dtype=complex)
        for (b, na, coords, _), view in zip(self._frame, self.row_views(rows)):
            view[:, self._slots(na, b)[first]] = coords / np.sqrt(self.lattice.cell_volume)
        return rows

    @cached_property
    def rows_vector_potential(self) -> np.ndarray:
        return self._field_rows(0)

    @cached_property
    def rows_field_momentum(self) -> np.ndarray:
        return self._field_rows(1)

    def ladder_rows(self, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Canonical rows of sum_l w_l v [alpha_l C(w_l) + beta_l C^dag(w_l)], (..., E).

        alpha and beta are (..., K, size) blocks in `layout`.  The basis
        holds the quadratures of c_l = sqrt(v w_l) C(w_l) = (x_l + i y_l)/sqrt(2),
        so the pair enters the x slots as s (alpha + beta) and the y slots as
        i s (alpha - beta), with s = sqrt(v w_l / 2).  A group's x slots of
        node l are its columns of F, so each block of the coefficients in
        the real frame (`SectorLayout.real_blocks`) is placed as it is: a
        reshape.  The adjoint of the operator has the conjugate rows.
        """
        K = self.grid.n_nodes
        s = np.sqrt(0.5 * self.lattice.cell_volume * self.grid.weights)[:, None]
        x, y = alpha + beta, alpha - beta
        x *= s
        y *= 1j * s
        rows = np.zeros(alpha.shape[:-2] + (self.row_size,), dtype=complex)
        for (b, na, _, _), view, xg, yg in zip(self._frame, self.row_views(rows),
                                               self.layout.real_blocks(x), self.layout.real_blocks(y)):
            for coef, slots in zip((xg, yg), self._slots(na, b)[2:]):
                # (..., l, row, column) coefficients into (..., row, (l, column)) slots
                dst = view[..., slots].reshape(view.shape[:-1] + (K, b))
                dst[...] = coef.swapaxes(-3, -2)
        return rows

    @cached_property
    def _smear_scale(self) -> np.ndarray:
        """(P, K): sqrt(q_l / (2 v)) profile_p(w_l)."""
        return np.sqrt(0.5 * self.grid.weights / self.lattice.cell_volume) * smear_profiles(self.grid)

    def _smear(self, na: int, b: int, arr: np.ndarray) -> np.ndarray:
        """A group's smear columns applied to the (..., G) slot axis of `arr`, (..., C).

        The columns read an operator's a and p coefficients, then its
        smeared c and its smeared c^dag coefficients at each slot of the
        block, profile by profile: of a row r, the c coefficient is
        (r_x - i r_y)/sqrt(2) and the c^dag coefficient (r_x + i r_y)/sqrt(2),
        and the smearing is the contraction kron(scale.T, I_b) over the
        ladder slots, scale[p, l] = sqrt(q_l / (2 v)) profile_p(w_l).
        """
        K, scale, lead = self.grid.n_nodes, self._smear_scale, arr.shape[:-1]
        _, p, xs, ys = self._slots(na, b)
        x, y = (arr[..., s].reshape(lead + (K, b)) for s in (xs, ys))
        return np.concatenate([arr[..., :p.stop], (scale @ (x - 1j * y)).reshape(lead + (-1,)),
                               (scale @ (x + 1j * y)).reshape(lead + (-1,))], axis=-1)

    def weak_norm(self, blocks: list) -> float:
        """The norm of blocks of this form's groups paired against the smear columns on both sides.

        The two-frequency content of the master check is distributional, so
        its residual rows are paired against smooth frequency profiles,
        mirroring the weak-form residuals of the defining equations; the
        same columns condense a form's coefficients.  Every weak norm is
        taken over whole groups of columns, which an orthogonal rotation
        within a group leaves unchanged, so each column reads one block.
        """
        return float(np.sqrt(sum(
            np.linalg.norm(self._smear(na, b, self._smear(na, b, blk).T)) ** 2
            for (b, na, _, _), blk in zip(self._frame, blocks))))


def assemble_hamiltonian(coupling: CouplingTensor, structure: StructureTensor) -> QuadraticHamiltonian:
    """Assemble the five pieces of the model Hamiltonian term by term.

    Pieces: transverse field energy, medium oscillators, bilinear
    field-medium coupling, the quadratic vector-potential term with the
    structure tensor, and the electrostatic energy of the longitudinal
    polarization.  The bilinear and quadratic coupling pieces enter
    together or not at all: both are linear/quadratic in the same kernels.
    The form is stored in the real frame of the coupling's layout, per
    momentum sector when its kernels conserve lattice momentum.  A canonical dimension
    above `MAX_CANONICAL_DIM` is a configuration error, raised before
    anything is allocated.
    """
    lattice, grid = coupling.lattice, coupling.grid
    v = lattice.cell_volume
    check_canonical_dim(lattice, grid.n_nodes)
    ham = QuadraticHamiltonian.zero(coupling)
    layout = ham.layout
    ham.add_field_energy()

    # medium oscillators: hbar omega_k c^dag c = hbar omega_k (x^2 + y^2)/2 up to a
    # constant; and the bilinear coupling, each a times the medium operator with
    # the node kernels hbar omega_k v (T_k phi)^T, the c^dag kernels their
    # conjugates: the rows of hbar omega_k sqrt(v) T_k^T, whose a rows are phi^T times them
    alpha = (HBAR * np.sqrt(v) * grid.nodes)[:, None] * layout.transpose(coupling.flat)
    a_rows = ham.ladder_rows(alpha, layout.conj(alpha))
    for (b, na, coords, _), view, group, block in zip(ham._frame, ham.row_views(a_rows),
                                                     ham.groups, ham.blocks):
        a, _, x, _ = ham._slots(na, b)
        ladder = np.arange(x.start, group.size)
        block[ladder, ladder] += np.tile(np.repeat(0.5 * HBAR * grid.nodes, b), 2)
        block[a] += coords.T @ view

    # quadratic vector-potential term
    u_a = ham.rows_vector_potential
    ham.accumulate(u_a, ham.act(structure.blocks, u_a), 0.5 * HBAR * v**2)

    # electrostatic energy of the longitudinal polarization
    pol = medium_polarization_form(coupling)
    u_p_long = ham.act(layout.op("longitudinal_matrix"), ham.ladder_rows(pol.alpha, pol.beta))
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
    canonical-pair constraints of the coupling.  Every operator acts on
    the rows block by block in the form's layout, every node at once.
    """
    layout, grid = ham.layout, ham.grid
    v, K, nodes = ham.lattice.cell_volume, grid.n_nodes, grid.nodes
    act, mm = ham.act, layout.matmul
    u_a, u_pi = ham.rows_vector_potential, ham.rows_field_momentum
    pol, mom = medium_polarization_form(coupling), medium_momentum_form(coupling, structure)
    u_p, u_w = ham.ladder_rows(pol.alpha, pol.beta), ham.ladder_rows(mom.alpha, mom.beta)
    pt, pl = layout.op("transverse_matrix"), layout.op("longitudinal_matrix")
    lap = layout.op("laplacian_matrix")
    fmat, t = structure.blocks, coupling.flat
    out = {}

    def ddt(rows):
        rate = ham.times_dynamics(rows)   # (-i / hbar) [O, H] = rows R / hbar
        rate /= HBAR
        return rate

    # potential rate
    rhs = u_pi / EPS0
    rate_a = ddt(u_a)
    out["potential_rate"] = _rel(rate_a - rhs, rhs)

    # field-momentum rate
    pt_f = mm(pt, fmat)
    rhs = act(lap, u_a) / MU0 + HBAR * v * act(pt_f, u_w) - HBAR * v * act(pt_f, u_a)
    out["momentum_rate"] = _rel(ddt(u_pi) - rhs, rhs)

    # medium-mode rate at the worst node, and the node sums of the
    # polarization rate, whose last term must vanish through the coupling
    # constraint and is also reported alone
    alpha = node_modes(layout, grid, np.zeros((K, K, layout.size), dtype=complex))
    u_c = ham.ladder_rows(alpha, np.zeros_like(alpha))
    del alpha
    tc = layout.conj(t)
    rhs = act(tc, act(pl, u_p))
    rhs *= v / EPS0
    rhs -= (1j * v * nodes)[:, None] * act(tc, u_a)
    rhs -= 1j * nodes[:, None] * u_c
    res = ddt(u_c)
    res -= rhs
    out["medium_rate"] = float(rel_norms(res, rhs).max())
    del res, rhs
    coef, tt = -HBAR * v * grid.weights * nodes, layout.transpose(t)
    t1 = coef @ act(tt, u_c)
    s_bar = mm(v * tc, structure.inverse)   # conj of the momentum coefficient
    chain = v**2 * coef @ mm(mm(tt, s_bar), fmat)
    t2 = act(chain, u_a)
    # P is Hermitian, so the last term (-i hbar/eps0) v s_0 P_L P plus its adjoint reads only Im s_0
    t3 = (HBAR / EPS0) * v * act(mm(coupling.moments.imag0, pl), u_p)
    rhs_half = t1 + t2 + t3
    rhs = rhs_half + rhs_half.conj()
    rate_p = ddt(u_p)
    out["polarization_rate"] = _rel(rate_p - rhs, rhs)
    vanishing = t3 + t3.conj()
    out["polarization_rate_last_term"] = _rel(vanishing, rhs)

    # wave equation with the transverse polarization rate as source; L A and
    # the second rate nearly cancel at weak coupling, so the scale is the
    # largest of the three terms, not the source alone
    lap_a, acc = act(lap, u_a), ddt(rate_a)
    src = -MU0 * act(pt, rate_p)
    scale = max(np.linalg.norm(lap_a), np.linalg.norm(acc), np.linalg.norm(src), 1e-300)
    out["wave_source"] = float(np.linalg.norm(lap_a - acc - src) / scale)
    return out


# -- diagonal-form master check ---------------------------------------------


def node_modes(layout: SectorLayout, grid: FrequencyGrid, alpha: np.ndarray) -> np.ndarray:
    """Add to row k of `alpha`, (K, K, size) in `layout`, the bare medium mode C(w_k) of node k.

    Its kernel is the Kronecker delta over the cell volume and the node's
    quadrature weight; `alpha` is changed in place and returned.
    """
    nodes = np.arange(grid.n_nodes)
    alpha[nodes, nodes] += layout.identity / (layout.lattice.cell_volume * grid.weights)[:, None]
    return alpha


def mode_rows(ham: QuadraticHamiltonian, potential: np.ndarray, momentum: np.ndarray,
              resonant: np.ndarray, antiresonant: np.ndarray) -> np.ndarray:
    """Canonical rows of the diagonalizing annihilator of every node, (K, E), from its four families.

    The families are blocks in the form's layout (`diagonalize.node_families`), read in its real frame.
    The medium part of node k is its resonant row plus the node's own mode
    C(w_k), whose kernel is the Kronecker delta over the quadrature weight.
    """
    layout, v = ham.layout, ham.lattice.cell_volume
    rows = ham.ladder_rows(node_modes(layout, ham.grid, resonant.copy()), antiresonant)
    for (b, na, coords, _), view, pot, mom in zip(ham._frame, ham.row_views(rows),
                                                  layout.real_blocks(potential), layout.real_blocks(momentum)):
        a, p, _, _ = ham._slots(na, b)
        view[..., a] = np.sqrt(v) * pot @ coords
        view[..., p] = np.sqrt(v) * mom @ coords
    return rows


def diagonal_form_check(ham: QuadraticHamiltonian, prop: NodePropagator) -> float:
    """Weak-form residual of [C(w_k), H] = hbar w_k C(w_k) over all nodes.

    This is the master identity equivalent to the four defining equations at
    once, evaluated through the assembled Hamiltonian rather than through
    kernel arithmetic, every node's rows at once, group by group: the
    residual of a group is (rows R) smeared, against hbar w_k times the
    rows smeared.  The residual columns are split by canonical sector (a,
    p, c, c^dag) and each sector is normalized by its own right-hand-side
    size (the creator sector borrows the annihilator sector's scale, which
    carries the exact singular part); the reported value is the worst
    sector.  This mirrors how the kernel-route residuals are normalized, so
    the two routes are directly comparable.  The form and the propagator
    share the coupling's layout.
    """
    grid = ham.grid
    K, w = grid.n_nodes, grid.weights
    P = len(ham._smear_scale)
    rows = mode_rows(ham, *node_families(prop))
    num, den = np.zeros(4), np.zeros(4)
    for (b, na, _, _), view, kr in zip(ham._frame, ham.row_views(rows), ham.row_views(ham.times_dynamics(rows))):
        rhs = (HBAR * grid.nodes)[:, None, None] * ham._smear(na, b, view)
        res = 1j * ham._smear(na, b, kr) - rhs
        edges = (0, na, 2 * na, 2 * na + P * b, res.shape[-1])   # a, p, c, c^dag
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            num[i] += w @ sq_norms(res[..., lo:hi].reshape(K, -1))
            den[i] += w @ sq_norms(rhs[..., lo:hi].reshape(K, -1))
    den[3] = den[2]
    return float(np.max(np.sqrt(num / np.maximum(den, 1e-300))))


def _split_frequencies(h: np.ndarray, na: int, slots: tuple) -> np.ndarray | None:
    """A group's frequencies from the half-size symmetric problem, or None where it does not apply.

    With the positions q = (a, x), the momenta m = (p, y), V = h[q, q],
    T = h[m, m] of the real symmetric block h and D = diag(hbar on the a
    and p slots, 1 on x and y), R^2 = -4 diag(D T D V, D V D T) whenever
    h[q, m] = 0: the GF normal-mode problem, the time-reversal-even
    case of Colpa (1978).  With D T D = L L^T the frequencies are
    +-2 sqrt(lambda) / hbar, lambda the eigenvalues of L^T V L, and an
    indefinite V gives imaginary ones.  None when h[q, m] is not exactly
    zero or D T D has no Cholesky factor.
    """
    a, p, x, y = slots
    if any(np.any(h[s, t]) for s in (a, x) for t in (p, y)):
        return None
    q, m = np.r_[a, x], np.r_[p, y]
    d = np.ones(q.size)
    d[:na] = HBAR
    t = h[np.ix_(m, m)]
    t *= d[:, None]
    t *= d
    try:
        chol = np.linalg.cholesky(t)
    except np.linalg.LinAlgError:
        return None
    del t
    w = 2.0 * np.sqrt(np.linalg.eigvalsh(chol.T @ h[np.ix_(q, q)] @ chol) + 0j) / HBAR
    return np.concatenate([w, -w])


def mode_frequencies(ham: QuadraticHamiltonian) -> tuple[np.ndarray, int, float]:
    """Every eigenvalue of K / hbar, one group at a time.

    A form stored per momentum sector has one block per sector; a form
    whose inputs leak across sectors, as a random coupling's do, is one
    block.  A group whose positions and momenta do not couple and whose
    momentum half is positive definite is solved as the half-size
    symmetric problem (`_split_frequencies`); any other, such as a
    non-reciprocal coupling or a random form, as i eig(R) / hbar with the
    general nonsymmetric solver.  Both routes show the complex frequencies
    of an unstable form.  A form that is not dagger-Hermitian has no real
    R and raises instead of losing its imaginary part.  Returns the
    eigenvalues, the number of blocks solved and the form's input
    `sector_leak`.
    """
    defect = ham.hermiticity_defect()
    if defect > HERMITICITY_TOL:
        raise DampolError(
            f"quadratic form is not dagger-Hermitian: relative defect {defect:.3e} "
            f"(limit {HERMITICITY_TOL:g})")
    out = []
    for frame, h in zip(ham._frame, ham.symmetric_blocks()):
        b, na, _, _ = frame
        w = _split_frequencies(h.real, na, ham._slots(na, b))
        if w is None:
            w = 1j * np.linalg.eigvals(ham._group_dynamics(frame, h)) / HBAR
        out.append(w)
    return np.concatenate(out), len(ham.blocks), ham.sector_leak


def symplectic_spectrum(ham: QuadraticHamiltonian) -> dict:
    """Eigenvalues of the dynamical matrix: the discrete mode frequencies.

    For a stable quadratic form the spectrum is real and comes in opposite
    pairs; an unstable one shows imaginary frequencies on either route of
    `mode_frequencies`, on the half-size route as a negative eigenvalue
    of its position half.  When the k = 0 Fourier mode sits in the
    transverse subspace the uniform vector-potential direction is exactly
    flat (the bilinear and quadratic coupling terms complete a square),
    which contributes three structural zero modes; they are counted
    separately, not as instabilities.  Their numerical frequencies scatter
    at the square root of machine precision times the scale, on the general
    route from their Jordan structure and on the half-size route as the
    square roots of eigenvalues at rounding level, hence the loose
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
