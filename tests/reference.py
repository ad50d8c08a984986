"""The dense site-kernel route: the reference the tests compare the package's blocks against.

The package holds every two-point kernel ``K_ij(r, r')`` as momentum-sector
blocks (`SectorLayout`).  Here a kernel is one dense complex square matrix
of dimension ``3M`` with row index ``(site, component)`` (`TensorKernel`),
and kernel composition carries the volume factor, ``A o B = v * A @ B``.
The lattice operators are assembled as site matrices from the same per-k
symbols the package builds its blocks from (`Lattice._symbols`), through
the dense (M, M) plane waves (`phases`), whose rotation of site vectors
(`momentum_rotate`) the package's FFT transforms (`Lattice.to_momentum`,
`Lattice.from_momentum`) stand for, and the transverse basis from the same
column vectors in the dense real momentum basis (`momentum_basis`), the
oracle's real frame (`real_basis`).  The site rotation of a layout
(`basis`, `blocks`, `sites`) and the dense-input
route (a `RealCoupling` of real coefficients and a unitary gauge per node,
built through `from_kernels` and `split` into the layout its leak picks)
live here too, with a few quantities that no production path needs (the
pair-resolved commutator, the asymptote, a form's time derivative and its
multiple, random dense couplings).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from dampol.constants import EPS0, HBAR
from dampol.coupling import CouplingTensor, StructureTensor, _lagrangian_prefactor, check_constraints
from dampol.diagonalize import ModeCoefficients
from dampol.errors import DampolError
from dampol.fields import LinearBosonicForm
from dampol.lattice import CHUNK_BYTES, FrequencyGrid, Lattice, SectorLayout


def compatible(lattice: Lattice, other: Lattice) -> bool:
    return (
        lattice.n_per_axis == other.n_per_axis
        and lattice.spacing == other.spacing
        and lattice.k0_transverse == other.k0_transverse
    )


@dataclass(frozen=True, eq=False)
class TensorKernel:
    """Dense two-point, two-index complex kernel K_ij(r, r') on a lattice.

    The delta convention is ``delta(r - r') -> identity / cell_volume``, so
    `TensorKernel.identity` composes as a true unit element.
    """

    lattice: Lattice
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        if mat.shape != (self.lattice.dim, self.lattice.dim):
            raise DampolError(f"kernel shape {mat.shape} does not match lattice dim {self.lattice.dim}")
        if not np.all(np.isfinite(mat)):
            raise DampolError("kernel contains non-finite entries")
        object.__setattr__(self, "mat", mat)

    # -- algebra ---------------------------------------------------------

    def __matmul__(self, other: "TensorKernel") -> "TensorKernel":
        self._check(other)
        return TensorKernel(self.lattice, self.lattice.cell_volume * (self.mat @ other.mat))

    def __add__(self, other: "TensorKernel") -> "TensorKernel":
        self._check(other)
        return TensorKernel(self.lattice, self.mat + other.mat)

    def __sub__(self, other: "TensorKernel") -> "TensorKernel":
        self._check(other)
        return TensorKernel(self.lattice, self.mat - other.mat)

    def __mul__(self, scalar: complex) -> "TensorKernel":
        return TensorKernel(self.lattice, self.mat * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "TensorKernel":
        return TensorKernel(self.lattice, -self.mat)

    @property
    def T(self) -> "TensorKernel":
        """Full transpose: swaps the two (site, component) slots jointly."""
        return TensorKernel(self.lattice, self.mat.T)

    def conj(self) -> "TensorKernel":
        return TensorKernel(self.lattice, self.mat.conj())

    def inv(self) -> "TensorKernel":
        """Kernel inverse: K o K.inv() = identity."""
        v = self.lattice.cell_volume
        return TensorKernel(self.lattice, np.linalg.inv(self.mat) / v**2)

    def norm(self) -> float:
        """Frobenius norm in kernel units (volume-weighted)."""
        return self.lattice.cell_volume * float(np.linalg.norm(self.mat))

    def allclose(self, other: "TensorKernel", tol: float = 1e-12) -> bool:
        scale = max(self.norm(), other.norm(), 1e-300)
        return (self - other).norm() <= tol * scale

    def _check(self, other: "TensorKernel"):
        if not compatible(self.lattice, other.lattice):
            raise DampolError("kernels live on incompatible lattices")

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, lattice: Lattice) -> "TensorKernel":
        return cls(lattice, np.eye(lattice.dim) / lattice.cell_volume)


# -- lattice operators as site matrices ---------------------------------------
# the matrices of the last few lattices are kept, so a test reads each one built once


def site_positions(lattice: Lattice) -> np.ndarray:
    """(M, 3) array of site positions, C-ordered over integer triples."""
    n = lattice.n_per_axis
    idx = np.indices((n, n, n)).reshape(3, -1).T
    return idx * lattice.spacing


@lru_cache(maxsize=4)
def phases(lattice: Lattice) -> np.ndarray:
    # (M, M) matrix exp(i k . r) / sqrt(M); columns indexed by k.  Sites and wave
    # vectors run C-ordered over integer triples, so it is kron(p, p, p) / sqrt(M)
    # of the (n, n) axis factor p[x, j] = exp(2 pi i x j / n), whatever the
    # spacing, read from the n-th roots of unity, each root past the half the
    # exact conjugate of its partner
    n = lattice.n_per_axis
    m = np.arange(n)
    low = np.exp(2j * np.pi * np.minimum(m, n - m) / n)
    p = np.where(2 * m > n, low.conj(), low)[np.outer(m, m) % n]
    return np.kron(np.kron(p, p), p) / np.sqrt(lattice.n_sites)


@lru_cache(maxsize=4)
def momentum_basis(lattice: Lattice) -> np.ndarray:
    """Real orthogonal (M, M) site matrix adapted to the lattice-momentum sectors.

    Column j belongs to wave vector ``kvecs[j]``.  A self-conjugate q
    (q = -q modulo the reciprocal lattice) has its plane wave, which is
    real; a pair {q, -q} has sqrt(2) cos(q.r) at the lower index and
    sqrt(2) sin(q.r) at the higher.  A real translation-invariant
    operator maps each sector's span into itself.
    """
    j, conj = np.arange(lattice.n_sites), lattice._conjugate
    waves = phases(lattice)[:, np.minimum(j, conj)] * np.where(j == conj, 1.0, np.sqrt(2.0))
    return np.where(j <= conj, waves.real, waves.imag)


def momentum_rotate(vecs: np.ndarray, f: np.ndarray) -> np.ndarray:
    """f @ V for the (M, 3) view V of every (..., 3M) vector, f an (M, M) matrix, as (..., 3M)."""
    lead, m = vecs.shape[:-1], f.shape[0]
    return (f @ vecs.reshape(lead + (m, 3))).reshape(lead + (3 * m,))


def _assemble(lattice: Lattice, blocks: np.ndarray) -> np.ndarray:
    """Assemble a position-space operator matrix from per-k 3x3 blocks."""
    ph = phases(lattice)
    op = np.einsum("rk,kab,sk->rasb", ph, blocks, ph.conj(), optimize=True)
    return np.ascontiguousarray(op.reshape(lattice.dim, lattice.dim))


@lru_cache(maxsize=4)
def transverse_matrix(lattice: Lattice) -> np.ndarray:
    """Orthogonal projector matrix onto the transverse subspace."""
    return _assemble(lattice, lattice._symbols["transverse_matrix"]).real


@lru_cache(maxsize=4)
def longitudinal_matrix(lattice: Lattice) -> np.ndarray:
    return np.eye(lattice.dim) - transverse_matrix(lattice)


@lru_cache(maxsize=4)
def curl_matrix(lattice: Lattice) -> np.ndarray:
    """Spectral curl acting on position-space vector fields (Hermitian)."""
    return _assemble(lattice, lattice._symbols["curl_matrix"])


@lru_cache(maxsize=4)
def double_curl_matrix(lattice: Lattice) -> np.ndarray:
    """curl-of-curl operator, spectrally k^2 (1 - khat khat); real PSD."""
    return _assemble(lattice, lattice._symbols["double_curl_matrix"]).real


@lru_cache(maxsize=4)
def laplacian_matrix(lattice: Lattice) -> np.ndarray:
    """Vector Laplacian, spectrally -k^2 on every component."""
    return _assemble(lattice, lattice._symbols["laplacian_matrix"]).real


def transverse_basis(lattice: Lattice) -> np.ndarray:
    """Real orthonormal (3M, M_T) basis of the transverse subspace, one momentum column per column.

    Column i is kron(F[:, column[i]], vectors[i]) of the lattice's transverse
    columns, F the momentum basis: the products the package's transverse
    coordinates (`SectorLayout.transverse`) stand for.
    """
    column, vectors = lattice._transverse_columns
    cols = np.einsum("ri,ia->rai", momentum_basis(lattice)[:, column], vectors)
    return np.ascontiguousarray(cols.reshape(lattice.dim, -1))


# -- the site rotation of a layout ---------------------------------------------


@lru_cache(maxsize=4)
def basis(layout: SectorLayout) -> np.ndarray:
    """The unitary (d, d) basis of every layout: kron(U, I_3), U the plane waves (`phases`)."""
    return np.kron(phases(layout.lattice), np.eye(3))


@lru_cache(maxsize=4)
def real_basis(layout: SectorLayout) -> np.ndarray:
    """The real orthogonal (d, d) basis of a layout's real frame: its group columns of kron(F, I_3),
    F the real momentum basis (`SectorLayout.real_blocks`)."""
    return np.kron(momentum_basis(layout.lattice), np.eye(3))[:, layout._real_groups[1]]


def real_blocks(layout: SectorLayout, stack: np.ndarray) -> list:
    """The diagonal blocks of real_basis^T A real_basis of (..., d, d) site operators, one per slot group."""
    rot = real_basis(layout)
    dense = rot.T @ np.asarray(stack) @ rot
    edges = np.cumsum(layout._real_groups[0])
    return [dense[..., a:b, a:b] for a, b in zip(edges - layout._real_groups[0], edges)]


def _chunks(layout: SectorLayout, n: int):
    """Slices of a leading axis of n operators, each at most an eighth of it and of bounded bytes."""
    step = max(1, min(CHUNK_BYTES // (16 * layout.lattice.dim**2), -(-n // 8)))
    return (slice(i, i + step) for i in range(0, n, step))


def blocks(layout: SectorLayout, stack: np.ndarray) -> np.ndarray:
    """The blocks of a (..., d, d) stack of site operators in `layout`, (..., size).

    The rotation runs a chunk of operators at a time, so its temporaries
    stay below a fraction of the stack.
    """
    stack = np.asarray(stack)
    lead, d = stack.shape[:-2], layout.lattice.dim
    mats, (rows, cols) = stack.reshape(-1, d, d), divmod(layout.places, d)
    rot, out = basis(layout), np.empty((len(mats), layout.size), dtype=complex)
    for chunk in _chunks(layout, len(mats)):
        out[chunk] = (rot.conj().T @ mats[chunk] @ rot)[:, rows, cols]
    return out.reshape(lead + (layout.size,))


def sites(layout: SectorLayout, flat: np.ndarray) -> np.ndarray:
    """The (..., d, d) site operators of a (..., size) array of `layout`."""
    lead, d = flat.shape[:-1], layout.lattice.dim
    ops, (rows, cols) = flat.reshape(-1, layout.size), divmod(layout.places, d)
    rot, out = basis(layout), np.empty((len(ops), d, d), dtype=complex)
    for chunk in _chunks(layout, len(ops)):
        dense = np.zeros((len(ops[chunk]), d, d), dtype=complex)
        dense[:, rows, cols] = ops[chunk]
        np.matmul(rot @ dense, rot.conj().T, out=out[chunk])
    return out.reshape(lead + (d, d))


def split(lattice: Lattice, stack: np.ndarray) -> tuple:
    """(leak, blocks) of a (..., d, d) stack of site operators: its `one_block` blocks, rotated once,
    and their `Lattice.leak`.

    The blocks are laid into the layout the leak chooses by
    `one_block.relay`, so no operator is rotated twice.
    """
    dense = blocks(lattice.one_block, stack)
    return lattice.leak(dense), dense


# -- the dense-input route -----------------------------------------------------


def gram_stack(a: np.ndarray) -> np.ndarray:
    """Per-node Gram products a_k^T conj(a_k) of a (K, n, n) stack, as one stacked GEMM."""
    return np.matmul(a.transpose(0, 2, 1), a.conj())


@dataclass(frozen=True, eq=False)
class RealCoupling:
    """Lagrangian-route input: real coefficient kernels plus a unitary gauge.

    `t0` and `unitary` are stacks of shape (K, 3M, 3M), one kernel per
    frequency node.
    """

    lattice: Lattice
    grid: FrequencyGrid
    t0: np.ndarray
    unitary: np.ndarray

    def __post_init__(self):
        t0 = np.asarray(self.t0, dtype=float)
        uni = np.asarray(self.unitary, dtype=complex)
        shape = (self.grid.n_nodes, self.lattice.dim, self.lattice.dim)
        if t0.shape != shape or uni.shape != shape:
            raise DampolError(f"coupling stacks must have shape {shape}")
        # kernel unitarity: Utilde o U* = delta  <=>  v^2 U^T conj(U) = 1
        gram = gram_stack(uni)
        gram *= self.lattice.cell_volume**2
        if not np.allclose(gram, np.eye(self.lattice.dim), atol=1e-10):
            raise DampolError("unitary gauge kernels are not unitary")
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "unitary", uni)


def from_kernels(lattice: Lattice, grid: FrequencyGrid, kernels: np.ndarray) -> CouplingTensor:
    """The coupling of a dense (K, 3M, 3M) kernel stack: rotated once into the one dense block
    and laid into the sector blocks, or kept dense when it leaks out of them."""
    kern = np.asarray(kernels, dtype=complex)
    shape = (grid.n_nodes, lattice.dim, lattice.dim)
    if kern.shape != shape:
        raise DampolError(f"coupling kernel stack must have shape {shape}")
    if not np.all(np.isfinite(kern)):
        raise DampolError("coupling kernels contain non-finite entries")
    leak, dense = split(lattice, kern)
    layout = lattice.layout(leak)
    return CouplingTensor(lattice, grid, layout, lattice.one_block.relay(dense, layout), leak)


def coupling_from_real(t0: RealCoupling) -> CouplingTensor:
    """The coupling of a `RealCoupling`: per node T(w) = -(2 hbar w)^(-1/2) U(w) o T0(w).

    The dense counterpart of `coupling_from_lagrangian`, with the same
    constraint check.
    """
    lattice, grid = t0.lattice, t0.grid
    kernels = _lagrangian_prefactor(grid.nodes)[:, None, None] * lattice.cell_volume * np.matmul(t0.unitary, t0.t0)
    coupling = from_kernels(lattice, grid, kernels)
    report = check_constraints(coupling)
    if not report.passed:
        raise DampolError(
            f"constraint residuals {report.moment0:.3e}/{report.moment2:.3e} "
            f"exceed tolerance; quadrature or gauge input is inconsistent")
    return coupling


# -- references no production path needs ---------------------------------------


def random_coupling(lattice: Lattice, grid: FrequencyGrid, rng: np.random.Generator,
                    scale: float = 0.5, envelope: bool = True,
                    diag_weight: float = 0.0) -> RealCoupling:
    """Random Lagrangian coupling: i.i.d. real coefficients, random gauge.

    Used by identity tests and the random draws of the verification suite;
    an optional smooth envelope keeps the spectral weight away from the
    grid edges.  `diag_weight` adds that multiple of the identity to the
    raw coefficients, which keeps the per-node kernels well conditioned for
    checks that invert them.
    """
    d = lattice.dim
    v = lattice.cell_volume
    K = grid.n_nodes
    amp = scale / v
    if envelope:
        x = grid.nodes / grid.omega_max
        amp = amp * np.sqrt(np.clip(np.sin(np.pi * x), 0.0, None))
    else:
        amp = np.full(K, amp)
    t0 = amp[:, None, None] * (rng.standard_normal((K, d, d))
                               + diag_weight * np.eye(d)[None])
    unitaries = np.empty((K, d, d), dtype=complex)
    for k in range(K):
        q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        unitaries[k] = q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]
    return RealCoupling(lattice=lattice, grid=grid, t0=t0, unitary=unitaries / v)


def zero_coupling(lattice: Lattice, grid: FrequencyGrid) -> CouplingTensor:
    """The zero coupling, in the sector layout: the free medium."""
    return CouplingTensor(lattice, grid, lattice.sector_layout,
                          np.zeros((grid.n_nodes, lattice.sector_layout.size), dtype=complex))


def chi_asymptotic(structure: StructureTensor, z: complex) -> np.ndarray:
    """Leading large-|z| behaviour of the susceptibility, (size,) in the structure tensor's layout."""
    return (-HBAR / EPS0 / z**2) * structure.blocks


def time_derivative(form: LinearBosonicForm) -> LinearBosonicForm:
    nodes = form.grid.nodes[:, None]
    return replace(form, alpha=-1j * nodes * form.alpha, creators=1j * nodes * form.beta)


def scaled(form: LinearBosonicForm, scalar: complex) -> LinearBosonicForm:
    """The form of scalar times the operator."""
    return replace(form, alpha=scalar * form.alpha, creators=np.conj(scalar) * form.beta)


def commutation_matrix(modes: ModeCoefficients, k: int, l: int) -> TensorKernel:
    """Left-hand side of the canonical commutator condition for a node pair.

    The expected value is the identity kernel times the node Kronecker over
    the weight.
    """
    layout = modes.layout
    lattice, v, w = layout.lattice, layout.lattice.cell_volume, modes.grid.weights
    f1, f2 = sites(layout, modes.potential[[k, l]]), sites(layout, modes.momentum[[k, l]])
    res, anti = sites(layout, modes.resonant[[k, l]]), sites(layout, modes.antiresonant[[k, l]])
    out = 1j * HBAR * v * (f1[0] @ f2[1].conj().T - f2[0] @ f1[1].conj().T)
    # delta-delta and delta-regular cross terms of the resonant family
    if k == l:
        out = out + np.eye(lattice.dim) / v / w[k]
    out = out + res[0, l] + res[1, k].conj().T
    pairs = np.einsum("m,mab,mcb->ac", w, res[0], res[1].conj()) \
        - np.einsum("m,mab,mcb->ac", w, anti[0], anti[1].conj())
    return TensorKernel(lattice, out + v * pairs)
