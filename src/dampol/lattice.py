"""Periodic cubic lattice, spectral vector-field operators, and kernel algebra.

Discretization conventions used by the whole package:

* spatial integrals become cell sums, ``integral dr -> v * sum_r`` with
  ``v`` the cell volume, so the spatial delta is the identity matrix
  divided by ``v``;
* frequency integrals become quadrature sums over a `FrequencyGrid`,
  with the frequency delta equal to ``1/w_k`` at node ``k``;
* a two-point tensor kernel ``K_ij(r, r')`` is stored as a dense complex
  square matrix of dimension ``3M`` with row index ``(site, component)``,
  and kernel composition carries the volume factor, ``A o B = v * A @ B``.

Differential operators (curl, double curl, Laplacian) are realized
spectrally with the exact discrete wave vectors, so transversality
identities close to machine precision rather than to O(spacing^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DampolError

#: largest off-sector part of a site operator in `Lattice.momentum_basis`,
#: relative to the operator, for which it is stored per momentum sector: in the
#: kernel stacks (`SectorLayout`) and in the oracle's quadratic form
SECTOR_LEAK_TOL = 1e-13

#: largest (d, d) complex stack a layout rotation holds at once, in bytes
_ROTATION_CHUNK_BYTES = 1 << 20

_LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI_CIVITA[_i, _j, _k] = 1.0
    _LEVI_CIVITA[_i, _k, _j] = -1.0


@dataclass(frozen=True)
class Lattice:
    """Periodic cubic lattice with ``n_per_axis**3`` sites.

    The flag `k0_transverse` assigns the k = 0 Fourier mode to the
    transverse subspace (constant fields are divergence-free); flipping it
    moves that mode to the longitudinal projector instead.
    """

    n_per_axis: int
    spacing: float = 1.0
    k0_transverse: bool = True

    def __post_init__(self):
        if int(self.n_per_axis) != self.n_per_axis or self.n_per_axis < 1:
            raise DampolError(f"n_per_axis must be a positive integer, got {self.n_per_axis}")
        if not self.spacing > 0:
            raise DampolError(f"spacing must be positive, got {self.spacing}")

    @property
    def n_sites(self) -> int:
        return self.n_per_axis ** 3

    @property
    def dim(self) -> int:
        """Dimension of the flattened (site, component) index space."""
        return 3 * self.n_sites

    @property
    def cell_volume(self) -> float:
        return float(self.spacing) ** 3

    @cached_property
    def sites(self) -> np.ndarray:
        """(M, 3) array of site positions, C-ordered over integer triples."""
        n = self.n_per_axis
        idx = np.indices((n, n, n)).reshape(3, -1).T
        return idx * self.spacing

    @cached_property
    def kvecs(self) -> np.ndarray:
        """(M, 3) array of reciprocal vectors in the DFT convention."""
        n = self.n_per_axis
        per_axis = 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)
        grids = np.meshgrid(per_axis, per_axis, per_axis, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    @cached_property
    def _phases(self) -> np.ndarray:
        # (M, M) matrix exp(i k . r) / sqrt(M); columns indexed by k.  Sites and wave
        # vectors run C-ordered over integer triples, so it is kron(p, p, p) / sqrt(M)
        # of the (n, n) axis factor p[x, j] = exp(2 pi i x j / n), whatever the
        # spacing, read from the n-th roots of unity, each root past the half the
        # exact conjugate of its partner
        n = self.n_per_axis
        m = np.arange(n)
        low = np.exp(2j * np.pi * np.minimum(m, n - m) / n)
        p = np.where(2 * m > n, low.conj(), low)[np.outer(m, m) % n]
        return np.kron(np.kron(p, p), p) / np.sqrt(self.n_sites)

    def _assemble(self, blocks: np.ndarray) -> np.ndarray:
        """Assemble a position-space operator matrix from per-k 3x3 blocks."""
        ph = self._phases
        op = np.einsum("rk,kab,sk->rasb", ph, blocks, ph.conj(), optimize=True)
        return np.ascontiguousarray(op.reshape(self.dim, self.dim))

    @cached_property
    def _dkvecs(self) -> np.ndarray:
        """Wave vectors of the derivative blocks: `kvecs` with Nyquist components zeroed.

        An even lattice stores the Nyquist component as -pi/a only, so an odd
        derivative there has no conjugate partner; spectral differentiation
        sets it to 0.  At n = 2 the blocks are real as they are and stay so.
        """
        n, k = self.n_per_axis, self.kvecs.copy()
        if n % 2 == 0 and n >= 4:
            k[np.indices((n, n, n)).reshape(3, -1).T == n // 2] = 0.0
        return k

    @cached_property
    def _unit_k(self) -> np.ndarray:
        k = self._dkvecs
        norms = np.linalg.norm(k, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        return k / safe[:, None]

    @cached_property
    def _transverse_blocks(self) -> np.ndarray:
        """(M, 3, 3) per-k blocks of the transverse projector."""
        khat = self._unit_k
        blocks = np.eye(3)[None, :, :] - khat[:, :, None] * khat[:, None, :]
        zero = np.linalg.norm(self._dkvecs, axis=1) == 0
        blocks[zero] = np.eye(3) if self.k0_transverse else np.zeros((3, 3))
        return blocks

    @cached_property
    def _symbols(self) -> dict:
        """Per-k 3x3 symbols of the spectral operators, (M, 3, 3) each, by the name of their matrix.

        The operator acts on the plane wave of ``kvecs[j]`` as the 3x3
        matrix ``symbols[j]``.  Every operator but the curl has real-valued
        symbols and is real: B(-q) = conj(B(q)), which is checked here.
        """
        k, khat = self._dkvecs, self._unit_k
        ksq = np.einsum("ki,ki->k", k, k)
        trans = self._transverse_blocks
        symbols = {
            "transverse_matrix": trans,
            "longitudinal_matrix": np.eye(3) - trans,
            "curl_matrix": 1j * np.einsum("abc,kb->kac", _LEVI_CIVITA, k),
            "double_curl_matrix": ksq[:, None, None] * (np.eye(3)[None] - khat[:, :, None] * khat[:, None, :]),
            "laplacian_matrix": -ksq[:, None, None] * np.eye(3)[None],
        }
        for name, sym in symbols.items():
            if np.isrealobj(sym):
                residue = np.linalg.norm(sym[self._conjugate] - sym.conj()) / max(np.linalg.norm(sym), 1e-300)
                if residue > 1e-12:
                    raise DampolError(f"n_per_axis = {self.n_per_axis}: the {name} symbol is not even "
                                      f"in k (relative residue {residue:.2e}), so the operator is not real")
        return symbols

    @cached_property
    def transverse_matrix(self) -> np.ndarray:
        """Orthogonal projector matrix onto the transverse subspace."""
        return self._assemble(self._symbols["transverse_matrix"]).real

    @cached_property
    def longitudinal_matrix(self) -> np.ndarray:
        return np.eye(self.dim) - self.transverse_matrix

    @cached_property
    def curl_matrix(self) -> np.ndarray:
        """Spectral curl acting on position-space vector fields (Hermitian)."""
        return self._assemble(self._symbols["curl_matrix"])

    @cached_property
    def double_curl_matrix(self) -> np.ndarray:
        """curl-of-curl operator, spectrally k^2 (1 - khat khat); real PSD."""
        return self._assemble(self._symbols["double_curl_matrix"]).real

    @cached_property
    def laplacian_matrix(self) -> np.ndarray:
        """Vector Laplacian, spectrally -k^2 on every component."""
        return self._assemble(self._symbols["laplacian_matrix"]).real

    @cached_property
    def _conjugate(self) -> np.ndarray:
        """(M,) index of -kvecs[j], modulo the reciprocal lattice."""
        n = self.n_per_axis
        idx = np.indices((n, n, n)).reshape(3, -1)
        return np.ravel_multi_index((-idx) % n, (n, n, n))

    @cached_property
    def momentum_sector(self) -> np.ndarray:
        """(M,) sector label of each `momentum_basis` column: the lower index of {q, -q}."""
        return np.minimum(np.arange(self.n_sites), self._conjugate)

    @cached_property
    def momentum_basis(self) -> np.ndarray:
        """Real orthogonal (M, M) site matrix adapted to the lattice-momentum sectors.

        Column j belongs to wave vector ``kvecs[j]``.  A self-conjugate q
        (q = -q modulo the reciprocal lattice) has its plane wave, which is
        real; a pair {q, -q} has sqrt(2) cos(q.r) at the lower index and
        sqrt(2) sin(q.r) at the higher.  A real translation-invariant
        operator maps each sector's span into itself.
        """
        j, conj = np.arange(self.n_sites), self._conjugate
        waves = self._phases[:, self.momentum_sector] * np.where(j == conj, 1.0, np.sqrt(2.0))
        return np.where(j <= conj, waves.real, waves.imag)

    @cached_property
    def _transverse_columns(self) -> tuple:
        # columns kron(F[:, j], e) for each unit eigenvector e of the 3x3 block at kvecs[j],
        # with the momentum column j and the vector e of each
        evals, evecs = np.linalg.eigh(self._transverse_blocks)
        keep = (evals > 0.5).ravel()
        cols = np.einsum("rj,jae->raje", self.momentum_basis, evecs).reshape(self.dim, -1)
        column = np.repeat(np.arange(self.n_sites), 3)
        vectors = evecs.transpose(0, 2, 1).reshape(-1, 3)
        return np.ascontiguousarray(cols[:, keep]), column[keep], vectors[keep]

    @property
    def transverse_basis(self) -> np.ndarray:
        """Real orthonormal (3M, M_T) basis of the transverse subspace, one momentum column per column."""
        return self._transverse_columns[0]

    @cached_property
    def sector_layout(self) -> "SectorLayout":
        """Per-sector storage: one block per {q, -q} sector of `momentum_basis`, 3x3 or 6x6.

        The basis columns are those of kron(F, I_3) with F the momentum basis,
        ordered by block size, then by sector label, then by momentum column
        and component.
        """
        m, label = self.n_sites, self.momentum_sector
        count = np.bincount(label)[label]   # momentum columns in each column's sector
        order = np.argsort(count * m + label, kind="stable")
        starts = np.flatnonzero(np.r_[True, np.diff(label[order]) != 0])
        return SectorLayout(self, 3 * count[order[starts]], (3 * order[:, None] + np.arange(3)).ravel())

    def sector_blocks(self, symbols: np.ndarray) -> np.ndarray:
        """The `sector_layout` blocks, (..., size), of translation-invariant operators with per-k symbols.

        `symbols` is (..., M, 3, 3), one 3x3 matrix per row of `kvecs`, as
        in `_symbols`.  A self-conjugate q gives the 3x3 block B(q); a pair
        {q, -q}, its cos column first as in `momentum_basis`, gives the 6x6
        block [[P, -iQ], [iQ, P]] with P = (B(q) + B(-q)) / 2 and
        Q = (B(q) - B(-q)) / 2.  No site operator is formed.
        """
        layout = self.sector_layout
        out = np.empty(symbols.shape[:-3] + (layout.size,), dtype=complex)
        column = layout.columns[::3] // 3   # the momentum column of each triple of basis columns, in order
        start = 0
        for part, (b, count, _) in zip(layout.parts(out), layout.part_sizes):
            cols = column[start:start + count * b // 3].reshape(count, b // 3)
            start += cols.size
            if b == 3:
                part[...] = symbols[..., cols[:, 0], :, :]
                continue
            plus, minus = symbols[..., cols[:, 0], :, :], symbols[..., cols[:, 1], :, :]
            p, q = (plus + minus) / 2.0, (plus - minus) / 2.0
            part[..., :3, :3] = p
            part[..., 3:, 3:] = p
            part[..., :3, 3:] = -1j * q
            part[..., 3:, :3] = 1j * q
        return out

    @cached_property
    def one_block(self) -> "SectorLayout":
        """The dense reference layout: one d x d block in the site basis."""
        return SectorLayout(self, np.array([self.dim]), None)

    @cached_property
    def momentum_block(self) -> "SectorLayout":
        """One d x d block in the basis kron(F, I_3) of `momentum_basis`, in its column order.

        The dense reference of the oracle's forms, whose ladder slots run
        over that basis: its one slot group is every slot, in order.
        """
        return SectorLayout(self, np.array([self.dim]), np.arange(self.dim))

    def layout(self, leak: float) -> "SectorLayout":
        """`sector_layout` when `leak` is within `SECTOR_LEAK_TOL`, else `one_block`."""
        return self.sector_layout if leak <= SECTOR_LEAK_TOL else self.one_block

    def sector_leak(self, *operators: np.ndarray) -> float:
        """Largest off-sector part of (..., d, d) site operators, each relative to its whole stack."""
        return max((self.sector_layout.split(op)[0] for op in operators), default=0.0)

    def compatible(self, other: "Lattice") -> bool:
        return (
            self.n_per_axis == other.n_per_axis
            and self.spacing == other.spacing
            and self.k0_transverse == other.k0_transverse
        )


def build_lattice(n_per_axis: int, spacing: float, k0_transverse: bool = True) -> Lattice:
    """Construct a periodic lattice; rejects non-positive sizes."""
    return Lattice(n_per_axis=n_per_axis, spacing=spacing, k0_transverse=k0_transverse)


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
        if not self.lattice.compatible(other.lattice):
            raise DampolError("kernels live on incompatible lattices")

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, lattice: Lattice) -> "TensorKernel":
        return cls(lattice, np.eye(lattice.dim) / lattice.cell_volume)

    @classmethod
    def zero(cls, lattice: Lattice) -> "TensorKernel":
        return cls(lattice, np.zeros((lattice.dim, lattice.dim)))


class SectorLayout:
    """Block-diagonal (..., d, d) site operators stored as flat (..., size) arrays.

    `basis` is a real orthogonal (d, d) matrix whose columns run over the
    blocks in order, `None` for the site basis itself (built only when a
    site operator is rotated, by `split` or `sites`); the blocks are the
    diagonal blocks of basis^T A basis, of the sizes in `sizes`, stored
    row-major one after the other.  A basis is a column selection
    `columns` of kron(F, I_3), F the lattice's `momentum_basis`.  Blocks of
    one size are adjacent, so a flat array is viewed as one
    (..., count, b, b) array per block size (`parts`) and every product is
    one batched `matmul` per size, over every leading axis at once; against
    an operand that is the same at every node, the node axis is folded into
    the GEMM rows through strides (`matmul`).  The Frobenius norm of an
    operator is that of its flat row, and a sum over a node axis is one GEMM
    on the flat rows.

    A translation-invariant operator maps every {q, -q} sector of
    `Lattice.momentum_basis` into itself, so `Lattice.sector_layout` keeps it
    whole in blocks of 3 or 6; `Lattice.one_block` keeps any operator as
    one d x d block with no rotation, which is the dense reference.
    """

    def __init__(self, lattice: Lattice, sizes: np.ndarray, columns: np.ndarray | None):
        self.lattice, self.sizes, self.columns = lattice, sizes, columns
        self.part_sizes, self.size = [], 0   # (block size, count, flat offset) of each run
        for b in sizes.tolist():
            if self.part_sizes and self.part_sizes[-1][0] == b:
                self.part_sizes[-1][1] += 1
            else:
                self.part_sizes.append([b, 1, self.size])
            self.size += b * b
        self._ops = {}

    @cached_property
    def basis(self) -> np.ndarray | None:
        """The (d, d) basis matrix, `None` for the site basis; built when a site operator is first rotated."""
        if self.columns is None:
            return None
        return np.ascontiguousarray(np.kron(self.lattice.momentum_basis, np.eye(3))[:, self.columns])

    @cached_property
    def _entries(self) -> tuple:
        """The rows and columns of basis^T A basis that the blocks keep, in flat order."""
        first = np.cumsum(self.sizes) - self.sizes
        return (np.concatenate([f + np.repeat(np.arange(b), b) for f, b in zip(first, self.sizes)]),
                np.concatenate([f + np.tile(np.arange(b), b) for f, b in zip(first, self.sizes)]))

    def parts(self, flat: np.ndarray) -> list:
        """Views of a (..., size) array as one (..., count, b, b) array per block size."""
        lead = flat.shape[:-1]
        return [flat[..., o:o + c * b * b].reshape(lead + (c, b, b)) for b, c, o in self.part_sizes]

    def per_block(self, flat: np.ndarray) -> list:
        """Views of a (..., size) array as one (..., b, b) array per block, in order."""
        return [part[..., i, :, :] for part in self.parts(flat) for i in range(part.shape[-3])]

    @cached_property
    def transverse(self) -> list:
        """Per block, the `transverse_basis` columns in its span, ascending, and their (b, n) coordinates.

        The coordinates are in the block's basis columns; the layout must
        have one (`columns` set).
        """
        _, column, vectors = self.lattice._transverse_columns
        pos = np.argsort(self.columns)[3 * column]   # a column's 3 components are adjacent, in order
        first = np.cumsum(self.sizes) - self.sizes
        block = np.repeat(np.arange(self.sizes.size), self.sizes)[pos]
        out = []
        for g, (f, b) in enumerate(zip(first, self.sizes)):
            mine = np.flatnonzero(block == g)
            coords = np.zeros((b, mine.size))
            coords[pos[mine] - f + np.arange(3)[:, None], np.arange(mine.size)] = vectors[mine].T
            out.append((mine, coords))
        return out

    def slot_groups(self, n_transverse: int, n_site: int) -> tuple:
        """Per block, ascending, its slots among `n_transverse` transverse-basis copies, then `n_site`
        momentum-basis ones (momentum column, then component), each copy of one basis in order."""
        mt, d = self.lattice.transverse_basis.shape[1], self.lattice.dim
        first = np.cumsum(self.sizes) - self.sizes
        return tuple(np.r_[(mine + mt * np.arange(n_transverse)[:, None]).ravel(),
                           (self.columns[f:f + b] + n_transverse * mt
                            + d * np.arange(n_site)[:, None]).ravel()]
                     for (mine, _), f, b in zip(self.transverse, first, self.sizes))

    # -- conversion ------------------------------------------------------

    def _chunks(self, n: int):
        """Slices of a leading axis of n operators, each at most an eighth of it and of bounded bytes."""
        step = max(1, min(_ROTATION_CHUNK_BYTES // (16 * self.lattice.dim**2), -(-n // 8)))
        return (slice(i, i + step) for i in range(0, n, step))

    def split(self, stack: np.ndarray) -> tuple:
        """(leak, blocks) of a (..., d, d) stack of site operators.

        The leak is the norm of the part outside the blocks relative to the
        whole stack's; the site basis has none.  The rotation runs a chunk
        of operators at a time, so its temporaries stay below a fraction of
        the stack.
        """
        stack = np.asarray(stack)
        lead, d = stack.shape[:-2], self.lattice.dim
        if self.basis is None:
            return 0.0, stack.reshape(lead + (self.size,))
        mats, (rows, cols) = stack.reshape(-1, d, d), self._entries
        out = np.empty((len(mats), self.size), dtype=stack.dtype)
        off = whole = 0.0
        for chunk in self._chunks(len(mats)):
            rot = self.basis.T @ mats[chunk] @ self.basis
            out[chunk] = rot[:, rows, cols]
            whole += float(sq_norms(rot.ravel()))
            rot[:, rows, cols] = 0.0
            off += float(sq_norms(rot.ravel()))
        return np.sqrt(off) / max(np.sqrt(whole), 1e-300), out.reshape(lead + (self.size,))

    def blocks(self, stack: np.ndarray) -> np.ndarray:
        """The blocks of a (..., d, d) stack of site operators, (..., size); a view in the site basis."""
        return self.split(stack)[1]

    def sites(self, flat: np.ndarray) -> np.ndarray:
        """The (..., d, d) site operators of a (..., size) array; a view in the site basis."""
        lead, d = flat.shape[:-1], self.lattice.dim
        if self.basis is None:
            return flat.reshape(lead + (d, d))
        ops, (rows, cols) = flat.reshape(-1, self.size), self._entries
        out = np.empty((len(ops), d, d), dtype=flat.dtype)
        for chunk in self._chunks(len(ops)):
            dense = np.zeros((len(ops[chunk]), d, d), dtype=flat.dtype)
            dense[:, rows, cols] = ops[chunk]
            np.matmul(self.basis @ dense, self.basis.T, out=out[chunk])
        return out.reshape(lead + (d, d))

    def apply(self, flat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """The site operators of a (..., size) array applied to (..., d) site vectors, leading axes broadcast.

        The vectors are rotated into the basis and back, A v = B A_blocks
        (B^T v).  The basis B = kron(F, I_3)[:, columns] is applied as the
        (M, M) momentum basis F and the column selection, so no site
        operator and no d x d matrix is formed.
        """
        kron = self.columns is not None
        rot = _momentum_rotate(vecs, self.lattice.momentum_basis.T) if kron else vecs
        out = np.empty(np.broadcast_shapes(flat.shape[:-1], vecs.shape[:-1]) + (self.lattice.dim,),
                       dtype=np.result_type(flat, vecs))
        first = np.cumsum(self.sizes) - self.sizes
        for blk, f, b in zip(self.per_block(flat), first, self.sizes):
            rows = self.columns[f:f + b] if kron else slice(f, f + b)   # in kron(F, I_3) column order
            out[..., rows] = (blk @ rot[..., rows, None])[..., 0]
        return _momentum_rotate(out, self.lattice.momentum_basis) if kron else out

    def convert(self, flat: np.ndarray, layout: "SectorLayout") -> np.ndarray:
        """A (..., size) stack of this layout as blocks of `layout`: `flat` itself when it is this one,
        else rotated through sites."""
        return flat if layout is self else layout.blocks(self.sites(flat))

    def op(self, name: str) -> np.ndarray:
        """The blocks of the lattice operator `Lattice.<name>`, (size,), built once.

        In `Lattice.sector_layout` they come from the operator's per-k
        symbols (`Lattice.sector_blocks`), real for a real operator; in a
        one-block layout, from the dense matrix.
        """
        if name not in self._ops:
            lat = self.lattice
            if self is lat.sector_layout:
                symbols = lat._symbols[name]
                blocks = lat.sector_blocks(symbols)
                self._ops[name] = np.ascontiguousarray(blocks.real) if np.isrealobj(symbols) else blocks
            else:
                self._ops[name] = self.blocks(getattr(lat, name))
        return self._ops[name]

    @cached_property
    def identity(self) -> np.ndarray:
        """The identity, (size,)."""
        return np.concatenate([np.tile(np.eye(b).ravel(), c) for b, c, _ in self.part_sizes])

    # -- block algebra ----------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b for every operator pair, leading axes broadcast: one batched `matmul` per block size.

        A leading axis i along which one operand is constant and the other
        varies (a node axis against a node-independent operator) is folded
        into the GEMM through strides, the longest such axis: with b
        constant, row r of every block of a at all n_i values of i is one
        (n_i, b) matrix of row stride `size`, so a block size of `count`
        blocks makes count * b GEMMs (n_i x b) @ (b x b) in place of n_i *
        count GEMMs b x b; with a constant, the transposed blocks are folded
        likewise, b^T a^T.  Nothing is copied.  A block size folds only when
        n_i > b, where folding makes fewer GEMMs; otherwise, and when both
        operands vary along every axis, each operator pair is one GEMM.
        """
        lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        n = len(lead)
        out = np.empty(lead + (self.size,), dtype=np.result_type(a, b))
        a, b = a[(None,) * (n + 1 - a.ndim)], b[(None,) * (n + 1 - b.ndim)]
        length, b_const, axis = max(((lead[j], b.shape[j] == 1, j) for j in range(n)
                                     if (a.shape[j] == 1) != (b.shape[j] == 1)), default=(0, True, 0))
        rest = [j for j in range(n) if j != axis]
        # a part's axes are lead 0..n-1, block n, row n + 1, column n + 2:
        # (rest, block, row, i, column) @ (rest, block, 1, column, column), or
        # with a constant (rest, block, column, i, row) @ (rest, block, 1, row, row) of the transposes
        rows, cols = (n + 1, n + 2) if b_const else (n + 2, n + 1)
        perm, const_perm = [*rest, n, rows, axis, cols], [*rest, n, axis, rows, cols]
        for (blk, _, _), pa, pb, po in zip(self.part_sizes, self.parts(a), self.parts(b), self.parts(out)):
            if length <= blk:
                np.matmul(pa, pb, out=po)
            else:
                vary, const = (pa, pb) if b_const else (pb, pa)
                np.matmul(vary.transpose(perm), const.transpose(const_perm), out=po.transpose(perm))
        return out

    def transpose(self, a: np.ndarray) -> np.ndarray:
        """The transpose of every operator; the basis is real, so it is each block's."""
        out = np.empty(a.shape, dtype=a.dtype)   # C order, so `parts` views it
        for pa, po in zip(self.parts(a), self.parts(out)):
            po[...] = pa.swapaxes(-1, -2)
        return out

    def inv(self, a: np.ndarray) -> np.ndarray:
        """The inverse of every operator: raises `LinAlgError` if any block is exactly singular."""
        out = np.empty(a.shape, dtype=np.result_type(a, float))
        for pa, po in zip(self.parts(a), self.parts(out)):
            po[...] = np.linalg.inv(pa)
        return out

    def svdvals(self, a: np.ndarray) -> np.ndarray:
        """The singular values of every operator, the union of its blocks', (..., d) unsorted."""
        lead = a.shape[:-1]
        return np.concatenate([np.linalg.svd(p, compute_uv=False).reshape(lead + (p.shape[-3] * p.shape[-1],))
                               for p in self.parts(a)], axis=-1)

    def eigvalsh(self, a: np.ndarray) -> np.ndarray:
        """The eigenvalues of every Hermitian operator, the union of its blocks', (..., d) unsorted."""
        lead = a.shape[:-1]
        return np.concatenate([np.linalg.eigvalsh(p).reshape(lead + (p.shape[-3] * p.shape[-1],))
                               for p in self.parts(a)], axis=-1)

    def pair_contract(self, w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """sum_m w[m] a[..., m] @ b[..., m]^T over the node axis -2 of (..., n, size) arrays.

        One GEMM per block size: the node and column indices are contracted jointly.
        """
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        out = np.empty(lead + (self.size,), dtype=np.result_type(a, b))
        for pa, pb, po in zip(self.parts(a), self.parts(b), self.parts(out)):
            n, (c, k) = pa.shape[-4], pa.shape[-3:-1]
            lhs = np.moveaxis(w[:, None, None, None] * pa, -4, -2).reshape(pa.shape[:-4] + (c, k, n * k))
            rhs = np.moveaxis(pb, -4, -3).swapaxes(-1, -2).reshape(pb.shape[:-4] + (c, n * k, k))
            np.matmul(lhs, rhs, out=po)
        return out


def _momentum_rotate(vecs: np.ndarray, f: np.ndarray) -> np.ndarray:
    """f @ V for the (M, 3) view V of every (..., 3M) vector, f a real (M, M) matrix, as (..., 3M).

    A complex V is multiplied part by part, into the result's own parts,
    so f is never cast to a complex copy.
    """
    lead, m = vecs.shape[:-1], f.shape[0]
    grid = vecs.reshape(lead + (m, 3))
    out = np.empty(grid.shape, dtype=np.result_type(vecs, f))
    for part, res in ((grid.real, out.real), (grid.imag, out.imag)) if np.iscomplexobj(vecs) else ((grid, out),):
        np.matmul(f, part, out=res)
    return out.reshape(vecs.shape)


def sq_norms(flat: np.ndarray) -> np.ndarray:
    """The squared norm of each row of a (..., n) array, with no temporary of its size.

    On a flat stack of block-diagonal operators this is the squared
    Frobenius norm of each operator.
    """
    flat = np.ascontiguousarray(flat)
    if np.iscomplexobj(flat):
        flat = flat.view(float)
    return np.einsum("...i,...i->...", flat, flat)


def unit_scale(big) -> np.ndarray:
    """2^-e for big = m 2^e with 0.5 <= m < 1, and 1 for 0: an exact scale bringing big into [0.5, 1).

    Scaling by an exact power of two before squaring keeps the squares of
    tiny or huge entries from underflowing or overflowing, and changes no
    ratio of two norms of the scaled arrays, bit for bit.
    """
    return np.ldexp(1.0, -np.frexp(big)[1])


def rel_norms(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """||num|| / ||den|| for each row of two (..., n) arrays, a zero scale counting as 1e-300.

    Each pair of rows is scaled by one power of two (`unit_scale` of their
    largest modulus) before its squared norms are summed.
    """
    unit = unit_scale(np.maximum(np.abs(num).max(axis=-1), np.abs(den).max(axis=-1)))[..., None]
    return np.sqrt(sq_norms(num * unit)) / np.maximum(np.sqrt(sq_norms(den * unit)), 1e-300)


def transverse_projector(lattice: Lattice) -> TensorKernel:
    """Transverse delta kernel; idempotent under kernel composition."""
    return TensorKernel(lattice, lattice.transverse_matrix / lattice.cell_volume)


def longitudinal_projector(lattice: Lattice) -> TensorKernel:
    """Longitudinal delta kernel, identity minus the transverse one."""
    return TensorKernel(lattice, lattice.longitudinal_matrix / lattice.cell_volume)


def curl_operator(lattice: Lattice) -> TensorKernel:
    return TensorKernel(lattice, lattice.curl_matrix / lattice.cell_volume)


def double_curl_operator(lattice: Lattice) -> TensorKernel:
    return TensorKernel(lattice, lattice.double_curl_matrix / lattice.cell_volume)


def double_curl(kernel: TensorKernel, lattice: Lattice | None = None) -> TensorKernel:
    """Repeated left-acting curl on the primed (second) kernel argument.

    Annihilates kernels that are longitudinal in their second argument; on a
    transverse plane-wave kernel at mode k it multiplies by -k^2.
    """
    lat = lattice or kernel.lattice
    return TensorKernel(lat, -kernel.mat @ lat.double_curl_matrix)


def double_curl_left(kernel: TensorKernel, lattice: Lattice | None = None) -> TensorKernel:
    """Same operation applied to the unprimed (first) kernel argument."""
    lat = lattice or kernel.lattice
    return TensorKernel(lat, -lat.double_curl_matrix @ kernel.mat)


@dataclass(frozen=True)
class FrequencyGrid:
    """Quadrature nodes and weights on (0, omega_max) plus the cut offset eta.

    ``eta`` is the finite stand-in for the infinitesimal imaginary offset in
    resolvent denominators; every quantity computed with it records it.
    """

    nodes: np.ndarray
    weights: np.ndarray
    eta: float
    omega_max: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise DampolError("nodes and weights must be matching non-empty 1-d arrays")
        if not np.all(np.diff(nodes) > 0):
            raise DampolError("nodes must be strictly increasing")
        if nodes[0] <= 0 or nodes[-1] >= self.omega_max:
            raise DampolError("nodes must lie strictly inside (0, omega_max)")
        if not np.all(weights > 0):
            raise DampolError("weights must be positive")
        if not np.isclose(weights.sum(), self.omega_max, rtol=1e-6):
            raise DampolError("weights must sum to omega_max")
        if self.eta < 0:
            raise DampolError("eta must be non-negative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def midpoint(cls, n_nodes: int, omega_max: float, eta_factor: float = 2.0) -> "FrequencyGrid":
        """Uniform midpoint rule with eta tied to the node spacing."""
        if n_nodes < 1:
            raise DampolError("n_nodes must be at least 1")
        if omega_max <= 0:
            raise DampolError("omega_max must be positive")
        step = omega_max / n_nodes
        nodes = (np.arange(n_nodes) + 0.5) * step
        weights = np.full(n_nodes, step)
        return cls(nodes=nodes, weights=weights, eta=eta_factor * step, omega_max=omega_max)

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def spacing(self) -> float:
        return float(np.min(np.diff(self.nodes))) if self.n_nodes > 1 else self.omega_max
