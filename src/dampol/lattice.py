"""Periodic cubic lattice, spectral vector-field operators, and the block layout of kernels.

Discretization conventions used by the whole package:

* spatial integrals become cell sums, ``integral dr -> v * sum_r`` with
  ``v`` the cell volume, so the spatial delta is the identity divided by
  ``v``;
* frequency integrals become quadrature sums over a `FrequencyGrid`,
  with the frequency delta equal to ``1/w_k`` at node ``k``;
* a two-point tensor kernel ``K_ij(r, r')``, a ``3M x 3M`` operator on the
  ``(site, component)`` index, is stored as its blocks in the plane-wave
  basis kron(U, I_3), U the unitary plane waves of `Lattice.kvecs`
  (`SectorLayout`): one 3x3 block per wave vector, or one dense block for a
  run whose inputs leak.  Kernel composition carries the volume factor,
  ``A o B = v * A @ B``.  The oracle's variables are real, so it reads the
  blocks in the real basis F = U C, C mixing each {q, -q} pair into
  sqrt(2) cos(q.r) and sqrt(2) sin(q.r) (`SectorLayout.real_blocks`).

Differential operators (curl, double curl, Laplacian) are realized
spectrally with the exact discrete wave vectors, so transversality
identities close to machine precision rather than to O(spacing^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DampolError

#: largest part of a run's inputs off the per-q blocks of the plane-wave basis,
#: relative to each input, for which the run is laid out per wave vector:
#: its kernel stacks (`SectorLayout`) and the oracle's quadratic forms
SECTOR_LEAK_TOL = 1e-13

#: largest temporary a chunked loop holds at once, in bytes: the coefficient
#: rows of a node sum
CHUNK_BYTES = 1 << 20

#: largest block size that `SectorLayout.matmul` folds against a node-independent left
#: factor.  Measured with one BLAS thread, complex (count, b, b) @ (K, count, b, b) at
#: K = 32 to 256: folded in 0.67-0.75 of the per-operator GEMMs' time at b = 6, level
#: at b = 9, 1.3-2.0 times as long at b = 12, 16 and 24
FOLD_A_MAX_BLOCK = 6

#: fewest 3 x 3 products of a complex part that `SectorLayout.matmul` forms entry by
#: entry (`_entrywise_3x3`) instead of by one GEMM each.  Measured with one BLAS thread,
#: (K, size) @ (K, size) at n = 2 (eight 3 x 3 blocks): 78 against 116 us at 128
#: products, level at 256, 232 against 143 us at 512 and 309 against 139 us at 1024.
#: Real products stay GEMMs, faster there (139 against 268 us at 2048)
ENTRYWISE_MIN_PRODUCTS = 256

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
    def kvecs(self) -> np.ndarray:
        """(M, 3) array of reciprocal vectors in the DFT convention."""
        n = self.n_per_axis
        per_axis = 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)
        grids = np.meshgrid(per_axis, per_axis, per_axis, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

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
        """Per-k 3x3 symbols of the spectral operators, (M, 3, 3) each, by operator name.

        The operator acts on the plane wave of ``kvecs[j]`` as the 3x3
        matrix ``symbols[j]``.  Every operator but the curl has real-valued
        symbols and is real, which is checked here (`require_real`).
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
                self.require_real(f"the {name} symbol", sym)
        return symbols

    def reflected(self, symbols: np.ndarray) -> np.ndarray:
        """conj(B(-q)) at every q of per-k symbols B, (M, ...) in `kvecs` order: the symbols of conj(B)."""
        return np.conj(symbols[self._conjugate])

    def require_real(self, what: str, symbols: np.ndarray) -> None:
        """Raise `DampolError` unless the operator of per-k symbols is real, B(-q) = conj(B(q)) bit for bit,
        as the oracle's real frame needs (`SectorLayout.real_blocks`)."""
        if not np.array_equal(self.reflected(symbols), symbols):
            raise DampolError(f"n_per_axis = {self.n_per_axis}: {what} is not even in k, B(-q) != conj(B(q)), "
                              "so the operator is not real")

    @cached_property
    def _conjugate(self) -> np.ndarray:
        """(M,) index of -kvecs[j], modulo the reciprocal lattice."""
        n = self.n_per_axis
        idx = np.indices((n, n, n)).reshape(3, -1)
        return np.ravel_multi_index((-idx) % n, (n, n, n))

    @cached_property
    def momentum_pairs(self) -> tuple:
        """The cos and the sin column of each {q, -q} pair of the real momentum basis F, two (P,) index arrays:
        column j of F, real orthogonal (M, M), is the plane wave of kvecs[j] if it is self-conjugate, else
        sqrt(2) cos(q.r) at a pair's lower index and sqrt(2) sin(q.r) at its higher."""
        cos = np.flatnonzero(np.arange(self.n_sites) < self._conjugate)
        return cos, self._conjugate[cos]

    def to_momentum(self, buf: np.ndarray) -> np.ndarray:
        """U^H v in place for every (..., 3M) site vector v of a complex array of any layout, which it returns,
        U[r, j] = exp(i kvecs[j] . r) / sqrt(M) the plane waves: one unitary `np.fft.fftn` over the site axes."""
        return self._transform(buf, np.fft.fftn)

    def from_momentum(self, buf: np.ndarray) -> np.ndarray:
        """U u in place, as `to_momentum` does U^H: one unitary `np.fft.ifftn`."""
        return self._transform(buf, np.fft.ifftn)

    def _transform(self, buf: np.ndarray, fft) -> np.ndarray:
        cube = buf.reshape(buf.shape[:-1] + (self.n_per_axis,) * 3 + (3,))
        fft(cube, axes=(-4, -3, -2), norm="ortho", out=cube)
        return buf

    @cached_property
    def _transverse_columns(self) -> tuple:
        """The transverse basis, as the real momentum column j and the vector e of each of its columns.

        Its columns are kron(F[:, j], e), F the real momentum basis, for
        each unit eigenvector e of the transverse 3x3 block at kvecs[j].
        """
        evals, evecs = np.linalg.eigh(self._transverse_blocks)
        keep = (evals > 0.5).ravel()
        column = np.repeat(np.arange(self.n_sites), 3)
        vectors = evecs.transpose(0, 2, 1).reshape(-1, 3)
        return column[keep], vectors[keep]

    @property
    def n_transverse(self) -> int:
        """The dimension M_T of the transverse subspace: the columns of the transverse basis."""
        return self._transverse_columns[0].size

    @cached_property
    def sector_layout(self) -> "SectorLayout":
        """Per-q storage: one 3x3 block per wave vector, in `kvecs` order."""
        return SectorLayout(self, 3)

    def sector_blocks(self, symbols: np.ndarray) -> np.ndarray:
        """The `sector_layout` blocks, (..., size), of operators with (..., M, 3, 3) per-k symbols, as in
        `_symbols`: block j is symbols[j], so no site operator is formed."""
        return np.ascontiguousarray(symbols).reshape(symbols.shape[:-3] + (self.sector_layout.size,))

    @cached_property
    def one_block(self) -> "SectorLayout":
        """The dense layout: one d x d block in the basis kron(U, I_3), the basis of `sector_layout`.

        It holds any operator, so it is the layout of a run whose inputs
        leak across wave vectors, as the `chi_symmetry` violation does,
        and the dense reference of the per-q route; an oracle form in it
        has one slot group, every slot in order.
        """
        return SectorLayout(self, self.dim)

    def layout(self, leak: float) -> "SectorLayout":
        """The layout of a run whose inputs leak by `leak` in all: `sector_layout` within
        `SECTOR_LEAK_TOL`, else `one_block`."""
        return self.sector_layout if leak <= SECTOR_LEAK_TOL else self.one_block

    def leak(self, dense: np.ndarray) -> float:
        """The norm of the part of (..., d*d) `one_block` blocks outside the `sector_layout` blocks,
        relative to the whole stack's, read as complex: real blocks give their complex copy's, to the bit."""
        dense = np.asarray(dense, dtype=complex)
        outside = sq_norms(np.delete(dense, self.sector_layout.places, axis=-1).ravel())
        return float(np.sqrt(outside) / max(np.sqrt(sq_norms(dense.ravel())), 1e-300))


def build_lattice(n_per_axis: int, spacing: float, k0_transverse: bool = True) -> Lattice:
    """Construct a periodic lattice; rejects non-positive sizes."""
    return Lattice(n_per_axis=n_per_axis, spacing=spacing, k0_transverse=k0_transverse)


class SectorLayout:
    """Block-diagonal (..., d, d) site operators stored as flat (..., size) arrays of `count` b x b blocks.

    The basis is kron(U, I_3), U the unitary plane waves of the lattice's
    `kvecs`; no code of the package forms it, or any site operator.  The
    blocks are the diagonal blocks of basis^H A basis, of size b = `block`,
    stored row-major one after the other, so a flat array is one
    (..., count, b, b) array (`block_view`) and every product is one batched
    product over every leading axis at once (`matmul`).  The basis is
    unitary, so the Frobenius norm of an operator is that of its flat row.

    A translation-invariant operator maps each plane wave into itself, so
    `Lattice.sector_layout` keeps it whole in one 3 x 3 block B(q) per wave
    vector; `Lattice.one_block` keeps any operator as one d x d block, the
    dense reference.  Both layouts share the basis, so an operator of one is
    laid into the other entry by entry (`relay`).  The basis is not real:
    the transpose has the block B(-q)^T at q and the elementwise conjugate
    conj(B(-q)), both gathers of the flat entries (`transpose`, `conj`).
    """

    def __init__(self, lattice: Lattice, block: int):
        self.lattice, self.block = lattice, block
        self.count = lattice.dim // block
        self.size = self.count * block * block
        self._ops = {}

    @cached_property
    def places(self) -> np.ndarray:
        """The index of each entry of the blocks, in flat order, in a flat (d, d) matrix in the basis
        kron(U, I_3): the flat order of `Lattice.one_block`."""
        first, b = self.block * np.arange(self.count)[:, None, None], np.arange(self.block)
        return ((first + b[:, None]) * self.lattice.dim + first + b).ravel()

    @cached_property
    def _mirrors(self) -> tuple:
        """The flat gather indices of the transpose and of the conjugate, (size,) each: conj(U[:, j]) is the
        plane wave of -kvecs[j], so the entry (r, c) of A^T is A's at (c, r) mirrored, basis column (j, a)
        to (-j, a), and conj(A)'s is the conjugate of A's at (r, c) mirrored."""
        b, (rows, cols) = self.block, divmod(self.places, self.lattice.dim)
        mirror = (3 * self.lattice._conjugate[:, None] + np.arange(3)).ravel()
        return mirror[cols] * b + mirror[rows] % b, mirror[rows] * b + mirror[cols] % b   # entry (r, c) at r b + c % b

    def block_view(self, flat: np.ndarray) -> np.ndarray:
        """A (..., size) array as one (..., count, b, b) view."""
        return flat.reshape(flat.shape[:-1] + (self.count, self.block, self.block))

    def wave_vector(self, i: int) -> str:
        """The text ' at q = (qx, qy, qz)', the wave vector of the block holding entry i of an `svdvals` or
        `eigvalsh` row of `Lattice.sector_layout`; empty in another layout."""
        if self is not self.lattice.sector_layout:
            return ""
        return " at q = ({:.6g}, {:.6g}, {:.6g})".format(*self.lattice.kvecs[i // self.block])

    # -- the oracle's real frame ---------------------------------------------

    @cached_property
    def _real_groups(self) -> tuple:
        """The slot groups of the real frame, the size and the kron(F, I_3) columns of each, F the real
        momentum basis: in `Lattice.sector_layout` each self-conjugate q, then each {q, -q} pair, cos column
        first, each kind in `kvecs` order; in another layout every column in order."""
        lat = self.lattice
        if self.block != 3:
            return np.array([lat.dim]), np.arange(lat.dim)
        (cos, sin), single = lat.momentum_pairs, np.flatnonzero(lat._conjugate == np.arange(lat.n_sites))
        order = np.r_[single, np.stack([cos, sin], axis=1).ravel()]
        return np.repeat([3, 6], [single.size, cos.size]), (3 * order[:, None] + np.arange(3)).ravel()

    def real_blocks(self, flat: np.ndarray):
        """The operators of a (..., size) array in the real frame, basis^T A basis over each slot group's
        columns of kron(F, I_3), F = U C: one (..., b, b) block per group, each formed as it is read.  In
        `Lattice.sector_layout` a self-conjugate q keeps B(q), and a pair {q, -q}, cos column first, gives
        [[P, -iQ], [iQ, P]] with P = (B(q) + B(-q)) / 2 and Q = (B(q) - B(-q)) / 2, real for a real operator,
        B(-q) = conj(B(q)); the dense block is mixed by C^H on the left and C on the right, pair by pair."""
        view, (cos, sin) = self.block_view(flat), self.lattice.momentum_pairs
        if self.block != 3:
            out = view[..., 0, :, :].astype(complex)
            lo, hi = ((3 * c[:, None] + np.arange(3)).ravel() for c in (cos, sin))
            for axis, sign in ((-1, -1.0), (-2, 1.0)):   # X C, then C^H X
                x = np.moveaxis(out, axis, -1)
                c, s = x[..., lo], x[..., hi]
                x[..., lo], x[..., hi] = (c + s) * np.sqrt(0.5), (c - s) * (sign * 1j * np.sqrt(0.5))
            yield out
            return
        sizes, columns = self._real_groups
        for j in columns[:3 * np.sum(sizes == 3):3] // 3:
            yield view[..., j, :, :]
        for c, s in zip(cos, sin):
            p, q = (view[..., c, :, :] + view[..., s, :, :]) / 2.0, (view[..., c, :, :] - view[..., s, :, :]) / 2.0
            yield np.block([[p, -1j * q], [1j * q, p]])

    @cached_property
    def transverse(self) -> list:
        """Per slot group, the transverse-basis columns in its span, ascending, and their (b, n) coordinates.

        The coordinates are in the group's columns of kron(F, I_3).
        """
        sizes, columns = self._real_groups
        column, vectors = self.lattice._transverse_columns
        pos = np.argsort(columns)[3 * column]   # a column's 3 components are adjacent, in order
        first = np.cumsum(sizes) - sizes
        block = np.repeat(np.arange(sizes.size), sizes)[pos]
        out = []
        for g, (f, b) in enumerate(zip(first, sizes)):
            mine = np.flatnonzero(block == g)
            coords = np.zeros((b, mine.size))
            coords[pos[mine] - f + np.arange(3)[:, None], np.arange(mine.size)] = vectors[mine].T
            out.append((mine, coords))
        return out

    def slot_groups(self, n_transverse: int, n_site: int) -> tuple:
        """Per slot group, ascending, its slots among `n_transverse` transverse-basis copies, then `n_site`
        real momentum-basis ones (momentum column, then component), each copy of one basis in order."""
        sizes, columns = self._real_groups
        mt, d = self.lattice.n_transverse, self.lattice.dim
        first = np.cumsum(sizes) - sizes
        return tuple(np.r_[(mine + mt * np.arange(n_transverse)[:, None]).ravel(),
                           (columns[f:f + b] + n_transverse * mt
                            + d * np.arange(n_site)[:, None]).ravel()]
                     for (mine, _), f, b in zip(self.transverse, first, sizes))

    # -- vectors, re-lays and lattice operators ---------------------------------

    def apply(self, flat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """The site operators of a (..., size) array applied to (..., d) site vectors, leading axes broadcast, complex.

        The vectors are rotated into the basis and back, A v = W A_blocks
        (W^H v), W = kron(U, I_3) applied as the FFTs of U
        (`Lattice.to_momentum`, `from_momentum`), so no site operator and no
        matrix is formed.
        """
        rot = self.lattice.to_momentum(np.array(vecs, dtype=complex))
        out = np.empty(np.broadcast_shapes(flat.shape[:-1], vecs.shape[:-1]) + (self.lattice.dim,), dtype=complex)
        cols = (self.count, self.block, 1)
        np.matmul(self.block_view(flat), rot.reshape(rot.shape[:-1] + cols), out=out.reshape(out.shape[:-1] + cols))
        return self.lattice.from_momentum(out)

    def relay(self, flat: np.ndarray, layout: "SectorLayout") -> np.ndarray:
        """A (..., size) array of this layout as blocks of `layout`, entry by entry; `flat` itself in this one.

        Both layouts share the basis kron(U, I_3), so no entry is rotated:
        each keeps its value at its pair of basis columns.  An entry outside
        the blocks of `layout` is dropped, so a layout whose blocks hold this
        one's, as `Lattice.one_block` holds every layout's, takes the
        operators exactly.
        """
        if layout is self:
            return flat
        frame = np.zeros(flat.shape[:-1] + (self.lattice.dim**2,), dtype=flat.dtype)
        frame[..., self.places] = flat
        return frame[..., layout.places]

    def op(self, name: str) -> np.ndarray:
        """The blocks of the lattice operator whose per-k symbols are `Lattice._symbols[name]`, (size,), built once.

        In `Lattice.sector_layout` they are the operator's per-k symbols
        (`Lattice.sector_blocks`), real for a real-valued symbol; in another
        layout, those blocks laid into it (`relay`).
        """
        if name not in self._ops:
            lat, sector = self.lattice, self.lattice.sector_layout
            if self is sector:
                self._ops[name] = lat.sector_blocks(lat._symbols[name])
            else:
                self._ops[name] = sector.relay(sector.op(name), self)
        return self._ops[name]

    @cached_property
    def identity(self) -> np.ndarray:
        """The identity, (size,)."""
        return np.tile(np.eye(self.block).ravel(), self.count)

    # -- block algebra ----------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b for every operator pair, leading axes broadcast: one batched product.

        A leading axis i along which one operand is constant and the other
        varies (a node axis against a node-independent operator) is folded
        into the GEMM through strides, the longest such axis: with b
        constant, row r of every block of a at all n_i values of i is one
        (n_i, b) matrix of row stride `size`, so count * b GEMMs (n_i x b)
        @ (b x b) replace n_i * count GEMMs b x b; with a constant, the
        transposed blocks fold likewise, b^T a^T.  Nothing is copied.  The
        blocks fold only when n_i > b, and with a constant only up to
        `FOLD_A_MAX_BLOCK`, past which numpy's strided loop is slower than a
        GEMM per operator.  Otherwise a complex product of at least
        `ENTRYWISE_MIN_PRODUCTS` 3 x 3 blocks is formed entry by entry
        (`_entrywise_3x3`), and any other is one `np.matmul`.
        """
        lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        n, blk = len(lead), self.block
        out = np.empty(lead + (self.size,), dtype=np.result_type(a, b))
        a, b = a[(None,) * (n + 1 - a.ndim)], b[(None,) * (n + 1 - b.ndim)]
        length, b_const, axis = max(((lead[j], b.shape[j] == 1, j) for j in range(n)
                                     if (a.shape[j] == 1) != (b.shape[j] == 1)), default=(0, True, 0))
        rest = [j for j in range(n) if j != axis]
        # the view's axes are lead 0..n-1, block n, row n + 1, column n + 2:
        # (rest, block, row, i, column) @ (rest, block, 1, column, column), or
        # with a constant (rest, block, column, i, row) @ (rest, block, 1, row, row) of the transposes
        rows, cols = (n + 1, n + 2) if b_const else (n + 2, n + 1)
        perm, const_perm = [*rest, n, rows, axis, cols], [*rest, n, axis, rows, cols]
        pa, pb, po = self.block_view(a), self.block_view(b), self.block_view(out)
        if length > blk and (b_const or blk <= FOLD_A_MAX_BLOCK):
            vary, const = (pa, pb) if b_const else (pb, pa)
            np.matmul(vary.transpose(perm), const.transpose(const_perm), out=po.transpose(perm))
        elif blk == 3 and out.dtype.kind == "c" and self.count * np.prod(lead) >= ENTRYWISE_MIN_PRODUCTS:
            _entrywise_3x3(pa, pb, po)
        else:
            np.matmul(pa, pb, out=po)
        return out

    def transpose(self, a: np.ndarray) -> np.ndarray:
        """The transpose of every operator: block B(-q)^T at q, a gather of the flat entries."""
        return np.take(a, self._mirrors[0], axis=-1)   # C order, unlike a[..., index]

    def conj(self, a: np.ndarray) -> np.ndarray:
        """The elementwise conjugate of every operator: block conj(B(-q)) at q, a gather of the flat entries."""
        out = np.take(a, self._mirrors[1], axis=-1)
        return np.conj(out, out=out)

    def inv(self, a: np.ndarray) -> np.ndarray:
        """The inverse of every operator: raises `LinAlgError` if any block is exactly singular."""
        return np.linalg.inv(self.block_view(a)).reshape(a.shape)

    def inv_or_nan(self, stack: np.ndarray) -> np.ndarray:
        """The inverse of every operator of an (n, size) stack, NaN where a block is exactly singular.

        One batched `inv`; only when it raises are the operators inverted
        one at a time, to find the singular ones.
        """
        try:
            return self.inv(stack)
        except np.linalg.LinAlgError:
            out = np.empty(stack.shape, dtype=np.result_type(stack, float))
            for op, res in zip(stack, out):
                try:
                    res[...] = self.inv(op)
                except np.linalg.LinAlgError:
                    res[...] = np.nan
            return out

    def svdvals(self, a: np.ndarray) -> np.ndarray:
        """The singular values of every operator, the union of its blocks', (..., d) block by block."""
        return np.linalg.svd(self.block_view(a), compute_uv=False).reshape(a.shape[:-1] + (self.lattice.dim,))

    def eigvalsh(self, a: np.ndarray) -> np.ndarray:
        """The eigenvalues of every Hermitian operator, the union of its blocks', (..., d) block by block."""
        return np.linalg.eigvalsh(self.block_view(a)).reshape(a.shape[:-1] + (self.lattice.dim,))

    def pair_contract(self, w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """sum_m w[m] a[..., m] @ b[..., m]^T over the node axis -2 of (..., n, size) arrays.

        One GEMM: the node and column indices are contracted jointly.  Its
        right operand is the transposes of b (`transpose`), gathered into the
        GEMM's order an eighth of the nodes at a time, so the gather's index
        and temporary are an eighth of the operand's copy.
        """
        lead, (n, c, k) = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]), (a.shape[-2], self.count, self.block)
        out = np.empty(lead + (self.size,), dtype=np.result_type(a, b))
        lhs = np.moveaxis(w[:, None, None, None] * self.block_view(a), -4, -2).reshape(a.shape[:-2] + (c, k, n * k))
        rhs = np.empty(b.shape[:-2] + (c, n, k, k), dtype=b.dtype)   # [c, m, j, i] = b_m^T[c, j, i]
        step = -(-n // 8)
        index = self._mirrors[0].reshape(c, 1, k, k) + self.size * np.arange(step)[:, None, None]
        nodes = b.reshape(b.shape[:-2] + (n * self.size,))
        for m in range(0, n, step):
            rhs[..., m:m + step, :, :] = np.take(nodes[..., m * self.size:(m + step) * self.size],
                                                 index[:, :n - m], axis=-1)
        np.matmul(lhs, rhs.reshape(rhs.shape[:-4] + (c, n * k, k)), out=self.block_view(out))
        return out


def _entrywise_3x3(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b for (..., 3, 3) stacks, leading axes broadcast, one entry at a time.

    Entry (i, k) of every product is a[..., i, 0] b[..., 0, k] plus two
    more multiply-adds over the contraction index, each one ufunc call
    along the whole stack, so the scratch is one entry's: a ninth of `out`.
    """
    scratch = np.empty(out.shape[:-2], dtype=out.dtype)
    for i in range(3):
        for k in range(3):
            entry = out[..., i, k]
            np.multiply(a[..., i, 0], b[..., 0, k], out=entry)
            for j in (1, 2):
                np.multiply(a[..., i, j], b[..., j, k], out=scratch)
                entry += scratch


def cauchy_sum(nodes: np.ndarray, weights: np.ndarray, poles, stack: np.ndarray) -> np.ndarray:
    """sum_l weights_l stack[l] / (nodes_l - p) for every pole p, complex (n, ...) for n poles.

    Every node sum with a resolvent coefficient, w_l / (w_l - z) in some
    form, goes through here.  The (n, K) Cauchy coefficient matrix is
    formed in place and multiplied a chunk of rows at a time: an eighth of
    the matrix's rows, or more where an eighth of the stack's bytes holds
    more, and at most `CHUNK_BYTES`.  The coefficients held thus stay below
    an eighth of the matrix or of the stack, and a large stack, which every
    chunk's product packs again, is passed over only a few times.  No chunk
    is a single row out of several: a one-row product takes BLAS's
    matrix-vector path, whose rounding differs from the matrix product's;
    with OpenBLAS every row then comes out bit for bit as in the unchunked
    product.
    """
    poles = np.asarray(poles)
    n, flat = len(poles), stack.reshape(len(stack), -1)
    out = np.empty((n, flat.shape[1]), dtype=complex)
    row = 16 * len(stack)   # bytes of one coefficient row
    step = max(1, min(CHUNK_BYTES // row, max(-(-n // 8), stack.nbytes // (8 * row))))
    m = max(1, min(-(-n // step), n // 2))   # chunks of at least two rows
    for i in range(m):
        rows = slice(i * n // m, (i + 1) * n // m)
        coef = nodes - poles[rows, None]
        np.divide(weights, coef, out=coef)
        np.matmul(coef, flat, out=out[rows])
    return out.reshape((n,) + stack.shape[1:])


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


def row_chunks(rows: int, nbytes: int):
    """Slices of an eighth of `rows` rows of `nbytes` bytes, or fewer within `CHUNK_BYTES`.

    No chunk is one row out of several, which `np.einsum` would sum in another order.
    """
    m = max(1, min(rows // 2, max(8, -(-nbytes // CHUNK_BYTES))))
    return (slice(i * rows // m, (i + 1) * rows // m) for i in range(m))


def frobenius_cond(a: np.ndarray, a_inv: np.ndarray) -> np.ndarray:
    """||a||_F ||a^-1||_F for each row of an operator stack and of its inverses', two (..., n) arrays.

    It bounds the 2-norm condition number, kappa_2 <= kappa_F, so a gate on
    kappa_2 clears an operator whose bound is well inside it without its
    singular values.  Each row is scaled by a power of two (`unit_scale`
    of its largest modulus) before it is squared, a chunk of rows at a time
    (`row_chunks`), so no scaled copy of an operand is held; a product
    beyond the largest float is infinite, and a non-finite row gives a
    non-finite bound, which clears nothing.
    """
    rows, flat = a[..., 0].size, [x.reshape(-1, x.shape[-1]) for x in (a, a_inv)]
    norms = np.empty((2, rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in row_chunks(rows, a.nbytes):
            for dst, x in zip(norms, flat):
                unit = unit_scale(np.abs(x[chunk]).max(axis=-1))
                dst[chunk] = np.sqrt(sq_norms(x[chunk] * unit[:, None])) / unit
        return (norms[0] * norms[1]).reshape(a.shape[:-1])


def rel_norms(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """||num|| / ||den|| for each row of two (..., n) arrays of one shape, a zero scale counting as 1e-300.

    Each pair of rows is scaled by one power of two (`unit_scale` of their
    largest modulus) before its squared norms are summed, a chunk of rows
    at a time (`row_chunks`).
    """
    rows, flat = num[..., 0].size, [x.reshape(-1, x.shape[-1]) for x in (num, den)]
    sq = np.empty((2, rows))
    for chunk in row_chunks(rows, num.nbytes):
        unit = unit_scale(np.maximum(*(np.abs(x[chunk]).max(axis=-1) for x in flat)))[:, None]
        sq[:, chunk] = [sq_norms(x[chunk] * unit) for x in flat]
    return (np.sqrt(sq[0]) / np.maximum(np.sqrt(sq[1]), 1e-300)).reshape(num.shape[:-1])


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
