"""Periodic cubic lattice, spectral vector-field operators, and the block layout of kernels.

Discretization conventions used by the whole package:

* spatial integrals become cell sums, ``integral dr -> v * sum_r`` with
  ``v`` the cell volume, so the spatial delta is the identity divided by
  ``v``;
* frequency integrals become quadrature sums over a `FrequencyGrid`,
  with the frequency delta equal to ``1/w_k`` at node ``k``;
* a two-point tensor kernel ``K_ij(r, r')``, a ``3M x 3M`` operator on the
  ``(site, component)`` index, is stored as its blocks in the real
  orthogonal basis kron(F, I_3), F the momentum basis (`SectorLayout`): one
  block per momentum sector, or one dense block for a run whose inputs
  leak across sectors.  Kernel composition carries the volume factor,
  ``A o B = v * A @ B``.

Differential operators (curl, double curl, Laplacian) are realized
spectrally with the exact discrete wave vectors, so transversality
identities close to machine precision rather than to O(spacing^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DampolError

#: largest off-sector part of a run's inputs in the momentum basis,
#: relative to each input, for which the run is laid out per momentum sector:
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
    def _conjugate(self) -> np.ndarray:
        """(M,) index of -kvecs[j], modulo the reciprocal lattice."""
        n = self.n_per_axis
        idx = np.indices((n, n, n)).reshape(3, -1)
        return np.ravel_multi_index((-idx) % n, (n, n, n))

    @cached_property
    def momentum_sector(self) -> np.ndarray:
        """(M,) sector label of each column of the momentum basis: the lower index of {q, -q}."""
        return np.minimum(np.arange(self.n_sites), self._conjugate)

    @cached_property
    def momentum_pairs(self) -> tuple:
        """The cos and the sin column of each {q, -q} pair of the momentum basis F, two (P,) index arrays:
        column j of F, real orthogonal (M, M), is the plane wave of kvecs[j] if it is self-conjugate,
        else sqrt(2) cos(q.r) at a pair's lower index and sqrt(2) sin(q.r) at its higher."""
        cos = np.flatnonzero(np.arange(self.n_sites) < self._conjugate)
        return cos, self._conjugate[cos]

    def to_momentum(self, buf: np.ndarray) -> np.ndarray:
        """F^T v in place for every (..., 3M) site vector v of a complex array, which it returns (`_transform`)."""
        return self._transform(buf, False)

    def from_momentum(self, buf: np.ndarray) -> np.ndarray:
        """F u in place for every (..., 3M) vector u of a complex array, which it returns (`_transform`)."""
        return self._transform(buf, True)

    def _transform(self, buf: np.ndarray, inverse: bool) -> np.ndarray:
        """P x, P[r, j] = exp(i kvecs[j] . r) / sqrt(M) being symmetric, by one in-place `np.fft.ifftn` over the
        site axes (a view of any layout), and a mix of each pair's cos and sin column s and p: with E = P v,
        F^T v is (E_s + E_p) / sqrt(2) and -i (E_s - E_p) / sqrt(2) there, real up to round-off for a real v;
        F u is P c with c_s = (u_s - i u_p) / sqrt(2) and c_p = (u_s + i u_p) / sqrt(2)."""
        n, lead = self.n_per_axis, buf.shape[:-1]
        cube, waves = buf.reshape(lead + (n, n, n, 3)), buf.reshape(lead + (self.n_sites, 3))
        if not inverse:
            np.fft.ifftn(cube, axes=(-4, -3, -2), norm="ortho", out=cube)
        (cos, sin), (x, y) = self.momentum_pairs, ((-1j, 1.0) if inverse else (1.0, -1j))
        a, b = waves[..., cos, :], waves[..., sin, :]   # mixed in place: no temporary but these
        b *= x * np.sqrt(0.5)
        a *= np.sqrt(0.5)
        a += b
        b *= -2.0
        b += a
        b *= y
        waves[..., cos, :], waves[..., sin, :] = a, b
        if inverse:
            np.fft.ifftn(cube, axes=(-4, -3, -2), norm="ortho", out=cube)
        return buf

    @cached_property
    def _transverse_columns(self) -> tuple:
        """The transverse basis, as the momentum column j and the vector e of each of its columns.

        Its columns are kron(F[:, j], e), F the momentum basis, for each
        unit eigenvector e of the transverse 3x3 block at kvecs[j].
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
        """Per-sector storage: one block per {q, -q} sector of the momentum basis, 3x3 or 6x6.

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
        {q, -q}, its cos column first as in the momentum basis, gives the 6x6
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
        """The dense layout: one d x d block in the basis kron(F, I_3), F the momentum basis, in its column order.

        It holds any operator, so it is the layout of a run whose inputs
        leak across momentum sectors, as the `chi_symmetry` violation does,
        and the dense reference of the sector route; an oracle form in it
        has one slot group, every slot in order.
        """
        return SectorLayout(self, np.array([self.dim]), np.arange(self.dim))

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
    """Block-diagonal (..., d, d) site operators stored as flat (..., size) arrays.

    The basis is the real orthogonal (d, d) column selection `columns` of
    kron(F, I_3), F the lattice's momentum basis, its columns running over
    the blocks in order; no code of the package forms it, or any site
    operator.  The blocks are the diagonal blocks of basis^T A basis, of
    the sizes in `sizes`, stored row-major one after the other.  Blocks of
    one size are adjacent, so a flat array is viewed as one
    (..., count, b, b) array per block size (`parts`) and every product is
    one batched product per size, over every leading axis at once: against
    an operand that is the same at every node, the node axis is folded into
    the GEMM rows through strides, and many complex 3 x 3 products are
    formed entry by entry (`matmul`).  The Frobenius norm of an
    operator is that of its flat row, and a sum over a node axis is one GEMM
    on the flat rows.

    A translation-invariant operator maps every {q, -q} sector of
    the momentum basis into itself, so `Lattice.sector_layout` keeps it
    whole in blocks of 3 or 6; `Lattice.one_block` keeps any operator as
    one d x d block, which is the dense reference.  Both bases are columns
    of one matrix, so an operator of one layout is laid into the other
    entry by entry (`relay`).
    """

    def __init__(self, lattice: Lattice, sizes: np.ndarray, columns: np.ndarray):
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
    def _entries(self) -> tuple:
        """The rows and columns of basis^T A basis that the blocks keep, in flat order."""
        first = np.cumsum(self.sizes) - self.sizes
        return (np.concatenate([f + np.repeat(np.arange(b), b) for f, b in zip(first, self.sizes)]),
                np.concatenate([f + np.tile(np.arange(b), b) for f, b in zip(first, self.sizes)]))

    @cached_property
    def places(self) -> np.ndarray:
        """The index of each entry of the blocks, in flat order, in a flat (d, d) matrix in the basis
        kron(F, I_3): the flat order of `Lattice.one_block`."""
        rows, cols = self._entries
        return self.columns[rows] * self.lattice.dim + self.columns[cols]

    def parts(self, flat: np.ndarray) -> list:
        """Views of a (..., size) array as one (..., count, b, b) array per block size."""
        lead = flat.shape[:-1]
        return [flat[..., o:o + c * b * b].reshape(lead + (c, b, b)) for b, c, o in self.part_sizes]

    def per_block(self, flat: np.ndarray) -> list:
        """Views of a (..., size) array as one (..., b, b) array per block, in order."""
        return [part[..., i, :, :] for part in self.parts(flat) for i in range(part.shape[-3])]

    @cached_property
    def transverse(self) -> list:
        """Per block, the transverse-basis columns in its span, ascending, and their (b, n) coordinates.

        The coordinates are in the block's basis columns.
        """
        column, vectors = self.lattice._transverse_columns
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
        mt, d = self.lattice.n_transverse, self.lattice.dim
        first = np.cumsum(self.sizes) - self.sizes
        return tuple(np.r_[(mine + mt * np.arange(n_transverse)[:, None]).ravel(),
                           (self.columns[f:f + b] + n_transverse * mt
                            + d * np.arange(n_site)[:, None]).ravel()]
                     for (mine, _), f, b in zip(self.transverse, first, self.sizes))

    def apply(self, flat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """The site operators of a (..., size) array applied to (..., d) site vectors, leading axes broadcast, complex.

        The vectors are rotated into the basis and back, A v = B A_blocks
        (B^T v).  The basis B = kron(F, I_3)[:, columns] is applied as the
        FFTs of the momentum basis F (`Lattice.to_momentum`, `from_momentum`)
        and the column selection, so no site operator and no matrix is formed.
        """
        rot = self.lattice.to_momentum(np.array(vecs, dtype=complex))
        rot = rot if np.iscomplexobj(vecs) else rot.real
        out = np.empty(np.broadcast_shapes(flat.shape[:-1], vecs.shape[:-1]) + (self.lattice.dim,), dtype=complex)
        for blk, rows in zip(self.per_block(flat), np.split(self.columns, np.cumsum(self.sizes)[:-1])):
            out[..., rows] = (blk @ rot[..., rows, None])[..., 0]   # rows in kron(F, I_3) column order
        return self.lattice.from_momentum(out)

    def relay(self, flat: np.ndarray, layout: "SectorLayout") -> np.ndarray:
        """A (..., size) array of this layout as blocks of `layout`, entry by entry; `flat` itself in this one.

        Both bases are columns of kron(F, I_3), so no entry is rotated: each
        keeps its value at its pair of kron(F, I_3) columns.  An entry
        outside the blocks of `layout` is dropped, so a layout whose blocks
        hold this one's, as `Lattice.one_block` holds every layout's, takes
        the operators exactly.
        """
        if layout is self:
            return flat
        frame = np.zeros(flat.shape[:-1] + (self.lattice.dim**2,), dtype=flat.dtype)
        frame[..., self.places] = flat
        return frame[..., layout.places]

    def op(self, name: str) -> np.ndarray:
        """The blocks of the lattice operator whose per-k symbols are `Lattice._symbols[name]`, (size,), built once.

        In `Lattice.sector_layout` they come from the operator's per-k
        symbols (`Lattice.sector_blocks`), real for a real operator; in
        another layout, from those blocks laid into it (`relay`).
        """
        if name not in self._ops:
            lat, sector = self.lattice, self.lattice.sector_layout
            if self is sector:
                symbols = lat._symbols[name]
                blocks = lat.sector_blocks(symbols)
                self._ops[name] = np.ascontiguousarray(blocks.real) if np.isrealobj(symbols) else blocks
            else:
                self._ops[name] = sector.relay(sector.op(name), self)
        return self._ops[name]

    @cached_property
    def identity(self) -> np.ndarray:
        """The identity, (size,)."""
        return np.concatenate([np.tile(np.eye(b).ravel(), c) for b, c, _ in self.part_sizes])

    # -- block algebra ----------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b for every operator pair, leading axes broadcast: one batched product per block size.

        A leading axis i along which one operand is constant and the other
        varies (a node axis against a node-independent operator) is folded
        into the GEMM through strides, the longest such axis: with b
        constant, row r of every block of a at all n_i values of i is one
        (n_i, b) matrix of row stride `size`, so a block size of `count`
        blocks makes count * b GEMMs (n_i x b) @ (b x b) in place of n_i *
        count GEMMs b x b; with a constant, the transposed blocks are folded
        likewise, b^T a^T.  Nothing is copied.  A block size folds only when
        n_i > b, where folding makes fewer GEMMs, and with a constant only
        up to `FOLD_A_MAX_BLOCK`: that fold has no BLAS layout, and numpy's
        strided loop is slower than a GEMM per operator for large blocks.
        A part that does not fold is one `np.matmul`, a GEMM per operator
        pair, unless its blocks are 3 x 3, its product complex and it holds
        at least `ENTRYWISE_MIN_PRODUCTS` products: then each entry of the
        product is three multiply-adds along the whole part
        (`_entrywise_3x3`).
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
        for (blk, count, _), pa, pb, po in zip(self.part_sizes, self.parts(a), self.parts(b), self.parts(out)):
            if length > blk and (b_const or blk <= FOLD_A_MAX_BLOCK):
                vary, const = (pa, pb) if b_const else (pb, pa)
                np.matmul(vary.transpose(perm), const.transpose(const_perm), out=po.transpose(perm))
            elif blk == 3 and out.dtype.kind == "c" and count * np.prod(lead) >= ENTRYWISE_MIN_PRODUCTS:
                _entrywise_3x3(pa, pb, po)
            else:
                np.matmul(pa, pb, out=po)
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

    def inv_or_nan(self, stack: np.ndarray) -> np.ndarray:
        """The inverse of every operator of an (n, size) stack, NaN where a block is exactly singular.

        One batched `inv` per block size; only when it raises are the
        operators inverted one at a time, to find the singular ones.
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
