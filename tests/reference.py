"""The dense site-kernel route: the reference the tests compare the package's blocks against.

The package holds every two-point kernel ``K_ij(r, r')`` as momentum-sector
blocks (`SectorLayout`).  Here a kernel is one dense complex square matrix
of dimension ``3M`` with row index ``(site, component)`` (`TensorKernel`),
and kernel composition carries the volume factor, ``A o B = v * A @ B``.
The lattice operators are assembled as site matrices from the same per-k
symbols the package builds its blocks from (`Lattice._symbols`), and the
transverse basis from the same column vectors; a few quantities that no
production path needs (the pair-resolved commutator, the asymptote, a
form's time derivative, random dense couplings) are formed here too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from dampol.constants import EPS0, HBAR
from dampol.coupling import CouplingTensor, RealCoupling, StructureTensor
from dampol.diagonalize import ModeCoefficients
from dampol.errors import DampolError
from dampol.fields import LinearBosonicForm
from dampol.lattice import FrequencyGrid, Lattice


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


def sites(lattice: Lattice) -> np.ndarray:
    """(M, 3) array of site positions, C-ordered over integer triples."""
    n = lattice.n_per_axis
    idx = np.indices((n, n, n)).reshape(3, -1).T
    return idx * lattice.spacing


def _assemble(lattice: Lattice, blocks: np.ndarray) -> np.ndarray:
    """Assemble a position-space operator matrix from per-k 3x3 blocks."""
    ph = lattice._phases
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
    cols = np.einsum("ri,ia->rai", lattice.momentum_basis[:, column], vectors)
    return np.ascontiguousarray(cols.reshape(lattice.dim, -1))


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


def commutation_matrix(modes: ModeCoefficients, k: int, l: int) -> TensorKernel:
    """Left-hand side of the canonical commutator condition for a node pair.

    The expected value is the identity kernel times the node Kronecker over
    the weight.
    """
    lattice = modes.lattice
    v = lattice.cell_volume
    w = modes.grid.weights
    f1k, f2k = modes.potential[k], modes.momentum[k]
    f1l, f2l = modes.potential[l], modes.momentum[l]
    out = 1j * HBAR * v * (f1k @ f2l.conj().T - f2k @ f1l.conj().T)
    # delta-delta and delta-regular cross terms of the resonant family
    if k == l:
        out = out + np.eye(lattice.dim) / v / w[k]
    out = out + modes.resonant[k, l] + modes.resonant[l, k].conj().T
    res, anti = modes.resonant, modes.antiresonant
    pairs = np.einsum("m,mab,mcb->ac", w, res[k], res[l].conj()) \
        - np.einsum("m,mab,mcb->ac", w, anti[k], anti[l].conj())
    return TensorKernel(lattice, out + v * pairs)
