"""Medium coupling tensors: construction, spectral-density moments, model library.

The frequency-indexed coupling tensor T(r, r', w) is the single free input
of the model.  Couplings are generated through the Lagrangian route (real
coefficients in the identity gauge I/v per node), which makes the
canonical pair constraints hold per node at machine precision instead of
merely to quadrature accuracy.  The built-in models are lattice
convolutions, given by one 3x3 symbol per wave vector (`SymbolCoupling`),
so their kernels are built per momentum sector with no site operator.  The
coupling's layout, `CouplingTensor.layout`, is the layout of the whole run:
every operator derived from it is blocks in it.
The frequency moments s_n = sum_k w_k w_k^n D_k of the spectral densities
have one evaluator, `CouplingTensor.moments`, which the constraints, the
structure tensor, the sum rules, the asymptote and the self-energy all read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import HBAR
from .errors import DampolError, DegenerateCouplingError, ModelError
from .lattice import FrequencyGrid, Lattice, SectorLayout

#: relative tolerance of the canonical-pair constraints
DEFAULT_TOL_CONSTRAINT = 1e-10


@dataclass(frozen=True, eq=False)
class SymbolCoupling:
    """Lagrangian-route input of a translation-invariant medium in the identity gauge I/v.

    The coefficient kernel at node k is tau[k] times the lattice
    convolution whose 3x3 symbol at the wave vector ``kvecs[j]`` is
    ``symbols[j]`` (`Lattice.sector_blocks`): `tau` is (K,) and `symbols`
    (M, 3, 3), real.  The coupling is built per momentum sector from them,
    with no site operator.
    """

    lattice: Lattice
    grid: FrequencyGrid
    tau: np.ndarray
    symbols: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectralMoments:
    """The parts of s_n = sum_k w_k w_k^n D_k, n = 0..3, that the checks read, (size,) blocks each.

    Each is summed in extended precision and rounded to float64 once, so no
    value depends on the order of the node sum.
    """

    imag0: np.ndarray         # Im s_0, zero under the polarization constraint
    structure: np.ndarray     # S = 2 Re s_1, read-only complex: the structure tensor's blocks
    structure_lo: np.ndarray  # 2 Re s_1 - S, which rounding S to float64 dropped
    imag2: np.ndarray         # Im s_2, zero under the momentum constraint
    cubic: np.ndarray         # s_3, for the polarization self-energy

    def structure_gap(self, mat: np.ndarray) -> np.ndarray:
        """2 Re s_1 - mat, exact up to one rounding for any mat within a factor 2 of S."""
        return (self.structure - mat) + self.structure_lo


def spectral_moments(nodes: np.ndarray, weights: np.ndarray, density: np.ndarray) -> SpectralMoments:
    """s_0..s_3 of a (K, ...) density stack: one (4, K) @ (K, n) extended-precision product."""
    powers = np.vander(np.asarray(nodes, np.longdouble), 4, increasing=True).T \
        * np.asarray(weights, np.longdouble)
    flat = density.reshape(len(nodes), -1)
    # blocks of 128 columns keep the extended-precision copy of the densities small
    s = np.concatenate([powers @ flat[:, j:j + 128].astype(np.clongdouble)
                        for j in range(0, flat.shape[1], 128)], axis=1).reshape(4, *density.shape[1:])
    first = 2 * s[1].real
    structure = first.astype(complex)
    structure.flags.writeable = False
    return SpectralMoments(s[0].imag.astype(float), structure, (first - structure.real).astype(float),
                           s[2].imag.astype(float), s[3].astype(complex))


@dataclass(frozen=True, eq=False)
class CouplingTensor:
    """Coupling kernels T(w_k) stacked over the frequency grid, as (K, size) blocks `flat` in `layout`.

    `layout` is `Lattice.sector_layout` for a coupling built from per-k
    symbols, whose `sector_leak` is exactly 0.  A run whose other inputs
    leak out of it, as a symmetry-violating perturbation of chi does,
    re-lays the coupling into their layout (`relaid`) and keeps their leak
    as `sector_leak`.  It is the layout of the run: every operator derived
    from the coupling is blocks in `layout` too.
    """

    lattice: Lattice
    grid: FrequencyGrid
    layout: SectorLayout
    flat: np.ndarray   # (K, size) complex
    sector_leak: float = 0.0

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=complex)
        shape = (self.grid.n_nodes, self.layout.size)
        if flat.shape != shape:
            raise DampolError(f"coupling blocks must have shape {shape}")
        if not np.all(np.isfinite(flat)):
            raise DampolError("coupling kernels contain non-finite entries")
        object.__setattr__(self, "flat", flat)

    def relaid(self, layout: SectorLayout, leak: float | None = None) -> "CouplingTensor":
        """The same coupling as blocks of `layout`, which must hold the blocks of its own.

        A run whose other inputs leak out of the coupling's layout, as a
        symmetry-violating perturbation of chi does, works in theirs and
        passes their `leak`, kept as `sector_leak`; the dense cross-checks of
        the sector route re-lay a built-in model into `Lattice.one_block`.
        The entries are placed, not rotated (`SectorLayout.relay`), so the
        kernels are the same to the bit.
        """
        return CouplingTensor(self.lattice, self.grid, layout, self.layout.relay(self.flat, layout),
                              self.sector_leak if leak is None else leak)

    @cached_property
    def density(self) -> np.ndarray:
        """Per-node spectral densities Ttilde o T*, (K, size) in `layout`: one stacked block Gram product.

        These positive-semidefinite kernels carry the dissipative content of
        the medium; the cut discontinuity of the susceptibility is
        proportional to them.
        """
        t, layout = self.flat, self.layout
        dens = layout.matmul(layout.transpose(t), t.conj())
        dens *= self.lattice.cell_volume
        return dens

    @cached_property
    def moments(self) -> SpectralMoments:
        """The frequency moments s_0..s_3 of the spectral densities, (size,) each in `layout`, evaluated once."""
        return spectral_moments(self.grid.nodes, self.grid.weights, self.density)


@dataclass(frozen=True)
class ConstraintReport:
    """Residuals of the two canonical-pair constraints on the coupling.

    `moment0` is the zeroth frequency moment of the imaginary part of the
    spectral density (it must vanish for the polarization components to
    commute); `moment2` is the second moment (momentum components).
    """

    moment0: float
    moment2: float
    scale: float

    @property
    def passed(self) -> bool:
        return max(self.moment0, self.moment2) <= DEFAULT_TOL_CONSTRAINT * self.scale


def check_constraints(coupling: CouplingTensor) -> ConstraintReport:
    """Both coupling constraints, v ||s_n - conj(s_n)|| = 2 v ||Im s_n|| for n = 0, 2 (report only)."""
    mom, v = coupling.moments, coupling.lattice.cell_volume
    scale = v * float(coupling.grid.weights @ np.linalg.norm(coupling.density, axis=-1))
    return ConstraintReport(moment0=2.0 * v * float(np.linalg.norm(mom.imag0)),
                            moment2=2.0 * v * float(np.linalg.norm(mom.imag2)), scale=scale or 1.0)


def _lagrangian_prefactor(nodes: np.ndarray) -> np.ndarray:
    """-(2 hbar w)^(-1/2) at every node: the Lagrangian route's scale of the coefficients."""
    return -((2.0 * HBAR * nodes) ** -0.5)


def coupling_from_lagrangian(t0: SymbolCoupling) -> CouplingTensor:
    """Build the coupling tensor from real coefficients in the identity gauge I/v.

    Per node, T(w) = -(2 hbar w)^(-1/2) T0(w), built per momentum sector
    from the symbols of the `SymbolCoupling`.  The resulting spectral
    density is real node by node, so the quadrature constraints hold
    automatically; residuals above tolerance signal corrupted inputs.
    """
    lattice, grid = t0.lattice, t0.grid
    flat = _lagrangian_prefactor(grid.nodes)[:, None] * (t0.tau[:, None] * lattice.sector_blocks(t0.symbols))
    coupling = CouplingTensor(lattice, grid, lattice.sector_layout, flat)
    report = check_constraints(coupling)
    if not report.passed:
        raise DampolError(
            f"constraint residuals {report.moment0:.3e}/{report.moment2:.3e} "
            f"exceed tolerance; quadrature or gauge input is inconsistent")
    return coupling


@dataclass(frozen=True, eq=False)
class StructureTensor:
    """Real positive-definite kernel mediating the field-medium coupling, as (size,) blocks in `layout`,
    the coupling's."""

    layout: SectorLayout
    blocks: np.ndarray

    @cached_property
    def inverse(self) -> np.ndarray:
        """The kernel inverse, S o S^-1 = identity, (size,) in `layout`."""
        return self.layout.inv(self.blocks) / self.layout.lattice.cell_volume**2

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues of the symmetric part, the union of every block's, ascending."""
        return np.sort(self.layout.eigvalsh((self.blocks.real + self.layout.transpose(self.blocks.real)) / 2.0))


def structure_tensor(coupling: CouplingTensor) -> StructureTensor:
    """First frequency moment of the symmetrized spectral density, S = s_1 + conj(s_1).

    S is real by construction and summed from the coupling's blocks, so it
    lives in the coupling's layout.  Fails loudly if it is not
    positive-definite: a degenerate structure tensor has no inverse, and the
    canonical momentum density is then undefined.
    """
    st = StructureTensor(coupling.layout, coupling.moments.structure)
    evals = st.eigenvalues
    if evals.size and evals[0] <= 1e-12 * max(abs(evals[-1]), 1e-300):
        raise DegenerateCouplingError(
            f"structure tensor not positive-definite (min eigenvalue {evals[0]:.3e})")
    return st


# -- model library -------------------------------------------------------

_MODEL_NAMES = ("local_lorentz", "uniaxial_local", "gaussian_nonlocal")

#: the line width and the correlation length enter squared: below this their squares are finite
_SQUARABLE = float(np.sqrt(np.finfo(float).max))


def _line_shape(nodes: np.ndarray, omega_max: float, resonance: float, width: float,
                strength: float) -> np.ndarray:
    """Square root of a windowed single-resonance Lorentzian profile.

    The smooth window (x(1-x))^2 vanishes quadratically at both grid edges.
    At the lower edge this keeps the coupling bounded against the static
    1/z^2 pole of the propagator; at the cutoff it avoids truncating a
    finite spectral weight.  Both matter for the regularized identities to
    converge at first order in the node spacing.
    """
    x = nodes / omega_max
    window = 16.0 * (x * (1.0 - x)) ** 2
    lor = (width / np.pi) / ((nodes - resonance) ** 2 + width**2)
    return strength * window * np.sqrt(lor)


def _gaussian_symbol(lattice: Lattice, corr: float) -> np.ndarray:
    """(M,) symbol of the convolution with exp(-|r|^2 / 2 l^2), |r| the minimum-image distance.

    It is the DFT of the kernel's row at site 0, which is even in r, so
    the symbol is real; a mixed-radix FFT rounds q and -q apart, so it is
    averaged with its reflection to be exactly even, as a real coupling needs.
    """
    n = lattice.n_per_axis
    idx = np.indices((n, n, n))
    dist = np.minimum(idx, n - idx) * lattice.spacing   # minimum image, exactly even in r
    row = np.exp(-np.einsum("i...,i...->...", dist, dist) / (2.0 * corr**2))
    g = np.fft.fftn(row).real.ravel()
    return (g + g[lattice._conjugate]) / 2


def builtin_model(name: str, lattice: Lattice, grid: FrequencyGrid, params: dict | None = None) -> SymbolCoupling:
    """Construct one of the shipped medium models as a Lagrangian coupling, from its per-k symbols.

    Models:

    * ``local_lorentz``     isotropic, on-site, single-resonance line shape;
      symbol I_3 / v;
    * ``uniaxial_local``    like the above with a distinct strength along one
      axis; symbol diag(scale) / v;
    * ``gaussian_nonlocal`` spatial kernel exp(-|r-r'|^2 / 2 l^2), genuine
      spatial dispersion with correlation length ``l``; symbol g(k) I_3 / v,
      g the DFT of the kernel.

    Shared parameters (defaults relative to the grid cutoff): ``resonance``,
    ``width``, ``strength``.  ``uniaxial_local`` adds ``axis`` and ``ratio``;
    ``gaussian_nonlocal`` adds ``corr_length``.  Parameters out of range, or
    a strength whose spectral densities overflow, raise `ModelError`.
    """
    params = dict(params or {})
    if name not in _MODEL_NAMES:
        raise ModelError(f"unknown model {name!r}; expected one of {_MODEL_NAMES}")
    resonance = float(params.pop("resonance", 0.5 * grid.omega_max))
    width = float(params.pop("width", 0.2 * grid.omega_max))
    strength = float(params.pop("strength", 1.0))
    if not 0 < width < _SQUARABLE or strength < 0 or not (0 < resonance < grid.omega_max):
        raise ModelError("line-shape parameters out of range")
    tau = _line_shape(grid.nodes, grid.omega_max, resonance, width, strength)

    v = lattice.cell_volume
    if name == "local_lorentz":
        if params:
            raise ModelError(f"unexpected parameters {sorted(params)} for local_lorentz")
        symbol = np.eye(3) / v
    elif name == "uniaxial_local":
        axis = str(params.pop("axis", "z"))
        ratio = float(params.pop("ratio", 2.0))
        if params:
            raise ModelError(f"unexpected parameters {sorted(params)} for uniaxial_local")
        if axis not in ("x", "y", "z") or ratio <= 0:
            raise ModelError("uniaxial axis must be x/y/z with positive ratio")
        scale = np.ones(3)
        scale["xyz".index(axis)] = ratio
        symbol = np.diag(scale) / v
    else:  # gaussian_nonlocal
        corr = float(params.pop("corr_length", 0.75 * lattice.spacing))
        if params:
            raise ModelError(f"unexpected parameters {sorted(params)} for gaussian_nonlocal")
        if not 0 < corr < _SQUARABLE:
            raise ModelError("corr_length must be positive, with a finite square")
        symbol = _gaussian_symbol(lattice, corr)[:, None, None] * (np.eye(3) / v)
    symbols = np.broadcast_to(symbol, (lattice.n_sites, 3, 3))

    # a spectral density is v T^T conj(T) per block, and a 6 x 6 block holds two symbols,
    # so 2 v |pref tau|^2 |B|^2 over the nodes and symbols bounds every entry
    with np.errstate(over="ignore"):
        peak = np.sqrt(v) * np.max(np.abs(_lagrangian_prefactor(grid.nodes) * tau)) \
            * np.max(np.linalg.norm(symbols, axis=(1, 2)))
        bound = 2.0 * peak**2
    if not np.isfinite(bound):
        raise ModelError(f"[model] strength = {strength:g} makes the spectral densities overflow")
    return SymbolCoupling(lattice, grid, tau, symbols)

