"""Dyadic Green function of the dispersive wave equation on the lattice.

The defining equation (double curl acting on the primed argument) becomes a
dense linear system in the kernel representation; each evaluation point is
factorized directly, so residuals are machine-level and ill-conditioned
systems are rejected instead of silently regularized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import C_LIGHT
from .coupling import CouplingTensor
from .errors import DampolError, SingularOperatorError
from .lattice import Lattice, SectorLayout, frobenius_cond, sq_norms
from .susceptibility import Susceptibility

#: relative residual every emitted kernel must satisfy
TOL_SOLVE = 1e-10

#: ceiling of dim times the 2-norm condition number; beyond it the system counts as singular
COND_LIMIT = 1e12


def wave_operator(chi_blocks: np.ndarray, z, layout: SectorLayout) -> np.ndarray:
    """Blocks of the dispersive wave operator kernel at the points z.

    `chi_blocks` holds the susceptibility at those points in `layout`,
    (n, size), or (size,) for a scalar z; the result has the same shape.
    """
    v = layout.lattice.cell_volume
    zsq = (np.asarray(z) / C_LIGHT) ** 2
    out = chi_blocks + layout.identity / v
    out *= zsq[..., None]
    out -= layout.op("double_curl_matrix") / v
    return out


def _identity_residuals(prod: np.ndarray, layout: SectorLayout, v: float) -> np.ndarray:
    """|| prod_n - I / v || / || I / v || for each operator of an (n, size) stack; `prod` is overwritten."""
    eye = layout.identity / v
    prod -= eye
    return np.sqrt(sq_norms(prod)) / np.linalg.norm(eye)


def condition_numbers(layout: SectorLayout, mat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The 2-norm condition number sigma_max / sigma_min of each operator of an (n, size) stack.

    A node's singular values are the union of its blocks', one batched
    SVD.  It is infinite where the operator or its inverse
    `inv` (any finite multiple of it) is not finite.
    """
    cond = np.full(len(mat), np.inf)
    ok = np.isfinite(mat).all(axis=-1) & np.isfinite(inv).all(axis=-1)
    if ok.any():
        sv = layout.svdvals(mat if ok.all() else mat[ok])
        cond[ok] = sv.max(axis=-1) / sv.min(axis=-1)
    return cond


def solve_stack(chi: Susceptibility, zs) -> tuple:
    """Solve the defining wave equation at every point of zs at once, in `chi.layout`.

    Every point must sit off the real axis.  The inverses come from one
    batched `inv` (`SectorLayout.inv_or_nan`: NaN at an
    exactly singular point).  A point fails when dim times its 2-norm
    condition number, a bound of the 1-norm one, is beyond `COND_LIMIT`,
    or its residual beyond `TOL_SOLVE`.  The condition gate is screened:
    kappa_2 <= kappa_F = ||A||_F ||A^-1||_F (`lattice.frobenius_cond`, from
    the inverses at hand), so a point with dim kappa_F <= COND_LIMIT / 2
    passes it, the factor 2 covering rounding; only the other points,
    non-finite ones included, take the exact kappa_2 of
    `condition_numbers`, which their messages state.  Returns the kernel
    blocks (n, size), the relative residuals (n,), a dict from the index of
    each failed point to its message, and the operator's matrix form v W(z)
    at the points (n, size), which the kernels invert.
    """
    zs = np.asarray(zs, dtype=complex)
    layout = chi.layout
    v, dim = layout.lattice.cell_volume, layout.lattice.dim
    mat = wave_operator(chi.blocks_at(zs), zs, layout)
    mat *= v   # matrix form of the operator
    inv = layout.inv_or_nan(mat)
    screened = np.flatnonzero(~(dim * frobenius_cond(mat, inv) <= COND_LIMIT / 2))
    cond = dict(zip(screened.tolist(), condition_numbers(layout, mat[screened], inv[screened]).tolist()))
    inv /= v   # the kernel matrices
    residual = _identity_residuals(layout.matmul(inv, mat), layout, v)
    failures = {}
    for i, z in enumerate(zs.tolist()):
        if not dim * cond.get(i, 0.0) <= COND_LIMIT:
            failures[i] = (f"wave operator at z = {z} is near-singular (cond = {cond[i]:.3e}); "
                           f"dim * cond is beyond {COND_LIMIT:.0e}; increase eta or move z")
        elif not residual[i] <= TOL_SOLVE:
            failures[i] = f"solve at z = {z} left relative residual {residual[i]:.3e} > {TOL_SOLVE}"
    return inv, residual, failures, mat


def solve_green(chi: Susceptibility, zs) -> np.ndarray:
    """The propagator at the points zs as (n, size) blocks in `chi.layout`: `solve_stack` that raises.

    Every z must sit off the real axis; pick a side of the cut explicitly via
    the susceptibility's eta.  A failed point (dim times its condition
    number beyond `COND_LIMIT`, or residual beyond `TOL_SOLVE`) raises for
    the first one, with its exact condition number, instead of returning a
    silently regularized kernel.
    """
    zs = np.asarray(zs, dtype=complex)
    if np.any(zs.imag == 0.0):
        raise DampolError("solve_green needs Im z != 0; offset by the grid eta to pick a side")
    blocks, _, failures, mat = solve_stack(chi, zs)
    if failures:
        first = min(failures)
        cond = condition_numbers(chi.layout, mat[first:first + 1], blocks[first:first + 1])[0]
        raise SingularOperatorError(failures[first], cond=float(cond))
    return blocks


def verify_adjoint(chi: Susceptibility, zs, blocks: np.ndarray) -> float:
    """Residual of the adjoint equation (double curl on the unprimed argument).

    The adjoint equation is a consequence of the susceptibility's
    transpose-reversal symmetry, so it is evaluated with the reflected
    kernel chi(-z)^T; a symmetry-broken susceptibility is flagged here.
    `blocks` holds the propagator at the points zs in `chi.layout`, (n, size),
    checked as one stack; the worst residual is returned.
    """
    layout, v = chi.layout, chi.lattice.cell_volume
    zs = np.asarray(zs, dtype=complex)
    reflected = wave_operator(layout.transpose(chi.blocks_at(-zs)), zs, layout)
    prod = layout.matmul(reflected, blocks)
    prod *= v
    return float(_identity_residuals(prod, layout, v).max())


@dataclass(frozen=True, eq=False)
class NodePropagator:
    """The propagator at every grid node just below the cut, G(w_k - i eta).

    Only `node_propagator` builds one, so it is complete and sits below the
    cut by construction.  It holds the (K, size) kernel blocks in
    `chi.layout` and the (K,) residuals of the solves, made with `chi`,
    whose source is the coupling that every consumer contracts the
    propagator with, and the operator blocks the solves inverted, which
    `diagonalize.wave_diagnostic` reads and `cond` takes its singular
    values from; the upper side is the exact adjoint, G(w + i eta) =
    G(w - i eta)^dagger.  Every consumer reads the blocks as they are:
    `chi.layout` is the coupling's, the run's.
    """

    chi: Susceptibility
    blocks: np.ndarray     # (K, size), in node order
    residual: np.ndarray   # (K,)
    operator: np.ndarray   # (K, size), v W(z_k): the wave operator the solves inverted

    @cached_property
    def cond(self) -> np.ndarray:
        """The (K,) 2-norm condition numbers of the solves (`condition_numbers`), taken when first read."""
        return condition_numbers(self.layout, self.operator, self.blocks)

    @property
    def layout(self) -> SectorLayout:
        return self.chi.layout

    @property
    def coupling(self) -> CouplingTensor:
        return self.chi.source

    @property
    def lattice(self) -> Lattice:
        return self.chi.lattice

    @property
    def z(self) -> np.ndarray:
        """The solve points w_k - i eta, (K,)."""
        return self.chi.grid.nodes - 1j * self.chi.grid.eta


def node_propagator(chi: Susceptibility) -> NodePropagator:
    """Solve the propagator at every grid node w_k - i eta, as one `solve_stack`.

    chi at every node is one (2 K, K) @ (K, size) GEMM whose coefficient
    rows come a bounded chunk at a time (`lattice.cauchy_sum`), the inverses
    one batched `inv` and the residuals one batched product;
    the condition gate takes singular values only at the nodes its
    Frobenius bound does not clear (`solve_stack`), and `NodePropagator.cond`
    takes them when it is read.  The peak
    holds about four (K, size) block stacks, chi's two node sums and chi,
    then the operator, its inverse and their product, whatever K (4.10 at
    n = 2, K = 128, and 4.06 at K = 1024); the result keeps two of them,
    the kernels and the operator.
    Every node is attempted; if any fails, one `SingularOperatorError`
    names all the failed nodes.
    """
    grid = chi.grid
    if grid.eta <= 0:
        raise DampolError("grid eta must be positive to pick a side of the cut")
    blocks, residual, failures, operator = solve_stack(chi, grid.nodes - 1j * grid.eta)
    if failures:
        raise SingularOperatorError(f"sweep failed at indices {sorted(failures)}: {failures}")
    return NodePropagator(chi=chi, blocks=blocks, residual=residual, operator=operator)
