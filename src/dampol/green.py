"""Dyadic Green function of the dispersive wave equation on the lattice.

The defining equation (double curl acting on the primed argument) becomes a
dense linear system in the kernel representation; each evaluation point is
factorized directly, so residuals are machine-level and ill-conditioned
systems are rejected instead of silently regularized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .coupling import CouplingTensor
from .errors import DampolError, SingularOperatorError
from .lattice import Lattice, SectorLayout, sq_norms
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


def solve_stack(chi: Susceptibility, zs) -> tuple:
    """Solve the defining wave equation at every point of zs at once, in `chi.layout`.

    Every point must sit off the real axis.  The inverses come from one
    batched `inv` per block size; only when a point is exactly singular,
    which makes the batched call raise, are the points inverted one at a
    time to find it.  The condition number is the 2-norm one, sigma_max /
    sigma_min over the union of a point's blocks, as in
    `bath.require_invertible`; it is infinite at an exactly singular or a
    non-finite point.  Returns the kernel blocks (n, size), the relative
    residuals and condition numbers (n,), a dict from the index of each
    failed point to its message, and the operator's matrix form v W(z) at
    the points (n, size), which the kernels invert.  A point fails when dim
    times its condition number, a bound of the 1-norm one, is beyond
    `COND_LIMIT` or its residual beyond `TOL_SOLVE`.
    """
    zs = np.asarray(zs, dtype=complex)
    layout = chi.layout
    v, dim = layout.lattice.cell_volume, layout.lattice.dim
    mat = wave_operator(chi.blocks_at(zs), zs, layout)
    mat *= v   # matrix form of the operator
    try:
        inv = layout.inv(mat)
    except np.linalg.LinAlgError:
        inv = np.empty_like(mat)
        for i, m in enumerate(mat):
            try:
                inv[i] = layout.inv(m)
            except np.linalg.LinAlgError:
                inv[i] = np.nan   # an exactly singular point
    cond = np.full(len(mat), np.inf)   # at an exactly singular or a non-finite point
    ok = np.isfinite(mat).all(axis=-1) & np.isfinite(inv).all(axis=-1)
    sv = layout.svdvals(mat if ok.all() else mat[ok])
    cond[ok] = sv.max(axis=-1) / sv.min(axis=-1)
    inv /= v   # the kernel matrices
    residual = _identity_residuals(layout.matmul(inv, mat), layout, v)
    failures = {}
    for i, z in enumerate(zs.tolist()):
        if not dim * cond[i] <= COND_LIMIT:
            failures[i] = (f"wave operator at z = {z} is near-singular (cond = {cond[i]:.3e}); "
                           f"dim * cond is beyond {COND_LIMIT:.0e}; increase eta or move z")
        elif not residual[i] <= TOL_SOLVE:
            failures[i] = f"solve at z = {z} left relative residual {residual[i]:.3e} > {TOL_SOLVE}"
    return inv, residual, cond, failures, mat


def solve_green(chi: Susceptibility, zs) -> np.ndarray:
    """The propagator at the points zs as (n, size) blocks in `chi.layout`: `solve_stack` that raises.

    Every z must sit off the real axis; pick a side of the cut explicitly via
    the susceptibility's eta.  A failed point (dim times its condition
    number beyond `COND_LIMIT`, or residual beyond `TOL_SOLVE`) raises for
    the first one instead of returning a silently regularized kernel.
    """
    zs = np.asarray(zs, dtype=complex)
    if np.any(zs.imag == 0.0):
        raise DampolError("solve_green needs Im z != 0; offset by the grid eta to pick a side")
    blocks, _, cond, failures, _ = solve_stack(chi, zs)
    if failures:
        first = min(failures)
        raise SingularOperatorError(failures[first], cond=float(cond[first]))
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
    `chi.layout` and the (K,) residuals and condition numbers of the solves,
    made with `chi`, whose source is the coupling that every consumer
    contracts the propagator with, and the operator blocks the solves
    inverted, which `diagonalize.wave_diagnostic` reads; the upper side is
    the exact adjoint, G(w + i eta) = G(w - i eta)^dagger.  Every consumer
    reads the blocks as they are: `chi.layout` is the coupling's, the run's.
    """

    chi: Susceptibility
    blocks: np.ndarray     # (K, size), in node order
    residual: np.ndarray   # (K,)
    cond: np.ndarray       # (K,)
    operator: np.ndarray   # (K, size), v W(z_k): the wave operator the solves inverted

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
    one batched `inv` per block size and the residuals one batched product;
    the condition numbers are one batched SVD per block size.  The peak
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
    blocks, residual, cond, failures, operator = solve_stack(chi, grid.nodes - 1j * grid.eta)
    if failures:
        raise SingularOperatorError(f"sweep failed at indices {sorted(failures)}: {failures}")
    return NodePropagator(chi=chi, blocks=blocks, residual=residual, cond=cond, operator=operator)
