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
from .lattice import Lattice, TensorKernel, sq_norms
from .susceptibility import Susceptibility

#: relative residual every emitted kernel must satisfy
TOL_SOLVE = 1e-10

#: condition-number ceiling; beyond it the system counts as singular
COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class GreenKernel:
    """Solved propagator kernel at one complex frequency."""

    kernel: TensorKernel
    z: complex
    eta_used: float
    chi_ref: Susceptibility
    residual: float
    cond: float

    @property
    def lattice(self) -> Lattice:
        return self.kernel.lattice


def wave_operator(chi_mats: np.ndarray, z, lattice: Lattice) -> np.ndarray:
    """Matrices of the dispersive wave operator kernel at the points z.

    `chi_mats` holds the susceptibility matrices at those points, (n, d, d)
    or one (d, d) matrix for a scalar z; the result has the same shape.
    """
    v = lattice.cell_volume
    zsq = (np.asarray(z) / C_LIGHT) ** 2
    out = chi_mats + np.eye(lattice.dim) / v
    out *= zsq[..., None, None]
    out -= lattice.double_curl_matrix / v
    return out


def _identity_residuals(prod: np.ndarray, v: float) -> np.ndarray:
    """|| prod_n - I / v || / || I / v || for each matrix of a stack; `prod` is overwritten."""
    d = prod.shape[-1]
    prod.reshape(len(prod), -1)[:, ::d + 1] -= 1.0 / v
    return np.sqrt(sq_norms(prod)) / np.linalg.norm(np.eye(d) / v)


def solve_stack(chi: Susceptibility, zs) -> tuple:
    """Solve the defining wave equation at every point of zs at once.

    Every point must sit off the real axis.  The inverses come from one
    batched `inv`; only when a point is exactly singular, which makes the
    batched call raise, are the points inverted one at a time to find it.
    The condition number is the 1-norm one, ||A||_1 ||A^-1||_1, read off the
    inverse the solve forms anyway; it lies within a factor dim of the
    2-norm (singular-value) condition number on either side.  Returns the
    kernel matrices (n, d, d), the relative residuals and condition numbers
    (n,), and a dict from the index of each failed point to its message: a
    point fails when its condition number is beyond `COND_LIMIT` or its
    residual beyond `TOL_SOLVE`.
    """
    zs = np.asarray(zs, dtype=complex)
    lattice = chi.lattice
    v = lattice.cell_volume
    mat = wave_operator(chi.stack(zs), zs, lattice)
    mat *= v   # matrix form of the operator
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        inv = np.empty_like(mat)
        for i, m in enumerate(mat):
            try:
                inv[i] = np.linalg.inv(m)
            except np.linalg.LinAlgError:
                inv[i] = np.nan   # an exactly singular point
    cond = np.abs(mat).sum(axis=-2).max(axis=-1) * np.abs(inv).sum(axis=-2).max(axis=-1)
    cond[np.isnan(cond)] = np.inf
    inv /= v   # the kernel matrices
    residual = _identity_residuals(inv @ mat, v)
    failures = {}
    for i, z in enumerate(zs.tolist()):
        if not cond[i] <= COND_LIMIT:
            failures[i] = (f"wave operator at z = {z} is near-singular (cond = {cond[i]:.3e}); "
                           "increase eta or move z")
        elif not residual[i] <= TOL_SOLVE:
            failures[i] = f"solve at z = {z} left relative residual {residual[i]:.3e} > {TOL_SOLVE}"
    return inv, residual, cond, failures


def solve_green(chi: Susceptibility, z: complex) -> GreenKernel:
    """Solve the defining wave equation for the propagator at z: `solve_stack` at one point.

    z must sit off the real axis; pick a side of the cut explicitly via the
    susceptibility's eta.  Near-singular systems (condition number beyond
    `COND_LIMIT`) raise instead of returning a silently regularized kernel.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise DampolError("solve_green needs Im z != 0; offset by the grid eta to pick a side")
    kernels, residual, cond, failures = solve_stack(chi, (z,))
    if failures:
        raise SingularOperatorError(failures[0], cond=float(cond[0]))
    return GreenKernel(kernel=TensorKernel(chi.lattice, kernels[0]), z=z, eta_used=abs(z.imag),
                       chi_ref=chi, residual=float(residual[0]), cond=float(cond[0]))


def verify_adjoint(green) -> float:
    """Residual of the adjoint equation (double curl on the unprimed argument).

    The adjoint equation is a consequence of the susceptibility's
    transpose-reversal symmetry, so it is evaluated with the reflected
    kernel chi(-z)^T; a symmetry-broken susceptibility is flagged here.
    `green` is one solve or a `NodePropagator`, whose nodes are checked as
    one stack; the worst residual is returned.
    """
    if isinstance(green, GreenKernel):
        chi, zs, kernels = green.chi_ref, np.array([green.z]), green.kernel.mat[None]
    else:
        chi, zs, kernels = green.chi, green.z, green.kernels
    reflected = wave_operator(chi.stack(-zs).transpose(0, 2, 1), zs, green.lattice)
    prod = reflected @ kernels
    prod *= green.lattice.cell_volume
    return float(_identity_residuals(prod, green.lattice.cell_volume).max())


def verify_reciprocity(green: GreenKernel) -> float:
    """Transpose-reversal residual of a solve against an independent solve at -z."""
    there = solve_green(green.chi_ref, -green.z)
    scale = max(green.kernel.norm(), 1e-300)
    return (green.kernel.T - there.kernel).norm() / scale


def verify_conjugation(green: GreenKernel) -> float:
    """Conjugation-symmetry residual of a solve against an independent solve at -conj(z)."""
    there = solve_green(green.chi_ref, -np.conj(green.z))
    scale = max(green.kernel.norm(), 1e-300)
    return (green.kernel.conj() - there.kernel).norm() / scale


@dataclass(frozen=True, eq=False)
class NodePropagator:
    """The propagator at every grid node just below the cut, G(w_k - i eta).

    Only `node_propagator` builds one, so it is complete and sits below the
    cut by construction.  It holds the (K, d, d) stack of kernel matrices
    and the (K,) residuals and condition numbers of the solves, made with
    `chi`, whose source is the coupling that every consumer contracts the
    propagator with; the upper side is the exact adjoint,
    G(w + i eta) = G(w - i eta)^dagger.
    """

    chi: Susceptibility
    kernels: np.ndarray    # (K, d, d), in node order
    residual: np.ndarray   # (K,)
    cond: np.ndarray       # (K,)

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

    chi at every node is one (2 K, K) @ (K, d^2) GEMM, the inverses one
    batched `inv` and the residuals one batched (K, d, d) product; the
    condition numbers are read off the stacks.  At most about four
    (K, d, d) stacks are live.  Every node is attempted; if any fails, one
    `SingularOperatorError` names all the failed nodes.
    """
    grid = chi.grid
    if grid.eta <= 0:
        raise DampolError("grid eta must be positive to pick a side of the cut")
    kernels, residual, cond, failures = solve_stack(chi, grid.nodes - 1j * grid.eta)
    if failures:
        raise SingularOperatorError(f"sweep failed at indices {sorted(failures)}: {failures}")
    return NodePropagator(chi=chi, kernels=kernels, residual=residual, cond=cond)
