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
from .lattice import Lattice, TensorKernel
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


def wave_operator(chi_kernel: TensorKernel, z: complex, lattice: Lattice) -> TensorKernel:
    """Kernel of the dispersive wave operator at frequency z."""
    zsq = (z / C_LIGHT) ** 2
    mat = -lattice.double_curl_matrix / lattice.cell_volume \
        + zsq * (np.eye(lattice.dim) / lattice.cell_volume + chi_kernel.mat)
    return TensorKernel(lattice, mat)


def solve_green(chi: Susceptibility, z: complex) -> GreenKernel:
    """Solve the defining wave equation for the propagator at z.

    z must sit off the real axis; pick a side of the cut explicitly via the
    susceptibility's eta.  Near-singular systems (condition number beyond
    `COND_LIMIT`) raise instead of returning a silently regularized kernel.
    The condition number is the 1-norm one, ||A||_1 ||A^-1||_1, read off the
    inverse the solve forms anyway; it lies within a factor dim of the
    2-norm (singular-value) condition number on either side.
    """
    z = complex(z)
    lattice = chi.lattice
    if z.imag == 0.0:
        raise DampolError("solve_green needs Im z != 0; offset by the grid eta to pick a side")
    w_kernel = wave_operator(chi.at(z), z, lattice)
    mat = lattice.cell_volume * w_kernel.mat   # matrix form of the operator
    try:
        inv = np.linalg.inv(mat)
        cond = float(np.linalg.norm(mat, 1) * np.linalg.norm(inv, 1))
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularOperatorError(
            f"wave operator at z = {z} is near-singular (cond = {cond:.3e}); "
            "increase eta or move z", cond=cond)
    g = TensorKernel(lattice, inv / lattice.cell_volume)
    ident = TensorKernel.identity(lattice)
    residual = ((g @ w_kernel) - ident).norm() / ident.norm()
    if residual > TOL_SOLVE:
        raise SingularOperatorError(
            f"solve at z = {z} left relative residual {residual:.3e} > {TOL_SOLVE}",
            cond=cond)
    return GreenKernel(kernel=g, z=z, eta_used=abs(z.imag), chi_ref=chi,
                       residual=residual, cond=cond)


def verify_adjoint(green: GreenKernel) -> float:
    """Residual of the adjoint equation (double curl on the unprimed argument).

    The adjoint equation is a consequence of the susceptibility's
    transpose-reversal symmetry, so it is evaluated with the reflected
    kernel chi(-z)^T; a symmetry-broken susceptibility is flagged here.
    """
    reflected = wave_operator(green.chi_ref.at(-green.z).T, green.z, green.lattice)
    ident = TensorKernel.identity(green.lattice)
    return ((reflected @ green.kernel) - ident).norm() / ident.norm()


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
    cut by construction.  The solves were made with `chi`, whose source is
    the coupling that every consumer contracts the propagator with; the
    upper side is the exact adjoint, G(w + i eta) = G(w - i eta)^dagger.
    """

    chi: Susceptibility
    solves: tuple          # GreenKernel per node, in node order

    @property
    def coupling(self) -> CouplingTensor:
        return self.chi.source


def node_propagator(chi: Susceptibility) -> NodePropagator:
    """Solve the propagator at every grid node w_k - i eta.

    Every node is attempted; if any fails, one `SingularOperatorError`
    names all the failed nodes.
    """
    grid = chi.grid
    if grid.eta <= 0:
        raise DampolError("grid eta must be positive to pick a side of the cut")
    solves, failures = [], {}
    for i, z in enumerate(grid.nodes - 1j * grid.eta):
        try:
            solves.append(solve_green(chi, z))
        except DampolError as exc:
            failures[i] = str(exc)
    if failures:
        raise SingularOperatorError(f"sweep failed at indices {sorted(failures)}: {failures}")
    return NodePropagator(chi=chi, solves=tuple(solves))
