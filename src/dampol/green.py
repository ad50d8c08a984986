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
from .errors import DampolError, SingularOperatorError
from .lattice import FrequencyGrid, Lattice, TensorKernel
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


def solve_green(chi: Susceptibility, z: complex, lattice: Lattice | None = None) -> GreenKernel:
    """Solve the defining wave equation for the propagator at z.

    z must sit off the real axis; pick a side of the cut explicitly via the
    susceptibility's eta.  Near-singular systems (condition number beyond
    `COND_LIMIT`) raise instead of returning a silently regularized kernel.
    """
    z = complex(z)
    lattice = lattice or chi.lattice
    if z.imag == 0.0:
        raise DampolError("solve_green needs Im z != 0; offset by the grid eta to pick a side")
    w_kernel = wave_operator(chi.at(z), z, lattice)
    mat = lattice.cell_volume * w_kernel.mat   # matrix form of the operator
    cond = float(np.linalg.cond(mat))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularOperatorError(
            f"wave operator at z = {z} is near-singular (cond = {cond:.3e}); "
            "increase eta or move z", cond=cond)
    g = TensorKernel(lattice, np.linalg.inv(mat) / lattice.cell_volume)
    ident = TensorKernel.identity(lattice)
    residual = ((g @ w_kernel) - ident).norm() / ident.norm()
    if residual > TOL_SOLVE:
        raise SingularOperatorError(
            f"solve at z = {z} left relative residual {residual:.3e} > {TOL_SOLVE}",
            cond=cond)
    return GreenKernel(kernel=g, z=z, eta_used=abs(z.imag), chi_ref=chi,
                       residual=residual, cond=cond)


def defining_residual(green: GreenKernel) -> float:
    """Relative residual of the (right-composed) defining equation."""
    lattice = green.lattice
    w_kernel = wave_operator(green.chi_ref.at(green.z), green.z, lattice)
    ident = TensorKernel.identity(lattice)
    return ((green.kernel @ w_kernel) - ident).norm() / ident.norm()


def verify_adjoint(green: GreenKernel, chi: Susceptibility | None = None) -> float:
    """Residual of the adjoint equation (double curl on the unprimed argument).

    The adjoint equation is a consequence of the susceptibility's
    transpose-reversal symmetry, so it is evaluated with the reflected
    kernel chi(-z)^T; a symmetry-broken susceptibility is flagged here.
    """
    chi = chi or green.chi_ref
    lattice = green.lattice
    z = green.z
    zsq = (z / C_LIGHT) ** 2
    chi_reflected = chi.at(-z).T
    g = green.kernel
    lhs_mat = (-lattice.double_curl_matrix @ g.mat
               + zsq * (g.mat + lattice.cell_volume * chi_reflected.mat @ g.mat))
    ident = TensorKernel.identity(lattice)
    return (TensorKernel(lattice, lhs_mat) - ident).norm() / ident.norm()


def verify_reciprocity(chi: Susceptibility, z: complex) -> float:
    """Transpose-reversal residual, from two independent solves at +-z."""
    here = solve_green(chi, z)
    there = solve_green(chi, -z)
    scale = max(here.kernel.norm(), 1e-300)
    return (here.kernel.T - there.kernel).norm() / scale


def verify_conjugation(chi: Susceptibility, z: complex) -> float:
    """Conjugation-symmetry residual, from two independent solves."""
    here = solve_green(chi, z)
    there = solve_green(chi, -np.conj(z))
    scale = max(here.kernel.norm(), 1e-300)
    return (here.kernel.conj() - there.kernel).norm() / scale


@dataclass(frozen=True, eq=False)
class GreenSweep:
    """Order-preserving batch of solves; per-point failures do not abort."""

    z_values: list
    entries: list          # GreenKernel or None per z
    failures: dict         # index -> error message

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i) -> GreenKernel:
        entry = self.entries[i]
        if entry is None:
            raise SingularOperatorError(f"no solution at sweep index {i}: {self.failures[i]}")
        return entry

    @property
    def complete(self) -> bool:
        return not self.failures

    def require_complete(self):
        if self.failures:
            raise SingularOperatorError(f"sweep failed at indices {sorted(self.failures)}: {self.failures}")


def green_sweep(chi: Susceptibility, z_values) -> GreenSweep:
    """Solve the propagator at every requested point independently."""
    z_values = [complex(z) for z in z_values]
    entries, failures = [], {}
    for i, z in enumerate(z_values):
        try:
            entries.append(solve_green(chi, z))
        except DampolError as exc:
            entries.append(None)
            failures[i] = str(exc)
    return GreenSweep(z_values=z_values, entries=entries, failures=failures)


def sweep_at_nodes(chi: Susceptibility, side: int = -1) -> GreenSweep:
    """Sweep over the grid nodes at w_k + i * side * eta.

    The mode-kernel assembly wants the lower side (side = -1); the upper
    side follows from it by the adjoint, see `upper_from_lower`.
    """
    if side not in (+1, -1):
        raise DampolError("side must be +1 or -1")
    grid = chi.grid
    if grid.eta <= 0:
        raise DampolError("grid eta must be positive to pick a side of the cut")
    return green_sweep(chi, grid.nodes + 1j * side * grid.eta)


def require_node_sweep(grid: FrequencyGrid, sweep: GreenSweep):
    """Raise unless `sweep` holds a solve at every node just below the cut."""
    if len(sweep) != grid.n_nodes:
        raise DampolError(f"propagator sweep has {len(sweep)} entries for {grid.n_nodes} nodes")
    sweep.require_complete()
    expected = grid.nodes - 1j * grid.eta
    zs = np.asarray(sweep.z_values)
    if not np.allclose(zs, expected, rtol=0, atol=1e-12 * max(1.0, grid.omega_max)):
        raise DampolError("sweep points do not match the grid nodes just below the cut")


def upper_from_lower(green: GreenKernel) -> TensorKernel:
    """Propagator just above the cut from the solve just below it.

    Conjugation plus reciprocity give G(w + i eta) = G(w - i eta)^dagger,
    exactly at the discrete level.
    """
    return green.kernel.H
