"""Nonlocal anisotropic susceptibility and its causality structure.

The susceptibility is assembled as a node sum over the coupling's spectral
densities, is analytic off the real axis, and jumps across a cut on the
real frequency line.  The discontinuity is always computed directly from
the coupling (never by subtracting two regularized evaluations), so the
dissipative part carries no regularization error.  The sum rules and the
asymptote read the coupling's moments (`CouplingTensor.moments`), as the
structure tensor does; `chi_stack` and the Kramers-Kronig check stay
independent.  Every point check evaluates its points as one stack of blocks
in the coupling's layout, `CouplingTensor.layout`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import EPS0, HBAR
from .coupling import CouplingTensor, StructureTensor
from .errors import PoleError
from .lattice import SectorLayout, cauchy_sum, rel_norms, unit_scale


def chi_stack(coupling: CouplingTensor, zs) -> np.ndarray:
    """The susceptibility kernels at the complex frequencies zs, as (n, size) blocks in the coupling's layout.

    The blocks are summed from the coupling's density blocks: both node sums
    of every point come from one `cauchy_sum`, a (2 n, K) @ (K, size) GEMM
    whose coefficient rows are formed a bounded chunk at a time, so the two
    (n, size) node sums, the result and one chunk are live.  For real z the
    evaluation is only defined away from the quadrature nodes; use an
    explicit imaginary offset to pick a side of the cut.
    """
    zs = np.asarray(zs, dtype=complex)
    n, nodes = zs.size, coupling.grid.nodes
    on_axis = zs.real[zs.imag == 0.0]
    if on_axis.size:
        poles = on_axis[np.isclose(on_axis[:, None], nodes, rtol=0, atol=1e-14).any(axis=1)]
        if poles.size:
            raise PoleError(f"z = {complex(poles[0])} sits on a quadrature node; "
                            "offset it from the real axis")
    # sum_k c_k conj(D_k) = conj(sum_k conj(c_k) D_k) with conj(w_k / (w_k + z))
    # = w_k / (w_k - (-conj z)): both node sums of a point in one GEMM
    both = cauchy_sum(nodes, coupling.grid.weights, np.concatenate([zs, -zs.conj()]), coupling.density)
    mat = coupling.layout.conj(both[n:])
    mat += both[:n]
    mat *= HBAR / EPS0
    return mat


def discontinuity(coupling: CouplingTensor) -> np.ndarray:
    """Exact cut discontinuity at every quadrature node, as (K, size) blocks in the coupling's layout."""
    return (2.0j * np.pi * HBAR / EPS0) * coupling.density


@dataclass(frozen=True, eq=False)
class Susceptibility:
    """Evaluator wrapper around a coupling tensor, with a fixture hook.

    `perturbation`, when set, is (size,) blocks in the source's layout
    added to every evaluation; it exists so verification suites can inject
    symmetry violations and confirm the downstream checks catch them.
    """

    source: CouplingTensor
    perturbation: np.ndarray | None = field(default=None)

    @property
    def lattice(self):
        return self.source.lattice

    @property
    def grid(self):
        return self.source.grid

    @property
    def eta(self) -> float:
        return self.source.grid.eta

    @property
    def layout(self) -> SectorLayout:
        """The kernel layout of everything solved with this susceptibility: the source's."""
        return self.source.layout

    def blocks_at(self, zs) -> np.ndarray:
        """The evaluations at the points zs in `layout`, perturbation included, (n, size)."""
        out = chi_stack(self.source, zs)
        if self.perturbation is not None:
            out += self.perturbation
        return out

    @cached_property
    def above_cut_blocks(self) -> np.ndarray:
        """chi(w_k + i eta) at every node in `layout`, perturbation included: read-only (K, size).

        The bath coefficients, the linkage check, the polarization form and
        the constitutive check read these values, so each is evaluated once
        per susceptibility.
        """
        blocks = self.blocks_at(self.grid.nodes + 1j * self.eta)
        blocks.flags.writeable = False
        return blocks

    def perturbed(self, dense: np.ndarray) -> "Susceptibility":
        """chi plus the operator of `dense`, its (d*d,) `Lattice.one_block` blocks, at every point,
        in the layout of the leak of both.

        A perturbation that leaks across momentum sectors, as a
        symmetry-violating one does, makes the run dense: the source is
        re-laid into `Lattice.one_block` once, carrying that leak
        (`Lattice.leak`) as its `sector_leak`, and every kernel derived from
        it follows.
        """
        lat, source = self.lattice, self.source
        leak = max(source.sector_leak, lat.leak(dense))
        layout = lat.layout(leak)
        if layout is not source.layout:
            source = source.relaid(layout, leak)
        return Susceptibility(source=source, perturbation=lat.one_block.relay(dense, layout))


def verify_kramers_kronig(chi: Susceptibility, zs) -> float:
    """Worst relative residual of the cut representation of chi's source over the points zs.

    Both sides are evaluated with the same node sums, as one stack of blocks
    in `chi.layout`, so the residual is a machine-precision identity check,
    not a quadrature-accuracy statement.
    """
    zs = np.asarray(zs, dtype=complex)
    if np.any(zs.imag == 0.0):
        raise PoleError("the cut representation check needs Im z != 0")
    coupling, nodes, w = chi.source, chi.grid.nodes, chi.grid.weights
    lhs = chi_stack(coupling, zs)
    disc = discontinuity(coupling)
    # w_k / (-w_k - z) = -w_k / (w_k - (-z))
    rhs = (cauchy_sum(nodes, w, zs, disc) - cauchy_sum(nodes, w, -zs, chi.layout.conj(disc))) / (2.0j * np.pi)
    return float(rel_norms(lhs - rhs, lhs).max())


@dataclass(frozen=True)
class SumRuleReport:
    """Relative residuals of the three cut-moment sum rules."""

    moment0: float
    moment1: float
    moment2: float

    def max_residual(self) -> float:
        return max(self.moment0, self.moment1, self.moment2)


def verify_sum_rules(coupling: CouplingTensor, structure: StructureTensor) -> SumRuleReport:
    """Moments of the cut discontinuity over the whole real line.

    The n-th moment is 2 pi i hbar/eps0 (s_n - (-1)^n conj(s_n)), and the
    factor cancels in every ratio.  The zeroth and second must vanish, the
    first reproduces the structure tensor; all three close exactly for
    Lagrangian-built couplings.  Every operator is a (size,) block row in
    the coupling's layout, whose norm is the operator's, and is scaled by
    one power of two (`unit_scale`) before its norm is taken, so a tiny
    coupling's squares do not underflow to a vacuous zero.
    """
    mom, mat = coupling.moments, structure.blocks
    gap = mom.structure_gap(mat)
    unit = unit_scale(max(float(np.abs(a).max(initial=0.0)) for a in (mat, mom.imag0, gap, mom.imag2)))
    scale = max(float(np.linalg.norm(unit * mat)), 1e-300)
    return SumRuleReport(
        moment0=2.0 * float(np.linalg.norm(unit * mom.imag0)) / scale,
        moment1=float(np.linalg.norm(unit * gap)) / scale,
        moment2=2.0 * float(np.linalg.norm(unit * mom.imag2)) / scale / max(coupling.grid.omega_max**2, 1.0),
    )


def asymptote_residual(coupling: CouplingTensor, structure: StructureTensor, z: complex) -> float:
    """Correction to the leading large-|z| asymptote, in structure-tensor units.

    Doubling |z| should shrink this number by about 16.  The correction
    chi(z) + (hbar/eps0) S/z^2 to the leading form is formed as its exact
    moment expansion,

        (hbar/eps0) [-m0/z - (m1 - S)/z^2 - m2/z^3
                     + sum_k wt_k w_k^3 (D_k/(w_k - z) - conj(D_k)/(w_k + z)) / z^3],

    with m_n = s_n - (-1)^n conj(s_n) from the coupling's moments and S the
    structure-tensor kernel.  Nothing cancels between the resonant and
    antiresonant sums, and no sum rule is assumed: a coupling that breaks one
    shows in the 1/z to 1/z^3 terms.  The one cancellation left, m1 - S, is
    the moments' exact `structure_gap`, so the value is the correction for
    the given S to round-off, whatever the node order.
    """
    z = complex(z)
    nodes, w, v = coupling.grid.nodes, coupling.grid.weights, coupling.lattice.cell_volume
    dens, mom = coupling.density, coupling.moments
    # sum_k c_k conj(D_k) = conj(sum_k conj(c_k) D_k) with conj(c_k / (w_k + z))
    # = c_k / (w_k - (-conj z)): both tail sums in one GEMM
    tail_res, tail_anti = cauchy_sum(nodes, w * nodes**3, np.array([z, -z.conjugate()]), dens)
    corr = -2j * mom.imag0 / z - mom.structure_gap(structure.blocks) / z**2 \
        + (tail_res - coupling.layout.conj(tail_anti) - 2j * mom.imag2) / z**3
    scale = v * float(np.linalg.norm(structure.blocks))
    return v * float(np.linalg.norm((HBAR / EPS0) * corr)) / max(scale, 1e-300)


def reflection_residuals(layout: SectorLayout, evaluate, zs) -> dict:
    """Worst transpose-reversal and conjugation residuals of a kernel function over the points zs.

    `evaluate` maps (m,) points to their (m, size) blocks in `layout`; it is
    called once, on zs, -zs and -conj(zs) as one stack.  The full matrix
    transpose of a kernel swaps positions and components jointly, which is
    how the reversal symmetry is stated; both it and the conjugate are the
    layout's (`SectorLayout.transpose`, `SectorLayout.conj`).
    """
    zs = np.asarray(zs, dtype=complex)
    here, minus, mirror = np.split(evaluate(np.concatenate([zs, -zs, -zs.conj()])), 3)
    minus -= layout.transpose(here)
    mirror -= layout.conj(here)
    return {"transpose": float(rel_norms(minus, here).max()),
            "conjugation": float(rel_norms(mirror, here).max())}
