"""Physical operators as linear bosonic forms over a mode family.

Every operator of the model is a linear combination of a mode family's
ladder operators (the model is quadratic, so this class is closed under
time evolution and commutators).  A form stores per-node coefficient
kernels; the pairing convention carries the quadrature weights and the
cell volume, i.e. the operator represented is

    O(r) = sum_l w_l v [ alpha_l C(w_l) + beta_l C^dag(w_l) ] .

Commutators therefore come out as c-number kernels computed exactly at the
discrete level.  Forms never materialize operators on a Fock space.

The coefficients are (K, size) block stacks in the layout of the coupling
they are built from, `CouplingTensor.layout`, which is the run's; the
checks run on every node at once, and a commutator is a (size,) block
kernel in the same layout.  A Hermitian operator stores only its annihilator
coefficients.  The oracle's quadratic forms share that layout and place the
forms' blocks in their canonical rows as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import C_LIGHT, HBAR, MU0
from .coupling import CouplingTensor, StructureTensor
from .errors import DampolError
from .green import NodePropagator
from .lattice import SectorLayout, sq_norms
from .susceptibility import Susceptibility

#: mode families a form can live over
BASIS_DIAGONAL = "diagonal"   # the modes that diagonalize the Hamiltonian
BASIS_MEDIUM = "medium"       # the bare medium modes


@dataclass(frozen=True, eq=False)
class LinearBosonicForm:
    """Coefficient kernels of an operator over a bosonic mode family, as blocks in `layout`,
    the layout of the coupling it is built from."""

    layout: SectorLayout
    grid: object
    alpha: np.ndarray   # (K, size), the annihilator coefficients
    basis: str
    creators: np.ndarray | None = None   # (K, size) beta; None for a Hermitian operator

    def __post_init__(self):
        shape = (self.grid.n_nodes, self.layout.size)
        for arr in (self.alpha, self.creators):
            if arr is not None and np.asarray(arr).shape != shape:
                raise DampolError(f"form coefficients must have shape {shape}")

    @property
    def beta(self) -> np.ndarray:
        """The creator coefficients, (K, size): of a Hermitian operator conj(alpha), formed on each read."""
        return self.alpha.conj() if self.creators is None else self.creators

    def dagger(self) -> "LinearBosonicForm":
        return replace(self, alpha=self.beta.conj(), creators=self.alpha.conj())

    def _check(self, other):
        if self.basis != other.basis:
            raise DampolError(f"forms live over different mode families: {self.basis} vs {other.basis}")
        if self.layout is not other.layout:
            raise DampolError("forms live in different kernel layouts")


def commutator(a: LinearBosonicForm, b: LinearBosonicForm) -> np.ndarray:
    """c-number commutator kernel of two forms over the same mode family, as (size,) blocks in their layout.

    The pair sums are taken on the blocks and nothing is rotated back: the
    layout basis is orthogonal, so the kernel's Frobenius norm is that of
    the blocks, and in kernel units that times the cell volume.
    """
    a._check(b)
    layout, w = a.layout, a.grid.weights
    flat = layout.pair_contract(w, a.alpha, b.beta)
    flat -= layout.pair_contract(w, a.beta, b.alpha)
    flat *= layout.lattice.cell_volume
    return flat


def _worst(num_sq: np.ndarray, den_sq: np.ndarray) -> float:
    """The largest per-node ratio sqrt(num_sq / den_sq), a zero scale counting as 1e-300."""
    return float(np.max(np.sqrt(num_sq) / np.maximum(np.sqrt(den_sq), 1e-300)))


# -- field operators over the diagonal modes ------------------------------


def field_forms(prop: NodePropagator) -> dict:
    """The physical field operators over the diagonal modes, by kind, in the propagator's layout.

    Kinds: vector potential ``A``, magnetic field ``B``, electric field
    ``E``, polarization density ``P``, noise polarization ``Pn``, and
    displacement ``D``.  All but ``Pn`` contract the coupling with the
    propagator above the cut, the exact adjoint of the solve below it; that
    product is formed once and freed.  Every input (the coupling, chi
    above the cut and the lattice operators) is blocks in the propagator's
    layout, the coupling's.  Each operator is Hermitian, so a form
    stores alpha alone; the six (K, size) block stacks of the result and
    the product set the peak.
    """
    layout = prop.layout
    grid = prop.coupling.grid
    v = layout.lattice.cell_volume
    nodes = grid.nodes[:, None]
    t_t = layout.transpose(prop.coupling.flat)
    mm = layout.matmul

    # G(w + i eta) o T-transpose contraction per node
    gt = mm(v * layout.transpose(prop.blocks).conj(), t_t)
    alphas = {
        "A": MU0 * HBAR * nodes * mm(layout.op("transverse_matrix"), gt),
        "B": MU0 * HBAR * nodes * mm(layout.op("curl_matrix"), gt),
        "E": 1j * MU0 * HBAR * nodes**2 * gt,
        "P": (1j * HBAR / C_LIGHT**2) * nodes**2 * mm(v * prop.chi.above_cut_blocks, gt)
             - 1j * HBAR * t_t,
        "Pn": -1j * HBAR * t_t,
        "D": 1j * HBAR * mm(layout.op("double_curl_matrix"), gt),
    }
    del gt
    return {kind: LinearBosonicForm(layout=layout, grid=grid, alpha=alpha, basis=BASIS_DIAGONAL)
            for kind, alpha in alphas.items()}


def vector_potential_route_defect(a_form: LinearBosonicForm, momentum: np.ndarray) -> float:
    """Relative mismatch between the propagator route and the inversion route.

    Inverting the diagonalizing transformation by the canonical commutators
    expresses the vector potential through the adjoint of the momentum
    coefficient family, (K, size) in the form's layout; both routes agree
    exactly at the discrete level.
    """
    # alpha^T - i hbar conj(momentum), the adjoint taken blockwise, in one (K, size) temporary
    diff = momentum.conj()
    diff *= 1j * HBAR
    np.subtract(a_form.layout.transpose(a_form.alpha), diff, out=diff)
    return float(np.linalg.norm(diff) / max(np.linalg.norm(a_form.alpha), 1e-300))


def longitudinal_defect(form: LinearBosonicForm) -> float:
    """The norm of the longitudinal part of a form's alpha, relative to alpha."""
    layout = form.layout
    part = layout.matmul(layout.op("longitudinal_matrix"), form.alpha)
    return float(np.linalg.norm(part) / max(np.linalg.norm(form.alpha), 1e-300))


def noise_mode_form(coupling: CouplingTensor, k: int) -> LinearBosonicForm:
    """Single-node noise polarization operator at node k.

    The 1/w_k undoes the quadrature weight of the pairing convention so the
    form represents the bare per-frequency operator.
    """
    grid, layout = coupling.grid, coupling.layout
    alpha = np.zeros((grid.n_nodes, layout.size), dtype=complex)
    alpha[k] = (-1j * HBAR / grid.weights[k]) * layout.transpose(coupling.flat[k])
    return LinearBosonicForm(layout=layout, grid=grid, alpha=alpha, basis=BASIS_DIAGONAL,
                             creators=np.zeros_like(alpha))


def noise_commutator_expected(coupling: CouplingTensor, k: int) -> np.ndarray:
    """Exact value of [Pn(w_k), Pn(w_k)^dag] from the cut discontinuity, (size,) blocks in the coupling's layout."""
    return (HBAR**2 / coupling.grid.weights[k]) * coupling.density[k]


def noise_commutator_residual(coupling: CouplingTensor, k: int) -> float:
    """Relative residual of [Pn(w_k), Pn(w_k)^dag] against its exact value, from the blocks."""
    pn = noise_mode_form(coupling, k)
    expected = noise_commutator_expected(coupling, k)
    diff = commutator(pn, pn.dagger())
    diff -= expected
    return float(np.linalg.norm(diff) / max(np.linalg.norm(expected), 1e-300))


# -- canonical matter operators over the medium modes ---------------------


def medium_polarization_form(coupling: CouplingTensor) -> LinearBosonicForm:
    """Polarization density expressed over the bare medium modes."""
    alpha = coupling.layout.transpose(coupling.flat)
    alpha *= -1j * HBAR
    return LinearBosonicForm(layout=coupling.layout, grid=coupling.grid, alpha=alpha, basis=BASIS_MEDIUM)


def medium_momentum_form(coupling: CouplingTensor, structure: StructureTensor) -> LinearBosonicForm:
    """Canonical momentum density conjugate to the polarization."""
    layout, v = coupling.layout, coupling.lattice.cell_volume
    tf = layout.matmul(v * coupling.flat, structure.inverse)
    alpha = layout.transpose(tf)
    alpha *= -coupling.grid.nodes[:, None]
    return LinearBosonicForm(layout=layout, grid=coupling.grid, alpha=alpha, basis=BASIS_MEDIUM)


# -- consistency checks ----------------------------------------------------


def constitutive_check(p_form: LinearBosonicForm, e_form: LinearBosonicForm,
                       pn_form: LinearBosonicForm, chi: Susceptibility) -> float:
    """Max relative residual of P = chi * E + Pn per node, above the cut.

    The forms and chi share one layout.  The time-domain convolution form of
    the causal response is equivalent to this per-node statement under the
    mode expansion (each node evolves with its own phase), so no separate
    time-domain check is performed.
    """
    pred = p_form.layout.matmul(chi.above_cut_blocks, e_form.alpha)
    pred *= p_form.layout.lattice.cell_volume
    pred += pn_form.alpha
    scale = np.maximum(sq_norms(p_form.alpha), sq_norms(pred))
    pred -= p_form.alpha
    return _worst(sq_norms(pred), scale)


def maxwell_check(b_form: LinearBosonicForm, d_form: LinearBosonicForm) -> float:
    """Max relative residual of curl B = mu0 dD/dt per node."""
    layout = b_form.layout
    lhs = layout.matmul(layout.op("curl_matrix"), b_form.alpha)
    rhs = (-1j * MU0 * b_form.grid.nodes)[:, None] * d_form.alpha
    scale = np.maximum(sq_norms(lhs), sq_norms(rhs))
    lhs -= rhs
    return _worst(sq_norms(lhs), scale)
