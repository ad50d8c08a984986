"""Physical operators as linear bosonic forms over a mode family.

Every operator of the model is a linear combination of a mode family's
ladder operators (the model is quadratic, so this class is closed under
time evolution and commutators).  A form stores per-node coefficient
kernels; the pairing convention carries the quadrature weights and the
cell volume, i.e. the operator represented is

    O(r) = sum_l w_l v [ alpha_l C(w_l) + beta_l C^dag(w_l) ] .

Commutators therefore come out as c-number kernels computed exactly at the
discrete level.  Forms never materialize operators on a Fock space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import C_LIGHT, HBAR, MU0
from .coupling import CouplingTensor, StructureTensor
from .errors import DampolError
from .green import NodePropagator
from .lattice import TensorKernel, pair_contract
from .susceptibility import Susceptibility

#: mode families a form can live over
BASIS_DIAGONAL = "diagonal"   # the modes that diagonalize the Hamiltonian
BASIS_MEDIUM = "medium"       # the bare medium modes


@dataclass(frozen=True, eq=False)
class LinearBosonicForm:
    """Coefficient kernels of an operator over a bosonic mode family."""

    lattice: object
    grid: object
    alpha: np.ndarray   # (K, 3M, 3M)
    beta: np.ndarray    # (K, 3M, 3M)
    basis: str
    label: str

    def __post_init__(self):
        shape = (self.grid.n_nodes, self.lattice.dim, self.lattice.dim)
        for arr in (self.alpha, self.beta):
            if np.asarray(arr).shape != shape:
                raise DampolError(f"form coefficients must have shape {shape}")

    def dagger(self) -> "LinearBosonicForm":
        return replace(self, alpha=self.beta.conj(), beta=self.alpha.conj(),
                       label=self.label + "^dag")

    def __add__(self, other: "LinearBosonicForm") -> "LinearBosonicForm":
        self._check(other)
        return replace(self, alpha=self.alpha + other.alpha, beta=self.beta + other.beta,
                       label=f"({self.label}+{other.label})")

    def __sub__(self, other):
        self._check(other)
        return replace(self, alpha=self.alpha - other.alpha, beta=self.beta - other.beta,
                       label=f"({self.label}-{other.label})")

    def __mul__(self, scalar):
        return replace(self, alpha=scalar * self.alpha, beta=np.conj(scalar) * self.beta,
                       label=self.label)

    __rmul__ = __mul__

    def _check(self, other):
        if self.basis != other.basis:
            raise DampolError(f"forms live over different mode families: {self.basis} vs {other.basis}")
        if not self.lattice.compatible(other.lattice):
            raise DampolError("forms live on incompatible lattices")


def time_derivative(form: LinearBosonicForm) -> LinearBosonicForm:
    nodes = form.grid.nodes
    return replace(form, alpha=(-1j * nodes)[:, None, None] * form.alpha,
                   beta=(1j * nodes)[:, None, None] * form.beta,
                   label="d/dt " + form.label)


def commutator(a: LinearBosonicForm, b: LinearBosonicForm) -> TensorKernel:
    """c-number commutator kernel of two forms over the same mode family."""
    a._check(b)
    v = a.lattice.cell_volume
    w = a.grid.weights
    mat = v * (pair_contract(w, a.alpha, b.beta) - pair_contract(w, a.beta, b.alpha))
    return TensorKernel(a.lattice, mat)


# -- field operators over the diagonal modes ------------------------------


def field_forms(prop: NodePropagator) -> dict:
    """The physical field operators over the diagonal modes, by kind.

    Kinds: vector potential ``A``, magnetic field ``B``, electric field
    ``E``, polarization density ``P``, noise polarization ``Pn``, and
    displacement ``D``.  All but ``Pn`` contract the coupling with the
    propagator above the cut, the exact adjoint of the solve below it; that
    product is formed once and freed before the conjugate halves are built.
    """
    coupling = prop.coupling
    lattice = coupling.lattice
    grid = coupling.grid
    v = lattice.cell_volume
    nodes = grid.nodes
    t_t = coupling.kernels.transpose(0, 2, 1)

    # G(w + i eta) o T-transpose contraction per node
    gt = v * prop.kernels.conj().transpose(0, 2, 1) @ t_t
    alphas = {
        "A": MU0 * HBAR * nodes[:, None, None] * (lattice.transverse_matrix @ gt),
        "B": MU0 * HBAR * nodes[:, None, None] * (lattice.curl_matrix @ gt),
        "E": 1j * MU0 * HBAR * (nodes**2)[:, None, None] * gt,
        "P": (1j * HBAR / C_LIGHT**2) * (nodes**2)[:, None, None] * (v * prop.chi.above_cut @ gt)
             - 1j * HBAR * t_t,
        "Pn": -1j * HBAR * t_t,
        "D": 1j * HBAR * (lattice.double_curl_matrix @ gt),
    }
    del gt
    return {kind: LinearBosonicForm(lattice=lattice, grid=grid, alpha=alpha, beta=alpha.conj(),
                                    basis=BASIS_DIAGONAL, label=kind)
            for kind, alpha in alphas.items()}


def vector_potential_route_defect(a_form: LinearBosonicForm, momentum: np.ndarray) -> float:
    """Relative mismatch between the propagator route and the inversion route.

    Inverting the diagonalizing transformation by the canonical commutators
    expresses the vector potential through the adjoint of the momentum
    coefficient family (K, d, d); both routes agree exactly at the discrete
    level.
    """
    # alpha - i hbar momentum^dagger, formed transposed in one (K, d, d) temporary
    diff = momentum.conj()
    diff *= 1j * HBAR
    np.subtract(a_form.alpha.transpose(0, 2, 1), diff, out=diff)
    scale = max(np.linalg.norm(a_form.alpha), 1e-300)
    return float(np.linalg.norm(diff) / scale)


def noise_mode_form(coupling: CouplingTensor, k: int) -> LinearBosonicForm:
    """Single-node noise polarization operator at node k.

    The 1/w_k undoes the quadrature weight of the pairing convention so the
    form represents the bare per-frequency operator.
    """
    grid = coupling.grid
    d = coupling.lattice.dim
    alpha = np.zeros((grid.n_nodes, d, d), dtype=complex)
    alpha[k] = -1j * HBAR * coupling.kernels[k].T / grid.weights[k]
    beta = np.zeros_like(alpha)
    return LinearBosonicForm(lattice=coupling.lattice, grid=grid, alpha=alpha, beta=beta,
                             basis=BASIS_DIAGONAL, label=f"Pn[{k}]")


def noise_commutator_expected(coupling: CouplingTensor, k: int) -> TensorKernel:
    """Exact value of [Pn(w_k), Pn(w_k)^dag] from the cut discontinuity."""
    dens = coupling.spectral_density(k)
    return (HBAR**2 / coupling.grid.weights[k]) * dens


def noise_commutator_residual(coupling: CouplingTensor, k: int) -> float:
    """Relative residual of [Pn(w_k), Pn(w_k)^dag] against its exact value."""
    pn = noise_mode_form(coupling, k)
    expected = noise_commutator_expected(coupling, k)
    return (commutator(pn, pn.dagger()) - expected).norm() / max(expected.norm(), 1e-300)


# -- canonical matter operators over the medium modes ---------------------


def medium_polarization_form(coupling: CouplingTensor) -> LinearBosonicForm:
    """Polarization density expressed over the bare medium modes."""
    t_t = coupling.kernels.transpose(0, 2, 1)
    alpha = -1j * HBAR * t_t
    return LinearBosonicForm(lattice=coupling.lattice, grid=coupling.grid,
                             alpha=alpha, beta=alpha.conj(), basis=BASIS_MEDIUM, label="P")


def medium_momentum_form(coupling: CouplingTensor, structure: StructureTensor) -> LinearBosonicForm:
    """Canonical momentum density conjugate to the polarization."""
    finv = structure.inverse
    v = coupling.lattice.cell_volume
    nodes = coupling.grid.nodes
    tf = v * coupling.kernels @ finv.mat[None]
    alpha = -nodes[:, None, None] * tf.transpose(0, 2, 1)
    return LinearBosonicForm(lattice=coupling.lattice, grid=coupling.grid,
                             alpha=alpha, beta=alpha.conj(), basis=BASIS_MEDIUM, label="W")


def medium_mode_form(coupling: CouplingTensor, k: int) -> LinearBosonicForm:
    """The bare medium annihilation operator at node k, as a form."""
    grid = coupling.grid
    d = coupling.lattice.dim
    v = coupling.lattice.cell_volume
    alpha = np.zeros((grid.n_nodes, d, d), dtype=complex)
    alpha[k] = np.eye(d) / (v * grid.weights[k])
    return LinearBosonicForm(lattice=coupling.lattice, grid=grid, alpha=alpha,
                             beta=np.zeros_like(alpha), basis=BASIS_MEDIUM, label=f"Cm[{k}]")


# -- consistency checks ----------------------------------------------------


def constitutive_check(p_form: LinearBosonicForm, e_form: LinearBosonicForm,
                       pn_form: LinearBosonicForm, chi: Susceptibility) -> float:
    """Max relative residual of P = chi * E + Pn per node, above the cut.

    The time-domain convolution form of the causal response is equivalent
    to this per-node statement under the mode expansion (each node evolves
    with its own phase), so no separate time-domain check is performed.
    """
    grid = p_form.grid
    v = p_form.lattice.cell_volume
    worst = 0.0
    for l in range(grid.n_nodes):
        pred = v * chi.above_cut[l] @ e_form.alpha[l] + pn_form.alpha[l]
        scale = max(np.linalg.norm(p_form.alpha[l]), np.linalg.norm(pred), 1e-300)
        worst = max(worst, np.linalg.norm(p_form.alpha[l] - pred) / scale)
    return worst


def maxwell_check(b_form: LinearBosonicForm, d_form: LinearBosonicForm) -> float:
    """Max relative residual of curl B = mu0 dD/dt per node."""
    grid = b_form.grid
    lattice = b_form.lattice
    curl = lattice.curl_matrix
    worst = 0.0
    for l in range(grid.n_nodes):
        lhs = curl @ b_form.alpha[l]
        rhs = MU0 * (-1j * grid.nodes[l]) * d_form.alpha[l]
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
        worst = max(worst, np.linalg.norm(lhs - rhs) / scale)
    return worst
