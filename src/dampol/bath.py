"""Bath sector of the medium: the degrees of freedom beyond the canonical pair.

The medium modes carry many more degrees of freedom than the polarization
density and its conjugate momentum; the remainder forms a bath (part of the
medium itself, not an external environment) responsible for dissipation.
This module constructs the bath ladder coefficients in the gauge where the
frequency-diagonal coefficient is the inverse transposed coupling, verifies
their independence from the canonical pair and their canonical algebra, and
rewrites the Hamiltonian in bath form to compare against the direct
assembly.

Every bath coefficient comes from one per-node row builder,
`BathCoefficients.rows` (plus `delta_row` for the Kronecker part); the bath
mode forms and the bath-form Hamiltonian both read it.  Independence is
evaluated once, by collapsed quadrature sums; the generic form-commutator
route runs at node 0 only, as a cross-check of that evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import EPS0, HBAR, MU0
from .coupling import INVERTIBILITY_RTOL, CouplingTensor, StructureTensor
from .errors import SingularOperatorError
from .fields import BASIS_MEDIUM, LinearBosonicForm, commutator, medium_polarization_form
from .lattice import TensorKernel
from .oracle import QuadraticHamiltonian, _polarization_rows, _momentum_density_rows
from .susceptibility import Susceptibility, discontinuity_at_node


@dataclass(frozen=True, eq=False)
class BathCoefficients:
    """Per-node coefficient kernels of the bath ladder operators.

    `delta_coeff` multiplies the frequency delta (it equals the inverse of
    the transposed coupling in the chosen gauge); `pole_coeff` multiplies
    the resolvent pole and is tied to `delta_coeff` through the
    susceptibility linkage, exactly at the nodes.
    """

    lattice: object
    grid: object
    delta_coeff: np.ndarray   # (K, d, d)
    pole_coeff: np.ndarray    # (K, d, d)
    eta: float

    def rows(self, coupling: CouplingTensor, k: int) -> tuple:
        """Pair rows of node k over every node l, (K, d, d) each.

        The co-rotating row multiplies the medium annihilators (regular
        part), the counter-rotating row the creators.  Both come from one
        GEMM of the pole coefficient against the stacked [T; T*] kernels.
        """
        K, d, v = self.grid.n_nodes, self.lattice.dim, self.lattice.cell_volume
        nodes = self.grid.nodes
        # second-argument contractions: [b, (s, l, a)] = [T; T*](w_l)[a, b]
        stacked = np.concatenate([coupling.kernels, coupling.kernels.conj()])
        flat = stacked.transpose(2, 0, 1).reshape(d, 2 * K * d)
        co, counter = (v * self.pole_coeff[k] @ flat).reshape(d, 2, K, d).transpose(1, 2, 0, 3)
        pole = 1.0 / (nodes[k] - nodes + 1j * self.eta)
        anti = -1.0 / (nodes[k] + nodes)
        return pole[:, None, None] * co, anti[:, None, None] * counter

    def delta_row(self, coupling: CouplingTensor, k: int) -> np.ndarray:
        """Kernel multiplying the node Kronecker in the annihilator pairing."""
        return self.lattice.cell_volume * self.delta_coeff[k] @ coupling.kernels[k].T

    def perturbed_delta(self, scale: float) -> "BathCoefficients":
        """Violator fixture: rescale the frequency-diagonal coefficient."""
        return replace(self, delta_coeff=scale * self.delta_coeff)


def bath_coefficients(coupling: CouplingTensor, chi: Susceptibility) -> BathCoefficients:
    """Construct the bath coefficients in the inverse-coupling gauge.

    Requires the coupling kernel and the susceptibility just above the cut
    to be invertible at every node; degenerate nodes raise with the node
    named rather than silently pseudo-inverting.
    """
    lattice, grid = coupling.lattice, coupling.grid
    K, d, v = grid.n_nodes, lattice.dim, lattice.cell_volume
    delta_coeff = np.empty((K, d, d), dtype=complex)
    pole_coeff = np.empty((K, d, d), dtype=complex)
    for k in range(K):
        tmat = coupling.kernels[k]
        sv = np.linalg.svd(tmat, compute_uv=False)
        if sv[-1] <= INVERTIBILITY_RTOL * sv[0] or sv[0] == 0.0:
            raise SingularOperatorError(
                f"coupling kernel not invertible at node {k} "
                f"(singular-value ratio {sv[-1] / max(sv[0], 1e-300):.3e})",
                cond=sv[0] / max(sv[-1], 1e-300), node=k)
        delta_coeff[k] = np.linalg.inv(tmat.T) / v**2
        chi_up = chi.at(grid.nodes[k] + 1j * grid.eta).mat
        svc = np.linalg.svd(chi_up, compute_uv=False)
        if svc[-1] <= INVERTIBILITY_RTOL * svc[0] or svc[0] == 0.0:
            raise SingularOperatorError(
                f"susceptibility not invertible at node {k}", node=k)
        chi_inv = np.linalg.inv(chi_up) / v**2
        pole_coeff[k] = (HBAR / EPS0) * v * tmat.conj() @ chi_inv
    return BathCoefficients(lattice=lattice, grid=grid, delta_coeff=delta_coeff,
                            pole_coeff=pole_coeff, eta=grid.eta)


def verify_linkage(bath: BathCoefficients, coupling: CouplingTensor,
                   chi: Susceptibility) -> float:
    """Residual of the pole-coefficient linkage at the nodes (definitional)."""
    grid = coupling.grid
    v = coupling.lattice.cell_volume
    worst = 0.0
    for k in range(grid.n_nodes):
        chi_up = chi.at(grid.nodes[k] + 1j * grid.eta).mat
        lhs = v * bath.pole_coeff[k] @ chi_up
        disc = discontinuity_at_node(coupling, k).mat
        rhs = (1.0 / (2.0j * np.pi)) * v * bath.delta_coeff[k] @ disc
        worst = max(worst, np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300))
    return worst


def bath_mode_form(bath: BathCoefficients, coupling: CouplingTensor, k: int) -> LinearBosonicForm:
    """The bath annihilator at node k as a form over the medium modes."""
    alpha, beta = bath.rows(coupling, k)
    alpha[k] += bath.delta_row(coupling, k) / coupling.grid.weights[k]
    return LinearBosonicForm(lattice=coupling.lattice, grid=coupling.grid, alpha=alpha,
                             beta=beta, basis=BASIS_MEDIUM, label=f"Cb[{k}]")


def verify_bath_independence(bath: BathCoefficients, coupling: CouplingTensor,
                             structure: StructureTensor) -> dict:
    """Residuals of the bath's commutation with the canonical pair.

    The production route collapses each commutator into kernel quadrature
    sums over the spectral densities, one GEMM per node.  The generic
    form-commutator route is evaluated once, for the polarization at node 0,
    and `route_agreement` reports how far the two routes differ there.
    """
    lattice, grid = coupling.lattice, coupling.grid
    K, d, v = grid.n_nodes, lattice.dim, lattice.cell_volume
    w, nodes = grid.weights, grid.nodes
    dens = coupling.density_stack
    dens_flat = dens.reshape(K, d * d)

    num_p = num_w = den_p = den_w = 0.0
    for k in range(K):
        res = w / (nodes[k] - nodes + 1j * bath.eta)
        anti = w / (nodes[k] + nodes)
        # the anti-resonant weights are real, so their sums against
        # conj(dens) are the conjugates of the product rows
        sums = (np.stack([res, anti, res * nodes, anti * nodes]) @ dens_flat).reshape(4, d, d)
        base = v * bath.delta_coeff[k] @ dens[k]
        pol = base + v * bath.pole_coeff[k] @ (sums[0] - sums[1].conj())
        mom = nodes[k] * base + v * bath.pole_coeff[k] @ (sums[2] + sums[3].conj())
        # global normalization: the edge nodes sit a fixed number of
        # spacings into the band, so per-node ratios would never shrink
        num_p += w[k] * np.linalg.norm(pol) ** 2
        den_p += w[k] * np.linalg.norm(base) ** 2
        num_w += w[k] * np.linalg.norm(mom) ** 2
        den_w += w[k] * (nodes[k] * np.linalg.norm(base)) ** 2
        if k == 0:
            pol_0 = pol

    comm_p = commutator(bath_mode_form(bath, coupling, 0), medium_polarization_form(coupling)).mat
    agree_p = np.linalg.norm(comm_p - 1j * HBAR * pol_0) / max(np.linalg.norm(comm_p), 1e-300)

    def rel(num, den):
        return float(np.sqrt(num / max(den, 1e-300)))

    return {
        "polarization": rel(num_p, den_p),
        "momentum": rel(num_w, den_w),
        "route_agreement": float(agree_p),
    }


def verify_bath_canonical(bath: BathCoefficients, coupling: CouplingTensor) -> float:
    """Residual of the canonical bath commutator against the cut density.

    In the chosen gauge the bilinear form collapses algebraically, so the
    residual sits at machine precision; rescaling the diagonal coefficient
    (the shipped violator fixture) shows up quadratically.
    """
    grid = coupling.grid
    v = coupling.lattice.cell_volume
    ident = np.eye(coupling.lattice.dim) / v
    worst = 0.0
    for k in range(grid.n_nodes):
        disc = discontinuity_at_node(coupling, k).mat
        form = (0.5 / 1j) * v**2 * bath.delta_coeff[k] @ disc @ bath.delta_coeff[k].conj().T
        target = (np.pi * HBAR / EPS0) * ident
        worst = max(worst, np.linalg.norm(form - target) / np.linalg.norm(target))
    return worst


# -- Hamiltonian in bath form -------------------------------------------------


def _adjoint_form(q: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Coefficient matrix of the Hermitian conjugate of a quadratic form."""
    return q.conj()[np.ix_(perm, perm)].T


def assemble_bath_hamiltonian(coupling: CouplingTensor, structure: StructureTensor,
                              bath: BathCoefficients,
                              reference: QuadraticHamiltonian) -> QuadraticHamiltonian:
    """Rewrite the Hamiltonian over the bath operators, in the same basis.

    Terms: field energy, bath oscillators, the cubic-moment self-energy of
    the polarization, the electrostatic term, the squared momentum-minus-
    potential coupling, and the bilinear bath-polarization exchange.  All
    operators are converted to canonical rows, so the result is directly
    comparable with the reference assembly.
    """
    lattice, grid = coupling.lattice, coupling.grid
    ham = QuadraticHamiltonian(lattice=lattice, grid=grid,
                               h=np.zeros((reference.dim, reference.dim), dtype=complex),
                               mt=reference.mt)
    h = ham.h
    v = lattice.cell_volume
    d = lattice.dim
    K = grid.n_nodes
    w, nodes = grid.weights, grid.nodes

    def acc(left, right, coef):
        h[:] += coef * (left.T @ right)

    u_a = ham.rows_vector_potential
    u_pi = ham.rows_field_momentum
    u_p = _polarization_rows(ham, coupling)
    u_w = _momentum_density_rows(ham, coupling, structure)

    # field energy
    acc(u_pi, u_pi, v / (2.0 * EPS0))
    acc(u_a, lattice.double_curl_matrix @ u_a, v / (2.0 * MU0))

    # bath oscillators and the bath-polarization exchange; the per-node rows
    # span every ladder block, so stack them once and contract with BLAS.
    # The annihilator and creator blocks of all nodes are contiguous, so a
    # node's pair rows fill each sector with one slice assignment.
    sec_c = slice(ham.slice_c(0).start, ham.slice_c(K - 1).stop)
    sec_cdag = slice(ham.slice_cdag(0).start, ham.slice_cdag(K - 1).stop)
    s = np.sqrt(v * w)[:, None, None]
    u_cb = np.zeros((K, d, ham.dim), dtype=complex)   # bath annihilator rows
    for k in range(K):
        co, counter = bath.rows(coupling, k)
        u_cb[k, :, sec_c] = (s * co).transpose(1, 0, 2).reshape(d, K * d)
        u_cb[k, :, sec_cdag] = (s * counter).transpose(1, 0, 2).reshape(d, K * d)
        u_cb[k, :, ham.slice_c(k)] += np.sqrt(v / w[k]) * bath.delta_row(coupling, k)
    u_cbd = ham.hc_rows(u_cb)
    scale = np.sqrt(HBAR * w * nodes * v)[:, None, None]
    h[:] += (scale * u_cbd).reshape(K * d, ham.dim).T @ (scale * u_cb).reshape(K * d, ham.dim)
    # the exchange chain v T*(w_k) chi(w_k + i eta)^-1 / v^2 is the pole
    # coefficient up to hbar / eps0
    exch_left = (w[:, None, None] * u_cbd).reshape(K * d, ham.dim)
    exch_right = (bath.pole_coeff @ u_p).reshape(K * d, ham.dim)
    exchange = -1j * v**2 * (exch_left.T @ exch_right)
    # the minus on the conjugate bracket is absorbed by conjugating the -i
    # prefactor: the Hermitian total is the accumulated half plus its adjoint
    h[:] += exchange + _adjoint_form(exchange, ham.dagger_index)

    # cubic-moment polarization self-energy
    selfenergy = polarization_selfenergy_kernel(coupling, structure).mat
    acc(u_p, selfenergy @ u_p, v**2)

    # electrostatic term
    u_p_long = lattice.longitudinal_matrix @ u_p
    acc(u_p_long, u_p_long, v / (2.0 * EPS0))

    # momentum and potential coupling through the structure tensor
    fmat = structure.kernel.mat
    acc(u_w, fmat @ u_w, 0.5 * HBAR * v**2)
    acc(u_w, fmat @ u_a, -HBAR * v**2)
    acc(u_a, fmat @ u_a, 0.5 * HBAR * v**2)

    h[:] = (h + h.T) / 2.0
    return ham


def hamiltonian_equivalence(coupling: CouplingTensor, structure: StructureTensor,
                            bath: BathCoefficients, reference: QuadraticHamiltonian) -> dict:
    """Coefficient distance between the two Hamiltonian forms.

    `weak` pairs both coefficient matrices against smooth canonical test
    directions (the same smear columns the master check uses) and is the
    quantity that converges as the regularization is refined; the raw
    matrix distance `frobenius` retains the pointwise pole-ridge content,
    which only agrees distributionally, and is reported as a diagnostic.
    """
    from .oracle import _smear_columns
    rewritten = assemble_bath_hamiltonian(coupling, structure, bath, reference)
    cols = _smear_columns(reference)
    diff = rewritten.h - reference.h
    weak = np.linalg.norm(cols.T @ diff @ cols) \
        / max(np.linalg.norm(cols.T @ reference.h @ cols), 1e-300)
    frob = np.linalg.norm(diff) / max(np.linalg.norm(reference.h), 1e-300)
    return {"weak": float(weak), "frobenius": float(frob),
            "hermiticity_defect": rewritten.hermiticity_defect()}


def polarization_selfenergy_kernel(coupling: CouplingTensor, structure: StructureTensor) -> TensorKernel:
    """Kernel of the cubic-moment polarization self-energy term.

    For a local isotropic medium this kernel is site-diagonal: no cross
    coupling between distinct sites appears when the bath is integrated
    back in.
    """
    grid = coupling.grid
    finv = structure.inverse
    xi = TensorKernel(coupling.lattice, (2.0j * np.pi * HBAR / EPS0) * np.einsum(
        "l,lab->ab", grid.weights * grid.nodes**3, coupling.density_stack))
    return (EPS0 / (2.0j * np.pi * HBAR**2)) * (finv @ xi @ finv)
