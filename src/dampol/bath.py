"""Bath sector of the medium: the degrees of freedom beyond the canonical pair.

The medium modes carry many more degrees of freedom than the polarization
density and its conjugate momentum; the remainder forms a bath (part of the
medium itself, not an external environment) responsible for dissipation.
This module constructs the bath ladder coefficients in the gauge where the
frequency-diagonal coefficient is the inverse transposed coupling, verifies
their independence from the canonical pair and their canonical algebra, and
rewrites the Hamiltonian in bath form to compare against the direct
assembly.

Every bath mode comes from one builder, `BathCoefficients.modes`, which
forms the modes of any set of nodes, Kronecker part included, as one
broadcast product: the bath mode form reads one node's, and the bath-form
Hamiltonian places every node's in the canonical basis at once.  Every
coefficient is blocks in the coupling's layout, which is the run's.
Independence is evaluated once, by collapsed quadrature sums; the generic
form-commutator route runs at node 0 only, as a cross-check of that
evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import EPS0, HBAR
from .coupling import CouplingTensor, StructureTensor
from .errors import SingularOperatorError
from .fields import (
    BASIS_MEDIUM,
    LinearBosonicForm,
    commutator,
    medium_momentum_form,
    medium_polarization_form,
)
from .lattice import SectorLayout, cauchy_sum, frobenius_cond, rel_norms, sq_norms
from .oracle import QuadraticHamiltonian
from .susceptibility import Susceptibility, discontinuity

#: singular-value ratio below which an operator counts as non-invertible
INVERTIBILITY_RTOL = 1e-10


def require_invertible(layout: SectorLayout, *named: tuple) -> None:
    """Raise `SingularOperatorError` unless the (K, size) stack of every (what, stack, inverses) triple is invertible.

    A node is invertible when its singular-value ratio sigma_min / sigma_max,
    over the union of its blocks', is above `INVERTIBILITY_RTOL`.  The
    inverses, NaN at an exactly singular node (`SectorLayout.inv_or_nan`),
    screen the check: kappa_2 <= kappa_F (`lattice.frobenius_cond`), so a
    node with kappa_F <= 0.5 / INVERTIBILITY_RTOL passes, the factor 2
    covering rounding, and only the other nodes take one batched SVD; a
    node whose stack is not finite fails without one.  The error names the
    first failing node, and at that node the first failing stack in the
    order given, with the node's singular-value ratio, the wave vector of
    the block holding the smallest singular value in `Lattice.sector_layout`,
    and its condition number, infinite when the ratio of the largest to the
    smallest singular value overflows or the stack is not finite.
    """
    first = None
    for what, stack, inverse in named:
        screened = np.flatnonzero(~(frobenius_cond(stack, inverse) <= 0.5 / INVERTIBILITY_RTOL))
        if not screened.size:
            continue
        finite = np.isfinite(stack[screened]).all(axis=-1)
        sv = np.full((screened.size, layout.lattice.dim), np.nan)
        sv[finite] = layout.svdvals(stack[screened[finite]])
        top, low = sv.max(axis=-1), sv.min(axis=-1)
        bad = np.flatnonzero(~(low > INVERTIBILITY_RTOL * top))
        if bad.size and (first is None or screened[bad[0]] < first[0]):
            first = (int(screened[bad[0]]), what, top[bad[0]], low[bad[0]], sv[bad[0]])
    if first is not None:
        node, what, top, low, sv = first
        if np.isnan(top):
            raise SingularOperatorError(f"{what} not finite at node {node}", cond=np.inf, node=node)
        raise SingularOperatorError(
            f"{what} not invertible at node {node} "
            f"(singular-value ratio {low / max(top, 1e-300):.3e}{layout.wave_vector(int(np.argmin(sv)))})",
            cond=top / low if low > top / np.finfo(float).max else np.inf, node=node)


@dataclass(frozen=True, eq=False)
class BathCoefficients:
    """Per-node coefficient kernels of the bath ladder operators, as blocks in `layout`.

    `delta_blocks` multiplies the frequency delta (it equals the inverse of
    the transposed coupling in the chosen gauge); `pole_blocks` multiplies
    the resolvent pole and is tied to the delta coefficient through the
    susceptibility linkage, exactly at the nodes.  `coupling_t` holds the
    transposed coupling kernels T^T, which every row multiplies.  `layout`
    is the coupling's.
    """

    lattice: object
    grid: object
    layout: SectorLayout
    delta_blocks: np.ndarray   # (K, size)
    pole_blocks: np.ndarray    # (K, size)
    coupling_t: np.ndarray     # (K, size)

    def modes(self, ks) -> tuple:
        """The bath annihilators of the nodes `ks` over the medium modes, (len(ks), K, size) each in `layout`.

        Row i of the first stack multiplies the medium annihilators, its
        node's Kronecker part v D_k T_k^T over the quadrature weight
        included, and row i of the second the creators.  Each is one
        broadcast product of the pole coefficients against the transposed
        kernels T^T, the counter-rotating one conjugated:
        v P T^H = conj(conj(v P) T^T).
        """
        nodes, layout, v = self.grid.nodes, self.layout, self.lattice.cell_volume
        ks = np.asarray(ks)
        om, pole = nodes[ks, None], v * self.pole_blocks[ks, None]
        co = layout.matmul(pole, self.coupling_t)
        counter = layout.conj(layout.matmul(layout.conj(pole), self.coupling_t))
        co *= (1.0 / (om - nodes + 1j * self.grid.eta))[..., None]
        counter *= (-1.0 / (om + nodes))[..., None]
        delta = layout.matmul(v * self.delta_blocks[ks], self.coupling_t[ks])
        co[np.arange(ks.size), ks] += delta / self.grid.weights[ks, None]
        return co, counter

    def perturbed_delta(self, scale: float) -> "BathCoefficients":
        """Violator fixture: rescale the frequency-diagonal coefficient."""
        return replace(self, delta_blocks=scale * self.delta_blocks)


def bath_coefficients(coupling: CouplingTensor, chi: Susceptibility) -> BathCoefficients:
    """Construct the bath coefficients in the inverse-coupling gauge, in the coupling's layout.

    Requires the coupling kernel and the susceptibility just above the cut
    to be invertible at every node; degenerate nodes raise with the node
    named rather than silently pseudo-inverting.  Every node is inverted,
    checked and multiplied as one batched operation over the node axis; the check reads the inverses (`require_invertible`), so
    nothing is inverted twice.  About six (K, size) block stacks are live
    at the peak (6.0 at n = 2, K = 128 and 1024).
    """
    lattice, grid, layout = coupling.lattice, coupling.grid, coupling.layout
    v = lattice.cell_volume
    t = coupling.flat
    t_t = layout.transpose(t)
    delta = layout.inv_or_nan(t_t)   # (T^T)^-1: its Frobenius norm is T^-1's
    chi_inv = layout.inv_or_nan(chi.above_cut_blocks)
    require_invertible(layout, ("coupling kernel", t, delta), ("susceptibility", chi.above_cut_blocks, chi_inv))
    delta /= v**2
    chi_inv /= v**2
    pole = layout.matmul((HBAR / EPS0) * v * layout.conj(t), chi_inv)
    del chi_inv
    return BathCoefficients(lattice=lattice, grid=grid, layout=layout, delta_blocks=delta,
                            pole_blocks=pole, coupling_t=t_t)


def verify_linkage(bath: BathCoefficients, coupling: CouplingTensor,
                   chi: Susceptibility) -> float:
    """Residual of the pole-coefficient linkage at the nodes (definitional), worst node.

    Three (K, size) block stacks are live.
    """
    layout, v = bath.layout, coupling.lattice.cell_volume
    rhs = layout.matmul((1.0 / (2.0j * np.pi)) * v * bath.delta_blocks,
                        discontinuity(coupling))
    diff = layout.matmul(v * bath.pole_blocks, chi.above_cut_blocks)
    diff -= rhs
    return float(rel_norms(diff, rhs).max())


def bath_mode_form(bath: BathCoefficients, k: int) -> LinearBosonicForm:
    """The bath annihilator at node k as a form over the medium modes, in the bath's layout."""
    (alpha,), (beta,) = bath.modes([k])
    return LinearBosonicForm(layout=bath.layout, grid=bath.grid, alpha=alpha, basis=BASIS_MEDIUM,
                             creators=beta)


def verify_bath_independence(bath: BathCoefficients, coupling: CouplingTensor,
                             structure: StructureTensor) -> dict:
    """Residuals of the bath's commutation with the canonical pair.

    The production route collapses each commutator into kernel quadrature
    sums over the spectral densities D_l.  With q_l the weights, the
    (K, K) coefficient matrices res[k, l] = q_l / (w_k - w_l + i eta) and
    anti[k, l] = q_l / (w_k + w_l), and the exact pole-shift identities

        w_l res[k, l]  = (w_k + i eta) res[k, l] - q_l,
        w_l anti[k, l] = q_l - w_k anti[k, l],

    the four node sums of every node follow from two `cauchy_sum`s, (K, K)
    @ (K, size) GEMMs whose coefficient rows come a bounded chunk at a
    time, and the one sum sum_l q_l D_l, in the bath's layout; the products
    with the bath coefficients are batched over the nodes.  The generic
    form-commutator route is evaluated once, for the polarization at node 0,
    and `route_agreement` reports how far the two routes differ there.  The
    sums hold at most four (K, size) block stacks and the cross-check at
    most about six, its two forms and the pair contraction's copies (6.07
    in all at n = 2, K = 128).
    """
    layout, grid = bath.layout, coupling.grid
    v = coupling.lattice.cell_volume
    w, nodes = grid.weights, grid.nodes
    dens = coupling.density
    om = nodes[:, None]

    # every step works in place, so at most four (K, size) block stacks are
    # live; res[k, l] = -q_l / (w_l - (w_k + i eta)), anti[k, l] = q_l / (w_l - (-w_k))
    s_res = cauchy_sum(nodes, w, nodes + 1j * grid.eta, dens)
    np.negative(s_res, out=s_res)
    # the anti-resonant weights are real, so their sums against conj(dens)
    # are the conjugates of the product rows
    pol_sum = layout.conj(cauchy_sum(nodes, w, -nodes, dens))
    np.subtract(s_res, pol_sum, out=pol_sum)   # sum_l res D_l - anti conj(D_l)
    base = layout.matmul(bath.delta_blocks, dens)
    base *= v
    base_sq = sq_norms(base)
    pol = layout.matmul(bath.pole_blocks, pol_sum)
    pol *= v
    pol += base
    pol_sq, pol_0 = sq_norms(pol), pol[0].copy()
    del pol

    # sum_l w_l (res D_l + anti conj(D_l)), w_l the nodes, by the shift identities
    mom_sum = s_res
    mom_sum *= 1j * grid.eta
    pol_sum *= om
    mom_sum += pol_sum
    del pol_sum
    dens_sum = w @ dens
    mom_sum -= dens_sum - layout.conj(dens_sum)   # 2i Im sum_l q_l D_l
    mom = layout.matmul(bath.pole_blocks, mom_sum)
    del mom_sum, s_res
    mom *= v
    base *= om
    mom += base
    mom_sq = sq_norms(mom)
    del mom, base

    comm_p = commutator(bath_mode_form(bath, 0), medium_polarization_form(coupling))
    scale = np.linalg.norm(comm_p)
    comm_p -= 1j * HBAR * pol_0
    agree_p = np.linalg.norm(comm_p) / max(scale, 1e-300)

    # global normalization: the edge nodes sit a fixed number of
    # spacings into the band, so per-node ratios would never shrink
    def rel(num, den):
        return float(np.sqrt(num / max(den, 1e-300)))

    return {
        "polarization": rel(w @ pol_sq, w @ base_sq),
        "momentum": rel(w @ mom_sq, w @ (nodes * np.sqrt(base_sq)) ** 2),
        "route_agreement": float(agree_p),
    }


def verify_bath_canonical(bath: BathCoefficients, coupling: CouplingTensor) -> float:
    """Residual of the canonical bath commutator against the cut density, worst node.

    In the chosen gauge the bilinear form collapses algebraically, so the
    residual sits at machine precision; rescaling the diagonal coefficient
    (the shipped violator fixture) shows up quadratically.  Three (K, size)
    block stacks are live.
    """
    layout, v = bath.layout, coupling.lattice.cell_volume
    target = (np.pi * HBAR / EPS0) * layout.identity / v
    form = layout.matmul((0.5 / 1j) * v**2 * bath.delta_blocks, discontinuity(coupling))
    form = layout.matmul(form, layout.conj(layout.transpose(bath.delta_blocks)))
    form -= target
    return float(np.sqrt(sq_norms(form).max()) / np.linalg.norm(target))


# -- Hamiltonian in bath form -------------------------------------------------


def assemble_bath_hamiltonian(coupling: CouplingTensor, structure: StructureTensor,
                              bath: BathCoefficients) -> QuadraticHamiltonian:
    """Rewrite the Hamiltonian over the bath operators, in the same basis.

    Terms: field energy, bath oscillators, the cubic-moment self-energy of
    the polarization, the electrostatic term, the squared momentum-minus-
    potential coupling, and the bilinear bath-polarization exchange.  All
    operators are converted to canonical rows, so the result is directly
    comparable with the reference assembly: both are stored in the
    coupling's layout.  The bath rows of every node are held at once, (K, E).
    """
    lattice, grid = coupling.lattice, coupling.grid
    ham = QuadraticHamiltonian.zero(coupling)
    layout, act = ham.layout, ham.act
    v = lattice.cell_volume
    w, nodes = grid.weights, grid.nodes

    u_a = ham.rows_vector_potential
    pol, mom = medium_polarization_form(coupling), medium_momentum_form(coupling, structure)
    u_p, u_w = ham.ladder_rows(pol.alpha, pol.beta), ham.ladder_rows(mom.alpha, mom.beta)

    # bath oscillators and the bath-polarization exchange.  Both pair the bath
    # creators with a right factor: the oscillators sum_k w_k v hbar omega_k
    # Cb_k^dag Cb_k, and the exchange, whose chain v T*(omega_k)
    # chi(omega_k + i eta)^-1 / v^2 is the pole coefficient up to hbar / eps0.
    # The rows of every node are stacked, so one product per group forms half
    # the oscillators plus the exchange; adding the adjoint completes both: the
    # oscillator term is its own adjoint, and the minus on the exchange's
    # conjugate bracket is absorbed by conjugating the -i prefactor.
    u_cb = ham.ladder_rows(*bath.modes(np.arange(grid.n_nodes)))   # row k: the bath mode of node k
    right = act(bath.pole_blocks, u_p)
    right *= -1j * v**2
    right += (0.5 * HBAR * v * nodes)[:, None] * u_cb
    np.conj(u_cb, out=u_cb)
    u_cb *= w[:, None]   # the weighted bath creator rows
    ham.add_hermitian(u_cb, right)
    del u_cb, right

    ham.add_field_energy()

    # cubic-moment polarization self-energy
    ham.accumulate(u_p, act(polarization_selfenergy_kernel(coupling, structure), u_p), v**2)

    # electrostatic term
    u_p_long = act(layout.op("longitudinal_matrix"), u_p)
    ham.accumulate(u_p_long, u_p_long, v / (2.0 * EPS0))

    # the squared momentum-minus-potential coupling through the structure tensor
    u_wa = u_w - u_a
    ham.accumulate(u_wa, act(structure.blocks, u_wa), 0.5 * HBAR * v**2)
    ham.symmetrize()
    return ham


def hamiltonian_equivalence(coupling: CouplingTensor, structure: StructureTensor,
                            bath: BathCoefficients, reference: QuadraticHamiltonian) -> dict:
    """Coefficient distance between the two Hamiltonian forms.

    `weak` pairs both coefficient matrices against smooth canonical test
    directions (the same smear columns the master check uses,
    `QuadraticHamiltonian.weak_norm`) and is the quantity that converges as
    the regularization is refined; the raw matrix distance `frobenius`
    retains the pointwise pole-ridge content, which only agrees
    distributionally, and is reported as a diagnostic.  Both are summed
    block by block: the two forms share the coupling's layout.
    """
    form = assemble_bath_hamiltonian(coupling, structure, bath)
    diffs = [diff - ref for diff, ref in zip(form.blocks, reference.blocks, strict=True)]
    weak = reference.weak_norm(diffs) / max(reference.weak_norm(reference.blocks), 1e-300)
    frob = np.sqrt(sum(np.linalg.norm(diff) ** 2 for diff in diffs)) \
        / max(np.sqrt(sum(np.linalg.norm(ref) ** 2 for ref in reference.blocks)), 1e-300)
    return {"weak": float(weak), "frobenius": float(frob)}


def polarization_selfenergy_kernel(coupling: CouplingTensor, structure: StructureTensor) -> np.ndarray:
    """Kernel of the cubic-moment polarization self-energy term, (size,) in the structure tensor's layout.

    It is S^-1 o s_3 o S^-1 / hbar, with s_3 the cubic frequency moment of
    the spectral densities.  For a local isotropic medium this kernel is
    site-diagonal: no cross coupling between distinct sites appears when
    the bath is integrated back in.
    """
    mm, finv = structure.layout.matmul, structure.inverse
    return (coupling.lattice.cell_volume**2 / HBAR) * mm(mm(finv, coupling.moments.cubic), finv)
