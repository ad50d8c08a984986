"""Mode kernels of the diagonalizing transformation and their verification.

The annihilation operators of the diagonal form are linear combinations of
the vector potential, its momentum, and the medium ladder operators.  The
four coefficient families assembled here are:

* ``potential`` / ``momentum``: single-frequency kernels, transverse in the
  second argument;
* ``resonant`` / ``antiresonant``: node-pair kernels multiplying the medium
  annihilators and creators.

The resonant family additionally carries an exact identity-times-Kronecker
part (the gauge of the construction is fixed so that this singular piece is
frequency independent); it is kept out of the stored arrays and handled
symbolically so the free-medium sector closes exactly.

Two-frequency identities hold distributionally, so their residuals are
reported in frequency-averaged (weak) form: the pair index is summed
against smooth profiles before taking norms.

Every family is built from the per-node formulas of `_NodeKernels`, read
from one `green.NodePropagator`: the propagator at every node just below
the cut, with the coupling it was solved for.  `streamed_mode_checks` is the
production evaluator of the identities: the node-pair rows factorize into
a per-node transfer kernel, a (K, K) frequency factor and the coupling, so
every sum over the pair index is a (K, K) @ (K, d^2) GEMM and no pair row
is ever formed; it costs O(K^2 d^2 + K d^3) time and O(K d^2) memory.  The stack route
(`mode_coefficients` with `fano_residual`, the ``smeared_*`` norms and the
pair-resolved commutators) materializes the 2 K^2 d^2 pair families; it
serves the assembled-Hamiltonian oracle, which needs explicit rows, and is
the reference the streamed pass is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import EPS0, HBAR, MU0
from .coupling import CouplingTensor, StructureTensor
from .green import NodePropagator, wave_operator
from .lattice import FrequencyGrid, Lattice, TensorKernel, pair_contract

#: smearing profiles used for weak-form residuals, as functions of w/w_max
SMEAR_PROFILES = {
    "const": lambda x: np.ones_like(x),
    "linear": lambda x: x,
}


@dataclass(frozen=True, eq=False)
class ModeCoefficients:
    """Coefficient kernels of the diagonalizing transformation."""

    lattice: Lattice
    grid: FrequencyGrid
    potential: np.ndarray      # (K, d, d)
    momentum: np.ndarray       # (K, d, d)
    resonant: np.ndarray       # (K, K, d, d), regular part only
    antiresonant: np.ndarray   # (K, K, d, d)
    eta: float

    def resonant_kernel(self, k: int, l: int, include_delta: bool = True) -> TensorKernel:
        mat = self.resonant[k, l].copy()
        if include_delta and k == l:
            mat += np.eye(self.lattice.dim) / self.lattice.cell_volume / self.grid.weights[k]
        return TensorKernel(self.lattice, mat)

    @cached_property
    def _profiles(self) -> dict:
        x = self.grid.nodes / self.grid.omega_max
        return {name: fn(x) for name, fn in SMEAR_PROFILES.items()}


class _NodeKernels:
    """The per-node formulas of the four coefficient families.

    The propagator sits at every node just below the cut (w_k - i eta);
    the pole factor between node pairs uses the same eta.  The pair rows
    factorize as

        resonant[k, l]     = mu0 hbar v (-w_k Xt_k + pole[k, l] X_k) T(w_l)^T
        antiresonant[k, l] = mu0 hbar v ( w_k Xt_k - anti[k, l] X_k) T(w_l)^H

    with X_k = `transfer(k)`, Xt_k = X_k o P_T and the (K, K) coefficient
    matrices `pole` and `anti` held here; nothing else held grows beyond
    K d^2.
    """

    def __init__(self, prop: NodePropagator):
        coupling = prop.coupling
        grid = coupling.grid
        self.grid, self.solves, self.kernels = grid, prop.solves, coupling.kernels
        self.lattice = coupling.lattice
        om, nodes = grid.nodes[:, None], grid.nodes
        self.pole = om**2 / (om - nodes - 1j * grid.eta)   # [k, l] = w_k^2 / (w_k - w_l - i eta)
        self.anti = om**2 / (om + nodes)                    # [k, l] = w_k^2 / (w_k + w_l)

    @cached_property
    def _t_cols(self) -> tuple:
        """T and T* for second-argument contractions: [b, (l, a)] = T(w_l)[a, b]."""
        tt = np.ascontiguousarray(self.kernels.transpose(2, 0, 1).reshape(self.lattice.dim, -1))
        return tt, tt.conj()

    def transfer(self, k: int) -> np.ndarray:
        """X_k = v T*(w_k) o G(w_k - i eta)."""
        return self.lattice.cell_volume * self.kernels[k].conj() @ self.solves[k].kernel.mat

    def families(self, k: int) -> tuple:
        """X_k, its transverse part X_k o P_T, and the potential and momentum kernels."""
        om = self.grid.nodes[k]
        x = self.transfer(k)
        xt = x @ self.lattice.transverse_matrix
        return x, xt, om**2 * xt, 1j * MU0 * om * xt

    def pair_rows(self, k: int, x: np.ndarray, xt: np.ndarray) -> tuple:
        """Row k of the resonant (regular part) and antiresonant families, (K, d, d) each."""
        K, d, v = self.grid.n_nodes, self.lattice.dim, self.lattice.cell_volume
        om = self.grid.nodes[k]
        tt, th = self._t_cols
        both = np.concatenate([xt, x])
        proj, full = (v * both @ tt).reshape(2, d, K, d).transpose(0, 2, 1, 3)
        proj_h, full_h = (v * both @ th).reshape(2, d, K, d).transpose(0, 2, 1, 3)
        return (MU0 * HBAR * (-om * proj + self.pole[k][:, None, None] * full),
                MU0 * HBAR * (om * proj_h - self.anti[k][:, None, None] * full_h))


def momentum_family(prop: NodePropagator) -> np.ndarray:
    """The momentum coefficient kernels of every node, (K, d, d)."""
    rows = _NodeKernels(prop)
    return np.stack([rows.families(k)[3] for k in range(rows.grid.n_nodes)])


def mode_coefficients(prop: NodePropagator) -> ModeCoefficients:
    """Assemble the four coefficient families, node-pair stacks included."""
    rows = _NodeKernels(prop)
    grid, lattice = rows.grid, rows.lattice
    K, d = grid.n_nodes, lattice.dim
    potential = np.empty((K, d, d), dtype=complex)
    momentum = np.empty((K, d, d), dtype=complex)
    resonant = np.empty((K, K, d, d), dtype=complex)
    antiresonant = np.empty((K, K, d, d), dtype=complex)
    for k in range(K):
        x, xt, potential[k], momentum[k] = rows.families(k)
        resonant[k], antiresonant[k] = rows.pair_rows(k, x, xt)
    return ModeCoefficients(lattice=lattice, grid=grid, potential=potential,
                            momentum=momentum, resonant=resonant,
                            antiresonant=antiresonant, eta=grid.eta)


def wave_diagnostic(prop: NodePropagator) -> float:
    """Residual of the inhomogeneous wave equation for the auxiliary kernel.

    The auxiliary combination -w_k^2 X_k equals the source -w_k^2 T*(w_k)
    contracted with the propagator by construction, so v X_k o W(z_k) =
    T*(w_k) with W the wave operator at the solve's point; the residual
    vanishes to solver precision and validates the plumbing rather than the
    regularization.
    """
    rows = _NodeKernels(prop)
    lattice = rows.lattice
    v = lattice.cell_volume
    out = 0.0
    for k, entry in enumerate(prop.solves):
        wave = wave_operator(prop.chi.at(entry.z), entry.z, lattice).mat
        source = rows.kernels[k].conj()
        res = np.linalg.norm(v * rows.transfer(k) @ wave - source)
        out = max(out, res / max(np.linalg.norm(source), 1e-300))
    return float(out)


# -- residuals of the defining equations ---------------------------------


@dataclass(frozen=True)
class FanoReport:
    """Relative residuals of the four defining equations.

    `potential_ratio` is the algebraic ratio identity between the first two
    families (zero by construction); `wave` is the transverse wave-type
    equation; `resonant` and `antiresonant` are the two-frequency relations
    in weak (frequency-averaged) form over the stated profiles.
    """

    potential_ratio: float
    wave: float
    resonant: float
    antiresonant: float
    details: dict

    def max_residual(self) -> float:
        return max(self.potential_ratio, self.wave, self.resonant, self.antiresonant)


def _quad_relative(weights: np.ndarray, residuals: np.ndarray, scales: np.ndarray) -> float:
    """Quadrature norm of per-node residuals over the same norm of the scales.

    A single global normalization is used rather than per-node ratios: the
    lowest nodes sit a fixed number of spacings above zero, so their local
    relative error never shrinks even though their absolute contribution
    does.
    """
    num = np.sqrt(np.sum(weights * residuals**2))
    den = max(np.sqrt(np.sum(weights * scales**2)), 1e-300)
    return float(num / den)


def _brace_kernels(modes: ModeCoefficients, coupling: CouplingTensor) -> np.ndarray:
    """Per-node longitudinal brace entering both two-frequency relations.

    brace(k) = sum_m w_m [ f3(k,m) o T*(w_m) + f4(k,m) o T(w_m) ] o P_L
    including the Kronecker part of the resonant family.
    """
    lattice = modes.lattice
    v = lattice.cell_volume
    w = modes.grid.weights
    pl = lattice.longitudinal_matrix
    tc = coupling.kernels.conj()
    t = coupling.kernels
    res_t = v * np.einsum("m,kmab,mbc->kac", w, modes.resonant, tc)
    anti_t = v * np.einsum("m,kmab,mbc->kac", w, modes.antiresonant, t)
    delta_t = tc  # Kronecker part collapses the m-sum onto node k
    return (res_t + anti_t + delta_t) @ pl


def fano_residual(modes: ModeCoefficients, coupling: CouplingTensor,
                  structure: StructureTensor) -> FanoReport:
    """Evaluate the discrete left-hand sides of the four defining equations."""
    lattice = modes.lattice
    grid = modes.grid
    v, d, K = lattice.cell_volume, lattice.dim, grid.n_nodes
    nodes, w = grid.nodes, grid.weights

    # ratio identity between the first two families
    lhs = (1j / EPS0) * modes.potential
    rhs = nodes[:, None, None] * modes.momentum
    r_ratio = _quad_relative(w, np.linalg.norm(lhs - rhs, axis=(1, 2)),
                             np.linalg.norm(rhs, axis=(1, 2)))

    # transverse wave-type equation, one residual kernel per node
    lap = lattice.laplacian_matrix
    pt = lattice.transverse_matrix
    f_pt = structure.kernel.mat @ pt
    t_proj = coupling.kernels.conj() @ pt   # T* projected transverse in its second argument
    tt_proj = coupling.kernels @ pt
    term1 = (1j / MU0) * (modes.momentum @ lap)
    term2 = -1j * HBAR * v * np.einsum("kab,bc->kac", modes.momentum, f_pt)
    term3 = v * np.einsum("l,klab,lbc->kac", w * nodes, modes.resonant, t_proj) \
        - v * np.einsum("l,klab,lbc->kac", w * nodes, modes.antiresonant, tt_proj) \
        + nodes[:, None, None] * t_proj
    rhs34 = nodes[:, None, None] * modes.potential
    res34 = term1 + term2 + term3 - rhs34
    r_wave = _quad_relative(w, np.linalg.norm(res34, axis=(1, 2)),
                            np.linalg.norm(rhs34, axis=(1, 2)))

    # two-frequency relations in weak form; the Kronecker parts of the
    # resonant family cancel between the two sides exactly
    brace = _brace_kernels(modes, coupling)
    node_diff = nodes[None, :] - nodes[:, None]   # (k, l) -> w_l - w_k
    node_sum = nodes[None, :] + nodes[:, None]
    details = {}
    res_vals, anti_vals = [], []
    for name, prof in modes._profiles.items():
        wp = w * prof
        t_sm = np.einsum("l,lab->ab", wp, coupling.kernels)
        t_sm_w = np.einsum("l,lab->ab", wp * nodes, coupling.kernels)
        term_a = -1j * HBAR * v * np.einsum("kab,cb->kac", modes.momentum, t_sm_w)
        omdiff = np.einsum("l,kl,klab->kab", wp, node_diff, modes.resonant)
        term_c = (HBAR / EPS0) * v * np.einsum("kab,cb->kac", brace, t_sm)
        res35 = term_a + omdiff + term_c
        rhs35 = nodes[:, None, None] * (prof[:, None, None] * np.eye(d)[None] / v
                                        + np.einsum("l,klab->kab", wp, modes.resonant))
        scale35 = np.linalg.norm(rhs35, axis=(1, 2))
        val35 = _quad_relative(w, np.linalg.norm(res35, axis=(1, 2)), scale35)

        tc_sm = np.einsum("l,lab->ab", wp, coupling.kernels.conj())
        tc_sm_w = np.einsum("l,lab->ab", wp * nodes, coupling.kernels.conj())
        term_a6 = -1j * HBAR * v * np.einsum("kab,cb->kac", modes.momentum, tc_sm_w)
        omsum = np.einsum("l,kl,klab->kab", wp, node_sum, modes.antiresonant)
        term_c6 = (HBAR / EPS0) * v * np.einsum("kab,cb->kac", brace, tc_sm)
        res36 = term_a6 - omsum - term_c6
        # same canonical scale as the resonant relation: its right-hand side
        # carries the exact singular part and sets the natural size
        val36 = _quad_relative(w, np.linalg.norm(res36, axis=(1, 2)), scale35)
        details[name] = {"resonant": val35, "antiresonant": val36}
        res_vals.append(val35)
        anti_vals.append(val36)

    return FanoReport(potential_ratio=r_ratio, wave=r_wave,
                      resonant=max(res_vals), antiresonant=max(anti_vals),
                      details=details)


# -- commutation checks ---------------------------------------------------


def commutation_matrix(modes: ModeCoefficients, k: int, l: int) -> TensorKernel:
    """Left-hand side of the canonical commutator condition for a node pair.

    The expected value is the identity kernel times the node Kronecker over
    the weight.
    """
    lattice = modes.lattice
    v = lattice.cell_volume
    w = modes.grid.weights
    f1k, f2k = modes.potential[k], modes.momentum[k]
    f1l, f2l = modes.potential[l], modes.momentum[l]
    out = 1j * HBAR * v * (f1k @ f2l.conj().T - f2k @ f1l.conj().T)
    # delta-delta and delta-regular cross terms of the resonant family
    if k == l:
        out = out + np.eye(lattice.dim) / v / w[k]
    out = out + modes.resonant[k, l] + modes.resonant[l, k].conj().T
    out = out + v * pair_contract(w, modes.resonant[k], modes.resonant[l].conj())
    out = out - v * pair_contract(w, modes.antiresonant[k], modes.antiresonant[l].conj())
    return TensorKernel(lattice, out)


def commutation_deviation(modes: ModeCoefficients, k: int, l: int) -> TensorKernel:
    """Deviation of the canonical commutator from its exact value."""
    lattice = modes.lattice
    out = commutation_matrix(modes, k, l).mat.copy()
    if k == l:
        out -= np.eye(lattice.dim) / lattice.cell_volume / modes.grid.weights[k]
    return TensorKernel(lattice, out)


def annihilator_commutator(modes: ModeCoefficients, k: int, l: int) -> TensorKernel:
    """Commutator of two annihilators for a node pair; vanishes in the limit."""
    lattice = modes.lattice
    v = lattice.cell_volume
    w = modes.grid.weights
    f1k, f2k = modes.potential[k], modes.momentum[k]
    f1l, f2l = modes.potential[l], modes.momentum[l]
    out = 1j * HBAR * v * (f1k @ f2l.T - f2k @ f1l.T)
    out = out + modes.antiresonant[l, k].T - modes.antiresonant[k, l]
    out = out + v * pair_contract(w, modes.resonant[k], modes.antiresonant[l])
    out = out - v * pair_contract(w, modes.antiresonant[k], modes.resonant[l])
    return TensorKernel(lattice, out)


def smeared_commutation_deviation(modes: ModeCoefficients) -> dict:
    """Weak-form deviation of the canonical commutator, per smear profile.

    Both node indices are summed against the profile before taking norms;
    values are relative to the smeared exact part.
    """
    lattice = modes.lattice
    v = lattice.cell_volume
    w = modes.grid.weights
    out = {}
    for name, prof in modes._profiles.items():
        wp = w * prof
        f1s = np.einsum("k,kab->ab", wp, modes.potential)
        f2s = np.einsum("k,kab->ab", wp, modes.momentum)
        dev = 1j * HBAR * v * (f1s @ f2s.conj().T - f2s @ f1s.conj().T)
        r_sum = np.einsum("k,l,klab->ab", wp, wp, modes.resonant)
        dev = dev + r_sum + r_sum.conj().T
        s3 = np.einsum("k,kmab->mab", wp, modes.resonant)
        s4 = np.einsum("k,kmab->mab", wp, modes.antiresonant)
        dev = dev + v * pair_contract(w, s3, s3.conj())
        dev = dev - v * pair_contract(w, s4, s4.conj())
        expected = float(np.sum(wp * prof)) * np.eye(lattice.dim) / v
        scale = max(v * np.linalg.norm(expected), 1e-300)
        out[name] = v * np.linalg.norm(dev) / scale
    return out


@dataclass(frozen=True)
class StreamedModeChecks:
    """Weak-form residuals computed in one pass over the node rows.

    Matches the stack-based evaluations to machine precision but never
    materializes the node-pair kernel families, so refinement studies can
    reach node counts where the stacks would not fit.
    """

    potential_ratio: float
    wave: float
    resonant: dict
    antiresonant: dict
    commutation: dict
    annihilator: dict

    def max_residual(self) -> float:
        """Worst defining-equation residual, as `FanoReport.max_residual`."""
        return max(self.potential_ratio, self.wave,
                   max(self.resonant.values()), max(self.antiresonant.values()))


def streamed_mode_checks(prop: NodePropagator, structure: StructureTensor) -> StreamedModeChecks:
    """Single-pass weak-form verification of the mode-kernel identities.

    With the factorized pair rows of `_NodeKernels`, a weighted sum over the
    pair index l against any kernels M_l is

        sum_l a[k, l] resonant[k, l] M_l
            = mu0 hbar v [-w_k Xt_k (a @ Q)_k + X_k ((a * pole) @ Q)_k]

    with Q_l = T_l^T M_l (T_l^H M_l and `anti` for the antiresonant rows): one
    (K, K) @ (K, d^2) GEMM per coefficient matrix, formed from the coupling
    alone before the node loop.  The smeared families summed over k follow
    the same way from (phi * pole)^T @ X.  Cost O(K^2 d^2 + K d^3); only X,
    the coupling and the GEMM results are held as (K, d, d) stacks.
    """
    rows = _NodeKernels(prop)
    coupling = prop.coupling
    grid = coupling.grid
    lattice = coupling.lattice
    K, d, v = grid.n_nodes, lattice.dim, lattice.cell_volume
    nodes, w = grid.nodes, grid.weights
    c = MU0 * HBAR * v
    pole, anti = rows.pole, rows.anti

    pt = lattice.transverse_matrix
    pl = lattice.longitudinal_matrix
    lap = lattice.laplacian_matrix
    f_pt = structure.kernel.mat @ pt
    t, tc = coupling.kernels, coupling.kernels.conj()
    t_flat, tc_flat = t.reshape(K, d * d), tc.reshape(K, d * d)

    def gemm(coeff, flat):
        """sum_l coeff[..., k, l] flat[l] as (..., K, d, d)."""
        return (coeff @ flat).reshape(coeff.shape[:-1] + (d, d))

    # wave and brace: M_l = T_l* (Q3_l = T_l^T T_l*) and M_l = T_l (Q4_l = T_l^H T_l);
    # P_T and P_L are applied after the sums
    q4 = (tc.transpose(0, 2, 1) @ t).reshape(K, d * d)
    q3 = q4.conj()
    wn = w * nodes
    s_wave = ((wn @ q3) + (wn @ q4)).reshape(d, d)
    s_brace = ((w @ q4) - (w @ q3)).reshape(d, d)
    g_wave = gemm(wn * pole, q3) + gemm(wn * anti, q4)
    g_brace = gemm(w * pole, q3) - gemm(w * anti, q4)
    del q3, q4

    x = grid.nodes / grid.omega_max
    profiles = {name: fn(x) for name, fn in SMEAR_PROFILES.items()}
    wps = {n: w * p for n, p in profiles.items()}
    t_sm = {n: (wp @ t_flat).reshape(d, d).T for n, wp in wps.items()}   # sum_l phi_l T_l^T
    t_sm_w = {n: (wp * nodes @ t_flat).reshape(d, d).T for n, wp in wps.items()}
    tc_sm = {n: m.conj() for n, m in t_sm.items()}
    tc_sm_w = {n: m.conj() for n, m in t_sm_w.items()}
    # per profile, M_l = identity: [row sum, omdiff] over T^T, [row sum, omsum] over T^H
    gap = nodes[None, :] - nodes[:, None]   # (k, l) -> w_l - w_k
    tot = nodes[None, :] + nodes[:, None]
    g_res = {n: gemm(np.stack([wp * pole, wp * gap * pole]), t_flat) for n, wp in wps.items()}
    g_anti = {n: gemm(np.stack([wp * anti, wp * tot * anti]), tc_flat) for n, wp in wps.items()}

    x_stack = np.empty((K, d, d), dtype=complex)
    eye_v = np.eye(d) / v
    f1s = {n: np.zeros((d, d), dtype=complex) for n in profiles}
    f2s = {n: np.zeros((d, d), dtype=complex) for n in profiles}
    y = {n: np.zeros((d, d), dtype=complex) for n in profiles}   # sum_k phi_k w_k Xt_k
    r_sum = {n: np.zeros((d, d), dtype=complex) for n in profiles}
    f4_sum = {(a, b): np.zeros((d, d), dtype=complex)
              for a in profiles for b in profiles if a != b}
    sq = {"ratio_n": 0.0, "ratio_d": 0.0, "wave_n": 0.0, "wave_d": 0.0}
    res_n = {n: 0.0 for n in profiles}
    res_d = {n: 0.0 for n in profiles}
    anti_n = {n: 0.0 for n in profiles}

    for k in range(K):
        om, wk = nodes[k], w[k]
        xk, xtk, pot, mom = rows.families(k)
        x_stack[k] = xk

        # ratio identity
        diff = (1j / EPS0) * pot - om * mom
        sq["ratio_n"] += wk * np.linalg.norm(diff) ** 2
        sq["ratio_d"] += wk * np.linalg.norm(om * mom) ** 2

        # wave-type equation for this node
        term = (1j / MU0) * (mom @ lap) - 1j * HBAR * v * mom @ f_pt
        term += (v * c * (xk @ g_wave[k] - om * xtk @ s_wave) + om * tc[k]) @ pt
        rhs = om * pot
        sq["wave_n"] += wk * np.linalg.norm(term - rhs) ** 2
        sq["wave_d"] += wk * np.linalg.norm(rhs) ** 2

        # longitudinal brace for the two-frequency relations
        brace = (v * c * (xk @ g_brace[k] + om * xtk @ s_brace) + tc[k]) @ pl

        anti_sum = {}
        for n, p in profiles.items():
            phi = wps[n][k]
            res_sum = c * (xk @ g_res[n][0, k].T - om * xtk @ t_sm[n])
            omdiff = c * (xk @ g_res[n][1, k].T - om * xtk @ (t_sm_w[n] - om * t_sm[n]))
            r35 = (-1j * HBAR * v * mom @ t_sm_w[n] + omdiff
                   + (HBAR / EPS0) * v * brace @ t_sm[n])
            rhs35 = om * (p[k] * eye_v + res_sum)
            res_n[n] += wk * np.linalg.norm(r35) ** 2
            res_d[n] += wk * np.linalg.norm(rhs35) ** 2
            anti_sum[n] = c * (om * xtk @ tc_sm[n] - xk @ g_anti[n][0, k].T)
            omsum = c * (om * xtk @ (tc_sm_w[n] + om * tc_sm[n]) - xk @ g_anti[n][1, k].T)
            r36 = (-1j * HBAR * v * mom @ tc_sm_w[n] - omsum
                   - (HBAR / EPS0) * v * brace @ tc_sm[n])
            anti_n[n] += wk * np.linalg.norm(r36) ** 2

            # accumulate smeared families
            f1s[n] += phi * pot
            f2s[n] += phi * mom
            y[n] += (phi * om) * xtk
            r_sum[n] += phi * res_sum
        for (a, b) in f4_sum:
            f4_sum[(a, b)] += wps[a][k] * anti_sum[b]
    del g_wave, g_brace, g_res, g_anti

    # s3[l] = sum_k phi_k resonant[k, l], s4 likewise
    x_flat = x_stack.reshape(K, d * d)
    s3 = {n: (c * (gemm((wp[:, None] * pole).T, x_flat) - y[n])) @ t.transpose(0, 2, 1)
          for n, wp in wps.items()}
    s4 = {n: (c * (y[n] - gemm((wp[:, None] * anti).T, x_flat))) @ tc.transpose(0, 2, 1)
          for n, wp in wps.items()}

    commutation = {}
    for n, p in profiles.items():
        dev = 1j * HBAR * v * (f1s[n] @ f2s[n].conj().T - f2s[n] @ f1s[n].conj().T)
        dev = dev + r_sum[n] + r_sum[n].conj().T
        dev = dev + v * pair_contract(w, s3[n], s3[n].conj())
        dev = dev - v * pair_contract(w, s4[n], s4[n].conj())
        expected = float(np.sum(w * p * p)) * np.eye(d) / v
        commutation[n] = v * np.linalg.norm(dev) / max(v * np.linalg.norm(expected), 1e-300)

    annihilator = {}
    for (a, b) in f4_sum:
        dev = 1j * HBAR * v * (f1s[a] @ f2s[b].T - f2s[a] @ f1s[b].T)
        dev = dev + f4_sum[(b, a)].T - f4_sum[(a, b)]
        dev = dev + v * pair_contract(w, s3[a], s4[b])
        dev = dev - v * pair_contract(w, s4[a], s3[b])
        expected = float(np.sum(w * profiles[a] * profiles[b])) * np.eye(d) / v
        annihilator[f"{a}*{b}"] = v * np.linalg.norm(dev) / max(v * np.linalg.norm(expected), 1e-300)

    return StreamedModeChecks(
        potential_ratio=float(np.sqrt(sq["ratio_n"] / max(sq["ratio_d"], 1e-300))),
        wave=float(np.sqrt(sq["wave_n"] / max(sq["wave_d"], 1e-300))),
        resonant={n: float(np.sqrt(res_n[n] / max(res_d[n], 1e-300))) for n in profiles},
        antiresonant={n: float(np.sqrt(anti_n[n] / max(res_d[n], 1e-300))) for n in profiles},
        commutation=commutation,
        annihilator=annihilator,
    )


def smeared_annihilator_norm(modes: ModeCoefficients) -> dict:
    """Weak-form annihilator commutator norm over mixed profile pairs.

    The two node indices are smeared with different profiles: the pair
    commutator is antisymmetric under a joint swap and transpose, so equal
    profiles would cancel it identically for any isotropic model and test
    nothing.
    """
    lattice = modes.lattice
    v = lattice.cell_volume
    w = modes.grid.weights
    profs = modes._profiles
    pairs = [("const", "linear"), ("linear", "const")]
    out = {}
    for na, nb in pairs:
        wa, wb = w * profs[na], w * profs[nb]
        f1a = np.einsum("k,kab->ab", wa, modes.potential)
        f2a = np.einsum("k,kab->ab", wa, modes.momentum)
        f1b = np.einsum("k,kab->ab", wb, modes.potential)
        f2b = np.einsum("k,kab->ab", wb, modes.momentum)
        dev = 1j * HBAR * v * (f1a @ f2b.T - f2a @ f1b.T)
        f4_ba = np.einsum("k,l,klab->ab", wb, wa, modes.antiresonant)
        f4_ab = np.einsum("k,l,klab->ab", wa, wb, modes.antiresonant)
        dev = dev + f4_ba.T - f4_ab
        s3a = np.einsum("k,kmab->mab", wa, modes.resonant)
        s4a = np.einsum("k,kmab->mab", wa, modes.antiresonant)
        s3b = np.einsum("k,kmab->mab", wb, modes.resonant)
        s4b = np.einsum("k,kmab->mab", wb, modes.antiresonant)
        dev = dev + v * pair_contract(w, s3a, s4b)
        dev = dev - v * pair_contract(w, s4a, s3b)
        expected = float(np.sum(wa * profs[nb])) * np.eye(lattice.dim) / v
        scale = max(v * np.linalg.norm(expected), 1e-300)
        out[f"{na}*{nb}"] = v * np.linalg.norm(dev) / scale
    return out
