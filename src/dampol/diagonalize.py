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
against smooth profiles before taking norms, every profile at once: the
profiles are the leading axis of each smeared array.

Every family is built from the per-node formulas of `_NodeKernels`, read
from one `green.NodePropagator`: the propagator at every node just below
the cut, with the coupling it was solved for.  Every identity is defined
once, in `_ModeCheckSums`, from per-node sums of the pair rows; two routes
form those sums and both return `ModeChecks`.  `streamed_mode_checks`, the
production route, factorizes the pair rows into a per-node transfer
kernel, a (K, K) frequency factor and the coupling, so every sum over the
pair index is a (K, K) @ (K, d^2) GEMM, shifted sums reduce to unshifted
ones by exact pole-shift identities, and no pair row is ever formed:
O(K^2 d^2 + K d^3) time and O(K d^2) memory.  `fano_residual`, the
tests' reference, sums the 2 K^2 d^2 pair families that `mode_coefficients`
stacks.  The assembled-Hamiltonian oracle reads the explicit rows one node
at a time from `node_families`, so no production path holds those stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import EPS0, HBAR, MU0
from .coupling import CouplingTensor, StructureTensor
from .green import NodePropagator, wave_operator
from .lattice import FrequencyGrid, Lattice, TensorKernel, pair_contract, sq_norms

#: smearing profiles used for weak-form residuals, as functions of w/w_max
SMEAR_PROFILES = {
    "const": lambda x: np.ones_like(x),
    "linear": lambda x: x,
}


def smear_profiles(grid: FrequencyGrid) -> np.ndarray:
    """Every smearing profile at the grid nodes, (P, K) in `SMEAR_PROFILES` order."""
    x = grid.nodes / grid.omega_max
    return np.array([fn(x) for fn in SMEAR_PROFILES.values()])


@dataclass(frozen=True, eq=False)
class ModeCoefficients:
    """Coefficient kernels of the diagonalizing transformation."""

    lattice: Lattice
    grid: FrequencyGrid
    potential: np.ndarray      # (K, d, d)
    momentum: np.ndarray       # (K, d, d)
    resonant: np.ndarray       # (K, K, d, d), regular part only
    antiresonant: np.ndarray   # (K, K, d, d)


class _NodeKernels:
    """The per-node formulas of the four coefficient families.

    The propagator sits at every node just below the cut (w_k - i eta);
    the pole factor between node pairs uses the same eta.  The pair rows
    factorize as

        resonant[k, l]     = mu0 hbar v (-w_k Xt_k + pole[k, l] X_k) T(w_l)^T
        antiresonant[k, l] = mu0 hbar v ( w_k Xt_k - anti[k, l] X_k) T(w_l)^H

    with X_k = `transfer(k)`, read from the propagator's (K, d, d) kernel
    stack, Xt_k = X_k o P_T and the (K, K) coefficient matrices `pole` and
    `anti` held here; nothing else held grows beyond K d^2.  A shift of
    either by the pair's node frequency is exact algebra on the same
    matrices, with no new sum over l:

        (w_l - w_k) pole[k, l] = -w_k^2 - i eta pole[k, l]
        (w_l + w_k) anti[k, l] =  w_k^2
        w_l pole[k, l]         = (w_k - i eta) pole[k, l] - w_k^2
        w_l anti[k, l]         =  w_k^2 - w_k anti[k, l]

    These apply only the shift, never a smear profile, so they hold for any
    `SMEAR_PROFILES`.
    """

    def __init__(self, prop: NodePropagator):
        coupling = prop.coupling
        grid = coupling.grid
        self.grid, self.green, self.kernels = grid, prop.kernels, coupling.kernels
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
        return self.lattice.cell_volume * self.kernels[k].conj() @ self.green[k]

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
    K, d = rows.grid.n_nodes, rows.lattice.dim
    momentum = np.empty((K, d, d), dtype=complex)
    for k in range(K):
        momentum[k] = rows.families(k)[3]
    return momentum


def node_families(prop: NodePropagator):
    """Per node k, in order: its potential and momentum kernels (d, d) and its
    resonant (regular part) and antiresonant rows (K, d, d)."""
    rows = _NodeKernels(prop)
    for k in range(rows.grid.n_nodes):
        x, xt, pot, mom = rows.families(k)
        yield (pot, mom, *rows.pair_rows(k, x, xt))


def mode_coefficients(prop: NodePropagator) -> ModeCoefficients:
    """The four coefficient families stacked over the nodes, node-pair stacks included."""
    potential, momentum, resonant, antiresonant = map(np.stack, zip(*node_families(prop)))
    return ModeCoefficients(lattice=prop.coupling.lattice, grid=prop.coupling.grid,
                            potential=potential, momentum=momentum, resonant=resonant,
                            antiresonant=antiresonant)


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
    waves = wave_operator(prop.chi.stack(prop.z), prop.z, lattice)
    out = 0.0
    for k, wave in enumerate(waves):
        source = rows.kernels[k].conj()
        res = np.linalg.norm(v * rows.transfer(k) @ wave - source)
        out = max(out, res / max(np.linalg.norm(source), 1e-300))
    return float(out)


# -- the mode-kernel identities -------------------------------------------


@dataclass(frozen=True)
class ModeChecks:
    """Relative residuals of the mode-kernel identities.

    `potential_ratio` is the algebraic ratio identity between the first two
    families (zero by construction) and `wave` the transverse wave-type
    equation.  The rest are weak-form values keyed by smear profile: the
    two-frequency relations `resonant` and `antiresonant`, the canonical
    commutator deviation `commutation`, and the annihilator commutator norm
    `annihilator`, keyed ``"a*b"`` over ordered pairs of distinct profiles.
    """

    potential_ratio: float
    wave: float
    resonant: dict
    antiresonant: dict
    commutation: dict
    annihilator: dict

    def max_residual(self) -> float:
        """Worst defining-equation residual."""
        return max(self.potential_ratio, self.wave,
                   max(self.resonant.values()), max(self.antiresonant.values()))


class _ModeCheckSums:
    """The one definition of every `ModeChecks` identity, fed node by node.

    With q_l the quadrature weights, w_l the nodes, v the cell volume and
    resonant[k, l] the regular part (the Kronecker part is added here,
    symbolically), `add` takes the potential and momentum kernels of node k
    and its pair sums

        wave  = v sum_l q_l w_l [resonant[k, l] T*(w_l) - antiresonant[k, l] T(w_l)]
        brace = v sum_l q_l     [resonant[k, l] T*(w_l) + antiresonant[k, l] T(w_l)]

    and, with phi[p, l] = q_l profile_p(w_l) for the smear profiles in
    `SMEAR_PROFILES` order, the four (P, d, d) smeared pair sums

        (sum_l phi_l resonant[k, l],     sum_l phi_l (w_l - w_k) resonant[k, l],
         sum_l phi_l antiresonant[k, l], sum_l phi_l (w_l + w_k) antiresonant[k, l]).

    `finish` takes the (P, K, d, d) families smeared over k, s3[p, l] =
    sum_k phi[p, k] resonant[k, l] and s4 likewise for the antiresonant one.

    Residuals use one global normalization, the quadrature norm of the
    residuals over the same norm of the scales, rather than per-node ratios:
    the lowest nodes sit a fixed number of spacings above zero, so their
    local relative error never shrinks even though their absolute
    contribution does.  The antiresonant relation borrows the resonant
    relation's scale, whose right-hand side carries the exact singular part.
    The annihilator norm smears its two node indices with different
    profiles: the pair commutator is antisymmetric under a joint swap and
    transpose, so equal profiles would cancel it identically for any
    isotropic model and test nothing.
    """

    def __init__(self, coupling: CouplingTensor, structure: StructureTensor):
        grid, lattice = coupling.grid, coupling.lattice
        K, d = grid.n_nodes, lattice.dim
        self.grid, self.lattice, self.kernels = grid, lattice, coupling.kernels
        self.eye_v = np.eye(d) / lattice.cell_volume
        self.f_pt = structure.kernel.mat @ lattice.transverse_matrix
        self.names = list(SMEAR_PROFILES)
        self.profiles = smear_profiles(grid)
        self.phi = grid.weights * self.profiles
        P = len(self.names)
        self.pairs = [(a, b) for a in range(P) for b in range(P) if a != b]
        # sum_l phi_l T_l^T, sum_l phi_l w_l T_l^T and their conjugates, (P, d, d) each
        t_flat = coupling.kernels.reshape(K, d * d)
        t_sm, t_sm_w = ((phi[:, None] @ t_flat).reshape(P, d, d).transpose(0, 2, 1)
                        for phi in (self.phi, self.phi * grid.nodes))
        self.t_sm = (t_sm, t_sm_w, t_sm.conj(), t_sm_w.conj())
        self.f1s, self.f2s, self.r_sum = (np.zeros((P, d, d), dtype=complex) for _ in range(3))
        self.f4_sum = np.zeros((P, P, d, d), dtype=complex)
        self.sq = dict.fromkeys(("ratio_n", "ratio_d", "wave_n", "wave_d"), 0.0)
        self.res_n, self.res_d, self.anti_n = (np.zeros(P) for _ in range(3))

    def add(self, k: int, pot: np.ndarray, mom: np.ndarray, wave: np.ndarray,
            brace: np.ndarray, smeared: tuple):
        lattice, sq = self.lattice, self.sq
        v = lattice.cell_volume
        om, wk = self.grid.nodes[k], self.grid.weights[k]
        tck = self.kernels[k].conj()

        # ratio identity
        diff = (1j / EPS0) * pot - om * mom
        sq["ratio_n"] += wk * np.linalg.norm(diff) ** 2
        sq["ratio_d"] += wk * np.linalg.norm(om * mom) ** 2

        # wave-type equation for this node
        term = (1j / MU0) * (mom @ lattice.laplacian_matrix) - 1j * HBAR * v * mom @ self.f_pt
        term += (wave + om * tck) @ lattice.transverse_matrix
        rhs = om * pot
        sq["wave_n"] += wk * np.linalg.norm(term - rhs) ** 2
        sq["wave_d"] += wk * np.linalg.norm(rhs) ** 2

        # two-frequency relations in weak form, every profile at once; the
        # Kronecker parts of the resonant family cancel between the two sides exactly
        brace = (brace + tck) @ lattice.longitudinal_matrix
        res_sum, omdiff, anti, omsum = smeared
        t_sm, t_sm_w, tc_sm, tc_sm_w = self.t_sm
        r35 = (-1j * HBAR * v * mom @ t_sm_w + omdiff
               + (HBAR / EPS0) * v * brace @ t_sm)
        rhs35 = om * (self.profiles[:, k, None, None] * self.eye_v + res_sum)
        self.res_n += wk * sq_norms(r35)
        self.res_d += wk * sq_norms(rhs35)
        r36 = (-1j * HBAR * v * mom @ tc_sm_w - omsum
               - (HBAR / EPS0) * v * brace @ tc_sm)
        self.anti_n += wk * sq_norms(r36)

        phi = self.phi[:, k, None, None]
        self.f1s += phi * pot
        self.f2s += phi * mom
        self.r_sum += phi * res_sum
        self.f4_sum += phi[:, None] * anti   # [a, b] += phi[a, k] anti[b]

    def finish(self, s3: np.ndarray, s4: np.ndarray) -> ModeChecks:
        """The commutator norms from the k-smeared families, and every residual."""
        v, w, d = self.lattice.cell_volume, self.grid.weights, self.lattice.dim
        f1s, f2s, r_sum, f4_sum, names = self.f1s, self.f2s, self.r_sum, self.f4_sum, self.names

        def relative(dev, a, b):
            """Norm of dev over the smeared exact part, profiles a and b."""
            expected = float(np.sum(w * self.profiles[a] * self.profiles[b])) * np.eye(d) / v
            return v * np.linalg.norm(dev) / max(v * np.linalg.norm(expected), 1e-300)

        commutation = {}
        for p, n in enumerate(names):
            dev = 1j * HBAR * v * (f1s[p] @ f2s[p].conj().T - f2s[p] @ f1s[p].conj().T)
            dev = dev + r_sum[p] + r_sum[p].conj().T
            dev = dev + v * pair_contract(w, s3[p], s3[p].conj())
            dev = dev - v * pair_contract(w, s4[p], s4[p].conj())
            commutation[n] = relative(dev, p, p)

        annihilator = {}
        for (a, b) in self.pairs:
            dev = 1j * HBAR * v * (f1s[a] @ f2s[b].T - f2s[a] @ f1s[b].T)
            dev = dev + f4_sum[b, a].T - f4_sum[a, b]
            dev = dev + v * pair_contract(w, s3[a], s4[b])
            dev = dev - v * pair_contract(w, s4[a], s3[b])
            annihilator[f"{names[a]}*{names[b]}"] = relative(dev, a, b)

        def ratio(num, den):
            return np.sqrt(num / np.maximum(den, 1e-300)).tolist()

        sq = self.sq
        return ModeChecks(
            potential_ratio=ratio(sq["ratio_n"], sq["ratio_d"]),
            wave=ratio(sq["wave_n"], sq["wave_d"]),
            resonant=dict(zip(names, ratio(self.res_n, self.res_d))),
            antiresonant=dict(zip(names, ratio(self.anti_n, self.res_d))),
            commutation=commutation,
            annihilator=annihilator,
        )


def fano_residual(modes: ModeCoefficients, coupling: CouplingTensor,
                  structure: StructureTensor) -> ModeChecks:
    """Every mode-kernel identity, with the pair sums taken over the stacks.

    The reference of `streamed_mode_checks`: it shares `_ModeCheckSums`
    and sums the rows of `mode_coefficients` directly.
    """
    grid, v = modes.grid, modes.lattice.cell_volume
    nodes, w = grid.nodes, grid.weights
    t, tc_t = coupling.kernels, coupling.kernels.conj().transpose(0, 2, 1)
    t_t = t.transpose(0, 2, 1)
    sums = _ModeCheckSums(coupling, structure)
    phi = sums.phi
    for k in range(grid.n_nodes):
        res, anti = modes.resonant[k], modes.antiresonant[k]
        wave = v * (pair_contract(w * nodes, res, tc_t) - pair_contract(w * nodes, anti, t_t))
        brace = v * (pair_contract(w, res, tc_t) + pair_contract(w, anti, t_t))
        smeared = (np.tensordot(phi, res, 1), np.tensordot(phi * (nodes - nodes[k]), res, 1),
                   np.tensordot(phi, anti, 1), np.tensordot(phi * (nodes + nodes[k]), anti, 1))
        sums.add(k, modes.potential[k], modes.momentum[k], wave, brace, smeared)
    return sums.finish(np.tensordot(phi, modes.resonant, 1), np.tensordot(phi, modes.antiresonant, 1))


def streamed_mode_checks(prop: NodePropagator, structure: StructureTensor) -> ModeChecks:
    """Single-pass weak-form verification of the mode-kernel identities.

    With the factorized pair rows of `_NodeKernels`, a weighted sum over the
    pair index l against any kernels M_l is

        sum_l a[k, l] resonant[k, l] M_l
            = mu0 hbar v [-w_k Xt_k (a @ Q)_k + X_k ((a * pole) @ Q)_k]

    with Q_l = T_l^T M_l (T_l^H M_l and `anti` for the antiresonant rows): one
    (K, K) @ (K, d^2) GEMM per coefficient matrix, formed from the coupling
    alone before the node loop, the smear profiles a leading axis filled
    one profile at a time.  Every sum whose coefficient carries a shift
    w_l, w_l - w_k or w_l + w_k follows from the unshifted one by the
    pole-shift identities of `_NodeKernels`, so the pass makes 2 + 4 P
    node GEMMs for P smear profiles, 10 for the two shipped ones: two for
    the wave and brace sums, 2 P for the smeared row sums and 2 P for the
    smeared families summed over k, (phi * pole)^T @ X.  The per-node loop
    is d^3-bound, so it stays a loop.  Cost O(K^2 d^2 + K d^3); only X, the coupling and the GEMM
    results, (2 + 2 P) (K, d, d) stacks in the loop, are held.
    """
    rows = _NodeKernels(prop)
    coupling = prop.coupling
    grid = coupling.grid
    K, d, v = grid.n_nodes, coupling.lattice.dim, coupling.lattice.cell_volume
    nodes, w, eta = grid.nodes, grid.weights, grid.eta
    c = MU0 * HBAR * v
    pole, anti = rows.pole, rows.anti
    sums = _ModeCheckSums(coupling, structure)
    phi, (t_sm, t_sm_w, tc_sm, tc_sm_w) = sums.phi, sums.t_sm
    P = len(phi)
    t = coupling.kernels
    t_flat = t.reshape(K, d * d)

    def gemm(coeff, flat):
        """sum_l coeff[..., k, l] flat[l] as (..., K, d, d)."""
        return (coeff @ flat).reshape(coeff.shape[:-1] + (d, d))

    # wave and brace: M_l = T_l* (Q3_l = T_l^T T_l*) and M_l = T_l (Q4_l = T_l^H T_l);
    # by the shift identities the w_l-weighted GEMMs are the unweighted ones,
    # g_wave = w_k g_brace - i eta (pole @ Q3) + w_k^2 s_brace
    q4 = (t.conj().transpose(0, 2, 1) @ t).reshape(K, d * d)
    q3 = q4.conj()
    wn = w * nodes
    s_wave = ((wn @ q3) + (wn @ q4)).reshape(d, d)
    s_brace = ((w @ q4) - (w @ q3)).reshape(d, d)
    g_wave = gemm(w * pole, q3)
    g_brace = gemm(w * anti, q4)
    del q3, q4
    np.subtract(g_wave, g_brace, out=g_brace)
    g_wave *= -1j * eta
    g_wave += nodes[:, None, None] * g_brace
    g_wave += nodes[:, None, None] ** 2 * s_brace

    # M_l = identity, per profile: the row sums over T^T and over T^H; the
    # shifted rows (w_l - w_k) pole = -w_k^2 - i eta pole and (w_l + w_k) anti
    # = w_k^2 need no GEMM.  The antiresonant coefficients are real, so their
    # sums over T* are the conjugated sums over T, conjugated in place
    g_res = np.empty((P, K, d, d), dtype=complex)
    g_anti = np.empty_like(g_res)
    for p, ph in enumerate(phi):
        np.matmul(ph * pole, t_flat, out=g_res[p].reshape(K, -1))
        np.matmul(ph * anti, t_flat, out=g_anti[p].reshape(K, -1))
    np.conj(g_anti, out=g_anti)

    def smeared(k, xk, xtk):
        """The four smeared pair sums of node k, (P, d, d) each."""
        om = nodes[k]
        res = xk @ g_res[:, k].swapaxes(-1, -2)
        ant = xk @ g_anti[:, k].swapaxes(-1, -2)
        res_w = -om**2 * (xk @ t_sm) - 1j * eta * res   # the (w_l - w_k)-weighted row sums
        ant_w = om**2 * (xk @ tc_sm)                     # the (w_l + w_k)-weighted ones
        return (c * (res - om * xtk @ t_sm),
                c * (res_w - om * xtk @ (t_sm_w - om * t_sm)),
                c * (om * xtk @ tc_sm - ant),
                c * (om * xtk @ (tc_sm_w + om * tc_sm) - ant_w))

    x_stack = np.empty((K, d, d), dtype=complex)
    y = np.zeros((P, d, d), dtype=complex)   # sum_k phi_k w_k Xt_k
    for k in range(K):
        om = nodes[k]
        xk, xtk, pot, mom = rows.families(k)
        x_stack[k] = xk
        y += (phi[:, k, None, None] * om) * xtk
        sums.add(k, pot, mom, v * c * (xk @ g_wave[k] - om * xtk @ s_wave),
                 v * c * (xk @ g_brace[k] + om * xtk @ s_brace), smeared(k, xk, xtk))
    del g_wave, g_brace, g_res, g_anti

    # s3[p, l] = sum_k phi[p, k] resonant[k, l], s4 likewise
    x_flat = x_stack.reshape(K, d * d)
    t_t = t.transpose(0, 2, 1)
    t_h = t_t.conj()
    s3 = np.empty((P, K, d, d), dtype=complex)
    s4 = np.empty_like(s3)
    for p, ph in enumerate(phi):
        np.matmul(c * (gemm((ph[:, None] * pole).T, x_flat) - y[p]), t_t, out=s3[p])
        np.matmul(c * (y[p] - gemm((ph[:, None] * anti).T, x_flat)), t_h, out=s4[p])
    return sums.finish(s3, s4)


# -- pair-resolved commutators ---------------------------------------------


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
