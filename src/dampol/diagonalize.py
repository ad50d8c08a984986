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
against smooth profiles before taking norms, one profile at a time.

Every family is built from the per-node formulas of `_NodeKernels`, read
from one `green.NodePropagator`: the propagator at every node just below
the cut, with the coupling it was solved for.  Every identity is defined
once, in `_ModeCheckSums`, from per-node sums of the pair rows, taken for
every node at once as flat block stacks in the coupling's layout, the run's;
two routes form those sums and both return `ModeChecks`.
`streamed_mode_checks`, the production route, factorizes the pair rows into
a per-node transfer kernel, a (K, K) frequency factor and the coupling, so
every sum over the pair index is a (K, K) @ (K, size) GEMM (a
`lattice.cauchy_sum`, whose coefficients come a bounded chunk of rows at a
time), shifted sums reduce to unshifted ones by exact pole-shift
identities, and no pair row is ever formed: O(K^2 size + K sum_b S_b b^3)
time and O(K size) memory, with size = sum_b S_b b^2 the entries of the
S_b blocks of each size b.
`fano_residual`, the tests' reference, sums the explicit pair rows that
`mode_coefficients` holds as (K, K, size) blocks in the same layout.  The
assembled-Hamiltonian oracle reads the same rows of every node from
`node_families`; no code of the package forms a site operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import EPS0, HBAR, MU0
from .coupling import CouplingTensor, StructureTensor
from .green import NodePropagator
from .lattice import FrequencyGrid, SectorLayout, cauchy_sum, sq_norms

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
    """Coefficient kernels of the diagonalizing transformation, as blocks in `layout`, the propagator's."""

    layout: SectorLayout
    grid: FrequencyGrid
    potential: np.ndarray      # (K, size)
    momentum: np.ndarray       # (K, size)
    resonant: np.ndarray       # (K, K, size), regular part only
    antiresonant: np.ndarray   # (K, K, size)


class _NodeKernels:
    """The pole factors of the per-node formulas of the four coefficient families.

    The propagator sits at every node just below the cut (w_k - i eta);
    the pole factor between node pairs uses the same eta.  The pair rows
    factorize as

        resonant[k, l]     = mu0 hbar v (-w_k Xt_k + pole[k, l] X_k) T(w_l)^T
        antiresonant[k, l] = mu0 hbar v ( w_k Xt_k - anti[k, l] X_k) T(w_l)^H

    with X_k = v T*(w_k) o G(w_k - i eta) the transfer kernel, Xt_k = X_k o
    P_T and the (K, K) coefficient matrices `pole` and `anti`.  Both are
    Cauchy matrices up to a factor w_k^2 per node,

        pole[k, l] = -w_k^2 / (w_l - (w_k - i eta)) = w_k^2 / (w_k - (w_l + i eta)),
        anti[k, l] =  w_k^2 / (w_l - (-w_k))        = w_k^2 / (w_k - (-w_l)),

    so a node sum against either, over l or over k, is one `cauchy_sum`
    (`pole_sum`, `anti_sum`) and neither matrix is held whole; nothing held
    grows beyond K d^2.  A shift of either by the pair's node frequency is
    exact algebra on the same matrices, with no new sum over l:

        (w_l - w_k) pole[k, l] = -w_k^2 - i eta pole[k, l]
        (w_l + w_k) anti[k, l] =  w_k^2
        w_l pole[k, l]         = (w_k - i eta) pole[k, l] - w_k^2
        w_l anti[k, l]         =  w_k^2 - w_k anti[k, l]

    These apply only the shift, never a smear profile, so they hold for any
    `SMEAR_PROFILES`.  `node_families` forms the families of every node
    from X (`_transfer_blocks`) and the whole matrices.
    """

    def __init__(self, grid: FrequencyGrid):
        self.nodes, self.eta = grid.nodes, grid.eta

    def matrices(self) -> tuple:
        """The whole (K, K) matrices `pole` and `anti`."""
        om = self.nodes[:, None]
        return om**2 / (om - self.nodes - 1j * self.eta), om**2 / (om + self.nodes)

    def pole_sum(self, a: np.ndarray, stack: np.ndarray, over_k: bool = False) -> np.ndarray:
        """sum_l pole[k, l] a_l stack[l] of every node k, or with `over_k` sum_k a_k pole[k, l] stack[k] of every l, (K, size)."""
        nodes = self.nodes
        if over_k:
            return cauchy_sum(nodes, a * nodes**2, nodes + 1j * self.eta, stack)
        out = cauchy_sum(nodes, a, nodes - 1j * self.eta, stack)
        out *= -nodes[:, None] ** 2
        return out

    def anti_sum(self, a: np.ndarray, stack: np.ndarray, over_k: bool = False) -> np.ndarray:
        """sum_l anti[k, l] a_l stack[l] of every node k, or with `over_k` sum_k a_k anti[k, l] stack[k] of every l, (K, size)."""
        nodes = self.nodes
        if over_k:
            return cauchy_sum(nodes, a * nodes**2, -nodes, stack)
        out = cauchy_sum(nodes, a, -nodes, stack)
        out *= nodes[:, None] ** 2
        return out


def _transfer_blocks(prop: NodePropagator) -> np.ndarray:
    """X_k = v T*(w_k) o G(w_k - i eta) of every node in the propagator's layout, (K, size): one stacked product."""
    return prop.layout.matmul(prop.lattice.cell_volume * prop.coupling.flat.conj(), prop.blocks)


def momentum_family(prop: NodePropagator) -> np.ndarray:
    """The momentum coefficient kernels i mu0 w_k X_k o P_T of every node, (K, size).

    Formed in the propagator's layout by two stacked products: two block
    stacks are live.
    """
    layout = prop.layout
    xt = layout.matmul(_transfer_blocks(prop), layout.op("transverse_matrix"))
    xt *= (1j * MU0 * prop.coupling.grid.nodes)[:, None]
    return xt


def node_families(prop: NodePropagator) -> tuple:
    """The four coefficient families of every node as blocks in the propagator's layout.

    Returns the potential and momentum kernels, (K, size), and the resonant
    (regular part) and antiresonant rows, (K, K, size) with row k the
    node's: each pair stack is one broadcast product against the coupling.
    """
    grid, v, layout = prop.coupling.grid, prop.lattice.cell_volume, prop.layout
    (pole, anti), om = _NodeKernels(grid).matrices(), grid.nodes[:, None]
    c = MU0 * HBAR * v
    x = _transfer_blocks(prop)
    xt = layout.matmul(x, layout.op("transverse_matrix"))
    t_t = layout.transpose(prop.coupling.flat)
    resonant = layout.matmul(c * (pole[:, :, None] * x[:, None] - (om * xt)[:, None]), t_t)
    antiresonant = layout.matmul(c * ((om * xt)[:, None] - anti[:, :, None] * x[:, None]),
                                 t_t.conj())
    return om**2 * xt, 1j * MU0 * om * xt, resonant, antiresonant


def mode_coefficients(prop: NodePropagator) -> ModeCoefficients:
    """The four coefficient families of `node_families`, the node-pair rows included, as one record."""
    potential, momentum, resonant, antiresonant = node_families(prop)
    return ModeCoefficients(layout=prop.layout, grid=prop.coupling.grid, potential=potential,
                            momentum=momentum, resonant=resonant, antiresonant=antiresonant)


def wave_diagnostic(prop: NodePropagator) -> float:
    """Residual of the inhomogeneous wave equation for the auxiliary kernel, worst node.

    The auxiliary combination -w_k^2 X_k equals the source -w_k^2 T*(w_k)
    contracted with the propagator by construction, so v X_k o W(z_k) =
    T*(w_k) with W the wave operator at the solve's point; the residual
    vanishes to solver precision and validates the plumbing rather than the
    regularization.  Every node is one stacked product in the propagator's
    layout with the operator v W(z_k) that the sweep inverted
    (`NodePropagator.operator`), and sums no chi of its own: about three
    (K, size) block stacks are live at the peak (3.03 at n = 2, K = 128,
    and 3.00 at K = 1024).
    """
    source = prop.coupling.flat.conj()
    res = prop.layout.matmul(_transfer_blocks(prop), prop.operator)
    res -= source
    return float(np.max(np.sqrt(sq_norms(res)) / np.maximum(np.sqrt(sq_norms(source)), 1e-300)))


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
    """The one definition of every `ModeChecks` identity, fed every node at once.

    Every operator is a flat block stack in the coupling's layout, (K, size)
    per node.  With q_l the quadrature weights, w_l the nodes, v the cell
    volume and resonant[k, l] the regular part (the Kronecker part is added
    here, symbolically), `add` takes the potential and momentum kernels of
    every node k and its pair sums

        wave  = v sum_l q_l w_l [resonant[k, l] T*(w_l) - antiresonant[k, l] T(w_l)]
        brace = v sum_l q_l     [resonant[k, l] T*(w_l) + antiresonant[k, l] T(w_l)]

    and keeps the momentum kernels and the longitudinal brace for the
    per-profile entry `add_profile`.  That takes, for one smear profile p
    with phi_l = q_l profile_p(w_l) (`phi[p]`, profiles in `SMEAR_PROFILES`
    order), the four smeared pair sums

        (sum_l phi_l resonant[k, l],     sum_l phi_l (w_l - w_k) resonant[k, l],
         sum_l phi_l antiresonant[k, l], sum_l phi_l (w_l + w_k) antiresonant[k, l])

    and reduces them at once to their norms and node sums, so a route holds
    one profile's families at a time.  `finish` takes the families smeared
    over k, s3[p][l] = sum_k phi[p, k] resonant[k, l] and s4 likewise for
    the antiresonant one, (K, size) per profile.

    Residuals use one global normalization, the quadrature norm of the
    residuals over the same norm of the scales, rather than per-node ratios:
    the lowest nodes sit a fixed number of spacings above zero, so their
    local relative error never shrinks even though their absolute
    contribution does.  The antiresonant relation borrows the resonant
    relation's scale, whose right-hand side carries the exact singular part.
    The annihilator norm smears its two node indices with different
    profiles: the pair commutator is antisymmetric under a joint swap and
    transpose, so equal profiles would cancel it identically for any
    isotropic model and test nothing.  Norms are those of the flat rows, the
    site operators' Frobenius norms.
    """

    def __init__(self, coupling: CouplingTensor, structure: StructureTensor):
        grid, layout = coupling.grid, coupling.layout
        v = coupling.lattice.cell_volume
        self.grid, self.layout, self.v = grid, layout, v
        self.t = coupling.flat
        self.eye_v = layout.identity / v
        self.pt, self.pl = layout.op("transverse_matrix"), layout.op("longitudinal_matrix")
        # the momentum family's own terms of the wave equation, as one operator
        f_pt = layout.matmul(structure.blocks, self.pt)
        self.mom_wave = (1j / MU0) * layout.op("laplacian_matrix") - 1j * HBAR * v * f_pt
        self.names = list(SMEAR_PROFILES)
        self.profiles = smear_profiles(grid)
        self.phi = grid.weights * self.profiles
        P = len(self.names)
        self.pairs = [(a, b) for a in range(P) for b in range(P) if a != b]
        # sum_l phi_l T_l^T, sum_l phi_l w_l T_l^T and their conjugates, (P, size) each
        self.t_t = layout.transpose(self.t)
        t_sm, t_sm_w = (phi @ self.t_t for phi in (self.phi, self.phi * grid.nodes))
        self.t_sm = (t_sm, t_sm_w, t_sm.conj(), t_sm_w.conj())
        self.res_n, self.res_d, self.anti_n = np.zeros(P), np.zeros(P), np.zeros(P)
        self.r_sum = np.empty((P, layout.size), dtype=complex)
        self.f4_sum = np.empty((P, P, layout.size), dtype=complex)

    def add(self, pot: np.ndarray, mom: np.ndarray, wave: np.ndarray, brace: np.ndarray):
        mm = self.layout.matmul
        om, wk = self.grid.nodes[:, None], self.grid.weights
        tc = self.t.conj()

        # ratio identity
        scale = om * mom
        diff = (1j / EPS0) * pot - scale
        self.sq = {"ratio_n": wk @ sq_norms(diff), "ratio_d": wk @ sq_norms(scale)}
        del diff, scale

        # wave-type equation of every node
        term = mm(mom, self.mom_wave)
        term += mm(wave + om * tc, self.pt)
        rhs = om * pot
        term -= rhs
        self.sq["wave_n"], self.sq["wave_d"] = wk @ sq_norms(term), wk @ sq_norms(rhs)
        del term, rhs

        # the two-frequency relations read the momentum kernels and the
        # brace; the Kronecker parts of the resonant family cancel between
        # their two sides exactly
        self.mom, self.brace = mom, mm(brace + tc, self.pl)
        self.f1s, self.f2s = self.phi @ pot, self.phi @ mom

    def add_profile(self, p: int, res_sum: np.ndarray, omdiff: np.ndarray, anti: np.ndarray,
                    omsum: np.ndarray):
        """The two-frequency relations of smear profile p from its four smeared pair sums, after `add`."""
        mm, hv = self.layout.matmul, HBAR * self.v
        om, wk = self.grid.nodes[:, None], self.grid.weights
        t_sm, t_sm_w, tc_sm, tc_sm_w = (a[p] for a in self.t_sm)
        r35 = mm(self.mom, -1j * hv * t_sm_w)
        r35 += omdiff
        r35 += mm(self.brace, (hv / EPS0) * t_sm)
        rhs35 = self.profiles[p][:, None] * self.eye_v + res_sum
        rhs35 *= om
        self.res_n[p], self.res_d[p] = sq_norms(r35) @ wk, sq_norms(rhs35) @ wk
        del r35, rhs35
        r36 = mm(self.mom, -1j * hv * tc_sm_w)
        r36 -= omsum
        r36 -= mm(self.brace, (hv / EPS0) * tc_sm)
        self.anti_n[p] = sq_norms(r36) @ wk
        del r36
        self.r_sum[p] = self.phi[p] @ res_sum
        self.f4_sum[:, p] = self.phi @ anti   # [a, b] = sum_k phi[a, k] anti_b[k]

    def finish(self, s3, s4) -> ModeChecks:
        """The commutator norms from the k-smeared families, and every residual."""
        layout, v, w = self.layout, self.v, self.grid.weights
        mm, tr, contract = layout.matmul, layout.transpose, layout.pair_contract
        f1s, f2s, r_sum, f4_sum, names = self.f1s, self.f2s, self.r_sum, self.f4_sum, self.names
        eye_norm = np.linalg.norm(self.eye_v)

        def relative(dev, a, b):
            """Norm of dev over the smeared exact part, profiles a and b."""
            expected = abs(float(np.sum(w * self.profiles[a] * self.profiles[b]))) * eye_norm
            return v * np.linalg.norm(dev) / max(v * expected, 1e-300)

        commutation = {}
        for p, name in enumerate(names):
            dev = 1j * HBAR * v * (mm(f1s[p], tr(f2s[p]).conj()) - mm(f2s[p], tr(f1s[p]).conj()))
            dev += r_sum[p] + tr(r_sum[p]).conj()
            dev += v * contract(w, s3[p], s3[p].conj())
            dev -= v * contract(w, s4[p], s4[p].conj())
            commutation[name] = relative(dev, p, p)

        annihilator = {}
        for (a, b) in self.pairs:
            dev = 1j * HBAR * v * (mm(f1s[a], tr(f2s[b])) - mm(f2s[a], tr(f1s[b])))
            dev += tr(f4_sum[b, a]) - f4_sum[a, b]
            dev += v * contract(w, s3[a], s4[b])
            dev -= v * contract(w, s4[a], s3[b])
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
    """Every mode-kernel identity, with the pair sums taken over the explicit rows.

    The reference of `streamed_mode_checks`: it sums the (K, K, size) rows
    of `mode_coefficients` directly, in the coupling's layout, and feeds
    `_ModeCheckSums` the resulting stacks, one smear profile at a time
    through the same per-profile entry.
    """
    grid, layout = modes.grid, coupling.layout
    K, nodes, w, v = grid.n_nodes, grid.nodes, grid.weights, layout.lattice.cell_volume
    sums = _ModeCheckSums(coupling, structure)
    phi = sums.phi
    res, anti = modes.resonant, modes.antiresonant
    # the pair sums against T* and T of every row: sum_l q_l rows[k, l] @ (T^H_l)^T, ...
    t_h, t_t = sums.t_t.conj(), sums.t_t
    wave = v * (layout.pair_contract(w * nodes, res, t_h) - layout.pair_contract(w * nodes, anti, t_t))
    brace = v * (layout.pair_contract(w, res, t_h) + layout.pair_contract(w, anti, t_t))
    sums.add(modes.potential, modes.momentum, wave, brace)
    for p, phi_p in enumerate(phi):
        families = np.empty((4, K, layout.size), dtype=complex)
        for k in range(K):
            families[:, k] = (phi_p @ res[k], (phi_p * (nodes - nodes[k])) @ res[k],
                              phi_p @ anti[k], (phi_p * (nodes + nodes[k])) @ anti[k])
        sums.add_profile(p, *families)
    return sums.finish(np.tensordot(phi, res, 1), np.tensordot(phi, anti, 1))


def streamed_mode_checks(prop: NodePropagator, structure: StructureTensor) -> ModeChecks:
    """Single-pass weak-form verification of the mode-kernel identities, every node at once.

    With the factorized pair rows of `_NodeKernels`, a weighted sum over the
    pair index l against any kernels M_l is

        sum_l a_l resonant[k, l] M_l
            = mu0 hbar v [-w_k Xt_k sum_l a_l Q_l + X_k sum_l pole[k, l] a_l Q_l]

    with Q_l = T_l^T M_l (T_l^H M_l and `anti` for the antiresonant rows),
    formed from the coupling alone.  The weights a (quadrature weights or a
    smear profile) enter the numerators of the Cauchy coefficients, so the
    last sum is one (K, K) @ (K, size) GEMM whose coefficient rows come a
    bounded chunk at a time (`_NodeKernels.pole_sum`, `anti_sum`) and no
    (P, K, K) product of profiles and poles is formed.  Every sum whose coefficient carries a shift w_l, w_l - w_k or w_l + w_k
    follows from the unshifted one by the pole-shift identities of
    `_NodeKernels`, so the pass makes 2 + 4 P node sums for P smear
    profiles, 10 for the two shipped ones: two for the wave and brace sums,
    2 P for the smeared row sums and 2 P for the smeared families summed
    over k, pole^T @ (phi X).

    Every operator is a flat block stack in the propagator's layout, and
    every product one batched `matmul` per block size over the node axis:
    there is no per-node loop.  A product against a node-independent
    operator (the projectors, `mom_wave`, the smeared sums `t_sm`) folds
    the node axis into the GEMM rows: S_b b GEMMs of (K x b) @ (b x b) per
    block size in place of K S_b of b x b, when K > b.  A product of two
    node-varying stacks, such as X G_wave, is one GEMM per node and block,
    or for complex 3 x 3 blocks with K S_3 >= 256 nine entries of three
    multiply-adds along the whole stack (`SectorLayout.matmul`).  Cost
    O(K^2 size + K sum_b S_b b^3).  The smear profiles are taken one at a
    time: the four smeared families of a profile are formed and reduced by
    `_ModeCheckSums.add_profile` before the next profile's, so the working
    set does not grow with the number of profiles.  The peak comes while a
    profile's families are reduced: about 13 (K, size) block stacks beside
    the propagator and the coupling (13.15 at n = 2, K = 128, where a block
    stack is an eighth of a (K, d, d) one), five of them held through the
    pass (X, Xt, T^T, the momentum kernels and the brace).
    """
    coupling = prop.coupling
    grid, v = coupling.grid, coupling.lattice.cell_volume
    rows = _NodeKernels(grid)
    nodes, w, eta = grid.nodes, grid.weights, grid.eta
    om = nodes[:, None]
    c = MU0 * HBAR * v
    mm = prop.layout.matmul
    sums = _ModeCheckSums(coupling, structure)
    phi = sums.phi
    t, t_t = sums.t, sums.t_t
    x = _transfer_blocks(prop)
    xt = mm(x, sums.pt)

    # wave and brace: M_l = T_l* (Q3_l = T_l^T T_l*) and M_l = T_l (Q4_l = T_l^H T_l);
    # by the shift identities the w_l-weighted sums are the unweighted ones,
    # g_wave = w_k g_brace - i eta (pole @ (q Q3)) + w_k^2 s_brace
    q4 = mm(t_t.conj(), t)
    q3 = q4.conj()
    wn = w * nodes
    s_wave = (wn @ q3) + (wn @ q4)
    s_brace = (w @ q4) - (w @ q3)
    g_wave = rows.pole_sum(w, q3)
    del q3
    g_brace = rows.anti_sum(w, q4)
    del q4
    np.subtract(g_wave, g_brace, out=g_brace)
    g_wave *= -1j * eta
    g_wave += om * g_brace
    g_wave += om**2 * s_brace
    wave = mm(x, g_wave)
    wave -= om * mm(xt, s_wave)
    wave *= v * c
    brace = mm(x, g_brace)
    brace += om * mm(xt, s_brace)
    brace *= v * c
    del g_wave, g_brace
    sums.add(om**2 * xt, (1j * MU0) * om * xt, wave, brace)
    del wave, brace

    # M_l = identity, one profile at a time: the row sums over T^T and over
    # T^H; the shifted rows (w_l - w_k) pole = -w_k^2 - i eta pole and
    # (w_l + w_k) anti = w_k^2 need no node sum.  The antiresonant
    # coefficients are real, so their sums over T^H are the conjugated sums
    # over T^T.  The inputs of each family are freed as soon as it is formed
    for p, phi_p in enumerate(phi):
        t_sm, t_sm_w, tc_sm, tc_sm_w = (a[p] for a in sums.t_sm)
        res = mm(x, rows.pole_sum(phi_p, t_t))
        ant = rows.anti_sum(phi_p, t_t)
        ant = mm(x, np.conj(ant, out=ant))
        xt_t = om * mm(xt, t_sm)
        omdiff = c * (-om**2 * mm(x, t_sm) - 1j * eta * res - om * (mm(xt, t_sm_w) - xt_t))
        res = c * (res - xt_t)
        del xt_t
        xt_tc = om * mm(xt, tc_sm)
        omsum = c * (om * (mm(xt, tc_sm_w) + xt_tc) - om**2 * mm(x, tc_sm))
        ant = c * (xt_tc - ant)
        del xt_tc
        sums.add_profile(p, res, omdiff, ant, omsum)
        del res, omdiff, ant, omsum

    # s3[p][l] = sum_k phi[p, k] resonant[k, l], s4 likewise
    y = (phi * nodes) @ xt   # sum_k phi_k w_k Xt_k, (P, size)
    del xt
    s3 = [mm(c * (rows.pole_sum(phi_p, x, over_k=True) - y_p), t_t) for phi_p, y_p in zip(phi, y)]
    s4 = [mm(c * (y_p - rows.anti_sum(phi_p, x, over_k=True)), t_t.conj()) for phi_p, y_p in zip(phi, y)]
    del x
    return sums.finish(s3, s4)
