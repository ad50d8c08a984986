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
once, in `_ModeCheckSums`, from per-node sums of the pair rows, taken for
every node at once as flat block stacks in a `lattice.SectorLayout`; two
routes form those sums and both return `ModeChecks`.
`streamed_mode_checks`, the production route, factorizes the pair rows into
a per-node transfer kernel, a (K, K) frequency factor and the coupling, so
every sum over the pair index is a (K, K) @ (K, size) GEMM, shifted sums
reduce to unshifted ones by exact pole-shift identities, and no pair row is
ever formed; it runs in the propagator's momentum-sector layout:
O(K^2 size + K sum_b S_b b^3) time and O(K size) memory, with size =
sum_b S_b b^2 the entries of the S_b blocks of each size b.
`fano_residual`, the tests' reference, sums the 2 K^2 d^2 pair families
that `mode_coefficients` stacks and feeds them as one site-basis block.
The assembled-Hamiltonian oracle reads the explicit rows of every node from
`node_families` as (K, K, size) blocks in its own layout; no production path
holds a (K, K, d, d) site stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import EPS0, HBAR, MU0
from .coupling import CouplingTensor, StructureTensor
from .green import NodePropagator, wave_operator
from .lattice import FrequencyGrid, Lattice, SectorLayout, TensorKernel, sq_norms

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
    """The pole factors of the per-node formulas of the four coefficient families.

    The propagator sits at every node just below the cut (w_k - i eta);
    the pole factor between node pairs uses the same eta.  The pair rows
    factorize as

        resonant[k, l]     = mu0 hbar v (-w_k Xt_k + pole[k, l] X_k) T(w_l)^T
        antiresonant[k, l] = mu0 hbar v ( w_k Xt_k - anti[k, l] X_k) T(w_l)^H

    with X_k = v T*(w_k) o G(w_k - i eta) the transfer kernel, Xt_k = X_k o
    P_T and the (K, K) coefficient matrices `pole` and `anti` held here;
    nothing else held grows beyond K d^2.  A shift of either by the pair's
    node frequency is exact algebra on the same matrices, with no new sum
    over l:

        (w_l - w_k) pole[k, l] = -w_k^2 - i eta pole[k, l]
        (w_l + w_k) anti[k, l] =  w_k^2
        w_l pole[k, l]         = (w_k - i eta) pole[k, l] - w_k^2
        w_l anti[k, l]         =  w_k^2 - w_k anti[k, l]

    These apply only the shift, never a smear profile, so they hold for any
    `SMEAR_PROFILES`.  `node_families` forms the families of every node
    from X in a kernel layout (`_transfer_blocks`).
    """

    def __init__(self, prop: NodePropagator):
        grid = prop.coupling.grid
        om, nodes = grid.nodes[:, None], grid.nodes
        self.pole = om**2 / (om - nodes - 1j * grid.eta)   # [k, l] = w_k^2 / (w_k - w_l - i eta)
        self.anti = om**2 / (om + nodes)                    # [k, l] = w_k^2 / (w_k + w_l)


def _transfer_blocks(prop: NodePropagator, layout: SectorLayout) -> np.ndarray:
    """X_k = v T*(w_k) o G(w_k - i eta) of every node in `layout`, (K, size): one stacked product."""
    g = prop.layout.convert(prop.blocks, layout)
    return layout.matmul(prop.lattice.cell_volume * prop.coupling.blocks(layout).conj(), g)


def momentum_family(prop: NodePropagator) -> np.ndarray:
    """The momentum coefficient kernels i mu0 w_k X_k o P_T of every node, (K, size).

    Formed in the propagator's layout by two stacked products: two block
    stacks are live.
    """
    layout = prop.layout
    xt = layout.matmul(_transfer_blocks(prop, layout), layout.op("transverse_matrix"))
    xt *= (1j * MU0 * prop.coupling.grid.nodes)[:, None]
    return xt


def node_families(prop: NodePropagator, layout: SectorLayout) -> tuple:
    """The four coefficient families of every node as blocks in `layout`.

    Returns the potential and momentum kernels, (K, size), and the resonant
    (regular part) and antiresonant rows, (K, K, size) with row k the
    node's: each pair stack is one broadcast product against the coupling.
    The propagator is rotated into `layout` unless it is stored there.
    """
    grid, v = prop.coupling.grid, prop.lattice.cell_volume
    rows, om = _NodeKernels(prop), grid.nodes[:, None]
    c = MU0 * HBAR * v
    x = _transfer_blocks(prop, layout)
    xt = layout.matmul(x, layout.op("transverse_matrix"))
    t_t = layout.transpose(prop.coupling.blocks(layout))
    resonant = layout.matmul(c * (rows.pole[:, :, None] * x[:, None] - (om * xt)[:, None]), t_t)
    antiresonant = layout.matmul(c * ((om * xt)[:, None] - rows.anti[:, :, None] * x[:, None]),
                                 t_t.conj())
    return om**2 * xt, 1j * MU0 * om * xt, resonant, antiresonant


def mode_coefficients(prop: NodePropagator) -> ModeCoefficients:
    """The four coefficient families as site stacks, node-pair stacks included."""
    one = prop.lattice.one_block
    potential, momentum, resonant, antiresonant = map(one.sites, node_families(prop, one))
    return ModeCoefficients(lattice=prop.coupling.lattice, grid=prop.coupling.grid,
                            potential=potential, momentum=momentum, resonant=resonant,
                            antiresonant=antiresonant)


def wave_diagnostic(prop: NodePropagator) -> float:
    """Residual of the inhomogeneous wave equation for the auxiliary kernel, worst node.

    The auxiliary combination -w_k^2 X_k equals the source -w_k^2 T*(w_k)
    contracted with the propagator by construction, so v X_k o W(z_k) =
    T*(w_k) with W the wave operator at the solve's point; the residual
    vanishes to solver precision and validates the plumbing rather than the
    regularization.  Every node is one stacked product in the propagator's
    layout, with chi at the nodes summed again from the density blocks: at
    most about six (K, size) block stacks are live.
    """
    layout, v = prop.layout, prop.lattice.cell_volume
    source = prop.coupling.blocks(layout).conj()
    res = layout.matmul(_transfer_blocks(prop, layout),
                        wave_operator(prop.chi.blocks_at(prop.z), prop.z, layout))
    res *= v
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

    Every operator is a flat block stack in one `SectorLayout`: (K, size)
    per node, (P, K, size) per smear profile and node.  With q_l the
    quadrature weights, w_l the nodes, v the cell volume and resonant[k, l]
    the regular part (the Kronecker part is added here, symbolically), `add`
    takes the potential and momentum kernels of every node k and its pair
    sums

        wave  = v sum_l q_l w_l [resonant[k, l] T*(w_l) - antiresonant[k, l] T(w_l)]
        brace = v sum_l q_l     [resonant[k, l] T*(w_l) + antiresonant[k, l] T(w_l)]

    and, with phi[p, l] = q_l profile_p(w_l) for the smear profiles in
    `SMEAR_PROFILES` order, the four (P, K, size) smeared pair sums

        (sum_l phi_l resonant[k, l],     sum_l phi_l (w_l - w_k) resonant[k, l],
         sum_l phi_l antiresonant[k, l], sum_l phi_l (w_l + w_k) antiresonant[k, l]).

    `finish` takes the (P, K, size) families smeared over k, s3[p, l] =
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
    isotropic model and test nothing.  Norms are those of the flat rows, the
    site operators' Frobenius norms.
    """

    def __init__(self, coupling: CouplingTensor, structure: StructureTensor, layout: SectorLayout):
        grid, lattice = coupling.grid, coupling.lattice
        v = lattice.cell_volume
        self.grid, self.layout, self.v = grid, layout, v
        self.t = coupling.blocks(layout)
        self.eye_v = layout.identity / v
        self.pt, self.pl = layout.op("transverse_matrix"), layout.op("longitudinal_matrix")
        # the momentum family's own terms of the wave equation, as one operator
        f_pt = layout.matmul(structure.layout.convert(structure.blocks, layout), self.pt)
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

    def add(self, pot: np.ndarray, mom: np.ndarray, wave: np.ndarray, brace: np.ndarray,
            smeared: tuple):
        layout, v, hv = self.layout, self.v, HBAR * self.v
        mm = layout.matmul
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

        # two-frequency relations in weak form, every profile at once; the
        # Kronecker parts of the resonant family cancel between the two sides exactly
        brace = mm(brace + tc, self.pl)
        res_sum, omdiff, anti, omsum = smeared
        t_sm, t_sm_w, tc_sm, tc_sm_w = (a[:, None] for a in self.t_sm)
        r35 = mm(mom, -1j * hv * t_sm_w)
        r35 += omdiff
        r35 += mm(brace, (hv / EPS0) * t_sm)
        rhs35 = self.profiles[:, :, None] * self.eye_v + res_sum
        rhs35 *= om
        self.res_n, self.res_d = sq_norms(r35) @ wk, sq_norms(rhs35) @ wk
        del r35, rhs35
        r36 = mm(mom, -1j * hv * tc_sm_w)
        r36 -= omsum
        r36 -= mm(brace, (hv / EPS0) * tc_sm)
        self.anti_n = sq_norms(r36) @ wk
        del r36

        self.f1s, self.f2s = self.phi @ pot, self.phi @ mom
        self.r_sum = np.einsum("pk,pkn->pn", self.phi, res_sum)
        self.f4_sum = np.tensordot(self.phi, anti, axes=(1, 1))   # [a, b] = sum_k phi[a, k] anti[b, k]

    def finish(self, s3: np.ndarray, s4: np.ndarray) -> ModeChecks:
        """The commutator norms from the k-smeared families, and every residual."""
        layout, v, w = self.layout, self.v, self.grid.weights
        mm, tr, contract = layout.matmul, layout.transpose, layout.pair_contract
        f1s, f2s, r_sum, f4_sum, names = self.f1s, self.f2s, self.r_sum, self.f4_sum, self.names
        eye_norm = np.linalg.norm(self.eye_v)

        def relative(dev, a, b):
            """Norm of dev over the smeared exact part, profiles a and b."""
            expected = abs(float(np.sum(w * self.profiles[a] * self.profiles[b]))) * eye_norm
            return v * np.linalg.norm(dev) / max(v * expected, 1e-300)

        # every profile at once
        dev = 1j * HBAR * v * (mm(f1s, tr(f2s).conj()) - mm(f2s, tr(f1s).conj()))
        dev += r_sum + tr(r_sum).conj()
        dev += v * contract(w, s3, s3.conj())
        dev -= v * contract(w, s4, s4.conj())
        commutation = {n: relative(dev[p], p, p) for p, n in enumerate(names)}

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
    """Every mode-kernel identity, with the pair sums taken over the stacks.

    The reference of `streamed_mode_checks`: it sums the rows of
    `mode_coefficients` directly and feeds `_ModeCheckSums` the resulting
    dense stacks as one site-basis block.
    """
    grid, lattice = modes.grid, modes.lattice
    v, K, d = lattice.cell_volume, grid.n_nodes, lattice.dim
    nodes, w = grid.nodes, grid.weights
    one = lattice.one_block
    sums = _ModeCheckSums(coupling, structure, one)
    phi = sums.phi
    res, anti = one.blocks(modes.resonant), one.blocks(modes.antiresonant)   # views
    # the pair sums against T* and T of every row: sum_l q_l rows[k, l] @ (T^H_l)^T, ...
    t_h, t_t = (one.blocks(t.transpose(0, 2, 1)) for t in (coupling.kernels.conj(), coupling.kernels))
    wave = v * (one.pair_contract(w * nodes, res, t_h) - one.pair_contract(w * nodes, anti, t_t))
    brace = v * (one.pair_contract(w, res, t_h) + one.pair_contract(w, anti, t_t))
    smeared = [np.empty((len(phi), K, d * d), dtype=complex) for _ in range(4)]
    for k in range(K):
        for out, coef, rows in ((smeared[0], phi, res[k]), (smeared[1], phi * (nodes - nodes[k]), res[k]),
                                (smeared[2], phi, anti[k]), (smeared[3], phi * (nodes + nodes[k]), anti[k])):
            out[:, k] = np.tensordot(coef, rows, 1)
    sums.add(one.blocks(modes.potential), one.blocks(modes.momentum), wave, brace, tuple(smeared))
    return sums.finish(np.tensordot(phi, res, 1), np.tensordot(phi, anti, 1))


def streamed_mode_checks(prop: NodePropagator, structure: StructureTensor) -> ModeChecks:
    """Single-pass weak-form verification of the mode-kernel identities, every node at once.

    With the factorized pair rows of `_NodeKernels`, a weighted sum over the
    pair index l against any kernels M_l is

        sum_l a[k, l] resonant[k, l] M_l
            = mu0 hbar v [-w_k Xt_k (a @ Q)_k + X_k ((a * pole) @ Q)_k]

    with Q_l = T_l^T M_l (T_l^H M_l and `anti` for the antiresonant rows): one
    (K, K) @ (K, size) GEMM per coefficient matrix, formed from the coupling
    alone, the smear profiles a leading axis.  Every sum whose coefficient
    carries a shift w_l, w_l - w_k or w_l + w_k follows from the unshifted
    one by the pole-shift identities of `_NodeKernels`, so the pass makes
    2 + 4 P node GEMMs for P smear profiles, 10 for the two shipped ones:
    two for the wave and brace sums, 2 P for the smeared row sums and 2 P
    for the smeared families summed over k, (phi * pole)^T @ X.

    Every operator is a flat block stack in the propagator's layout, and
    every product one batched `matmul` per block size over the node and
    profile axes: there is no per-node loop.  A product against a
    node-independent operator (the projectors, `mom_wave`, the smeared
    sums `t_sm`) folds the node axis into the GEMM rows: S_b b GEMMs of
    (K x b) @ (b x b) per block size in place of K S_b of b x b, when
    K > b.  Cost O(K^2 size + K sum_b S_b b^3).  The peak comes while the
    four smeared sums are formed: about 29 (K, size) block stacks for the
    two shipped profiles, beside the propagator and the coupling (28.9 at
    n = 2, K = 128, where a block stack is an eighth of a (K, d, d) one).
    """
    rows = _NodeKernels(prop)
    coupling = prop.coupling
    grid, lattice = coupling.grid, coupling.lattice
    v = lattice.cell_volume
    nodes, w, eta = grid.nodes, grid.weights, grid.eta
    om = nodes[:, None]
    c = MU0 * HBAR * v
    pole, anti = rows.pole, rows.anti
    layout = prop.layout
    mm = layout.matmul
    sums = _ModeCheckSums(coupling, structure, layout)
    phi = sums.phi
    t_sm, t_sm_w, tc_sm, tc_sm_w = (a[:, None] for a in sums.t_sm)
    t, t_t = sums.t, sums.t_t
    x = _transfer_blocks(prop, layout)
    xt = mm(x, sums.pt)

    # wave and brace: M_l = T_l* (Q3_l = T_l^T T_l*) and M_l = T_l (Q4_l = T_l^H T_l);
    # by the shift identities the w_l-weighted GEMMs are the unweighted ones,
    # g_wave = w_k g_brace - i eta (pole @ Q3) + w_k^2 s_brace
    q4 = mm(t_t.conj(), t)
    q3 = q4.conj()
    wn = w * nodes
    s_wave = (wn @ q3) + (wn @ q4)
    s_brace = (w @ q4) - (w @ q3)
    g_wave = (w * pole) @ q3
    g_brace = (w * anti) @ q4
    del q3, q4
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

    # M_l = identity, per profile: the row sums over T^T and over T^H; the
    # shifted rows (w_l - w_k) pole = -w_k^2 - i eta pole and (w_l + w_k) anti
    # = w_k^2 need no GEMM.  The transposed sums come from the transposed
    # coupling, and the antiresonant coefficients are real, so their sums
    # over T^H are the conjugated sums over T^T
    res = mm(x, (phi[:, None, :] * pole) @ t_t)
    ant = mm(x, ((phi[:, None, :] * anti) @ t_t).conj())
    xt_t = mm(xt, t_sm)
    xt_tc = mm(xt, tc_sm)
    smeared = (c * (res - om * xt_t),
               c * (-om**2 * mm(x, t_sm) - 1j * eta * res - om * (mm(xt, t_sm_w) - om * xt_t)),
               c * (om * xt_tc - ant),
               c * (om * (mm(xt, tc_sm_w) + om * xt_tc) - om**2 * mm(x, tc_sm)))
    del res, ant, xt_t, xt_tc
    sums.add(om**2 * xt, (1j * MU0) * om * xt, wave, brace, smeared)
    del wave, brace, smeared

    # s3[p, l] = sum_k phi[p, k] resonant[k, l], s4 likewise
    y = (phi * nodes) @ xt   # sum_k phi_k w_k Xt_k, (P, size)
    s3 = mm(c * ((phi[:, :, None] * pole).transpose(0, 2, 1) @ x - y[:, None]), t_t)
    s4 = mm(c * (y[:, None] - (phi[:, :, None] * anti).transpose(0, 2, 1) @ x), t_t.conj())
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
    one = lattice.one_block
    res, anti = one.blocks(modes.resonant), one.blocks(modes.antiresonant)   # views
    pairs = one.pair_contract(w, res[k], res[l].conj()) - one.pair_contract(w, anti[k], anti[l].conj())
    return TensorKernel(lattice, out + v * one.sites(pairs))
