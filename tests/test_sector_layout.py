"""The momentum-sector kernel layout against the dense one-block reference.

Every kernel stage stores its (K, d, d) stacks as flat sector blocks in
`Lattice.sector_layout` when the run's inputs conserve lattice momentum, and
as one dense block in the momentum basis (`Lattice.one_block`, the dense
reference arithmetic) otherwise; the layout is the coupling's, chosen once
for the run.  A built-in model re-laid into one block
(`CouplingTensor.relaid`), as the oracle's `TestSectorBlocks` does, runs the
same inputs through the dense reference.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from dampol import lattice
from dampol.bath import (
    assemble_bath_hamiltonian,
    bath_coefficients,
    verify_bath_canonical,
    verify_bath_independence,
    verify_linkage,
)
from dampol.cli import (
    Pipeline,
    ScenarioConfig,
    stage_bath,
    stage_chi,
    stage_diag,
    stage_fields,
    stage_green,
    stage_model,
    stage_oracle,
)
from dampol.coupling import (
    CouplingTensor,
    builtin_model,
    coupling_from_lagrangian,
    structure_tensor,
)
from dampol.diagonalize import ModeChecks, momentum_family, streamed_mode_checks, wave_diagnostic
from dampol.fields import LinearBosonicForm
from dampol.green import node_propagator, verify_adjoint
from dampol.lattice import FrequencyGrid, build_lattice
from dampol.oracle import QuadraticHamiltonian
from dampol.susceptibility import Susceptibility

import reference
from conftest import traced_peak
from reference import (
    basis,
    blocks,
    coupling_from_real,
    curl_matrix,
    double_curl_matrix,
    laplacian_matrix,
    longitudinal_matrix,
    random_coupling,
    sites,
    split,
    transverse_matrix,
)
from test_coupling import dense_model_t0

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def agree(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b)) or max(abs(a), abs(b)) <= 1e-13


class TestLayout:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lattice_operators_round_trip(self, n):
        # in the sector blocks, and in the dense layout's one block
        lat = build_lattice(n, 1.0, k0_transverse=False)
        a = transverse_matrix(lat) + 1j * curl_matrix(lat)
        b = laplacian_matrix(lat) + longitudinal_matrix(lat)
        assert split(lat, np.stack([a, b]))[0] <= 1e-15
        for layout in (lat.sector_layout, lat.one_block):
            flat = blocks(layout, np.stack([a, b]))
            back = sites(layout, flat)
            assert np.linalg.norm(back - np.stack([a, b])) <= 1e-14 * np.linalg.norm(back)
            prod = sites(layout, layout.matmul(flat[0], flat[1]))
            assert np.linalg.norm(prod - a @ b) <= 1e-14 * np.linalg.norm(a @ b)
            assert np.allclose(sites(layout, layout.transpose(flat[0])), a.T, atol=1e-14)
            assert np.allclose(sites(layout, layout.inv(flat[1] + layout.identity)),
                               np.linalg.inv(b + np.eye(lat.dim)), atol=1e-13)
            assert np.allclose(np.sort(layout.svdvals(flat[1])),
                               np.linalg.svd(b, compute_uv=False)[::-1])

    @pytest.mark.parametrize("case, n, K", [pytest.param(case, n, K, id=case + tag)
                                            for n, K, tag in ((4, 12, ""), (8, 4, "-n8"))
                                            for case in ("chi_trace", "field_trace")])
    def test_apply_peak_is_its_operands_and_result(self, case, n, K):
        # the vectors are rotated by FFTs and pair mixes, the result in its own
        # buffer, so no (M, M) matrix and no d x d basis is made: the first
        # call on a fresh lattice, once another lattice's call has loaded the
        # FFT code
        warm = build_lattice(3, 1.0).sector_layout
        warm.apply(np.ones(warm.size, dtype=complex), np.ones(warm.lattice.dim))
        lat, rng = build_lattice(n, 1.0), np.random.default_rng(5)
        layout, d = lat.sector_layout, lat.dim
        if case == "chi_trace":   # every point against the three unit sources at site 0
            flat = rng.standard_normal((K, 1, layout.size)) + 1j * rng.standard_normal((K, 1, layout.size))
            vecs = np.eye(3, d)
        else:   # every node against its own complex amplitudes
            flat = rng.standard_normal((K, layout.size)) + 1j * rng.standard_normal((K, layout.size))
            vecs = rng.standard_normal((K, d)) + 1j * rng.standard_normal((K, d))
        peak, out = traced_peak(layout.apply, flat, vecs)
        assert peak <= flat.nbytes + vecs.nbytes + out.nbytes
        if n == 4:   # a site operator at n = 8 is 38 MB
            ref = (sites(layout, flat) @ vecs[..., None])[..., 0]
            assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_pair_contract_matches_the_dense_one(self):
        lat = build_lattice(3, 1.0)
        layout, rng = lat.sector_layout, np.random.default_rng(4)
        ops = np.stack([transverse_matrix(lat), laplacian_matrix(lat), double_curl_matrix(lat)])
        a = ops * rng.standard_normal((3, 1, 1))
        b = ops * (rng.standard_normal((3, 1, 1)) + 1j)
        w = rng.standard_normal(3)
        got = sites(layout, layout.pair_contract(w, blocks(layout, a), blocks(layout, b)))
        assert np.allclose(got, np.einsum("m,mab,mcb->ac", w, a, b), atol=1e-12)

    def test_a_random_operator_leaks(self):
        lat = build_lattice(2, 1.0)
        r = np.random.default_rng(1).standard_normal((lat.dim, lat.dim))
        assert split(lat, r)[0] > 0.5
        assert lat.layout(split(lat, r)[0]) is lat.one_block
        assert lat.layout(split(lat, transverse_matrix(lat))[0]) is lat.sector_layout
        # the dense layout holds any operator, in the momentum basis
        back = sites(lat.one_block, blocks(lat.one_block, r))
        assert np.linalg.norm(back - r) <= 1e-14 * np.linalg.norm(r)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_relay_into_the_dense_layout_is_exact(self, n):
        # the sector blocks placed entry by entry in the one block: the same
        # site operators, and the entries back in the sector blocks unchanged
        lat, rng = build_lattice(n, 1.0), np.random.default_rng(n)
        sector, one = lat.sector_layout, lat.one_block
        flat = rng.standard_normal((2, sector.size)) + 1j * rng.standard_normal((2, sector.size))
        dense = sector.relay(flat, one)
        assert np.linalg.norm(sites(one, dense) - sites(sector, flat)) <= 1e-14 * np.linalg.norm(dense)
        assert np.array_equal(one.relay(dense, sector), flat)


class TestLayoutAlgebra:
    """The layout algebra against site operators in the dense complex basis of `reference`.

    Random complex per-q stacks at n = 1 to 6, both k0_transverse values (a
    lattice operator among the operands): the transpose and the conjugate
    are gathers of the flat entries, so they match the dense operators'
    within the rounding of the rotations, in both layouts; products,
    inverses, the application to vectors and the re-lay into the one block
    match within 1e-13 of the largest entry.
    """

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(n=st_.integers(1, 6), k0_transverse=st_.booleans(), seed=st_.integers(0, 2**32 - 1))
    def test_matches_the_dense_operators(self, n, k0_transverse, seed):
        lat, rng = build_lattice(n, 1.0, k0_transverse), np.random.default_rng(seed)
        layout, one = lat.sector_layout, lat.one_block

        def draw(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def near(got, want, rel=1e-13):
            return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))

        a = np.stack([draw(layout.size), layout.op("curl_matrix") + 1j * layout.op("transverse_matrix")])
        b = draw((2, layout.size)) + 3.0 * layout.identity
        sa, sb = sites(layout, a), sites(layout, b)
        # the transpose and the conjugate, of the dense operators' one blocks and of their per-q blocks
        dense = blocks(one, sa)
        for transform, want in (("transpose", sa.swapaxes(-1, -2)), ("conj", sa.conj())):
            ref = blocks(one, want)
            for lay in (one, layout):
                got = getattr(lay, transform)(one.relay(dense, lay))
                assert np.linalg.norm(got - one.relay(ref, lay)) <= 1e-15 * np.linalg.norm(one.relay(ref, lay))
        assert near(sites(layout, layout.matmul(a, b)), sa @ sb)
        assert near(sites(layout, layout.matmul(a, b[0])), sa @ sb[0])
        assert near(sites(layout, layout.inv(b)), np.linalg.inv(sb))
        vecs = draw((3, 1, lat.dim))
        assert near(layout.apply(a, vecs), (sa @ vecs[..., None])[..., 0])
        assert near(sites(one, layout.relay(a, one)), sa)


    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_real_frame_is_the_dense_one(self, n):
        # the oracle's groups in the real momentum basis F, per sector and for the
        # dense block, against the rotation of the site operators; a real operator
        # (B(-q) = conj(B(q)) bit for bit) is real there to the bit
        lat, rng = build_lattice(n, 0.8), np.random.default_rng(n)
        for layout in (lat.sector_layout, lat.one_block):
            flat = rng.standard_normal((2, layout.size)) + 1j * rng.standard_normal((2, layout.size))
            got, want = list(layout.real_blocks(flat)), reference.real_blocks(layout, sites(layout, flat))
            assert [g.shape for g in got] == [w.shape for w in want]
            for g, w in zip(got, want):
                assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)
            real = layout.op("double_curl_matrix") + layout.op("curl_matrix") * (n != 2)   # not real at n = 2
            assert all(np.all(blk.imag == 0) for blk in layout.real_blocks(real))


def per_operator_matmul(layout, a, b):
    """The reference product: one `np.matmul` per block of every broadcast operator pair."""
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    a, b = np.broadcast_to(a, lead + a.shape[-1:]), np.broadcast_to(b, lead + b.shape[-1:])
    out = np.empty(lead + (layout.size,), dtype=np.result_type(a, b))
    for idx in np.ndindex(lead):
        for pa, pb, po in zip(layout.block_view(a[idx]), layout.block_view(b[idx]), layout.block_view(out[idx])):
            po[...] = np.matmul(pa, pb)
    return out


#: (lattice size, layout) pairs: the per-q layout's 3x3 blocks and the dense
#: one-block reference, whose 3x3 (n = 1) and 24x24 (n = 2) blocks fold
#: along an axis longer than the block
FOLD_LAYOUTS = [(2, "sector_layout"), (3, "sector_layout"), (1, "one_block"), (2, "one_block")]

#: leading shapes of the operands, by node count K and profile count P
FOLD_SHAPES = [lambda P, K: (), lambda P, K: (K,), lambda P, K: (P, 1), lambda P, K: (1, K),
               lambda P, K: (P, K)]

#: leading shapes of operand pairs that fold along no axis: both vary along
#: every axis, or only along a profile axis of at most 3, no longer than a block
UNFOLDED_SHAPES = [(lambda P, K: (K,), lambda P, K: (K,)), (lambda P, K: (P, K), lambda P, K: (P, K)),
                   (lambda P, K: (P, K), lambda P, K: (K,)), (lambda P, K: (K,), lambda P, K: (P, K)),
                   (lambda P, K: (P, K), lambda P, K: (1, K)), (lambda P, K: (1, K), lambda P, K: (P, K))]


class TestFoldedMatmul:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(where=st_.sampled_from(FOLD_LAYOUTS), P=st_.integers(1, 3), K=st_.sampled_from([1, 2, 4, 7, 25]),
           shapes=st_.one_of(st_.tuples(st_.sampled_from(FOLD_SHAPES), st_.sampled_from(FOLD_SHAPES)),
                             st_.sampled_from([(lambda P, K: (K, K), lambda P, K: (K,)),
                                               (lambda P, K: (K,), lambda P, K: (K, K))])),
           kinds=st_.sampled_from([(float, float), (complex, complex), (float, complex), (complex, float)]),
           seed=st_.integers(0, 2**32 - 1))
    def test_matches_per_operator_matmul(self, where, P, K, shapes, kinds, seed):
        # every broadcast pattern against one np.matmul per block and operator
        # pair; a fold reorders no sum, but numpy's strided loop (a constant)
        # may round a complex product differently from BLAS, within the GEMM
        # error bound
        n, name = where
        layout = getattr(build_lattice(n, 1.0), name)
        rng = np.random.default_rng(seed)

        def draw(lead, kind):
            x = rng.standard_normal(lead + (layout.size,))
            return x + 1j * rng.standard_normal(x.shape) if kind is complex else x

        a, b = (draw(shape(P, K), kind) for shape, kind in zip(shapes, kinds))
        got, want = layout.matmul(a, b), per_operator_matmul(layout, a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        bound = per_operator_matmul(layout, np.abs(a), np.abs(b)) * (4 * layout.block * np.finfo(float).eps)
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("name, const, leads, dtype, calls", [
        pytest.param("sector_layout", "b", [(256,), ()], complex, [[(8, 3, 256, 3), (8, 1, 3, 3)]],
                     id="b-leads0-shapes0"),
        pytest.param("sector_layout", "a", [(), (256,)], complex, [[(8, 3, 256, 3), (8, 1, 3, 3)]],
                     id="a-leads1-shapes1"),
        # two profiles: the 3x3 blocks are longer, and the 4096 products are formed entry by entry
        pytest.param("sector_layout", "b", [(2, 256), (256,)], complex, [], id="b-leads2-shapes2"),
        pytest.param("sector_layout", "neither", [(256,), (256,)], complex, [], id="neither-leads3-shapes3"),
        # 128 products, or real ones: a GEMM each
        pytest.param("sector_layout", "neither", [(16,), (16,)], complex, [[(16, 8, 3, 3)] * 2],
                     id="neither-few-complex"),
        pytest.param("sector_layout", "neither", [(256,), (256,)], float, [[(256, 8, 3, 3)] * 2],
                     id="neither-real"),
        # a constant 24x24 left factor: a GEMM per operator
        pytest.param("one_block", "a", [(), (64,)], complex, [[(1, 1, 24, 24), (64, 1, 24, 24)]],
                     id="a-one-block-24"),
    ])
    def test_node_axis_folded_into_the_rows(self, monkeypatch, name, const, leads, dtype, calls):
        # at n = 2 (eight 3x3 blocks) a node-independent operand makes the
        # 256 nodes the rows of 8 * 3 GEMMs (256 x 3) @ (3 x 3)
        layout = getattr(build_lattice(2, 1.0), name)
        seen, matmul = [], np.matmul

        def spy(x, y, **kwargs):
            seen.append([x.shape[-4:], y.shape[-4:]])
            return matmul(x, y, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        layout.matmul(*(np.ones(lead + (layout.size,), dtype=dtype) for lead in leads))
        assert seen == calls

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(where=st_.sampled_from([(2, "sector_layout"), (3, "sector_layout"), (1, "one_block")]),
           P=st_.integers(1, 3), K=st_.sampled_from([40, 97, 300]), shapes=st_.sampled_from(UNFOLDED_SHAPES),
           kinds=st_.sampled_from([(complex, complex), (float, complex), (complex, float), (float, float)]),
           seed=st_.integers(0, 2**32 - 1))
    def test_entrywise_matches_per_operator_matmul(self, where, P, K, shapes, kinds, seed):
        # products that do not fold, with enough 3x3 blocks for the entry-by-entry
        # route where the product is complex: against one np.matmul per block and
        # operator pair, within the GEMM error bound; a real product stays one
        # GEMM per pair
        n, name = where
        layout = getattr(build_lattice(n, 1.0), name)
        rng = np.random.default_rng(seed)

        def draw(lead, kind):
            x = rng.standard_normal(lead + (layout.size,))
            return x + 1j * rng.standard_normal(x.shape) if kind is complex else x

        a, b = (draw(shape(P, K), kind) for shape, kind in zip(shapes, kinds))
        calls, entrywise = [], lattice._entrywise_3x3
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "_entrywise_3x3", lambda *args: (calls.append(args[2].shape), entrywise(*args)))
            got = layout.matmul(a, b)
        want = per_operator_matmul(layout, a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        bound = per_operator_matmul(layout, np.abs(a), np.abs(b)) * (4 * layout.block * np.finfo(float).eps)
        assert np.all(np.abs(got - want) <= bound)
        products = got[..., 0].size * layout.count
        assert bool(calls) == (layout.block == 3 and got.dtype == complex
                               and products >= lattice.ENTRYWISE_MIN_PRODUCTS)

    @pytest.mark.parametrize("const", ["b", "a"])
    def test_fold_copies_no_operand(self, const):
        # one (256, size) @ (size,) product, or (size,) @ (256, size), at n = 2:
        # beside its result it allocates under 5% of a (256, size) stack
        layout, rng = build_lattice(2, 1.0).sector_layout, np.random.default_rng(3)
        stack = rng.standard_normal((256, layout.size)) + 1j * rng.standard_normal((256, layout.size))
        op = rng.standard_normal(layout.size) + 1j * rng.standard_normal(layout.size)
        operands = (stack, op) if const == "b" else (op, stack)
        layout.matmul(*operands)   # numpy's first-call set-up, before tracing
        peak, out = traced_peak(layout.matmul, *operands)
        assert peak - out.nbytes <= 0.05 * stack.nbytes
        assert np.allclose(out, per_operator_matmul(layout, *operands), rtol=0, atol=1e-13)


class TestLeakingInputsTakeOneBlock:
    def test_random_coupling(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        coupling = coupling_from_real(
            random_coupling(small_lattice, grid, np.random.default_rng(2)))
        prop = node_propagator(Susceptibility(coupling))
        assert coupling.sector_leak > lattice.SECTOR_LEAK_TOL
        assert prop.layout is small_lattice.one_block
        assert prop.blocks.shape == (4, small_lattice.dim**2)

    def test_chi_symmetry_violation(self, tmp_path):
        # the model conserves momentum, the perturbation does not: the run is
        # dense, and its coupling carries the perturbation's leak
        cfg = ScenarioConfig(violation="chi_symmetry", n_nodes=4, out=str(tmp_path))
        pipe = Pipeline(cfg)
        assert pipe.coupling.sector_leak > lattice.SECTOR_LEAK_TOL
        assert pipe.coupling.layout is pipe.chi.layout is pipe.lattice.one_block
        assert pipe.propagator.layout is pipe.bath.layout is pipe.lattice.one_block


class TestOneLayoutPerRun:
    """Every layout-carrying object a run derives is in its coupling's layout, which is chosen once.

    Every stage runs on a `Pipeline`; the spies record the layout of every
    form and quadratic form built, and every re-lay of a coupling.
    """

    @pytest.fixture
    def spies(self, monkeypatch):
        layouts, relaid = [], []
        post_init, zero, relay = (LinearBosonicForm.__post_init__, QuadraticHamiltonian.zero.__func__,
                                  CouplingTensor.relaid)

        def form_init(form):
            layouts.append(form.layout)
            post_init(form)

        def zero_form(cls, coupling):
            ham = zero(cls, coupling)
            layouts.append(ham.layout)
            return ham

        def counted(coupling, layout, leak=None):
            relaid.append(layout)
            return relay(coupling, layout, leak)
        monkeypatch.setattr(LinearBosonicForm, "__post_init__", form_init)
        monkeypatch.setattr(QuadraticHamiltonian, "zero", classmethod(zero_form))
        monkeypatch.setattr(CouplingTensor, "relaid", counted)
        return layouts, relaid

    @staticmethod
    def assert_one_layout(pipe, layouts, out):
        for stage in (stage_model, stage_chi, stage_green, stage_diag, stage_fields, stage_bath, stage_oracle):
            stage(pipe, out)
        layout = pipe.coupling.layout
        derived = [pipe.structure, pipe.chi, pipe.propagator, pipe.bath, pipe.hamiltonian,
                   assemble_bath_hamiltonian(pipe.coupling, pipe.structure, pipe.bath)]
        assert all(obj.layout is layout for obj in derived)
        assert len(layouts) > 20 and all(form is layout for form in layouts)
        return layout

    def test_shipped_config(self, spies, tmp_path):
        layouts, relaid = spies
        pipe = Pipeline(ScenarioConfig.from_file(CONFIG_DIR / "lorentz.ini"))
        assert self.assert_one_layout(pipe, layouts, tmp_path) is pipe.lattice.sector_layout
        assert relaid == []

    def test_violator_relays_its_coupling_once(self, spies, tmp_path):
        layouts, relaid = spies
        pipe = Pipeline(ScenarioConfig.from_file(CONFIG_DIR / "violator_chi.ini"))
        assert self.assert_one_layout(pipe, layouts, tmp_path) is pipe.lattice.one_block
        assert relaid == [pipe.lattice.one_block]

    def test_random_coupling(self, spies, tmp_path):
        layouts, relaid = spies
        pipe = Pipeline(ScenarioConfig(n_nodes=6, omega_max=3.0))
        pipe.chi = Susceptibility(coupling_from_real(
            random_coupling(pipe.lattice, pipe.grid, np.random.default_rng(3), diag_weight=3.0)))
        assert self.assert_one_layout(pipe, layouts, tmp_path) is pipe.lattice.one_block
        assert relaid == []


class TestSymbolBlocks:
    """The blocks built from per-k symbols against the rotation of the dense site operators.

    n = 2 to 5 covers odd and even lattices, and at even n >= 4 the
    Nyquist components the derivative symbols set to 0.
    """

    OPERATORS = ("transverse_matrix", "longitudinal_matrix", "curl_matrix", "double_curl_matrix",
                 "laplacian_matrix")

    @staticmethod
    def assert_close(flat, dense, layout):
        assert split(layout.lattice, dense)[0] <= 1e-14
        ref = blocks(layout, dense)
        assert np.linalg.norm(flat - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_lattice_operators(self, n):
        lat = build_lattice(n, 0.7)
        layout = lat.sector_layout
        for name in self.OPERATORS:
            self.assert_close(layout.op(name), getattr(reference, name)(lat), layout)

    @pytest.mark.parametrize("name, params", [
        ("local_lorentz", {}),
        ("uniaxial_local", {"axis": "x", "ratio": 3.0}),
        ("gaussian_nonlocal", {"corr_length": 0.9}),
    ])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_models(self, n, name, params):
        lat, grid = build_lattice(n, 0.8), FrequencyGrid.midpoint(4, 3.0)
        coupling = coupling_from_lagrangian(builtin_model(name, lat, grid, params))
        assert coupling.layout is lat.sector_layout and coupling.sector_leak == 0.0
        pref = -(2.0 * grid.nodes) ** -0.5   # hbar = 1
        self.assert_close(coupling.flat, pref[:, None, None] * dense_model_t0(name, lat, grid, params),
                          lat.sector_layout)


def kernel_values(model, n, K, dense=False, k0_transverse=True):
    """Every value of the node sweep, the bath checks and the streamed pass, and the layout.

    With `dense`, the coupling is re-laid into one dense block.  Both layouts
    share the plane-wave basis, so each kernel stack is compared laid into
    the one block (`SectorLayout.relay`), entry by entry.
    """
    lat = build_lattice(n, 1.0, k0_transverse)
    grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
    coupling = coupling_from_lagrangian(builtin_model(model, lat, grid))
    if dense:
        coupling = coupling.relaid(lat.one_block)
    st = structure_tensor(coupling)
    chi = Susceptibility(coupling)
    prop = node_propagator(chi)
    bath = bath_coefficients(coupling, chi)

    def dense_blocks(flat):
        return prop.layout.relay(flat, lat.one_block).reshape(len(flat), lat.dim, lat.dim)

    values = {
        "kernels": dense_blocks(prop.blocks),
        "momentum": dense_blocks(momentum_family(prop)),
        "residual": prop.residual,
        "cond": prop.cond,
        "adjoint": verify_adjoint(chi, prop.z, prop.blocks),
        "wave_diagnostic": wave_diagnostic(prop),
        "delta_coeff": dense_blocks(bath.delta_blocks),
        "pole_coeff": dense_blocks(bath.pole_blocks),
        "linkage": verify_linkage(bath, coupling, chi),
        "canonical": verify_bath_canonical(bath, coupling),
        **verify_bath_independence(bath, coupling, st),
    }
    streamed = streamed_mode_checks(prop, st)
    for f in dataclasses.fields(ModeChecks):
        value = getattr(streamed, f.name)
        values.update({f"{f.name}.{k}": v for k, v in value.items()} if isinstance(value, dict)
                      else {f.name: value})
    return prop.layout, values


@pytest.mark.parametrize("model, n, K, k0_transverse", [
    *(pytest.param(model, n, K, True, id=f"{model}-{n}-{K}") for model, n, K in (
        ("local_lorentz", 2, 6), ("gaussian_nonlocal", 2, 5), ("uniaxial_local", 2, 4),
        ("local_lorentz", 3, 3), ("gaussian_nonlocal", 3, 2), ("local_lorentz", 4, 2))),
    # every model at n = 3, 4 and 6 with both k0_transverse values; one node past n = 3
    *(pytest.param(model, n, 2 if n == 3 else 1, k0, id=f"{model}-{n}-k0{'TL'[not k0]}")
      for model in ("local_lorentz", "gaussian_nonlocal", "uniaxial_local") for n in (3, 4, 6)
      for k0 in (True, False)),
])
def test_sector_layout_matches_one_block(model, n, K, k0_transverse):
    layout, sectors = kernel_values(model, n, K, k0_transverse=k0_transverse)
    one_layout, one = kernel_values(model, n, K, dense=True, k0_transverse=k0_transverse)
    assert (layout.block, layout.count, one_layout.block, one_layout.count) == (3, n**3, 3 * n**3, 1)
    assert sectors.keys() == one.keys()
    for key, a in sectors.items():
        b = one[key]
        if np.ndim(b) == 3:
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), key
        else:
            assert all(map(agree, np.ravel(a), np.ravel(b))), (key, a, b)


def test_invertibility_ratio_over_the_union_of_blocks(small_lattice):
    # node 1 has its largest singular value in one block and its smallest in
    # another: the ratio is the site operator's, 3e10, not either block's
    from dampol.bath import require_invertible
    from dampol.errors import SingularOperatorError
    layout = small_lattice.sector_layout
    stack = np.tile(layout.identity, (2, 1))
    part = layout.block_view(stack)
    part[1, 2] = np.diag([3.0, 1.0, 1.0])
    part[1, 5] = np.diag([1.0, 1.0, 1e-10])
    with pytest.raises(SingularOperatorError, match="^coupling kernel not invertible at node 1 ") as err:
        require_invertible(layout, ("coupling kernel", stack, layout.inv_or_nan(stack)))
    sv = np.linalg.svd(sites(layout, stack)[1], compute_uv=False)
    assert err.value.node == 1
    assert err.value.cond == pytest.approx(3e10, rel=1e-12)
    assert err.value.cond == pytest.approx(sv[0] / sv[-1], rel=1e-4)   # dense SVD: 1e-16 absolute
