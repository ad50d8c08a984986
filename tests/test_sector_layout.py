"""The momentum-sector kernel layout against the dense one-block reference.

Every kernel stage stores its (K, d, d) stacks as flat sector blocks in
`Lattice.sector_layout` when its inputs conserve lattice momentum, and as
one site-basis block (`Lattice.one_block`, the dense reference arithmetic)
otherwise.  Forcing one block by a negative leak tolerance, as the oracle's
`TestSectorBlocks` does, runs the same inputs through the dense reference;
a built-in model, which has no leak, is rebuilt from its dense kernels for
that.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from dampol import lattice
from dampol.bath import (
    bath_coefficients,
    verify_bath_canonical,
    verify_bath_independence,
    verify_linkage,
)
from dampol.cli import Pipeline, ScenarioConfig
from dampol.coupling import (
    CouplingTensor,
    builtin_model,
    coupling_from_lagrangian,
    random_coupling,
    structure_tensor,
)
from dampol.diagonalize import ModeChecks, momentum_family, streamed_mode_checks, wave_diagnostic
from dampol.green import node_propagator, verify_adjoint
from dampol.lattice import FrequencyGrid, build_lattice
from dampol.susceptibility import Susceptibility

from test_coupling import dense_model_t0


def agree(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b)) or max(abs(a), abs(b)) <= 1e-13


class TestLayout:
    @pytest.mark.parametrize("n, parts", [(1, [[3, 1, 0]]), (2, [[3, 8, 0]]),
                                          (3, [[3, 1, 0], [6, 13, 9]]),
                                          (4, [[3, 8, 0], [6, 28, 72]])])
    def test_block_sizes(self, n, parts):
        # a self-conjugate q has one real wave, a {q, -q} pair two
        lat = build_lattice(n, 1.0)
        layout = lat.sector_layout
        assert layout.part_sizes == parts
        assert layout.size == sum(b * b * c for b, c, _ in parts)
        assert np.allclose(layout.basis.T @ layout.basis, np.eye(lat.dim), atol=1e-14)
        assert lat.one_block.part_sizes == [[lat.dim, 1, 0]]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lattice_operators_round_trip(self, n):
        lat = build_lattice(n, 1.0, k0_transverse=False)
        layout = lat.sector_layout
        a = lat.transverse_matrix + 1j * lat.curl_matrix
        b = lat.laplacian_matrix + lat.longitudinal_matrix
        leak, blocks = layout.split(np.stack([a, b]))
        assert leak <= 1e-15
        back = layout.sites(blocks)
        assert np.linalg.norm(back - np.stack([a, b])) <= 1e-14 * np.linalg.norm(back)
        prod = layout.sites(layout.matmul(blocks[0], blocks[1]))
        assert np.linalg.norm(prod - a @ b) <= 1e-14 * np.linalg.norm(a @ b)
        assert np.allclose(layout.sites(layout.transpose(blocks[0])), a.T, atol=1e-14)
        assert np.allclose(layout.sites(layout.inv(blocks[1] + layout.identity)),
                           np.linalg.inv(b + np.eye(lat.dim)), atol=1e-13)
        assert np.allclose(np.sort(layout.svdvals(blocks[1])),
                           np.linalg.svd(b, compute_uv=False)[::-1])

    @pytest.mark.parametrize("case", ["chi_trace", "field_trace"])
    def test_apply_peak_is_its_operands_and_result(self, case):
        # the vectors are rotated through the real (M, M) momentum basis, part
        # by part, so no d x d basis and no complex copy of one is made
        lat, rng = build_lattice(4, 1.0), np.random.default_rng(5)
        layout, d, K = lat.sector_layout, lat.dim, 12
        if case == "chi_trace":   # every point against the three unit sources at site 0
            flat = rng.standard_normal((K, 1, layout.size)) + 1j * rng.standard_normal((K, 1, layout.size))
            vecs = np.eye(3, d)
        else:   # every node against its own complex amplitudes
            flat = rng.standard_normal((K, layout.size)) + 1j * rng.standard_normal((K, layout.size))
            vecs = rng.standard_normal((K, d)) + 1j * rng.standard_normal((K, d))
        layout.apply(flat[:1], vecs[:1])   # the momentum basis is built once, before tracing
        tracemalloc.start()
        try:
            out = layout.apply(flat, vecs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= flat.nbytes + vecs.nbytes + out.nbytes
        assert "basis" not in layout.__dict__
        ref = (layout.sites(flat) @ vecs[..., None])[..., 0]
        assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_pair_contract_matches_the_dense_one(self):
        lat = build_lattice(3, 1.0)
        layout, rng = lat.sector_layout, np.random.default_rng(4)
        ops = np.stack([lat.transverse_matrix, lat.laplacian_matrix, lat.double_curl_matrix])
        a = ops * rng.standard_normal((3, 1, 1))
        b = ops * (rng.standard_normal((3, 1, 1)) + 1j)
        w = rng.standard_normal(3)
        got = layout.sites(layout.pair_contract(w, layout.blocks(a), layout.blocks(b)))
        assert np.allclose(got, np.einsum("m,mab,mcb->ac", w, a, b), atol=1e-12)

    def test_a_random_operator_leaks(self):
        lat = build_lattice(2, 1.0)
        r = np.random.default_rng(1).standard_normal((lat.dim, lat.dim))
        assert lat.sector_leak(r) > 0.5
        assert lat.layout(lat.sector_leak(r)) is lat.one_block
        assert lat.layout(lat.sector_leak(lat.transverse_matrix)) is lat.sector_layout
        assert lat.one_block.blocks(r).base is r   # the site basis is a view, no copy


class TestLeakingInputsTakeOneBlock:
    def test_random_coupling(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        coupling = coupling_from_lagrangian(
            random_coupling(small_lattice, grid, np.random.default_rng(2)))
        prop = node_propagator(Susceptibility(coupling))
        assert coupling.sector_leak > lattice.SECTOR_LEAK_TOL
        assert prop.layout is small_lattice.one_block
        assert prop.blocks.shape == (4, small_lattice.dim**2)

    def test_chi_symmetry_violation(self, tmp_path):
        cfg = ScenarioConfig(violation="chi_symmetry", n_nodes=4, out=str(tmp_path))
        pipe = Pipeline(cfg)
        assert pipe.coupling.sector_leak <= lattice.SECTOR_LEAK_TOL
        assert Susceptibility(pipe.coupling).layout is pipe.lattice.sector_layout
        assert pipe.chi.layout is pipe.lattice.one_block
        assert pipe.propagator.layout is pipe.bath.layout is pipe.lattice.one_block


class TestSymbolBlocks:
    """The blocks built from per-k symbols against `split` of the dense site operators.

    n = 2 to 5 covers odd and even lattices, and at even n >= 4 the
    Nyquist components the derivative symbols set to 0.
    """

    OPERATORS = ("transverse_matrix", "longitudinal_matrix", "curl_matrix", "double_curl_matrix",
                 "laplacian_matrix")

    @staticmethod
    def assert_close(blocks, dense, layout):
        leak, ref = layout.split(dense)
        assert leak <= 1e-14
        assert np.linalg.norm(blocks - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_lattice_operators(self, n):
        lat = build_lattice(n, 0.7)
        layout = lat.sector_layout
        for name in self.OPERATORS:
            self.assert_close(layout.op(name), getattr(lat, name), layout)

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


def kernel_values(model, n, K, dense=False):
    """Every value of the node sweep, the bath checks and the streamed pass, and the layout.

    With `dense`, the coupling is rebuilt from its kernels as one dense
    stack, which the leak rule may keep as one block.
    """
    lat = build_lattice(n, 1.0)
    grid = FrequencyGrid.midpoint(K, 3.0, eta_factor=1.0)
    coupling = coupling_from_lagrangian(builtin_model(model, lat, grid))
    if dense:
        coupling = CouplingTensor.from_kernels(lat, grid, coupling.kernels)
    st = structure_tensor(coupling)
    chi = Susceptibility(coupling)
    prop = node_propagator(chi)
    bath = bath_coefficients(coupling, chi)
    values = {
        "kernels": prop.layout.sites(prop.blocks),
        "momentum": prop.layout.sites(momentum_family(prop)),
        "residual": prop.residual,
        "cond": prop.cond,
        "adjoint": verify_adjoint(chi, prop.z, prop.blocks),
        "wave_diagnostic": wave_diagnostic(prop),
        "delta_coeff": bath.layout.sites(bath.delta_blocks),
        "pole_coeff": bath.layout.sites(bath.pole_blocks),
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


@pytest.mark.parametrize("model, n, K", [
    ("local_lorentz", 2, 6),
    ("gaussian_nonlocal", 2, 5),
    ("uniaxial_local", 2, 4),
    ("local_lorentz", 3, 3),
    ("gaussian_nonlocal", 3, 2),
    ("local_lorentz", 4, 2),
])
def test_sector_layout_matches_one_block(model, n, K, monkeypatch):
    layout, sectors = kernel_values(model, n, K)
    monkeypatch.setattr(lattice, "SECTOR_LEAK_TOL", -1.0)   # every stack one block
    one_layout, one = kernel_values(model, n, K, dense=True)
    assert layout.part_sizes != one_layout.part_sizes == [[3 * n**3, 1, 0]]
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
    blocks = np.tile(layout.identity, (2, 1))
    (part,) = layout.parts(blocks)
    part[1, 2] = np.diag([3.0, 1.0, 1.0])
    part[1, 5] = np.diag([1.0, 1.0, 1e-10])
    with pytest.raises(SingularOperatorError, match="^coupling kernel not invertible at node 1 ") as err:
        require_invertible(layout, ("coupling kernel", blocks))
    sv = np.linalg.svd(layout.sites(blocks)[1], compute_uv=False)
    assert err.value.node == 1
    assert err.value.cond == pytest.approx(3e10, rel=1e-12)
    assert err.value.cond == pytest.approx(sv[0] / sv[-1], rel=1e-4)   # dense SVD: 1e-16 absolute
