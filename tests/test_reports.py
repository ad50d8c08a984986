from pathlib import Path

import numpy as np
import pytest

from dampol.cli import Pipeline, ScenarioConfig, run
from dampol.lattice import FrequencyGrid, build_lattice
from dampol.fields import field_forms
from dampol.green import node_propagator
from dampol.reports import chi_trace, field_trace, green_trace, write_trace
from dampol.susceptibility import Susceptibility, chi_stack

from conftest import traced_peak
from reference import coupling_from_real, random_coupling, sites

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load(path):
    return np.load(path, allow_pickle=False)


def site0_chi(coupling, z_values):
    """chi[(site, i), (0, j)] at the points, (n, M, 3, 3): block column 0 of the dense site route."""
    mats = sites(coupling.layout, chi_stack(coupling, z_values))
    return mats[:, :, :3].reshape(len(z_values), -1, 3, 3)


def random_trace_coupling(n, n_nodes):
    grid = FrequencyGrid.midpoint(n_nodes, 3.0)
    lat = build_lattice(n, 1.0)
    return coupling_from_real(random_coupling(lat, grid, np.random.default_rng(11 + n)))


def assert_close(got, ref, rtol=1e-12):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


class TestWriteTrace:
    def test_one_record_per_row_one_field_per_column(self, tmp_path):
        z = np.array([1.0 + 0.5j, -2.0 + 0.25j])
        mats = np.arange(2 * 4 * 3, dtype=float).reshape(2, 4, 3)
        write_trace(tmp_path / "sub" / "t.npy", z=z, value=mats)
        trace = load(tmp_path / "sub" / "t.npy")
        assert trace.shape == (2,)
        assert trace.dtype.names == ("z", "value")
        assert trace.dtype["value"].shape == (4, 3)
        assert np.array_equal(trace["z"], z) and np.array_equal(trace["value"], mats)

    def test_run_writes_three_npy_traces_and_no_csv(self, tmp_path):
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "lorentz.ini")
        cfg.n_nodes = 6
        outs = []
        for sub in ("a", "b"):
            cfg.out = str(tmp_path / sub)
            run(cfg, stages=("model", "chi", "green", "fields"))
            outs.append({p.name: p.read_bytes() for p in Path(cfg.out).iterdir()})
        assert outs[0] == outs[1]
        assert not [name for name in outs[0] if name.endswith(".csv")]
        traces = sorted(name for name in outs[0] if name.endswith(".npy"))
        assert traces == ["chi_trace.npy", "field_trace.npy", "green_trace.npy"]
        assert [len(load(tmp_path / "a" / name)) for name in traces] == [6, 32, 6]


class TestChiTrace:
    @pytest.mark.parametrize("name,n", [("lorentz.ini", 2), ("gaussian.ini", 2),
                                        ("uniaxial.ini", 2), ("lorentz.ini", 3)])
    def test_sector_blocks_match_dense_trace(self, tmp_path, name, n):
        cfg = ScenarioConfig.from_file(CONFIG_DIR / name)
        cfg.n_per_axis = n
        pipe = Pipeline(cfg)
        assert pipe.chi.layout is pipe.lattice.sector_layout
        zs = pipe.grid.nodes + 1j * pipe.grid.eta
        chi_trace(tmp_path / "chi.npy", pipe.chi, zs)
        trace = load(tmp_path / "chi.npy")
        assert trace.dtype.names == ("z", "chi")
        assert np.array_equal(trace["z"], zs)
        assert_close(trace["chi"], site0_chi(pipe.coupling, zs))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dense_block_matches_site_trace(self, tmp_path, n):
        # from n = 2 on a random coupling leaks across sectors, and its one
        # block is in the momentum basis; on it the trace is a partial one.
        # Far up the imaginary axis chi is small
        coupling = random_trace_coupling(n, 3)
        assert (coupling.layout is coupling.lattice.one_block) == (n > 1)
        grid = coupling.grid
        zs = np.append(grid.nodes + 1j * grid.eta, 1j * grid.omega_max * np.array([1 / 3, 1e4]))
        chi_trace(tmp_path / "chi.npy", Susceptibility(coupling), zs)
        got, ref = load(tmp_path / "chi.npy")["chi"], site0_chi(coupling, zs)
        assert_close(got, ref)
        assert_close(got[-1], ref[-1])

    def test_perturbation_included(self, tmp_path):
        # the violator adds its magnitude at entry (0, 1) of every evaluation:
        # the trace shows the chi that the checks read, not the unperturbed source
        pipe = Pipeline(ScenarioConfig.from_file(CONFIG_DIR / "violator_chi.ini"))
        zs = pipe.grid.nodes + 1j * pipe.grid.eta
        chi_trace(tmp_path / "perturbed.npy", pipe.chi, zs)
        chi_trace(tmp_path / "source.npy", Susceptibility(pipe.coupling), zs)
        values, src = load(tmp_path / "perturbed.npy")["chi"], load(tmp_path / "source.npy")["chi"]
        hit = np.zeros(values.shape[1:], dtype=bool)
        hit[0, 0, 1] = True
        scale = np.abs(src).max()
        assert np.abs(values[:, hit] - src[:, hit] - pipe.config.violation_magnitude).max() <= 1e-12 * scale
        assert np.abs(values[:, ~hit] - src[:, ~hit]).max() <= 1e-12 * scale

    def test_memory_within_the_evaluation_and_the_columns(self, tmp_path):
        # the writer holds the one stacked chi evaluation of every point and
        # the (K, 3, d) source columns: no d x d site operator
        chi = Susceptibility(random_trace_coupling(3, 4))
        chi.source.density   # cached before tracing: shared input, not writer memory
        zs = chi.grid.nodes + 1j * chi.eta
        d = chi.lattice.dim
        evaluate_peak, _ = traced_peak(chi.blocks_at, zs)
        write_peak, _ = traced_peak(chi_trace, tmp_path / "chi.npy", chi, zs)
        assert write_peak < evaluate_peak + zs.size * 3 * d * 16


class TestFieldTrace:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_a_product_per_time(self, tmp_path, n):
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "uniaxial.ini")
        cfg.n_per_axis = n
        pipe = Pipeline(cfg)
        grid, lat = pipe.grid, pipe.lattice
        e_form = field_forms(node_propagator(pipe.chi))["E"]
        rng = np.random.default_rng(n)
        amp = rng.standard_normal((grid.n_nodes, lat.dim)) + 1j * rng.standard_normal((grid.n_nodes, lat.dim))
        times = np.append(np.linspace(0.0, 4.0 * np.pi / grid.omega_max, 8), 1e13)
        field_trace(tmp_path / "field.npy", e_form, amp, times)
        trace = load(tmp_path / "field.npy")
        assert trace.dtype.names == ("t", "value")
        assert np.array_equal(trace["t"], times)
        # the dense route: the site kernels applied to the amplitudes node by node
        weighted = np.einsum("kab,kb->ka", sites(e_form.layout, e_form.alpha), amp)
        weighted *= (lat.cell_volume * grid.weights)[:, None]
        for t, got in zip(times, trace["value"]):
            ref = 2.0 * (np.exp(-1j * grid.nodes * t) @ weighted).real
            assert_close(got, ref.reshape(lat.n_sites, 3))


class TestGreenTrace:
    @pytest.mark.parametrize("name,spacing", [("lorentz.ini", 0.7), ("violator_chi.ini", 1.0)])
    def test_fields_are_the_propagators(self, tmp_path, name, spacing):
        pipe = Pipeline(ScenarioConfig.from_file(CONFIG_DIR / name, spacing=spacing))
        prop = pipe.propagator
        green_trace(tmp_path / "green.npy", prop)
        trace = load(tmp_path / "green.npy")
        assert trace.dtype.names == ("z", "norm", "residual", "cond")
        assert np.array_equal(trace["z"], prop.z)
        assert np.array_equal(trace["residual"], prop.residual)
        assert np.array_equal(trace["cond"], prop.cond)
        ref = prop.lattice.cell_volume * np.linalg.norm(sites(prop.layout, prop.blocks), axis=(1, 2))
        assert_close(trace["norm"], ref)
