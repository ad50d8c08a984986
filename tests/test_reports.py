import csv
from pathlib import Path

import numpy as np
import pytest

from dampol.cli import Pipeline, ScenarioConfig
from dampol.lattice import FrequencyGrid, build_lattice
from dampol.fields import field_forms
from dampol.green import node_propagator
from dampol.reports import chi_trace_csv, field_trace_csv
from dampol.susceptibility import Susceptibility, chi_stack

from conftest import traced_peak
from reference import coupling_from_real, random_coupling, sites

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def site_chi(coupling, z_values):
    """chi at the points rotated back to sites, (n, d, d): the dense reference of the values."""
    return sites(coupling.layout, chi_stack(coupling, z_values))


def applied_chi(coupling, z_values):
    """chi at the points, (n, d, d), each column applied to its unit source as the writer applies it."""
    flat, d = chi_stack(coupling, z_values), coupling.lattice.dim
    return coupling.layout.apply(flat[:, None], np.eye(d)).swapaxes(-1, -2)


def reference_chi_trace(path, z_values, mats):
    """Every entry of the (n, d, d) chi matrices at the points, as `csv.writer` writes it, one row per entry."""
    d = mats.shape[-1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re_z", "im_z", "site", "site_prime", "i", "j", "re_chi", "im_chi"])
        for z, mat in zip(z_values, mats):
            for a in range(d):
                for b in range(d):
                    writer.writerow([f"{z.real:.12g}", f"{z.imag:.12g}",
                                     a // 3, b // 3, a % 3, b % 3,
                                     f"{mat[a, b].real:.12g}", f"{mat[a, b].imag:.12g}"])


def random_trace_coupling(n, n_nodes):
    grid = FrequencyGrid.midpoint(n_nodes, 3.0)
    lat = build_lattice(n, 1.0)
    return coupling_from_real(random_coupling(lat, grid, np.random.default_rng(11 + n)))


def site0_rows(path) -> bytes:
    """The reference rows with `site_prime == 0`, that column dropped, in the writer's bytes."""
    header, *rows = Path(path).read_bytes().decode().splitlines()
    kept = [header.replace("site_prime,", "")]
    kept += [",".join(f[:3] + f[4:]) for f in (row.split(",") for row in rows) if f[3] == "0"]
    return "".join(f"{row}\r\n" for row in kept).encode()


def read_trace(path):
    """(index and z columns, complex values) of a trace written by `chi_trace_csv`."""
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    return table[:, :5], table[:, 5] + 1j * table[:, 6]


class TestChiTrace:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bytes_match_csv_writer(self, tmp_path, n):
        # at n = 1 the basis is the identity, so the site rotation is exact and
        # the bytes compare values and format; at n >= 2 a random coupling
        # leaks across sectors and chi is one dense block, whose site rotation
        # rounds: the reference reads every column as the writer reads the
        # site-0 ones, so the bytes compare the format (the values are compared
        # with the site rotation in test_dense_block_matches_site_trace)
        coupling = random_trace_coupling(n, 3)
        grid = coupling.grid
        # on the imaginary axis both node sums share their coefficients, so
        # every imaginary part is an exact zero; far up it chi is small
        # enough to print with an exponent
        zs = np.append(grid.nodes + 1j * grid.eta, 1j * grid.omega_max * np.array([1 / 3, 1e4]))
        chi_trace_csv(tmp_path / "fast.csv", Susceptibility(coupling), zs)
        reference_chi_trace(tmp_path / "ref.csv", zs,
                            site_chi(coupling, zs) if n == 1 else applied_chi(coupling, zs))
        ref = site0_rows(tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == ref
        values = [f for row in ref.decode().split("\r\n")[1:] for f in row.split(",")[5:]]
        assert any(v.startswith("-") for v in values)
        assert any("e" in v for v in values)
        assert "0" in values
        assert ref.count(b"\r\n") == 1 + zs.size * 3 * coupling.lattice.dim

    @pytest.mark.parametrize("name,n", [("lorentz.ini", 2), ("gaussian.ini", 2),
                                        ("uniaxial.ini", 2), ("lorentz.ini", 3)])
    def test_sector_blocks_match_dense_trace(self, tmp_path, name, n):
        cfg = ScenarioConfig.from_file(CONFIG_DIR / name)
        cfg.n_per_axis = n
        pipe = Pipeline(cfg)
        assert pipe.chi.layout is pipe.lattice.sector_layout
        zs = pipe.grid.nodes + 1j * pipe.grid.eta
        chi_trace_csv(tmp_path / "fast.csv", pipe.chi, zs)
        reference_chi_trace(tmp_path / "ref.csv", zs, site_chi(pipe.coupling, zs))
        (tmp_path / "ref0.csv").write_bytes(site0_rows(tmp_path / "ref.csv"))
        index, values = read_trace(tmp_path / "fast.csv")
        ref_index, ref_values = read_trace(tmp_path / "ref0.csv")
        assert np.array_equal(index, ref_index)
        assert np.abs(values - ref_values).max() <= 1e-12 * np.abs(ref_values).max()

    @pytest.mark.parametrize("n", [2, 3])
    def test_dense_block_matches_site_trace(self, tmp_path, n):
        # a leaking coupling's one block is in the momentum basis: the writer's
        # columns against the site rotation of the same blocks
        coupling = random_trace_coupling(n, 3)
        assert coupling.layout is coupling.lattice.one_block
        zs = coupling.grid.nodes + 1j * coupling.grid.eta
        chi_trace_csv(tmp_path / "fast.csv", Susceptibility(coupling), zs)
        reference_chi_trace(tmp_path / "ref.csv", zs, site_chi(coupling, zs))
        (tmp_path / "ref0.csv").write_bytes(site0_rows(tmp_path / "ref.csv"))
        index, values = read_trace(tmp_path / "fast.csv")
        ref_index, ref_values = read_trace(tmp_path / "ref0.csv")
        assert np.array_equal(index, ref_index)
        assert np.abs(values - ref_values).max() <= 1e-12 * np.abs(ref_values).max()

    def test_perturbation_included(self, tmp_path):
        # the violator adds its magnitude at entry (0, 1) of every evaluation:
        # the trace shows the chi that the checks read, not the unperturbed source
        pipe = Pipeline(ScenarioConfig.from_file(CONFIG_DIR / "violator_chi.ini"))
        zs = pipe.grid.nodes + 1j * pipe.grid.eta
        chi_trace_csv(tmp_path / "perturbed.csv", pipe.chi, zs)
        chi_trace_csv(tmp_path / "source.csv", Susceptibility(pipe.coupling), zs)
        index, values = read_trace(tmp_path / "perturbed.csv")
        src_index, src_values = read_trace(tmp_path / "source.csv")
        assert np.array_equal(index, src_index)
        hit = (index[:, 2] == 0) & (index[:, 3] == 0) & (index[:, 4] == 1)
        assert hit.sum() == zs.size
        assert np.all(values[hit] - src_values[hit] == pipe.config.violation_magnitude)
        assert np.abs(values[~hit] - src_values[~hit]).max() <= 1e-12 * np.abs(src_values).max()

    def test_memory_flat_in_the_node_text(self, tmp_path):
        # the writer holds the one stacked chi evaluation of every point, the
        # (K, 3, d) source columns and at most one row's text besides: no
        # d x d site operator
        chi = Susceptibility(random_trace_coupling(3, 4))
        chi.source.density   # cached before tracing: shared input, not writer memory
        zs = chi.grid.nodes + 1j * chi.eta
        d = chi.lattice.dim
        evaluate_peak, _ = traced_peak(chi.blocks_at, zs)
        write_peak, _ = traced_peak(chi_trace_csv, tmp_path / "chi.csv", chi, zs)
        row = max(len(line) for line in (tmp_path / "chi.csv").read_bytes().splitlines())
        assert write_peak < evaluate_peak + zs.size * 3 * d * 16 + row


def reference_field_trace(path, form, amplitudes, times):
    """`field_trace_csv` as `csv.writer` writes it, one `writerow` per row."""
    grid, layout = form.grid, form.layout
    weighted = layout.apply(form.alpha, np.asarray(amplitudes))
    weighted *= (layout.lattice.cell_volume * grid.weights)[:, None]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "site", "component", "value"])
        for t in times:
            values = 2.0 * (np.exp(-1j * grid.nodes * t) @ weighted).real
            for a, val in enumerate(values):
                writer.writerow([f"{t:.12g}", a // 3, a % 3, f"{val:.12g}"])


class TestFieldTrace:
    @pytest.mark.parametrize("n", [2, 3])
    def test_bytes_match_csv_writer(self, tmp_path, n):
        cfg = ScenarioConfig.from_file(CONFIG_DIR / "uniaxial.ini")
        cfg.n_per_axis = n
        pipe = Pipeline(cfg)
        e_form = field_forms(node_propagator(pipe.chi))["E"]
        rng = np.random.default_rng(n)
        amp = rng.standard_normal((pipe.grid.n_nodes, pipe.lattice.dim)) \
            + 1j * rng.standard_normal((pipe.grid.n_nodes, pipe.lattice.dim))
        # a time far out makes some values print with an exponent
        times = np.append(np.linspace(0.0, 4.0 * np.pi / pipe.grid.omega_max, 8), 1e13)
        field_trace_csv(tmp_path / "fast.csv", e_form, amp, times)
        reference_field_trace(tmp_path / "ref.csv", e_form, amp, times)
        ref = (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "fast.csv").read_bytes() == ref
        assert ref.count(b"\r\n") == 1 + times.size * pipe.lattice.dim
        assert b"e+13," in ref and b",-" in ref
