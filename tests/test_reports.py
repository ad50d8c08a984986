import csv
import tracemalloc

import numpy as np
import pytest

from dampol.coupling import coupling_from_lagrangian, random_coupling
from dampol.lattice import FrequencyGrid, build_lattice
from dampol.reports import chi_trace_csv
from dampol.susceptibility import chi_stack


def reference_chi_trace(path, coupling, z_values):
    """The trace as `csv.writer` writes it, one row per entry."""
    d, one = coupling.lattice.dim, coupling.lattice.one_block
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re_z", "im_z", "site", "site_prime", "i", "j", "re_chi", "im_chi"])
        for z in z_values:
            mat = one.sites(chi_stack(coupling, [z], one))[0]
            for a in range(d):
                for b in range(d):
                    writer.writerow([f"{z.real:.12g}", f"{z.imag:.12g}",
                                     a // 3, b // 3, a % 3, b % 3,
                                     f"{mat[a, b].real:.12g}", f"{mat[a, b].imag:.12g}"])


def random_trace_coupling(n, n_nodes):
    grid = FrequencyGrid.midpoint(n_nodes, 3.0)
    lat = build_lattice(n, 1.0)
    return coupling_from_lagrangian(random_coupling(lat, grid, np.random.default_rng(11 + n)))


class TestChiTrace:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bytes_match_csv_writer(self, tmp_path, n):
        coupling = random_trace_coupling(n, 3)
        grid = coupling.grid
        # on the imaginary axis both node sums share their coefficients, so
        # every imaginary part is an exact zero
        zs = np.append(grid.nodes + 1j * grid.eta, 1j * grid.omega_max / 3)
        chi_trace_csv(tmp_path / "fast.csv", coupling, zs)
        reference_chi_trace(tmp_path / "ref.csv", coupling, zs)
        ref = (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "fast.csv").read_bytes() == ref
        values = [f for row in ref.decode().split("\r\n")[1:] for f in row.split(",")[6:]]
        assert any(v.startswith("-") for v in values)
        assert any("e" in v for v in values)
        assert "0" in values
        assert ref.count(b"\r\n") == 1 + zs.size * coupling.lattice.dim**2

    def test_memory_flat_in_the_node_text(self, tmp_path):
        # the writer holds the one stacked chi evaluation of every point,
        # and at most one row's text besides: far below a d x d complex matrix
        coupling = random_trace_coupling(3, 4)
        coupling.density_stack   # cached before tracing: it is shared input, not writer memory
        zs = coupling.grid.nodes + 1j * coupling.grid.eta
        d = coupling.lattice.dim
        tracemalloc.start()
        try:
            held = chi_stack(coupling, zs, coupling.lattice.one_block)
            _, evaluate_peak = tracemalloc.get_traced_memory()
            del held
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            chi_trace_csv(tmp_path / "chi.csv", coupling, zs)
            _, write_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert write_peak - base < evaluate_peak + d * d * 16
