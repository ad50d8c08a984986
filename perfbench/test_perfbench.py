"""Tests of the benchmark itself: inputs, correctness gate, tracer, counters.

Run from the repository root with `python3 -m pytest perfbench`.  They use
small configs, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "tests"

TINY = bench.Workload("tiny", (bench.Scenario(
    "tiny", "configs/lorentz.ini", ("verify-all",), bench.ALL_STAGES,
    (("grid", "n_nodes", "4"),)),))


@pytest.fixture()
def workdir(request):
    path = SCRATCH / request.node.name
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _deadline():
    return time.monotonic() + bench.RUN_LIMIT_S


def test_program_seed_is_a_function_of_the_seed():
    assert bench.program_seed(7) == bench.program_seed(7)
    assert len({bench.program_seed(s) for s in range(20)}) == 20


def test_lattice_n3_config_is_generated_from_lorentz(workdir):
    (path,) = bench.write_configs(ROOT, bench.WORKLOADS["lattice_n3"], 5, workdir)
    text = path.read_text()
    assert "n_per_axis = 3" in text
    assert "stages = model,chi,green,diag,fields,bath" in text
    assert f"seed = {bench.program_seed(5)}" in text
    assert "out =" not in text
    assert "name = local_lorentz" in text


def test_traced_counters_repeat_and_self_times_sum_to_wall(workdir):
    configs = bench.write_configs(ROOT, TINY, 3, workdir / "configs")
    untraced = bench.execute(ROOT, TINY, configs, workdir / "u", False, _deadline())
    traced = [bench.execute(ROOT, TINY, configs, workdir / f"t{i}", True, _deadline())
              for i in range(2)]
    for res in [untraced] + traced:
        assert res["problems"] == [] and res["failed"] == 0 and res["attempted"] > 0
    # tracing must not change a byte of the reports
    assert len({r["digest"] for r in [untraced] + traced}) == 1
    rows = [bench.layer_values(r) for r in traced]
    for name, unit in bench.COUNTERS.items():
        assert rows[0][name] == rows[1][name]
        assert rows[0][name][1] == unit
    assert rows[0]["oracle.canonical_dim"][0] > 0
    assert rows[0]["diagonalize.stack_bytes"][0] == 2 * 16 * 4**2 * 24**2
    metrics, problems = bench.per_layer(traced, [untraced])
    assert problems == []
    for layer in bench.LAYERS:
        assert metrics[f"{layer}.calls"][0] > 0, layer


def test_gate_counts_failed_checks_and_exit_codes(workdir):
    violator = bench.Workload("violator", (bench.Scenario(
        "violator_chi", "configs/violator_chi.ini", ("verify-all",), ("green",)),))
    configs = bench.write_configs(ROOT, violator, 1, workdir / "configs")
    res = bench.execute(ROOT, violator, configs, workdir / "e", False, _deadline())
    assert res["exit_codes"] == [1]
    assert res["failed"] == res["attempted"] > 0
    assert any("exit code 1" in p for p in res["problems"])


def test_determinism_store_flags_changed_reports(workdir):
    assert bench.check_determinism(workdir, "k", ["a", "a"]) == []
    assert bench.check_determinism(workdir, "k", ["a"]) == []
    assert bench.check_determinism(workdir, "k", ["b"]) != []
    assert bench.check_determinism(workdir, "j", ["a", "b"]) != []


def test_refuses_to_run_without_the_program(workdir):
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lattice_n3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    done = {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0}
    printed = {name: unit for name, (_, unit) in bench.end_to_end([], [done], [1.0]).items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == printed
    traced = {"trace": {"layers": {layer: {"self_ns": 0, "calls": 0} for layer in bench.LAYERS},
                        "functions": {}},
              "counters": {"oracle.canonical_dim": 0, "diagonalize.stack_bytes": 0},
              "bytes_written": 0, "wall_s": 1.0}
    printed, _ = bench.per_layer([traced], [{"wall_s": 1.0}])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in printed.items()}
