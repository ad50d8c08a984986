"""Benchmark of the dampol verification pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: executions run one at a
time, each in a fresh worker process with BLAS pinned to one thread.  The
program sees only the configs generated here from the shipped ones and the
seed.  Every execution's exit code and reports are checked; two executions
with the same seed must write byte-identical reports.

`--trace 0` prints the end-to-end metrics, medians over the executions of
the run.  `--trace 1` alternates untraced and traced executions and prints
the per-layer metrics from the spans.  The last line of standard
output is the result object; the lines before it are a readable listing
and the recorded environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

#: the run must end within this many seconds, the first run's build aside
RUN_LIMIT_S = 170.0
#: set-up is sampled in this many extra worker processes per untraced run
SETUP_PROBES = 8
#: largest share by which the traced layer self times may miss traced wall time
SELF_SUM_TOLERANCE = 0.01

ALL_STAGES = ("model", "chi", "green", "diag", "fields", "bath", "oracle")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Scenario:
    """One `dampol` invocation: a shipped config, overrides, a subcommand."""

    name: str
    config: str                 # shipped config, relative to the checkout root
    command: tuple              # subcommand and its extra flags
    stages: tuple = ()          # stages whose reports verify-all must write
    overrides: tuple = ()       # (section, key, value) applied to the config


@dataclass(frozen=True)
class Workload:
    why: str
    scenarios: tuple


WORKLOADS = {
    "verify_shipped": Workload(
        "verify-all on the three shipped n=2, K=12 configs, every stage; oracle-dominated",
        tuple(Scenario(name, f"configs/{name}.ini", ("verify-all",), ALL_STAGES)
              for name in ("lorentz", "gaussian", "uniaxial"))),
    "refine_kernels": Workload(
        "refine --levels 3 on refine_kernels.ini, K 64 to 256 at d=24; bath and streamed passes",
        (Scenario("refine_kernels", "configs/refine_kernels.ini",
                  ("refine", "--levels", "3")),)),
    "lattice_n3": Workload(
        "verify-all on lorentz at n=3 (d=81), K=12, no oracle; dense 3M x 3M lattice algebra",
        (Scenario("lorentz_n3", "configs/lorentz.ini", ("verify-all",), ALL_STAGES[:-1],
                  (("lattice", "n_per_axis", "3"),
                   ("run", "stages", ",".join(ALL_STAGES[:-1])))),)),
}


class BenchmarkError(Exception):
    """The benchmark cannot run here: missing sources or a broken worker."""


# -- inputs ------------------------------------------------------------------


def program_seed(seed: int) -> int:
    """The `[run] seed` the program receives for a workload seed."""
    return random.Random(seed).randrange(1, 2**31)


def write_configs(root: Path, workload: Workload, seed: int, dest: Path) -> list:
    """Generate the workload's configs from the shipped ones; returns paths."""
    dest.mkdir(parents=True, exist_ok=True)
    paths = []
    for sc in workload.scenarios:
        source = root / sc.config
        if not source.is_file():
            raise BenchmarkError(f"shipped config {sc.config} is missing")
        parser = configparser.ConfigParser()
        parser.read(source)
        for section, key, value in sc.overrides:
            if not parser.has_section(section):
                parser.add_section(section)
            parser[section][key] = value
        if not parser.has_section("run"):
            parser.add_section("run")
        parser["run"]["seed"] = str(program_seed(seed))
        parser["run"].pop("out", None)
        path = dest / f"{sc.name}.ini"
        with open(path, "w") as fh:
            parser.write(fh)
        paths.append(path)
    return paths


# -- executions --------------------------------------------------------------


def run_worker(root: Path, spec: dict, workdir: Path, deadline: float) -> dict:
    """Run one worker process to completion; returns its result object."""
    workdir.mkdir(parents=True, exist_ok=True)
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec))
    result_path.unlink(missing_ok=True)
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run([sys.executable, str(WORKER), str(spec_path), str(result_path)],
                              cwd=root, env=dict(os.environ, **{v: "1" for v in THREAD_VARS}),
                              timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return {"crashed": f"worker exceeded {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.is_file():
        return {"crashed": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(result_path.read_text())


def execute(root: Path, workload: Workload, configs: list, workdir: Path,
            trace: bool, deadline: float) -> dict:
    """One execution of the workload, checked; returns timings and verdicts."""
    out = workdir / "out"
    if out.exists():
        shutil.rmtree(out)
    commands = [list(sc.command) + ["--config", str(cfg), "--out", str(out / sc.name)]
                for sc, cfg in zip(workload.scenarios, configs)]
    spec = {"src": str(root / "src"), "setup_configs": [str(c) for c in configs],
            "commands": commands, "trace": trace, "setup_only": False}
    res = run_worker(root, spec, workdir, deadline)
    if "crashed" in res:
        res.update(attempted=0, failed=0, problems=[res["crashed"]], digest=None)
        return res
    attempted = failed = 0
    problems = []
    for sc, code in zip(workload.scenarios, res["exit_codes"]):
        a, f, p = check_reports(out / sc.name, sc)
        attempted, problems = attempted + a, problems + p
        if code != 0:
            problems.append(f"{sc.name}: exit code {code}")
            failed += a             # a failing exit counts every check as failed
        else:
            failed += f
    res.update(attempted=attempted, failed=failed, problems=problems, digest=tree_digest(out))
    if trace:
        res["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return res


def setup_probe(root: Path, configs: list, workdir: Path, deadline: float) -> dict:
    spec = {"src": str(root / "src"), "setup_configs": [str(c) for c in configs],
            "commands": [], "trace": False, "setup_only": True}
    return run_worker(root, spec, workdir, deadline)


# -- correctness -------------------------------------------------------------


def check_reports(out: Path, sc: Scenario):
    """Count the checks in a scenario's reports; returns (attempted, failed, problems).

    A check's verdict is recomputed from its residual and tolerance.  A report
    that is missing, unreadable or inconsistent adds a problem and counts as
    one failed check.
    """
    names = ["refine"] if sc.command[0] == "refine" else list(sc.stages)
    attempted = failed = 0
    problems = []
    verdicts = {}
    for name in names:
        try:
            report = json.loads((out / f"{name}.json").read_text())
            checks = report["checks"]
            ok = bool(checks)
            for chk in checks:
                passed = float(chk["residual"]) <= float(chk["tolerance"])
                if passed != chk["passed"]:
                    problems.append(f"{sc.name}/{name}: {chk['check_id']} verdict disagrees")
                    passed = False
                attempted += 1
                failed += not passed
                ok = ok and passed
            if report["passed"] != ok:
                problems.append(f"{sc.name}/{name}: stage verdict disagrees with its checks")
            if not checks:
                problems.append(f"{sc.name}/{name}: no checks ({report.get('error', '')})")
                attempted, failed = attempted + 1, failed + 1
            verdicts[name] = ok
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{sc.name}/{name}: unreadable report ({exc!r})")
            attempted, failed = attempted + 1, failed + 1
            verdicts[name] = False
    if sc.command[0] != "refine":
        try:
            summary = json.loads((out / "run.json").read_text())
            if summary["stages"] != verdicts or summary["passed"] != all(verdicts.values()):
                problems.append(f"{sc.name}/run.json disagrees with the stage reports")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{sc.name}/run.json unreadable ({exc!r})")
    return attempted, failed, problems


def tree_digest(out: Path) -> str:
    """Digest of every file an execution wrote, by relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_determinism(state_dir: Path, key: str, digests: list) -> list:
    """Same seed, same bytes: within the run and against earlier runs here."""
    problems = []
    if len(set(digests)) > 1:
        problems.append("executions with the same seed wrote different reports")
    store = state_dir / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key in known and known[key] != digests[0]:
        problems.append("reports differ from an earlier run with the same seed and sources")
    elif key not in known:
        known[key] = digests[0]
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(store)
    return problems


# -- metrics -----------------------------------------------------------------


def end_to_end(execs: list, done: list, setups: list) -> dict:
    """Medians over the completed executions; the pass share over all of them."""
    attempted = sum(e["attempted"] for e in execs)
    failed = sum(e["failed"] for e in execs)
    med = lambda key: statistics.median(e[key] for e in done)   # noqa: E731
    return {
        "wall_s": (med("wall_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "pass_frac": ((attempted - failed) / max(attempted, 1), "ratio"),
    }


#: per-layer extras: metric -> (function whose spans it reads, field, unit)
SPAN_EXTRAS = {
    "oracle.spectrum_s": ("oracle.symplectic_spectrum", "inclusive_ns", "s"),
    "bath.independence_s": ("bath.verify_bath_independence", "inclusive_ns", "s"),
    "bath.equivalence_s": ("bath.hamiltonian_equivalence", "inclusive_ns", "s"),
    "fields.commutator_s": ("fields.commutator", "inclusive_ns", "s"),
    "fields.commutator_calls": ("fields.commutator", "calls", "count"),
    "diagonalize.streamed_s": ("diagonalize.streamed_mode_checks", "inclusive_ns", "s"),
    "diagonalize.fano_s": ("diagonalize.fano_residual", "inclusive_ns", "s"),
    "green.solves": ("green.solve_green", "calls", "count"),
}

#: counters that must repeat exactly from one execution to the next
COUNTERS = {
    "green.solves": "count",
    "fields.commutator_calls": "count",
    "oracle.canonical_dim": "count",
    "diagonalize.stack_bytes": "bytes-computed",
    "reports.bytes_written": "bytes",
}


def layer_values(res: dict) -> dict:
    """Per-layer metric values of one traced execution."""
    trace = res["trace"]
    vals = {}
    for layer in LAYERS:
        vals[f"{layer}.self_s"] = (trace["layers"][layer]["self_ns"] * 1e-9, "s")
        vals[f"{layer}.calls"] = (trace["layers"][layer]["calls"], "count")
    for name, (func, field, unit) in SPAN_EXTRAS.items():
        raw = trace["functions"].get(func, {}).get(field, 0)
        vals[name] = (raw * 1e-9 if unit == "s" else raw, unit)
    for name in ("oracle.canonical_dim", "diagonalize.stack_bytes"):
        vals[name] = (res["counters"][name], COUNTERS[name])
    vals["reports.bytes_written"] = (res["bytes_written"], COUNTERS["reports.bytes_written"])
    vals["trace.wall_s"] = (res["wall_s"], "s")
    return vals


def per_layer(traced: list, untraced: list) -> tuple:
    """Medians over the traced executions, plus the tracer's own checks."""
    rows = [layer_values(r) for r in traced]
    problems = []
    for name in COUNTERS:
        if len({row[name][0] for row in rows}) > 1:
            problems.append(f"counter {name} changed between executions")
    for row in rows:
        self_sum = sum(row[f"{layer}.self_s"][0] for layer in LAYERS)
        wall = row["trace.wall_s"][0]
        if abs(self_sum - wall) > SELF_SUM_TOLERANCE * wall:
            problems.append(f"layer self times sum to {self_sum:.4f} s, "
                            f"traced wall is {wall:.4f} s")
    metrics = {name: (statistics.median(row[name][0] for row in rows), unit)
               for name, (_, unit) in rows[0].items()}
    untraced_wall = statistics.median(e["wall_s"] for e in untraced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_wall, "s")
    return metrics, problems


# -- runs --------------------------------------------------------------------


def fits(execs: list, t0: float, seconds: float) -> bool:
    """Whether one more execution, as long as the mean so far, ends in the window."""
    if "crashed" in execs[-1]:
        return False
    elapsed = time.monotonic() - t0
    return elapsed + elapsed / len(execs) <= seconds


def run(root: Path, workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not (root / "src" / "dampol" / "cli.py").is_file():
        raise BenchmarkError(f"no dampol sources under {root / 'src'}")
    workload = WORKLOADS[workload_name]
    state_dir = root / ".perfbench_out"
    workdir = state_dir / workload_name
    if workdir.exists():
        shutil.rmtree(workdir)
    configs = write_configs(root, workload, seed, workdir / "configs")

    warm = setup_probe(root, configs, workdir / "warmup", deadline)   # fills caches
    if "crashed" in warm:
        raise BenchmarkError(warm["crashed"])
    # a traced run alternates untraced and traced executions, untraced first
    execs, t0 = [], time.monotonic()
    while len(execs) < 1 + trace or fits(execs, t0, seconds):
        execs.append(execute(root, workload, configs, workdir / f"exec{len(execs)}",
                             trace and len(execs) % 2 == 1, deadline))
    setups = []
    for i in range(0 if trace else SETUP_PROBES):
        probe = setup_probe(root, configs, workdir / f"setup{i}", deadline)
        if "crashed" in probe:
            raise BenchmarkError(probe["crashed"])
        setups.append(probe["setup_s"])

    problems = [p for e in execs for p in e["problems"]]
    crashed = [e for e in execs if "crashed" in e]
    # a crash counts as every check failed; size it from a complete execution
    expected = max((e["attempted"] for e in execs), default=0) or 1
    for e in crashed:
        e["attempted"] = e["failed"] = expected
    if not crashed:
        key = f"{workload_name}:{seed}:{source_digest(root)}"
        problems += check_determinism(state_dir, key, [e["digest"] for e in execs])

    done = [e for e in execs if "crashed" not in e]
    if trace:
        traced = [e for e in done if "trace" in e]
        untraced = [e for e in done if "trace" not in e]
        if not traced or not untraced:
            raise BenchmarkError("no untraced and traced execution completed: "
                                 + "; ".join(problems))
        metrics, tracer_problems = per_layer(traced, untraced)
        problems += tracer_problems
    else:
        if not done:
            raise BenchmarkError("no execution completed: " + "; ".join(problems))
        metrics = end_to_end(execs, done, setups + [e["setup_s"] for e in done])
    attempted = sum(e["attempted"] for e in execs)
    failed = sum(e["failed"] for e in execs)
    return {
        "workload": workload_name, "seed": seed, "trace": trace,
        "executions": len(execs), "elapsed_s": time.monotonic() - started,
        "environment": dict(warm["environment"], commit=commit_hash(root),
                            source_sha256=source_digest(root)),
        "problems": problems,
        "walls": [e["wall_s"] for e in done],
        "fail_frac": failed / max(attempted, 1),
        "result": {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def commit_hash(root: Path):
    """The checkout's commit, when it is a git work tree; None otherwise."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()
    try:
        report = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in report["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"# workload {report['workload']}, seed {report['seed']}, trace {int(report['trace'])}: "
          f"{report['executions']} executions in {report['elapsed_s']:.1f} s, "
          f"fail_frac {report['fail_frac']:g}")
    order = " (untraced and traced in turn)" if report["trace"] else ""
    print(f"# wall_s of each execution{order}: {[round(w, 4) for w in report['walls']]}")
    for name, metric in report["result"]["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"environment": report["environment"]}, sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
