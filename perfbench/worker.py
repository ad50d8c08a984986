"""One workload execution in a fresh process: set-up, run, measure.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the package source directory, the generated configs to parse
for the set-up measurement, the `dampol` command lines to execute, and
whether to trace.  With `setup_only` the process stops after set-up, which
is how the benchmark samples set-up time several times in a run.  RESULT
receives the timings, the process's peak RSS, the exit codes, the
environment, and, when traced, the span aggregates and counters.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _stack_bytes(modes) -> int:
    """Computed size of the two node-pair kernel stacks, from their shapes."""
    return sum(math.prod(a.shape) * a.itemsize for a in (modes.resonant, modes.antiresonant))


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    t0 = time.perf_counter()
    from dampol import cli
    for cfg in spec["setup_configs"]:
        cli.Pipeline(cli.ScenarioConfig.from_file(cfg))
    result = {"setup_s": time.perf_counter() - t0, "environment": _environment()}

    if not spec["setup_only"]:
        counters = {"oracle.canonical_dim": 0, "diagonalize.stack_bytes": 0}
        tracer = None
        if spec["trace"]:
            from tracer import Tracer   # perfbench/ is sys.path[0] for a script
            tracer = Tracer()
            tracer.install("dampol")

            def count(name, amount):
                counters[name] += amount
            tracer.observe("oracle.assemble_hamiltonian",
                           lambda ham: count("oracle.canonical_dim", ham.dim))
            tracer.observe("diagonalize.mode_coefficients",
                           lambda modes: count("diagonalize.stack_bytes", _stack_bytes(modes)))

        codes = []
        cpu0, w0 = _cpu_seconds(), time.perf_counter()
        for argv in spec["commands"]:
            codes.append(cli.main(argv))   # the wrapped `main` when traced
        result["wall_s"] = time.perf_counter() - w0
        result["cpu_s"] = _cpu_seconds() - cpu0
        result["exit_codes"] = codes
        if tracer is not None:
            result["trace"] = tracer.summary()
            result["counters"] = counters

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: worker.py SPEC.json RESULT.json")
    sys.exit(main(sys.argv[1], sys.argv[2]))
