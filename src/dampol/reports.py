"""Machine-readable verification reports, `.npy` traces and the refinement table.

Reports are one JSON object per stage; every check entry carries the
residual, its tolerance, and the regularization it was computed with, so
numbers remain interpretable away from the run that produced them.
Serialization is deterministic (sorted keys, no timestamps): identical
configurations and seeds produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .lattice import sq_norms

FORMAT_VERSION = 4


def check_entry(check_id: str, residual: float, tolerance: float, *,
                eta: float, n_nodes: int, lattice, extra: dict | None = None) -> dict:
    entry = {
        "check_id": check_id,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
        "eta": float(eta),
        "n_nodes": int(n_nodes),
        "lattice": [int(lattice.n_per_axis), float(lattice.spacing)],
    }
    if extra:
        entry.update(extra)
    return entry


def stage_report(stage: str, checks: list, extra: dict | None = None) -> dict:
    report = {
        "format_version": FORMAT_VERSION,
        "stage": stage,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    if extra:
        report.update(extra)
    return report


def write_json(path, payload: dict):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")   # one write, not one per chunk


def write_trace(path, **columns):
    """Save the column arrays, each with the rows on its first axis, by `np.save` as one structured array.

    A trace is a diagnostic, not a check; it loads with `np.load(path, allow_pickle=False)`.
    """
    trace = np.empty(len(next(iter(columns.values()))),
                     dtype=[(name, col.dtype, col.shape[1:]) for name, col in columns.items()])
    for name, col in columns.items():
        trace[name] = col
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    np.save(path, trace)


def chi_trace(path, chi, zs):
    """Fields `z` and `chi`, chi[site, i, j] = chi[(site, i), (0, j)]: the response to a unit source at site 0.

    One `blocks_at` stack, the perturbation included, is applied to the three
    source vectors, so no site operator is formed.  On a leaking input it is a partial trace.
    """
    cols = chi.layout.apply(chi.blocks_at(zs)[:, None], np.eye(3, chi.lattice.dim))   # cols[n, j, (site, i)]
    write_trace(path, z=zs, chi=cols.reshape(len(zs), 3, -1, 3).transpose(0, 2, 3, 1))


def green_trace(path, prop):
    """Fields `z`, `norm`, `residual` and `cond`: the propagator's Frobenius magnitude, residual and condition at each node."""
    norms = prop.lattice.cell_volume * np.sqrt(sq_norms(prop.blocks))   # basis-independent
    write_trace(path, z=prop.z, norm=norms, residual=prop.residual, cond=prop.cond)


def field_trace(path, form, amplitudes, times):
    """Fields `t` and `value`, (M, 3): a field form's expectation under a complex amplitude per (node, site, component).

    The blocks are applied to the amplitudes once (`SectorLayout.apply`), so no
    site operator is formed; every time is one row of a (T, K) @ (K, d) product.
    """
    grid, layout = form.grid, form.layout
    weighted = layout.apply(form.alpha, np.asarray(amplitudes))
    weighted *= (layout.lattice.cell_volume * grid.weights)[:, None]
    values = 2.0 * (np.exp(-1j * np.outer(times, grid.nodes)) @ weighted).real   # plus the conjugate pairing
    write_trace(path, t=times, value=values.reshape(len(times), -1, 3))


def refinement_csv(path, levels: list, sequences: dict):
    """Residual-versus-refinement table, one column per check."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    names = sorted(sequences)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_nodes", "eta"] + names)
        for i, (n_nodes, eta) in enumerate(levels):
            writer.writerow([n_nodes, f"{eta:.12g}"] +
                            [f"{sequences[n][i]:.8e}" for n in names])


def convergence_orders(values) -> list:
    """log2 ratios between successive refinement levels."""
    vals = np.asarray(values, dtype=float)
    out = []
    for a, b in zip(vals[:-1], vals[1:]):
        if b <= 0 or a <= 0:
            out.append(float("inf") if a > b else 0.0)
        else:
            out.append(float(np.log2(a / b)))
    return out
