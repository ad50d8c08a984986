"""Machine-readable verification reports and CSV trace emitters.

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

FORMAT_VERSION = 3


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
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def chi_trace_csv(path, chi, zs):
    """chi(r, 0), the response at every site to a unit source at site 0, at the points zs.

    Row (site, i, j) of a point is chi[(site, i), (0, j)], 3 d rows per point:
    on a translation-invariant medium they carry every entry of chi, on a
    leaking input they are a partial trace, a diagnostic and not a check.
    One `blocks_at` stack, the perturbation included, is applied to the three
    source vectors, so no site operator is formed.  The rows of a point are
    one `writelines` batch of the bytes `csv.writer` gives (no field needs
    quoting), so no more than one row's text is held at a time.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    d = chi.lattice.dim
    cols = chi.layout.apply(chi.blocks_at(zs)[:, None], np.eye(3, d))   # cols[n, j, a]
    mids = [f"{a // 3},{a % 3},{j}," for a in range(d) for j in range(3)]
    with open(path, "w", newline="") as fh:
        fh.write("re_z,im_z,site,i,j,re_chi,im_chi\r\n")
        for z, col in zip(zs, cols):
            head = f"{z.real:.12g},{z.imag:.12g},"
            fh.writelines(f"{head}{mid}{x.real:.12g},{x.imag:.12g}\r\n"
                          for mid, x in zip(mids, col.T.ravel().tolist()))


def green_trace_csv(path, prop):
    """Frobenius magnitude, residual and condition of the propagator at each node."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re_z", "im_z", "norm", "residual", "cond"])
        norms = prop.lattice.cell_volume * np.sqrt(sq_norms(prop.blocks))   # basis-independent
        for z, norm, residual, cond in zip(prop.z, norms.tolist(), prop.residual, prop.cond):
            writer.writerow([f"{z.real:.12g}", f"{z.imag:.12g}",
                             f"{norm:.12g}", f"{residual:.6g}", f"{cond:.6g}"])


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


def field_trace_csv(path, form, amplitudes, times):
    """Expectation trace of a field form under a coherent-like weighting.

    `amplitudes` assigns a complex amplitude per (node, site, component);
    the emitted expectation is the amplitude-weighted coefficient sum at
    each requested time.  The form's blocks are contracted with the
    amplitudes once, rotated into the layout basis and back
    (`SectorLayout.apply`), so no site operator is formed and each time is
    one (K,) @ (K, d) product.  The rows of a time are one `writelines`
    batch of the bytes `csv.writer` gives (no field needs quoting).
    Diagnostic output for plotting only.
    """
    grid, layout = form.grid, form.layout
    weighted = layout.apply(form.alpha, np.asarray(amplitudes))
    weighted *= (layout.lattice.cell_volume * grid.weights)[:, None]
    mids = [f",{a // 3},{a % 3}," for a in range(layout.lattice.dim)]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("t,site,component,value\r\n")
        for t in times:
            values = 2.0 * (np.exp(-1j * grid.nodes * t) @ weighted).real   # plus the conjugate pairing
            head = f"{t:.12g}"
            fh.writelines(f"{head}{mid}{val:.12g}\r\n" for mid, val in zip(mids, values.tolist()))
