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

FORMAT_VERSION = 1


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


def chi_trace_csv(path, coupling, z_values):
    """Susceptibility entries at the requested complex frequencies.

    Every point is evaluated by one `chi_stack` call in `Lattice.one_block`,
    whose blocks are views of the site operators.  The bytes are those
    `csv.writer` gives for the same rows (no field needs quoting); each row
    block of a node is written as one batch, so no more than one row's text
    is held at a time.
    """
    from .susceptibility import chi_stack
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    d, one = coupling.lattice.dim, coupling.lattice.one_block
    mats = one.sites(chi_stack(coupling, z_values, one))
    # the "site_prime,i,j," fields of every column, per row component i
    mids = [[f"{b // 3},{i},{b % 3}," for b in range(d)] for i in range(3)]
    with open(path, "w", newline="") as fh:
        fh.write("re_z,im_z,site,site_prime,i,j,re_chi,im_chi\r\n")
        for z, mat in zip(z_values, mats):
            zs = f"{z.real:.12g},{z.imag:.12g},"
            for a in range(d):
                head = f"{zs}{a // 3},"
                fh.writelines(f"{head}{mid}{x.real:.12g},{x.imag:.12g}\r\n"
                              for mid, x in zip(mids[a % 3], mat[a].tolist()))


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
    one (K,) @ (K, d) product.  Diagnostic output for plotting only.
    """
    grid, layout = form.grid, form.layout
    weighted = layout.apply(form.alpha, np.asarray(amplitudes))
    weighted *= (layout.lattice.cell_volume * grid.weights)[:, None]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "site", "component", "value"])
        for t in times:
            values = 2.0 * (np.exp(-1j * grid.nodes * t) @ weighted).real   # plus the conjugate pairing
            for a, val in enumerate(values):
                writer.writerow([f"{t:.12g}", a // 3, a % 3, f"{val:.12g}"])
