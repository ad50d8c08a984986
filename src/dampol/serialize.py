"""Versioned binary dump of an assembled quadratic form, and its reader.

Layout: a magic line, one JSON header line (lattice dims, grid nodes,
canonical-basis bookkeeping, array shape), then raw row-major complex128
bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DampolError

MAGIC = b"DAMPOLK1"
FORMAT_VERSION = 1


def dump_quadratic_form(path, ham, label: str = "hamiltonian"):
    """Dump an assembled quadratic form with its basis bookkeeping."""
    lattice, grid = ham.lattice, ham.grid
    header = {
        "format_version": FORMAT_VERSION,
        "n_per_axis": lattice.n_per_axis,
        "spacing": lattice.spacing,
        "k0_transverse": lattice.k0_transverse,
        "shape": list(ham.h.shape),
        "dtype": "complex128",
        "label": label,
        "grid": {
            "nodes": grid.nodes.tolist(),
            "weights": grid.weights.tolist(),
            "eta": grid.eta,
            "omega_max": grid.omega_max,
        },
        "canonical_basis": {"transverse_dim": ham.mt, "n_nodes": grid.n_nodes},
    }
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.ascontiguousarray(ham.h, dtype=np.complex128).tobytes())


def load_quadratic_form(path):
    """Load a quadratic-form dump; returns the coefficient array and header."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != MAGIC:
            raise DampolError(f"{path} is not a kernel dump (bad magic {magic!r})")
        header = json.loads(fh.readline().decode())
        raw = fh.read()
    if "canonical_basis" not in header:
        raise DampolError("dump does not contain a quadratic form")
    return np.frombuffer(raw, dtype=np.complex128).reshape(header["shape"]).copy(), header
