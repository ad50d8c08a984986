"""Versioned binary dump of an assembled quadratic form, and its reader.

Layout: a magic line, one JSON header line (lattice dims, grid nodes,
canonical-basis bookkeeping, array shape), then raw row-major complex128
bytes.  Version 2 holds the form over the Hermitian quadratures
(a, p, x, y); version 1 held it over the ladder operators (a, p, c, c^dag)
and is no longer read.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DampolError

MAGIC = b"DAMPOLK1"
FORMAT_VERSION = 2

#: the canonical basis the coefficients refer to, in slot order
BASIS = "a,p,x,y"


def dump_quadratic_form(path, ham, label: str = "hamiltonian"):
    """Dump an assembled quadratic form with its basis bookkeeping."""
    lattice, grid = ham.lattice, ham.grid
    header = {
        "format_version": FORMAT_VERSION,
        "basis": BASIS,
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
        try:
            header = json.loads(fh.readline().decode())
        except ValueError as exc:   # undecodable bytes or malformed JSON
            raise DampolError(f"{path} has no readable header line ({exc})") from None
        raw = fh.read()
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise DampolError(f"{path} has format version {version!r}; this reader takes "
                          f"version {FORMAT_VERSION} (basis {BASIS}) only")
    if "canonical_basis" not in header:
        raise DampolError("dump does not contain a quadratic form")
    return np.frombuffer(raw, dtype=np.complex128).reshape(header["shape"]).copy(), header
