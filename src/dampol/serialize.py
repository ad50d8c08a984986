"""Versioned binary dump of an assembled quadratic form, and its reader.

Layout: a magic line, one JSON header line (lattice dims, grid nodes,
canonical-basis bookkeeping, array shape), then raw row-major complex128
bytes of the dense dim x dim embedding of the form's blocks.  Version 3
holds the form over the Hermitian quadratures (a, p, x, y) with every
node's x and y slots in `Lattice.momentum_basis` order (momentum column,
then component); version 2 had them in site order, and version 1 held the
form over the ladder operators (a, p, c, c^dag).  Neither is read.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DampolError

MAGIC = b"DAMPOLK1"
FORMAT_VERSION = 3

#: the canonical basis the coefficients refer to, in slot order
BASIS = "a,p,x,y"

#: the site basis of every node's x and y slots
LADDER_SITES = "momentum_basis"


def dump_quadratic_form(path, ham, label: str = "hamiltonian"):
    """Dump an assembled quadratic form, as its dense embedding, with its basis bookkeeping."""
    lattice, grid = ham.lattice, ham.grid
    h = ham.merged().blocks[0]
    header = {
        "format_version": FORMAT_VERSION,
        "basis": BASIS,
        "ladder_sites": LADDER_SITES,
        "n_per_axis": lattice.n_per_axis,
        "spacing": lattice.spacing,
        "k0_transverse": lattice.k0_transverse,
        "shape": list(h.shape),
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
        fh.write(np.ascontiguousarray(h, dtype=np.complex128).tobytes())


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
                          f"version {FORMAT_VERSION} (basis {BASIS}, ladder slots in "
                          f"{LADDER_SITES} order) only")
    if "canonical_basis" not in header:
        raise DampolError("dump does not contain a quadratic form")
    return np.frombuffer(raw, dtype=np.complex128).reshape(header["shape"]).copy(), header
