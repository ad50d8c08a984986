"""Versioned binary dump of an assembled quadratic form, and its reader.

Layout: a magic line, one JSON header line (lattice dims, grid nodes,
canonical-basis bookkeeping, the form's shape and the canonical slots of
each of its slot groups), then the raw row-major complex128 bytes of the
form's blocks, one after another in group order: block i is the (G, G)
restriction of the form to the slots `groups[i]`, and the form has no entry
outside its blocks.  Version 4 holds the form over the Hermitian
quadratures (a, p, x, y) with every node's x and y slots in the order of
the momentum basis of `lattice.py` (momentum column, then component).
Version 3 held the same form as its dense dim x dim embedding, version 2
had the ladder slots in site order, and version 1 held the form over the
ladder operators (a, p, c, c^dag).  None of them is read.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DampolError

MAGIC = b"DAMPOLK1"
FORMAT_VERSION = 4

#: the canonical basis the coefficients refer to, in slot order
BASIS = "a,p,x,y"

#: the site basis of every node's x and y slots
LADDER_SITES = "momentum_basis"


def dump_quadratic_form(path, ham, label: str = "hamiltonian"):
    """Dump an assembled quadratic form as it is held, its blocks and their slot groups, with its basis bookkeeping."""
    lattice, grid = ham.lattice, ham.grid
    header = {
        "format_version": FORMAT_VERSION,
        "basis": BASIS,
        "ladder_sites": LADDER_SITES,
        "n_per_axis": lattice.n_per_axis,
        "spacing": lattice.spacing,
        "k0_transverse": lattice.k0_transverse,
        "shape": [ham.dim, ham.dim],
        "dtype": "complex128",
        "label": label,
        "grid": {
            "nodes": grid.nodes.tolist(),
            "weights": grid.weights.tolist(),
            "eta": grid.eta,
            "omega_max": grid.omega_max,
        },
        "canonical_basis": {"transverse_dim": ham.mt, "n_nodes": grid.n_nodes},
        "groups": [g.tolist() for g in ham.groups],
    }
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for block in ham.blocks:   # each written from its own buffer, no copy
            fh.write(np.ascontiguousarray(block, dtype=np.complex128).data)


def load_quadratic_form(path):
    """Load a quadratic-form dump; returns its blocks, their slot groups and the header.

    Raises `DampolError` on a version other than `FORMAT_VERSION` and on a
    block section whose byte count does not match the groups.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != MAGIC:
            raise DampolError(f"{path} is not a kernel dump (bad magic {magic!r})")
        try:
            header = json.loads(fh.readline().decode())
        except ValueError as exc:   # undecodable bytes or malformed JSON
            raise DampolError(f"{path} has no readable header line ({exc})") from None
        version = header.get("format_version") if isinstance(header, dict) else None
        if version != FORMAT_VERSION:
            raise DampolError(f"{path} has format version {version!r}; this reader takes "
                              f"version {FORMAT_VERSION} (basis {BASIS}, ladder slots in "
                              f"{LADDER_SITES} order, one block per slot group) only")
        if "canonical_basis" not in header:
            raise DampolError("dump does not contain a quadratic form")
        try:
            groups = tuple(np.asarray(g, dtype=np.intp).reshape(-1) for g in header["groups"])
        except (KeyError, TypeError, ValueError):
            raise DampolError(f"{path} has no readable slot groups") from None
        blocks = [np.empty((g.size, g.size), dtype=np.complex128) for g in groups]
        read = sum(fh.readinto(b.data) for b in blocks) + len(fh.read(1))
    need = sum(b.nbytes for b in blocks)
    if read != need:
        raise DampolError(f"{path} has {'more' if read > need else 'fewer'} block bytes than "
                          f"its {len(groups)} slot groups hold ({need})")
    return blocks, groups, header
