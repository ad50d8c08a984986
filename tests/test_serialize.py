import json

import numpy as np
import pytest

from dampol.errors import DampolError
from dampol.oracle import assemble_hamiltonian
from dampol.serialize import MAGIC, dump_quadratic_form, load_quadratic_form


class TestKernelDump:
    def test_roundtrip(self, tmp_path, lorentz_coupling, lorentz_structure):
        # the header records the lattice, the grid and the format version
        ham = assemble_hamiltonian(lorentz_coupling, lorentz_structure)
        path = tmp_path / "h.dak"
        dump_quadratic_form(path, ham, label="test")
        _, header = load_quadratic_form(path)
        assert header["label"] == "test"
        assert header["format_version"] == 3
        assert header["basis"] == "a,p,x,y"
        assert header["ladder_sites"] == "momentum_basis"
        lattice = lorentz_coupling.lattice
        assert (header["n_per_axis"], header["spacing"], header["k0_transverse"]) == (
            lattice.n_per_axis, lattice.spacing, lattice.k0_transverse)
        assert header["grid"]["nodes"] == lorentz_coupling.grid.nodes.tolist()
        assert header["grid"]["eta"] == lorentz_coupling.grid.eta

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.dak"
        path.write_bytes(b"NOTMAGIC\n{}\n")
        with pytest.raises(DampolError):
            load_quadratic_form(path)

    @pytest.mark.parametrize("header_line", [b"not json", b"\xff\xfe", b"[1, 2]"])
    def test_malformed_header_rejected(self, tmp_path, header_line):
        path = tmp_path / "bad.dak"
        path.write_bytes(MAGIC + b"\n" + header_line + b"\n")
        with pytest.raises(DampolError):
            load_quadratic_form(path)

    def test_version_one_rejected(self, tmp_path):
        # version 1 held the form over the ladder operators (a, p, c, c^dag)
        header = {"format_version": 1, "shape": [2, 2], "dtype": "complex128",
                  "canonical_basis": {"transverse_dim": 1, "n_nodes": 0}}
        path = tmp_path / "v1.dak"
        path.write_bytes(MAGIC + b"\n" + json.dumps(header).encode() + b"\n"
                         + np.eye(2, dtype=complex).tobytes())
        with pytest.raises(DampolError, match="format version 1"):
            load_quadratic_form(path)

    def test_version_two_rejected(self, tmp_path, lorentz_coupling, lorentz_structure):
        # version 2 had every node's x and y slots in site order
        path = tmp_path / "v2.dak"
        dump_quadratic_form(path, assemble_hamiltonian(lorentz_coupling, lorentz_structure))
        magic, header, raw = path.read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        fields["format_version"] = 2
        del fields["ladder_sites"]
        path.write_bytes(magic + b"\n" + json.dumps(fields).encode() + b"\n" + raw)
        with pytest.raises(DampolError, match="format version 2"):
            load_quadratic_form(path)


class TestQuadraticFormDump:
    def test_roundtrip(self, tmp_path, lorentz_coupling, lorentz_structure):
        ham = assemble_hamiltonian(lorentz_coupling, lorentz_structure)
        path = tmp_path / "h.dak"
        dump_quadratic_form(path, ham)
        arr, header = load_quadratic_form(path)
        assert arr.shape == (ham.dim, ham.dim)
        for g, block in zip(ham.groups, ham.blocks):   # the dense embedding of the blocks
            assert np.array_equal(arr[np.ix_(g, g)], block)
        assert np.count_nonzero(arr) == sum(np.count_nonzero(b) for b in ham.blocks)
        assert header["canonical_basis"]["transverse_dim"] == ham.mt
