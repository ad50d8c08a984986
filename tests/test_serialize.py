import json

import numpy as np
import pytest

from dampol.coupling import builtin_model, coupling_from_lagrangian, structure_tensor
from dampol.errors import DampolError
from dampol.lattice import FrequencyGrid, build_lattice
from dampol.oracle import assemble_hamiltonian
from dampol.serialize import MAGIC, dump_quadratic_form, load_quadratic_form

from conftest import traced_peak


class TestKernelDump:
    def test_roundtrip(self, tmp_path, lorentz_coupling, lorentz_structure):
        # the header records the lattice, the grid and the format version
        ham = assemble_hamiltonian(lorentz_coupling, lorentz_structure)
        path = tmp_path / "h.dak"
        dump_quadratic_form(path, ham, label="test")
        *_, header = load_quadratic_form(path)
        assert header["label"] == "test"
        assert header["format_version"] == 4
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

    def test_version_three_rejected(self, tmp_path, lorentz_coupling, lorentz_structure):
        # version 3 held the form as its dense dim x dim embedding, with no slot groups
        ham = assemble_hamiltonian(lorentz_coupling, lorentz_structure)
        path = tmp_path / "v3.dak"
        dump_quadratic_form(path, ham)
        magic, header, _ = path.read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        fields["format_version"] = 3
        del fields["groups"]
        dense = np.zeros((ham.dim, ham.dim), dtype=complex)
        for g, block in zip(ham.groups, ham.blocks):
            dense[np.ix_(g, g)] = block
        path.write_bytes(magic + b"\n" + json.dumps(fields).encode() + b"\n" + dense.tobytes())
        with pytest.raises(DampolError, match="format version 3"):
            load_quadratic_form(path)


class TestQuadraticFormDump:
    def test_roundtrip(self, tmp_path, lorentz_coupling):
        # the blocks and their slot groups come back as the form holds them, to
        # the bit, per momentum sector and as the one block of the dense layout
        counts = []
        for coupling in (lorentz_coupling, lorentz_coupling.relaid(lorentz_coupling.lattice.one_block)):
            ham = assemble_hamiltonian(coupling, structure_tensor(coupling))
            counts.append(len(ham.blocks))
            path = tmp_path / "h.dak"
            dump_quadratic_form(path, ham)
            blocks, groups, header = load_quadratic_form(path)
            assert len(blocks) == len(ham.blocks) and len(groups) == len(ham.groups)
            for got, want in zip(blocks, ham.blocks):
                assert got.dtype == np.complex128 and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            for got, want in zip(groups, ham.groups):
                assert np.array_equal(got, want)
            assert header["shape"] == [ham.dim, ham.dim]
            assert header["canonical_basis"]["transverse_dim"] == ham.mt
        assert counts[0] > 1 == counts[1]

    @pytest.mark.parametrize("extra", [-16, -1, 16])
    def test_block_bytes_must_match_the_groups(self, tmp_path, lorentz_coupling, lorentz_structure, extra):
        path = tmp_path / "h.dak"
        dump_quadratic_form(path, assemble_hamiltonian(lorentz_coupling, lorentz_structure))
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) + extra] + bytes(max(extra, 0)))
        with pytest.raises(DampolError, match=f"{'fewer' if extra < 0 else 'more'} block bytes"):
            load_quadratic_form(path)

    @pytest.mark.parametrize("groups", [None, [[0, "a"]], 3])
    def test_unreadable_groups_rejected(self, tmp_path, lorentz_coupling, lorentz_structure, groups):
        path = tmp_path / "h.dak"
        dump_quadratic_form(path, assemble_hamiltonian(lorentz_coupling, lorentz_structure))
        magic, header, raw = path.read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        if groups is None:
            del fields["groups"]
        else:
            fields["groups"] = groups
        path.write_bytes(magic + b"\n" + json.dumps(fields).encode() + b"\n" + raw)
        with pytest.raises(DampolError, match="no readable slot groups"):
            load_quadratic_form(path)

    def test_dump_forms_no_dense_embedding(self, tmp_path):
        # lorentz at n = 3, K = 12: dim 2054, so the dense embedding alone is 67.5 MB
        # while the blocks are 4.9 MB; the dump writes them from their own buffers
        lat, grid = build_lattice(3, 1.0), FrequencyGrid.midpoint(12, 3.0, eta_factor=1.0)
        coupling = coupling_from_lagrangian(builtin_model("local_lorentz", lat, grid))
        ham = assemble_hamiltonian(coupling, structure_tensor(coupling))
        assert ham.dim == 2054
        peak, _ = traced_peak(dump_quadratic_form, tmp_path / "h.dak", ham)
        assert peak < 16 * 2**20
