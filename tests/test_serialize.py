import numpy as np
import pytest

from dampol.errors import DampolError
from dampol.oracle import assemble_hamiltonian
from dampol.serialize import dump_quadratic_form, load_quadratic_form


class TestKernelDump:
    def test_roundtrip(self, tmp_path, lorentz_coupling, lorentz_structure):
        # the header records the lattice, the grid and the format version
        ham = assemble_hamiltonian(lorentz_coupling, lorentz_structure)
        path = tmp_path / "h.dak"
        dump_quadratic_form(path, ham, label="test")
        _, header = load_quadratic_form(path)
        assert header["label"] == "test"
        assert header["format_version"] == 1
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


class TestQuadraticFormDump:
    def test_roundtrip(self, tmp_path, lorentz_coupling, lorentz_structure):
        ham = assemble_hamiltonian(lorentz_coupling, lorentz_structure)
        path = tmp_path / "h.dak"
        dump_quadratic_form(path, ham)
        arr, header = load_quadratic_form(path)
        assert np.array_equal(arr, ham.h)
        assert header["canonical_basis"]["transverse_dim"] == ham.mt
