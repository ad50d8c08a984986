import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dampol.coupling import builtin_model, coupling_from_lagrangian, structure_tensor
from dampol.lattice import FrequencyGrid, build_lattice

from reference import coupling_from_real, random_coupling

# `pythonpath` in pyproject.toml puts src/ on the tests' own path; the CLI
# subprocesses some tests start find the package through PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH"))))


def traced_peak(fn, *args):
    """fn(*args) under tracemalloc: the peak bytes allocated during the call, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def small_lattice():
    return build_lattice(2, 1.0)


@pytest.fixture(scope="session")
def single_site():
    return build_lattice(1, 1.0)


@pytest.fixture(scope="session")
def grid12():
    return FrequencyGrid.midpoint(12, 8.0)


@pytest.fixture(scope="session")
def lorentz_coupling(small_lattice, grid12):
    return coupling_from_lagrangian(builtin_model("local_lorentz", small_lattice, grid12))


@pytest.fixture(scope="session")
def lorentz_structure(lorentz_coupling):
    return structure_tensor(lorentz_coupling)


@pytest.fixture
def random_lagrangian(small_lattice, grid12, rng):
    return coupling_from_real(random_coupling(small_lattice, grid12, rng))
