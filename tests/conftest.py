import importlib.util
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from nisio import (ChainOperator, FamilyBounds, HeatOperator,
                   SemigroupFamily, WeightedGrid, operators)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves alive a thread it started (the Monte Carlo
    sampler's normals thread must be joined however a run ends)."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"


@pytest.fixture(scope="session")
def heat_grid():
    return WeightedGrid.uniform(-8.0, 8.0, 0.01, boundary="reflect")


@pytest.fixture(scope="session")
def heat_family(heat_grid):
    return SemigroupFamily([HeatOperator(heat_grid, 0.5), HeatOperator(heat_grid, 1.0)],
                           FamilyBounds(0.0, 0.0))


@pytest.fixture(scope="session")
def coarse_grid():
    return WeightedGrid.uniform(-8.0, 8.0, 0.02, boundary="reflect")


@pytest.fixture(scope="session")
def coarse_family(coarse_grid):
    return SemigroupFamily([HeatOperator(coarse_grid, 0.5), HeatOperator(coarse_grid, 1.0)],
                           FamilyBounds(0.0, 0.0))


@pytest.fixture(scope="session")
def log_grid():
    return WeightedGrid.loggrid(8.0, 1e-2, 800,
                                kappa=lambda x: (1.0 + np.abs(x)) ** -2.0,
                                boundary="reflect")


@pytest.fixture(scope="session")
def ou_grid():
    return WeightedGrid.uniform(-8.0, 8.0, 0.01, boundary="reflect")


@pytest.fixture(scope="session")
def periodic_grid():
    return WeightedGrid.uniform(-np.pi, np.pi, 2.0 * np.pi / 256.0, periodic=True)


@pytest.fixture(scope="session")
def label_grid():
    return WeightedGrid.labels(4)


# birth-death chain with both ends reflecting; conservative
Q_BD = np.array([
    [-1.0, 1.0, 0.0, 0.0],
    [0.5, -1.0, 0.5, 0.0],
    [0.0, 0.5, -1.0, 0.5],
    [0.0, 0.0, 1.0, -1.0],
])
# conservative chain with an absorbing top state
Q_ABS = np.array([
    [-1.0, 1.0, 0.0, 0.0],
    [0.5, -1.0, 0.5, 0.0],
    [0.0, 0.5, -1.0, 0.5],
    [0.0, 0.0, 0.0, 0.0],
])
Q_MIX = np.array([
    [-0.5, 0.25, 0.25, 0.0],
    [0.25, -0.5, 0.0, 0.25],
    [0.25, 0.0, -0.5, 0.25],
    [0.0, 0.25, 0.25, -0.5],
])


@pytest.fixture(scope="session")
def chain_family(label_grid):
    return SemigroupFamily([ChainOperator(label_grid, Q_BD),
                            ChainOperator(label_grid, Q_MIX)],
                           FamilyBounds(0.0, 2.0))


def same_bits_kinds():
    """The small configs of ``tools/same_bits.py``, one per member kind the
    bench configs leave out (``KINDS``)."""
    path = Path(__file__).resolve().parent.parent / "tools" / "same_bits.py"
    spec = importlib.util.spec_from_file_location("same_bits", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.KINDS


def as_scipy(kernel):
    """A nisio kernel as the ``scipy.sparse`` matrix of its arrays, the
    tests' oracle view of it; a dense kernel as itself."""
    if isinstance(kernel, operators.CSRKernel):
        return sp.csr_matrix((kernel.data, kernel.indices, kernel.indptr), shape=kernel.shape)
    if isinstance(kernel, operators.DIAKernel):
        return sp.dia_matrix((kernel.data, kernel.offsets), shape=kernel.shape)
    return kernel
