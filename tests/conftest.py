"""Shared fixtures.

Dictionary construction dominates test cost (one PDE solve per basis mode),
so dictionaries are built once per session and shared read-only.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from randbc.boundary import RandomBoundaryModel
from randbc.grid import build_grid
from randbc.runge import build_dictionary
from randbc.solver import CoefficientField, neighbor_field

def lattice_operator(bands: dict):
    """Reference N x N scipy CSR operator on an nx x ny lattice (N = nx ny) in
    row-major (ix, iy) order from {(dx, dy): (nx, ny) weights}: row (ix, iy)
    holds bands[dx, dy][ix, iy] in the column of node (ix + dx, iy + dy), for
    |dx|, |dy| <= 1 and nx, ny >= 3.  Weights coupling to nodes off the lattice
    are dropped, and so are zeros."""
    from scipy import sparse

    nx, ny = next(iter(bands.values())).shape
    size = nx * ny
    on_lattice = np.ones((nx, ny), dtype=bool)
    offsets, diagonals = [], []
    for (dx, dy), weights in bands.items():
        k = dx * ny + dy
        flat = np.where(neighbor_field(on_lattice, dx, dy), weights, 0.0).reshape(-1)
        offsets.append(k)
        diagonals.append(flat[max(-k, 0):size - max(k, 0)])
    return sparse.diags(diagonals, offsets, shape=(size, size), format="csr")


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Run first in the child interpreter: a meta-path finder that makes every
# import of scipy or of a scipy submodule raise ImportError.
SCIPY_BLOCKER = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, BlockScipy())
"""


@pytest.fixture
def block_scipy():
    """Runs Python source in a fresh interpreter that finds randbc in src/
    and cannot import scipy; returns the CompletedProcess."""
    def run(code: str, timeout: float = 600.0) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run([sys.executable, "-c", SCIPY_BLOCKER + code],
                              capture_output=True, text=True, env=env, timeout=timeout)
    return run


@pytest.fixture
def traced_memory():
    """Runs fn under tracemalloc and returns (peak, held) in bytes: the most it
    had allocated at once, and what it still holds once its result is dropped.

    warm (default: fn) runs first, untraced, so that process-wide caches (lazy
    imports, basis values, the FFT's plans) are filled and not counted.
    """
    def traced(fn, warm=None) -> tuple[int, int]:
        (fn if warm is None else warm)()
        tracemalloc.start()
        try:
            fn()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, held
    return traced


@pytest.fixture(scope="session")
def grid17():
    return build_grid(17)


@pytest.fixture(scope="session")
def grid33():
    return build_grid(33)


@pytest.fixture(scope="session")
def grid65():
    return build_grid(65)


@pytest.fixture(scope="session")
def ident17(grid17):
    return CoefficientField.isotropic(grid17)


@pytest.fixture(scope="session")
def ident33(grid33):
    return CoefficientField.isotropic(grid33)


@pytest.fixture(scope="session")
def ident65(grid65):
    return CoefficientField.isotropic(grid65)


@pytest.fixture(scope="session")
def model9():
    return RandomBoundaryModel.power_law(K=9, c=1.0, s=1.5, family="gaussian")


@pytest.fixture(scope="session")
def model33():
    return RandomBoundaryModel.power_law(K=33, c=1.0, s=1.5, family="gaussian")


@pytest.fixture(scope="session")
def dict17(grid17, ident17, model9):
    """Small Laplace dictionary for the fast experiment tests."""
    return build_dictionary(grid17, ident17, model9)


@pytest.fixture(scope="session")
def dict65(grid65, ident65, model33):
    """Full-size Laplace dictionary for the approximation tests."""
    return build_dictionary(grid65, ident65, model33)
