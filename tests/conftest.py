"""Shared solves and decompositions of the test suite.

``singular_part`` and ``solved`` are the one route from a domain and a mesh
size to a singular part and a solve.  Solves and decompositions that more
than one test module needs at the same domain and mesh size (or k_max) are
session fixtures, built once per run.

The checks of ``blowup.solver`` write their result into the report they are
given (``corollary4``, ``verification``), so a test reads such a field of a
shared report only right after running the check itself.
"""

import pytest

from blowup.energy import build_singular_part
from blowup.geometry import Box, Disk, Polygon
from blowup.grid import Grid
from blowup.solver import solve
from blowup.whitney import WhitneyParams, decompose

UNIT_DISK = Disk((0.0, 0.0), 1.0)
UNIT_SQUARE = Box((0.0, 0.0), (1.0, 1.0))
L_SHAPE = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


def singular_part(domain, h, residual_mode="continuum"):
    """The singular part on a fresh grid of ``domain`` at spacing h, with
    the default profile."""
    return build_singular_part(Grid(domain, h), residual_mode=residual_mode)


def solved(domain, h, config=None, residual_mode="continuum"):
    """``solve`` from zero on ``singular_part(domain, h, residual_mode)``."""
    return solve(singular_part(domain, h, residual_mode), config)


@pytest.fixture(scope="session")
def disk_sp_128():
    return singular_part(UNIT_DISK, 1 / 128)


@pytest.fixture(scope="session")
def disk_solve_128(disk_sp_128):
    return solve(disk_sp_128)


@pytest.fixture(scope="session")
def lshape_solve_64():
    return solved(L_SHAPE, 1 / 64)


@pytest.fixture(scope="session")
def square_decomp_12():
    return decompose(UNIT_SQUARE, WhitneyParams(k_max=12))
