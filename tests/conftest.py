from pathlib import Path

import numpy as np
import pytest

import polystress
from polystress import (agglomerate, assemble_system, build_cartesian_mesh, build_space,
                        build_system, classify_boundary)


def pytest_report_header(config):
    """Name the library under test, so that a comparison of two checkouts
    shows which one each run imported."""
    return f"polystress: {Path(polystress.__file__).parent}"


def right_edge(p):
    return p[0] > 1.0 - 1e-9


@pytest.fixture(scope="session")
def mesh22():
    """2x2 Cartesian unit-square mesh, right edge Neumann."""
    return classify_boundary(build_cartesian_mesh(2, 2), right_edge)


@pytest.fixture(scope="session")
def mesh33():
    return classify_boundary(build_cartesian_mesh(3, 3), right_edge)


@pytest.fixture(scope="session")
def poly_mesh():
    """Small agglomerated polygonal mesh (16 -> 8 elements), right Neumann."""
    base = classify_boundary(build_cartesian_mesh(4, 4), right_edge)
    return agglomerate(base, 8, rng_seed=3)


@pytest.fixture(scope="session")
def oracle_meshes():
    """Criterion 1's agglomerated mesh (interior and Neumann faces) and an
    all-Dirichlet 2x2 grid (empty Neumann batch)."""
    base = classify_boundary(build_cartesian_mesh(15, 15), right_edge)
    return {"agglomerated-50": agglomerate(base, 50, 1),
            "dirichlet-2x2": classify_boundary(build_cartesian_mesh(2, 2), lambda p: False)}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def system225():
    """The 30x30 -> 225-element agglomerated mesh, right Neumann, at p = 3:
    (space, system, A* at dt 1e-7)."""
    mesh = agglomerate(classify_boundary(build_cartesian_mesh(30, 30), right_edge), 225, 1)
    space = build_space(mesh, 3)
    system = assemble_system(space)
    return space, system, build_system(system.m, system.a, 1e-7)
