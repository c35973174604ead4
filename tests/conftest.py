import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from pfmatch.bench import bumpy_sphere, grid_mesh, icosphere
from pfmatch.mesh import TriangleMesh

# Property tests draw the same examples on every run: 20 of them locally,
# ten times as many under HYPOTHESIS_PROFILE=ci.
settings.register_profile("pfmatch", derandomize=True, max_examples=20,
                          deadline=None)
settings.register_profile("ci", derandomize=True, max_examples=200,
                          deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "pfmatch"))

TETRA_OFF = """OFF
4 4 0
0 0 0
1 0 0
0 1 0
0 0 1
3 0 2 1
3 0 1 3
3 1 2 3
3 0 3 2
"""

TRIANGLE_OFF = """OFF
3 1 0
0 0 0
1 0 0
0 1 0
3 0 1 2
"""


@pytest.fixture
def tetra_off(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(TETRA_OFF)
    return path


@pytest.fixture
def triangle_off(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text(TRIANGLE_OFF)
    return path


@pytest.fixture
def tiny_grid_off(tmp_path):
    """An OFF file of grid_mesh(8) scaled by 2^-600, and that grid scaled
    (a namespace, as no TriangleMesh of it exists)."""
    grid = grid_mesh(8)
    mesh = SimpleNamespace(vertices=np.ldexp(grid.vertices, -600),
                           triangles=grid.triangles)
    path = tmp_path / "tiny.off"
    path.write_text("\n".join(
        ["OFF", f"{len(mesh.vertices)} {len(mesh.triangles)} 0"]
        + [" ".join(map(repr, row)) for row in mesh.vertices.tolist()]
        + [f"3 {a} {b} {c}" for a, b, c in mesh.triangles.tolist()]) + "\n")
    return path, mesh


@pytest.fixture
def equilateral():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                  [0.5, np.sqrt(3) / 2, 0.0]])
    return TriangleMesh(v, [[0, 1, 2]])


@pytest.fixture(scope="session")
def square_grid():
    return grid_mesh(10)


@pytest.fixture(scope="session")
def fine_grid():
    return grid_mesh(30)


@pytest.fixture(scope="session")
def sphere():
    return icosphere(3)


@pytest.fixture(scope="session")
def bumpy():
    return bumpy_sphere(3)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
