import numpy as np
import pytest
from hypothesis import settings

from pfmatch.bench import bumpy_sphere, grid_mesh, icosphere
from pfmatch.mesh import TriangleMesh

# Property tests draw the same examples on every run.
settings.register_profile("pfmatch", derandomize=True, max_examples=20,
                          deadline=None)
settings.load_profile("pfmatch")

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
