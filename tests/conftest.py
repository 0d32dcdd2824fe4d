import numpy as np
import pytest
from hypothesis import settings

from dualframes import Frame

# A failing property prints the @reproduce_failure blob that replays it.  Runs stay random,
# in CI too, where Hypothesis would otherwise load its derandomized "ci" profile.
settings.register_profile("replayable", settings.get_profile("default"), print_blob=True)
settings.load_profile("replayable")


def random_frame(dim: int, count: int, seed: int) -> Frame:
    """Complex Gaussian synthesis matrix; a frame with probability one."""
    rng = np.random.default_rng(seed)
    syn = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
    return Frame(syn)


def random_vector(dim: int, rng) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


@pytest.fixture
def phi0() -> Frame:
    # {(1,0), (0,1), (1,1)}: frame operator [[2,1],[1,2]], bounds (1,3)
    return Frame.from_vectors([(1, 0), (0, 1), (1, 1)])


@pytest.fixture
def phi1() -> Frame:
    # {e1, e1, e2}: frame operator diag(2,1), bounds (1,2)
    return Frame.from_vectors([(1, 0), (1, 0), (0, 1)])


@pytest.fixture
def ortho2() -> Frame:
    return Frame.from_vectors([(1, 0), (0, 1)])
