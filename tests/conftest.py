import numpy as np
import pytest

from seqcore.generators import random_band_system, rng_from_seed
from seqcore.types import BandSystem


@pytest.fixture
def rng():
    return rng_from_seed(2024)


@pytest.fixture
def mild_system():
    """A random system whose ratio walk is capped, safe for tight tolerances."""
    return random_band_system(rng_from_seed(11), 128, amplification_cap=50.0)


def complex_uniform(rng, n):
    return rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)


def twin(sys: BandSystem) -> BandSystem:
    """A system equal to sys but a separate object, with an empty inverse-kernel memo: its V is a build of its own."""
    return BandSystem(sys.r, sys.s, sys.alpha)
