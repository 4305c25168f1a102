import numpy as np
import pytest

from birthdeath import FiniteConfiguration, Grid, SetFunction, Torus


@pytest.fixture(autouse=True)
def strict_floating_point():
    """Every test runs with numpy overflow, invalid operations and division
    by zero raising FloatingPointError, so a NaN or inf made on a tested
    path fails its test; a test that expects one sets its own errstate."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        yield


@pytest.fixture
def torus1():
    return Torus(1, 1.0)


@pytest.fixture
def grid16(torus1):
    return Grid(torus1, 16)


@pytest.fixture
def grid64(torus1):
    return Grid(torus1, 64)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def config_key(cfg):
    return tuple(sorted(map(tuple, cfg.points.tolist())))


def random_table_function(rng, support_bound=None):
    """Set function with i.i.d. normal values, memoized per point set."""
    table = {}

    def evaluator(cfg):
        return table.setdefault(config_key(cfg), float(rng.normal()))

    return SetFunction(evaluator, support_bound=support_bound)


def random_configuration(rng, torus, n):
    return FiniteConfiguration(rng.uniform(0.0, torus.length, (n, torus.dim)), torus)
