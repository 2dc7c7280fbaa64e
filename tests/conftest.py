import importlib
import sys
from pathlib import Path

import pytest

from patternblocks import distributions
from patternblocks.blocks1d import ziggurat_blockset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def perfbench_module():
    """Imports a module of the benchmark (perfbench/) by name; tests only read it."""

    def load(name):
        sys.path.insert(0, str(PERFBENCH))
        try:
            return importlib.import_module(name)
        finally:
            sys.path.remove(str(PERFBENCH))

    return load


@pytest.fixture(scope="session")
def arcsine_density():
    return distributions.arcsine_modulated_density()


@pytest.fixture(scope="session")
def arcsine_blocks():
    return distributions.arcsine_modulated_blockset()


@pytest.fixture(scope="session")
def mixture_density():
    return distributions.gauss_mixture_density()


@pytest.fixture(scope="session")
def mixture_blocks():
    return distributions.gauss_mixture_blockset()


@pytest.fixture(scope="session")
def zigg_layout():
    return distributions.half_normal_ziggurat(128)


@pytest.fixture(scope="session")
def zigg_blocks(zigg_layout):
    return ziggurat_blockset(zigg_layout, distributions.half_normal_pdf)


@pytest.fixture(scope="session")
def half_normal_density():
    return distributions.half_normal_density()


class StubSource:
    """Feeds a fixed list of unit values to a block sampler."""

    def __init__(self, values):
        self.values = list(values)
        self.draws_issued = 0

    def next_unit(self):
        self.draws_issued += 1
        return self.values.pop(0)


@pytest.fixture
def stub_source():
    return StubSource
