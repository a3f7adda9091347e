"""Shared fixtures: the two reference continuation sweeps are expensive, so
they are computed once per session and reused across test modules."""

import numpy as np
import pytest

from bnlab import Params, default_grid, fit_decomposition, sweep_with_solutions


@pytest.fixture(scope="session")
def p43():
    return Params(4, 3.0)


@pytest.fixture(scope="session")
def p53():
    return Params(5, 3.0)


@pytest.fixture(scope="session")
def sweep43(p43):
    records, sols = sweep_with_solutions(p43, default_grid(25))
    assert len(records) == 25
    return records, sols


@pytest.fixture(scope="session")
def sweep53(p53):
    records, sols = sweep_with_solutions(p53, default_grid(25))
    assert len(records) == 25
    return records, sols


@pytest.fixture(scope="session")
def decs43(sweep43):
    return [fit_decomposition(s) for s in sweep43[1]]


@pytest.fixture(scope="session")
def decs53(sweep53):
    return [fit_decomposition(s) for s in sweep53[1]]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
