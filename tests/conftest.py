"""Shared fixtures for the test suite.

Markers live in ``pytest.ini`` (repo root) so that ``--strict-markers``
passes for every collection root, including ``benchmarks/``. Hypothesis
settings profiles are registered here: ``dev`` (the default) keeps
property tests fast locally, ``ci`` spends more examples; select with
``HYPOTHESIS_PROFILE=ci`` (tests that pin their own ``@settings`` are
unaffected).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.obs.metrics import default_registry
from repro.tabular.table import Table

try:  # property-test modules skip-collect without hypothesis; so do profiles
    from hypothesis import settings
except ImportError:  # pragma: no cover
    pass
else:
    settings.register_profile("dev", max_examples=50, deadline=None)
    settings.register_profile("ci", max_examples=200, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden CLI fixtures under tests/golden/ "
        "instead of comparing against them",
    )


def _pools_leaked() -> float:
    family = default_registry().state_dict()["families"].get(
        "repro_pool_leaked_total"
    )
    return 0 if family is None else sum(s["value"] for s in family["series"])


@pytest.fixture(autouse=True)
def no_leaked_worker_pools():
    """Fail a test that lets a ``ProcessPoolBackend`` be reclaimed with a
    live worker pool (``repro_pool_leaked_total`` on the default
    registry grew). Close the backend or use it in a ``with`` block."""
    before = _pools_leaked()
    yield
    leaked = _pools_leaked() - before
    if leaked > 0:
        pytest.fail(f"{leaked:g} ProcessPoolBackend worker pool(s) leaked")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def hiring_table() -> Table:
    """A small two-attribute hiring dataset with known counts.

    Counts (gender, race) -> (hired yes, no):
      (A, X): (3, 1)   (A, Y): (1, 3)
      (B, X): (2, 2)   (B, Y): (2, 2)
    """
    rows = (
        [("A", "X", "yes")] * 3
        + [("A", "X", "no")] * 1
        + [("A", "Y", "yes")] * 1
        + [("A", "Y", "no")] * 3
        + [("B", "X", "yes")] * 2
        + [("B", "X", "no")] * 2
        + [("B", "Y", "yes")] * 2
        + [("B", "Y", "no")] * 2
    )
    return Table.from_rows(["gender", "race", "hired"], rows)


@pytest.fixture
def numeric_table() -> Table:
    return Table.from_dict(
        {
            "x": [1.0, 2.0, 3.0, 4.0, 5.0],
            "y": [2.0, 4.0, 6.0, 8.0, 10.0],
            "group": ["a", "a", "b", "b", "b"],
        }
    )
