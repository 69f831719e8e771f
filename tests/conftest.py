"""Shared computed tables for the acceptance and property suites."""

import time

import pytest

from lpres.multiplier import dwyer_range
from lpres.presentations import load_catalog

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    # the same examples on every run, a bounded number of them, no
    # per-example deadline and no example database on disk
    settings.register_profile(
        "tier1", derandomize=True, max_examples=25, deadline=None, database=None
    )
    settings.load_profile("tier1")

ACCEPTANCE_CLASSES = {
    "grigorchuk": 11,
    "twisted_twin": 7,
    "grigorchuk_supergroup": 5,
    "basilica": 7,
    "bsv": 5,
}


@pytest.fixture(scope="session")
def dwyer_tables():
    """name -> (DwyerStep list, wall seconds), computed once per run."""
    tables = {}
    for name, cmax in ACCEPTANCE_CLASSES.items():
        start = time.perf_counter()
        steps = dwyer_range(load_catalog(name), cmax)
        tables[name] = (steps, time.perf_counter() - start)
    return tables
