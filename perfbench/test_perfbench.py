"""Self-checks of the benchmark harness.

    python3 -m pytest -q perfbench

Each workload is run at tiny classes through the same measuring code
the benchmark uses, so a check takes seconds, not minutes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import pytest

import run as bench

SMALL = {"grigorchuk": 4, "basilica": 4, "bsv": 4}


def _small(name: str, seed: int = 0) -> list[bench.Invocation]:
    # large_exponent spends all its time in class 3; class 2 still collects with e
    return [
        dataclasses.replace(inv, max_class=SMALL.get(inv.name, 2))
        for inv in bench.workload(name, seed)
    ]


def _declared(kind: str) -> set[str]:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.fixture(scope="module")
def speed():
    with bench.HostSpeed() as probe:
        yield probe


def _session(invs, speed) -> bench.Session:
    return bench.Session(invs, speed, time.monotonic() + 120)


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_smoke_end_to_end(name, speed):
    session = _session(_small(name), speed)
    metrics = bench.measure_end_to_end(session, 0)
    assert (session.failed, session.problems) == (0, [])
    assert session.attempted > 0
    assert set(metrics) == _declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_smoke_traced(name, speed):
    session = _session(_small(name), speed)
    metrics = bench.measure_layers(session, 0)
    assert (session.failed, session.problems) == (0, [])
    assert set(metrics) == _declared("per_layer")
    assert metrics["trace.coverage"][0] >= bench.COVERAGE_GATE
    assert metrics["pcgroups.mul_calls"][0] > 0


def test_wrong_pinned_table_counts_as_failure(speed):
    inv = _small("grigorchuk_deep")[0]
    wrong = dict(inv.expected)
    wrong[2] = (0, (2, 2, 2))
    session = _session([dataclasses.replace(inv, expected=wrong)], speed)
    session.sample()
    assert session.failed == 1
    assert session.failed / session.attempted > 0


def test_wrong_closed_form_counts_as_failure(speed):
    inv = _small("large_exponent", seed=5)[0]
    wrong = bench.large_exponent_table(bench.large_exponent_e(5) + 1)
    session = _session([dataclasses.replace(inv, closed=wrong)], speed)
    session.sample()
    assert session.failed == inv.max_class


def test_host_speed_reads_the_reference(speed):
    now = time.monotonic()
    slowdown = speed.slowdown(now - 1, now)
    assert 0.1 < slowdown < 20


def test_same_seed_same_exponent():
    for seed in (0, 1, 17, 123456):
        e = bench.large_exponent_e(seed)
        assert e == bench.large_exponent_e(seed)
        assert bench.E_RANGE[0] <= e <= bench.E_RANGE[1]
        assert bench.workload("large_exponent", seed) == bench.workload("large_exponent", seed)
    assert len({bench.large_exponent_e(seed) for seed in range(20)}) > 1


def test_catalog_workloads_ignore_the_seed():
    for name in ("grigorchuk_deep", "torsion_free"):
        assert bench.workload(name, 1) == bench.workload(name, 2)


def test_pinned_tables_match_closed_forms():
    for name in ("grigorchuk_deep", "torsion_free"):
        for inv in bench.workload(name, 0):
            for c, row in inv.closed.items():
                assert inv.expected[c] == row, (inv.name, c)


def test_analyse_trace_self_time_and_coverage():
    trace = {
        "names": ["multiplier.dwyer_range", "covers.build_cover", "pcgroups.overlap_checks"],
        # id, parent, name, start, end
        "spans": [
            [2, 1, 2, 1.0, 2.0],
            [3, 1, 2, 2.5, 3.0],
            [1, 0, 1, 0.5, 4.0],
            [0, -1, 0, 0.0, 5.0],
        ],
        "counters": {"pcgroups.overlaps": 2},
    }
    got = bench.analyse_trace(trace)
    assert got["covers.build_cover_s"] == 3.5
    assert got["covers.build_cover.self_s"] == 2.0
    assert got["pcgroups.overlap_checks_s"] == 1.5
    assert got["covered_s"] / got["tower_s"] == 0.7
    assert got["pcgroups.overlaps"] == 2.0


def test_refuses_to_run_without_the_program():
    # a directory holding only BENCHMARK.json and the benchmark itself
    bare = bench.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(bench.BENCH, bare / "perfbench", ignore=ignore)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    argv = ["perfbench/run.py", "--workload", "large_exponent", "--seed", "1", "--seconds", "1"]
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=bare, capture_output=True, text=True, timeout=60
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
