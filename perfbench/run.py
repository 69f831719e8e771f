"""Benchmark for lpres: tower workloads run through the public CLI.

    python3 perfbench/run.py --workload grigorchuk_deep --seed 1 --seconds 30 --trace 0

Workloads (closed loop: one CLI process at a time, no parallelism):

  grigorchuk_deep  lpres dwyer --group grigorchuk --max-class 16
  torsion_free     lpres dwyer --group basilica --max-class 11, then
                   lpres dwyer --group bsv --max-class 8
  large_exponent   lpres nq --file <generated>.lp --max-class 3 on
                   fixed: (b^a)^e, with e drawn from the seed

With --trace 0 every CLI run is a plain subprocess and the end-to-end
metrics are printed.  With --trace 1 plain runs alternate with runs of
perfbench/traced.py, which wraps the package's entry points from
outside, and the per-layer metrics are printed.  Every class of every
run is checked against the pinned tables in perfbench/expected.json and
against the closed forms; the last line of standard output is one JSON
object with keys correct, attempted, failed and metrics.  Attempted and
failed count class steps; a nonzero exit fails every class of its run.

Every process runs on one CPU, beside perfbench/reference.py at the
lowest priority, and every reported time is the measured time divided
by the slowdown the reference saw over the same interval (HostSpeed).
Standard error also gives the raw medians.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# The same entry point as the installed `lpres` console script.
CLI = "import sys; from lpres.cli import main; sys.exit(main())"

MIN_SAMPLES = 3
SETUP_PROBES = 11
# Exponents for large_exponent.  The run time grows linearly with e, so
# the range is kept narrow enough that the seed barely moves it.
E_RANGE = (2950, 3050)
COVERAGE_GATE = 0.95
RUN_LIMIT_S = 170.0
TOWER_SPANS = ("multiplier.dwyer_range", "quotients.quotient_tower")
# CPU seconds of one line of reference.py on an unloaded core of a
# 2.0 GHz Xeon (KVM guest, CPython 3.11): the speed that corrected
# times are expressed at.
REFERENCE_LINE_S = 0.0003
# Lines averaged at least, widening short intervals such as a set-up probe.
REFERENCE_MIN_LINES = 20

Table = dict[int, tuple[int, tuple[int, ...]]]


@dataclass(frozen=True)
class Invocation:
    """One CLI command of a workload with its expected per-class tables."""

    name: str
    args: tuple[str, ...]
    max_class: int
    expected: Table
    closed: Table

    def argv(self, max_class: int) -> list[str]:
        return [*self.args, "--max-class", str(max_class), "--json"]


@dataclass
class CliRun:
    start: float
    end: float
    rss_mb: float
    tables: Table
    class_s: list[float]
    failed: int
    trace: dict | None = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def setup_s(self) -> float:
        """Time outside the class loop: start-up, import, parse, adjust, output."""
        return self.wall_s - sum(self.class_s)


# ---------------------------------------------------------------- workloads


def _program_present() -> bool:
    return (ROOT / "src" / "lpres" / "cli.py").is_file()


def _import_lpres():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import lpres.conjectures

    return lpres.conjectures


def _catalog(name: str, max_class: int) -> Invocation:
    pinned = json.loads((BENCH / "expected.json").read_text())[name]
    expected = {c: (free, tuple(tor)) for c, free, tor in pinned}
    conj = _import_lpres()
    closed = {}
    for c in range(conj.minimum_class(name), max_class + 1):
        inv = conj.predicted_dwyer(name, c)
        closed[c] = (inv.free_rank, tuple(inv.torsion))
    return Invocation(name, ("dwyer", "--group", name), max_class, expected, closed)


def large_exponent_e(seed: int) -> int:
    return random.Random(seed).randint(*E_RANGE)


def large_exponent_table(e: int) -> Table:
    """Z x Z_e, Z_e, (Z_e)^2: the lower central layers of <a, b | (b^a)^e>."""
    return {1: (1, (e,)), 2: (0, (e,)), 3: (0, (e, e))}


def _large_exponent(seed: int) -> Invocation:
    e = large_exponent_e(seed)
    name = "large_exponent_e%d" % e
    path = OUT / (name + ".lp")
    path.write_text(
        "group g {\n  generators: a, b;\n  invariant: true;\n  fixed: (b^a)^%d;\n}\n" % e
    )
    table = large_exponent_table(e)
    return Invocation(name, ("nq", "--file", str(path.relative_to(ROOT))), 3, table, table)


def workload(name: str, seed: int) -> list[Invocation]:
    """The CLI commands of a workload.  Only large_exponent depends on the seed."""
    OUT.mkdir(exist_ok=True)
    if name == "grigorchuk_deep":
        return [_catalog("grigorchuk", 16)]
    if name == "torsion_free":
        return [_catalog("basilica", 11), _catalog("bsv", 8)]
    if name == "large_exponent":
        return [_large_exponent(seed)]
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("grigorchuk_deep", "torsion_free", "large_exponent")


# ---------------------------------------------------------------- one CLI run


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # fixed string hashing, so that exact counts repeat bit for bit
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(argv: list[str], timeout: float) -> tuple[float, float, float, int, str, str]:
    """Run argv to completion.

    Returns the monotonic start and end, the peak RSS in MB, the exit
    code, standard output and standard error.
    """
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return start, end, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr


def run_cli(inv: Invocation, max_class: int, deadline: float, traced: bool = False) -> CliRun:
    """One CLI process, checked class by class against the expected tables."""
    timeout = max(1.0, deadline - time.monotonic())
    args = inv.argv(max_class)
    if traced:
        span_path = OUT / ("%s-c%d.spans.json" % (inv.name, max_class))
        argv = [sys.executable, str(BENCH / "traced.py"), str(span_path), "--", *args]
    else:
        argv = [sys.executable, "-c", CLI, *args]
    start, end, rss, code, stdout, stderr = _spawn(argv, timeout)
    trace = None
    if traced and code == 0:
        trace = json.loads(span_path.read_text())
        code, stdout = trace["exit"], trace["stdout"]
    if code != 0:
        message = stderr.strip()[-2000:]
        print("lpres %s: exit %d: %s" % (" ".join(args), code, message), file=sys.stderr)
    tables: Table = {}
    class_s: list[float] = []
    if code == 0:
        for row in json.loads(stdout)["results"]:
            tables[row["c"]] = (row["free_rank"], tuple(row["torsion"]))
            ms = row["t_ms"] if "t_ms" in row else row["t_quotient_ms"] + row["t_dwyer_ms"]
            class_s.append(ms / 1000.0)
    failed = 0
    for c in range(1, max_class + 1):
        got = tables.get(c)
        if got is None or got != inv.expected.get(c) or got != inv.closed.get(c, got):
            failed += 1
    return CliRun(start, end, rss, tables, class_s, failed, trace)


# ---------------------------------------------------------------- host speed


class HostSpeed:
    """Pins this process and its children to one CPU, beside reference.py.

    slowdown(t0, t1) is the reference's mean line cost over that
    monotonic interval divided by REFERENCE_LINE_S.  Use as a context
    manager: on exit the reference is stopped and the affinity restored.
    """

    def __init__(self):
        self._affinity = os.sched_getaffinity(0)
        self._path = OUT / ("reference-%d.txt" % os.getpid())
        self._times: list[float] = []
        self._costs: list[float] = []
        self._partial = ""
        self._proc = None
        self._file = None

    def __enter__(self) -> "HostSpeed":
        OUT.mkdir(exist_ok=True)
        os.sched_setaffinity(0, {min(self._affinity)})
        self._path.write_text("")
        self._file = open(self._path)
        argv = [sys.executable, str(BENCH / "reference.py"), str(self._path)]
        self._proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
        try:
            while len(self._times) < REFERENCE_MIN_LINES:
                if self._proc.poll() is not None:
                    raise RuntimeError("reference.py exited with code %d" % self._proc.returncode)
                time.sleep(0.01)
                self._read()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        self._proc.kill()
        self._proc.wait()
        self._file.close()
        self._path.unlink()
        os.sched_setaffinity(0, self._affinity)

    def _read(self):
        text = self._partial + self._file.read()
        lines = text.split("\n")
        self._partial = lines.pop()
        for line in lines:
            stamp, cost = line.split()
            self._times.append(float(stamp))
            self._costs.append(float(cost))

    def slowdown(self, t0: float, t1: float) -> float:
        self._read()
        lo = bisect.bisect_left(self._times, t0)
        hi = bisect.bisect_right(self._times, t1)
        while hi - lo < REFERENCE_MIN_LINES and (lo > 0 or hi < len(self._times)):
            lo, hi = max(0, lo - 1), min(len(self._times), hi + 1)
        return statistics.fmean(self._costs[lo:hi]) / REFERENCE_LINE_S

    def wall(self, run: CliRun) -> float:
        return run.wall_s / self.slowdown(run.start, run.end)


# ---------------------------------------------------------------- trace analysis


def analyse_trace(trace: dict) -> dict[str, float]:
    """Per-name inclusive and self seconds, tower coverage, and the counters.

    A name's inclusive time counts only its outermost spans; self time
    is a span's duration minus the durations of its child spans.
    """
    names = trace["names"]
    info = {sid: (parent, nid, end - start) for sid, parent, nid, start, end in trace["spans"]}
    child = dict.fromkeys(info, 0.0)
    for parent, _, dur in info.values():
        if parent in child:
            child[parent] += dur
    total = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    tower = covered = 0.0
    for sid, (parent, nid, dur) in info.items():
        name = names[nid]
        self_s[name] += dur - child[sid]
        up = parent
        while up in info and info[up][1] != nid:
            up = info[up][0]
        if up not in info:
            total[name] += dur
        if name in TOWER_SPANS:
            tower += dur
            covered += child[sid]
    out = {name + "_s": total[name] for name in names}
    out.update({name + ".self_s": self_s[name] for name in names})
    out.update({k: float(v) for k, v in trace["counters"].items()})
    out["tower_s"] = tower
    out["covered_s"] = covered
    return out


LAYER_TIMES = (
    "covers.build_cover.self_s",
    "covers.build_cover_s",
    "pcgroups.overlap_checks_s",
    "covers.endomorphism_matrices_s",
    "covers.relator_rows_s",
    "covers.impose_relators_s",
    "covers.impose_relators.self_s",
    "lattices.spin_closure_s",
    "lattices.subgroup_invariants_s",
    "covers.multiplier_invariants_s",
    "presentations.parse_s",
    "presentations.adjust_s",
)
LAYER_COUNTS = (
    "pcgroups.mul_calls",
    "pcgroups.overlaps",
    "covers.consistency_rows",
    "covers.central_dim",
    "pcgroups.pc_gens",
    "lattices.hnf_calls",
    "lattices.membership_calls",
    "lattices.spin_rank",
    "lattices.max_coeff_bits",
)


def _combine(parts: list[dict[str, float]]) -> dict[str, float]:
    """One workload sample from the traces of its CLI runs: sums, except a max for bit sizes."""
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if key == "lattices.max_coeff_bits":
                out[key] = max(out.get(key, 0.0), value)
            else:
                out[key] = out.get(key, 0.0) + value
    return out


# ---------------------------------------------------------------- measuring


class Session:
    """The CLI runs of one workload on the measuring CPU, and their tally of class steps."""

    def __init__(self, invs: list[Invocation], speed: HostSpeed, deadline: float):
        self.invs = invs
        self.speed = speed
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def cli(self, inv: Invocation, max_class: int, traced: bool = False) -> CliRun:
        run = run_cli(inv, max_class, self.deadline, traced)
        self.attempted += max_class
        self.failed += run.failed
        return run

    def sample(self, traced: bool = False) -> list[CliRun]:
        return [self.cli(inv, inv.max_class, traced) for inv in self.invs]


def _fits(durations: list[float], stop: float) -> bool:
    """Whether one more sample of the usual duration ends before stop."""
    return time.monotonic() + statistics.median(durations) <= stop


def tail_summary(values: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    n = len(values)
    text = "median %.6g" % statistics.median(values)
    if n > 20:
        text += ", p%d %.6g" % (100 * (n - 10) // n, sorted(values)[n - 11])
    return text + ", n=%d" % n


def _top_class(run: CliRun, speed: HostSpeed) -> float:
    top = run.class_s[-1] if run.class_s else run.wall_s
    return top / speed.slowdown(run.end - top, run.end)


def measure_end_to_end(session: Session, seconds: float) -> dict[str, tuple[float, str]]:
    speed = session.speed
    setups = []
    for _ in range(SETUP_PROBES):
        runs = [session.cli(inv, 1) for inv in session.invs]
        setups.append(sum(r.setup_s / speed.slowdown(r.start, r.end) for r in runs))
    walls, tops, rss, raw = [], [], [], []
    stop = time.monotonic() + seconds
    while len(raw) < MIN_SAMPLES or _fits(raw, stop):
        runs = session.sample()
        raw.append(sum(r.wall_s for r in runs))
        walls.append(sum(speed.wall(r) for r in runs))
        tops.append(sum(_top_class(r, speed) for r in runs))
        rss.append(max(r.rss_mb for r in runs))
    series = {
        "wall_s": (walls, "s"),
        "top_class_s": (tops, "s"),
        "setup_s": (setups, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    for name, (values, unit) in series.items():
        print("%s [%s]: %s" % (name, unit, tail_summary(values)), file=sys.stderr)
    print("raw wall_s [s]: %s" % tail_summary(raw), file=sys.stderr)
    return {name: (statistics.median(v), unit) for name, (v, unit) in series.items()}


def _corrected_trace(run: CliRun, speed: HostSpeed) -> dict[str, float]:
    slowdown = speed.slowdown(run.start, run.end)
    part = analyse_trace(run.trace)
    return {k: v / slowdown if k.endswith("_s") else v for k, v in part.items()}


def measure_layers(session: Session, seconds: float) -> dict[str, tuple[float, str]]:
    speed = session.speed
    plain_walls, traced_walls, slowdowns, samples, raw = [], [], [], [], []
    counts = None
    stop = time.monotonic() + seconds
    while not raw or _fits(raw, stop):
        plain = session.sample()
        traced = session.sample(traced=True)
        raw.append(sum(r.wall_s for r in plain + traced))
        plain_walls.append(sum(speed.wall(r) for r in plain))
        traced_walls.append(sum(speed.wall(r) for r in traced))
        slowdowns += [speed.slowdown(r.start, r.end) for r in plain + traced]
        if [r.tables for r in plain] != [r.tables for r in traced]:
            session.problems.append("traced tables differ from untraced tables")
        if any(r.trace is None for r in traced):
            session.problems.append("traced run failed")
            continue
        sample = _combine([_corrected_trace(r, speed) for r in traced])
        sample["trace.wall_s"] = traced_walls[-1]
        samples.append(sample)
        these = [sample.get(k, 0.0) for k in LAYER_COUNTS]
        if counts is None:
            counts = these
        elif these != counts:
            session.problems.append("exact counts differ between traced runs")
    if not samples:
        return {}
    metrics = {}
    for key in LAYER_TIMES + ("trace.wall_s",):
        metrics[key] = (statistics.median(s.get(key, 0.0) for s in samples), "s")
    for key, value in zip(LAYER_COUNTS, counts):
        metrics[key] = (int(value), "bits" if key == "lattices.max_coeff_bits" else "count")
    coverage = statistics.median(s["covered_s"] / s["tower_s"] for s in samples)
    metrics["trace.coverage"] = (coverage, "ratio")
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["host.slowdown"] = (statistics.median(slowdowns), "ratio")
    if coverage < COVERAGE_GATE:
        session.problems.append("trace coverage %.4f below %.2f" % (coverage, COVERAGE_GATE))
    wall = metrics["trace.wall_s"][0]
    for key in LAYER_TIMES:
        value = metrics[key][0]
        share = 100 * value / wall
        print("%-34s %9.4f s %6.1f%% of traced wall" % (key, value, share), file=sys.stderr)
    summary = (tail_summary(traced_walls), tail_summary(plain_walls))
    print("trace.wall_s [s]: %s; untraced %s" % summary, file=sys.stderr)
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and return the result object."""
    deadline = time.monotonic() + RUN_LIMIT_S
    invs = workload(name, seed)
    with HostSpeed() as speed:
        session = Session(invs, speed, deadline)
        if trace:
            metrics = measure_layers(session, seconds)
        else:
            metrics = measure_end_to_end(session, seconds)
    summary = (session.failed / session.attempted, session.failed, session.attempted)
    print("error_rate [ratio]: %.6g (%d of %d class steps)" % summary, file=sys.stderr)
    for problem in session.problems:
        print("problem: %s" % problem, file=sys.stderr)
    return {
        "correct": session.failed == 0 and not session.problems and bool(metrics),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _program_present():
        print("error: %s/src/lpres not found; run from a checkout of lpres" % ROOT, file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
