"""Run one lpres CLI command with spans around the public entry points.

    python3 perfbench/traced.py OUT.json -- dwyer --group grigorchuk --max-class 16 --json

The wrappers are installed from here, not from the package: every lpres
module namespace that holds one of the entry points below gets a
wrapper in its place, so a name imported with ``from .covers import
build_cover`` is traced in ``lpres.multiplier`` and ``lpres.quotients``
as well.  Spans (id, parent id, name, start, end) and counters are kept
in memory and written to OUT.json once the command has finished,
together with the command's exit code and standard output.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, attribute, span name).  A dotted attribute is a method,
# wrapped on its class.  Generators get one span per resumption, so
# the consumer's work between two items is not charged to them.
SPANS = [
    ("lpres.presentations", "parse", "presentations.parse"),
    ("lpres.presentations", "adjust", "presentations.adjust"),
    ("lpres.quotients", "quotient_tower", "quotients.quotient_tower"),
    ("lpres.multiplier", "dwyer_range", "multiplier.dwyer_range"),
    ("lpres.covers", "build_cover", "covers.build_cover"),
    ("lpres.covers", "impose_relators", "covers.impose_relators"),
    ("lpres.covers", "Cover.relator_rows", "covers.relator_rows"),
    ("lpres.covers", "Cover.endomorphism_matrices", "covers.endomorphism_matrices"),
    ("lpres.covers", "Cover.multiplier_invariants", "covers.multiplier_invariants"),
    ("lpres.pcgroups", "PcPresentation.overlap_checks", "pcgroups.overlap_checks"),
    ("lpres.lattices", "spin_closure", "lattices.spin_closure"),
    ("lpres.lattices", "subgroup_invariants", "lattices.subgroup_invariants"),
    ("lpres.lattices", "hnf", "lattices.hnf"),
    ("lpres.cli", "main", "cli.main"),
]

# Called far too often for a span each: these are counted only.
COUNTED = [
    ("lpres.pcgroups", "PcPresentation.mul", "pcgroups.mul_calls"),
    ("lpres.lattices", "membership", "lattices.membership_calls"),
]


class Tracer:
    """Spans with parent ids, and counters, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = [-1]
        self._next_id = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def call(self, nid: int, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, nid, start, end))

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)
        call = self.call
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    try:
                        item = call(nid, next, (gen,), {})
                    except StopIteration:
                        return
                    if on_result is not None:
                        on_result(item)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = call(nid, fn, args, kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counting(self, key: str, fn):
        counters = self.counters
        counters[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def _result_hooks(tracer: Tracer) -> dict[str, object]:
    count = tracer.count
    counters = tracer.counters

    def overlap(item):
        _, _, lhs, rhs = item
        count("pcgroups.overlaps")
        if lhs != rhs:
            count("covers.consistency_rows")

    def cover(result):
        count("covers.central_dim", result.central_dim)

    def quotient(result):
        # the last quotient imposed is the top of the tower
        counters["pcgroups.pc_gens"] = result.pc.ngens

    def hnf(result):
        count("lattices.hnf_calls")
        bits = max((abs(x).bit_length() for row in result.rows for x in row), default=0)
        if bits > counters.get("lattices.max_coeff_bits", 0):
            counters["lattices.max_coeff_bits"] = bits

    def spin(result):
        count("lattices.spin_rank", result.rank)

    return {
        "pcgroups.overlap_checks": overlap,
        "covers.build_cover": cover,
        "covers.impose_relators": quotient,
        "lattices.hnf": hnf,
        "lattices.spin_closure": spin,
    }


def _lookup(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def install(tracer: Tracer) -> list[str]:
    """Wrap every entry point at every lpres site; return the ones missing."""
    hooks = _result_hooks(tracer)
    missing = []
    targets = [(m, a, n, "span") for m, a, n in SPANS]
    targets += [(m, a, n, "count") for m, a, n in COUNTED]
    for module, attr, name, kind in targets:
        try:
            owner, leaf, original = _lookup(module, attr)
        except (ImportError, AttributeError):
            missing.append("%s.%s" % (module, attr))
            continue
        if kind == "span":
            wrapped = tracer.wrap(name, original, hooks.get(name))
        else:
            wrapped = tracer.counting(name, original)
        if owner is not sys.modules.get(module):
            setattr(owner, leaf, wrapped)
            continue
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "lpres" or modname.startswith("lpres.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py OUT.json -- LPRES-ARGS...", file=sys.stderr)
        return 1
    out_path, cli_args = Path(argv[0]), argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    import lpres.cli

    tracer = Tracer()
    missing = install(tracer)
    for target in missing:
        print("traced.py: entry point %s not found, not traced" % target, file=sys.stderr)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = lpres.cli.main(cli_args)
    payload = {
        "exit": code,
        "stdout": captured.getvalue(),
        "missing": missing,
        "names": tracer.names,
        "spans": tracer.spans,
        "counters": tracer.counters,
    }
    out_path.write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
