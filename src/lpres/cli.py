"""Command line front end.

Subcommands:

  nq                nilpotent quotients class by class
  dwyer             multiplier images along the nilpotent tower
  adjust            rewrite a presentation over a relator-lattice basis
  catalog           list the built-in groups
  check-conjecture  compare computed multiplier images with closed forms

Exit status: 0 on success, 1 for usage or input errors, 2 when a
computation fails (or, for check-conjecture, when computation and
formula disagree).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .conjectures import minimum_class, predicted_dwyer
from .multiplier import DwyerStep, dwyer_range
from .presentations import (
    adjust,
    catalog_names,
    load_catalog,
    parse_one,
    serialize,
)
from .quotients import quotient_tower


class _InputError(Exception):
    """Bad group name, unreadable file, or unparsable presentation."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_source(sub, file_ok: bool = True) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--group", metavar="NAME", help="built-in group (see 'lpres catalog')")
    if file_ok:
        group.add_argument("--file", metavar="PATH", help="file with one group block")


def _load(args) -> tuple[str, object]:
    if args.group is not None:
        try:
            return args.group, load_catalog(args.group)
        except ValueError as exc:
            raise _InputError(str(exc))
    path = args.file
    try:
        with open(path, "r", encoding="utf-8") as handle:
            pres = parse_one(handle.read())
    except OSError as exc:
        raise _InputError(str(exc))
    except ValueError as exc:  # a ParseError, or bytes that are not UTF-8
        raise _InputError("%s: %s" % (path, exc))
    return pres.name or path, pres


def _ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


def _rank_if_elementary(invariants) -> int | None:
    if invariants.is_trivial():
        return 0
    if invariants.elementary_exponent() is not None:
        return len(invariants.torsion)
    return None


# ------------------------------------------------------------------ nq


def _cmd_nq(args) -> int:
    name, pres = _load(args)
    results = []
    layers = []
    last = 0
    t_prev = time.perf_counter()
    for c, system in quotient_tower(pres, args.max_class):
        t_now = time.perf_counter()
        layer = system.pc.lcs_factor(c)
        layers.append(layer)
        order = system.order()
        results.append(
            {
                "c": c,
                "free_rank": layer.free_rank,
                "torsion": list(layer.torsion),
                "ranks_if_elementary": _rank_if_elementary(layer),
                "order": None if order is None else str(order),
                "t_ms": _ms(t_now - t_prev),
            }
        )
        last = c
        t_prev = t_now
    stabilized = last < args.max_class
    if args.json:
        payload = {"group": name, "results": results}
        if stabilized:
            payload["stabilized_at"] = last
        print(json.dumps(payload, indent=2))
        return 0
    for layer, row in zip(layers, results):
        order = "infinite" if row["order"] is None else row["order"]
        line = "c=%d: layer %s, order %s" % (row["c"], layer.render(), order)
        if args.timing:
            line += "  [%.1f ms]" % row["t_ms"]
        print(line)
    if stabilized:
        print("series stabilizes at class %d" % last)
    return 0


# ------------------------------------------------------------------ dwyer


def _step_record(step: DwyerStep) -> dict:
    return {
        "c": step.nclass,
        "free_rank": step.invariants.free_rank,
        "torsion": list(step.invariants.torsion),
        "ranks_if_elementary": _rank_if_elementary(step.invariants),
        "t_quotient_ms": _ms(step.quotient_seconds),
        "t_dwyer_ms": _ms(step.dwyer_seconds),
    }


def _cmd_dwyer(args) -> int:
    name, pres = _load(args)
    steps = dwyer_range(pres, args.max_class)
    results = [_step_record(s) for s in steps]
    if args.json:
        print(json.dumps({"group": name, "results": results}, indent=2))
        return 0
    for step, row in zip(steps, results):
        line = "c=%d: %s" % (row["c"], step.invariants.render())
        if args.timing:
            line += "  [quotient %.1f ms, dwyer %.1f ms]" % (
                row["t_quotient_ms"],
                row["t_dwyer_ms"],
            )
        print(line)
    return 0


# ------------------------------------------------------------------ adjust


def _cmd_adjust(args) -> int:
    name, pres = _load(args)
    adjusted = adjust(pres)
    if args.json:
        payload = {
            "group": name,
            "basis": [str(w) for w in adjusted.basis_words],
            "basis_vectors": [list(v) for v in adjusted.basis_vectors],
            "fixed_consequences": [str(w) for w in adjusted.fixed_consequences],
            "iterated_consequences": [str(w) for w in adjusted.iterated_consequences],
            "abelianization": adjusted.abelianization().render(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    sys.stdout.write(serialize(adjusted.presentation))
    return 0


# ------------------------------------------------------------------ catalog


def _cmd_catalog(args) -> int:
    rows = []
    for nm in catalog_names():
        pres = load_catalog(nm)
        rows.append(
            {
                "name": nm,
                "generators": list(pres.alphabet.names),
                "fixed": len(pres.fixed),
                "iterated": len(pres.iterated),
                "endomorphisms": [n for n, _ in pres.endomorphisms],
                "invariant": pres.invariant,
            }
        )
    if args.json:
        print(json.dumps({"groups": rows}, indent=2))
        return 0
    for row in rows:
        print(
            "%-22s gens=%s  fixed=%d  iterated=%d  maps=%s"
            % (
                row["name"],
                ",".join(row["generators"]),
                row["fixed"],
                row["iterated"],
                ",".join(row["endomorphisms"]) or "-",
            )
        )
    return 0


# ------------------------------------------------------------------ check-conjecture


def _cmd_check(args) -> int:
    name, pres = _load(args)
    try:
        start = minimum_class(name)
    except ValueError as exc:
        raise _InputError(str(exc))
    if args.max_class < start:
        raise _InputError(
            "the closed form for %s starts at class %d; --max-class %d compares nothing"
            % (name, start, args.max_class)
        )
    steps = dwyer_range(pres, args.max_class)
    results = []
    all_match = True
    for step in steps:
        if step.nclass < start:
            continue
        predicted = predicted_dwyer(name, step.nclass)
        match = predicted == step.invariants
        all_match = all_match and match
        results.append(
            {
                "c": step.nclass,
                "computed": step.invariants.render(),
                "predicted": predicted.render(),
                "match": match,
            }
        )
    if args.json:
        print(json.dumps({"group": name, "results": results, "all_match": all_match}, indent=2))
    else:
        for row in results:
            verdict = "PASS" if row["match"] else "FAIL"
            print(
                "c=%d: computed %s, predicted %s  %s"
                % (row["c"], row["computed"], row["predicted"], verdict)
            )
        if all_match:
            print("PASS: all %d classes match the closed form" % len(results))
        else:
            bad = sum(1 for row in results if not row["match"])
            print("FAIL: %d of %d classes mismatch" % (bad, len(results)))
    return 0 if all_match else 2


# ------------------------------------------------------------------ wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="lpres", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_nq = sub.add_parser("nq", help="nilpotent quotients class by class")
    _add_source(p_nq)
    p_nq.add_argument("--max-class", type=_positive_int, required=True, metavar="C")
    p_nq.add_argument("--json", action="store_true", help="machine-readable output")
    p_nq.add_argument("--timing", action="store_true", help="append per-class timings")
    p_nq.set_defaults(func=_cmd_nq)

    p_dw = sub.add_parser("dwyer", help="multiplier images along the tower")
    _add_source(p_dw)
    p_dw.add_argument("--max-class", type=_positive_int, required=True, metavar="C")
    p_dw.add_argument("--json", action="store_true", help="machine-readable output")
    p_dw.add_argument("--timing", action="store_true", help="append per-class timings")
    p_dw.set_defaults(func=_cmd_dwyer)

    p_adj = sub.add_parser("adjust", help="rewrite over a relator-lattice basis")
    _add_source(p_adj)
    p_adj.add_argument("--json", action="store_true", help="machine-readable output")
    p_adj.set_defaults(func=_cmd_adjust)

    p_cat = sub.add_parser("catalog", help="list the built-in groups")
    p_cat.add_argument("--json", action="store_true", help="machine-readable output")
    p_cat.set_defaults(func=_cmd_catalog)

    p_chk = sub.add_parser(
        "check-conjecture", help="computed multiplier images versus closed forms"
    )
    _add_source(p_chk, file_ok=False)
    p_chk.add_argument("--max-class", type=_positive_int, required=True, metavar="C")
    p_chk.add_argument("--json", action="store_true", help="machine-readable output")
    p_chk.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except _InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, AssertionError) as exc:
        print("computation failed: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
