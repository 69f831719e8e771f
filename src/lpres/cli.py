"""Command line front end.

Subcommands:

  nq                nilpotent quotients class by class
  dwyer             multiplier images along the nilpotent tower
  adjust            rewrite a presentation over a relator-lattice basis
  catalog           list the built-in groups
  check-conjecture  compare computed multiplier images with closed forms

Exit status: 0 on success, 1 for usage or input errors, or when the
output cannot be written, 2 when a computation fails (or, for
check-conjecture, when computation and formula disagree).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .conjectures import minimum_class, predicted_dwyer
from .multiplier import dwyer_range
from .presentations import adjust, catalog_names, load_catalog, parse_one, serialize
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


# ------------------------------------------------------------------ commands
# Each returns (exit code, --json payload, text lines).


def _cmd_nq(args):
    name, pres = _load(args)
    results, lines = [], []
    t_prev = time.perf_counter()
    for c, system in quotient_tower(pres, args.max_class):
        t_now = time.perf_counter()
        layer = system.pc.lcs_factor(c)
        order = system.order()
        row = {
            "c": c,
            "free_rank": layer.free_rank,
            "torsion": list(layer.torsion),
            "ranks_if_elementary": _rank_if_elementary(layer),
            "order": None if order is None else str(order),
            "t_ms": _ms(t_now - t_prev),
        }
        results.append(row)
        line = "c=%d: layer %s, order %s" % (c, layer.render(), row["order"] or "infinite")
        if args.timing:
            line += "  [%.1f ms]" % row["t_ms"]
        lines.append(line)
        t_prev = t_now
    payload = {"group": name, "results": results}
    # the tower yields classes 1, 2, ... until the series stabilizes
    if len(results) < args.max_class:
        payload["stabilized_at"] = len(results)
        lines.append("series stabilizes at class %d" % len(results))
    return 0, payload, lines


def _cmd_dwyer(args):
    name, pres = _load(args)
    results, lines = [], []
    for step in dwyer_range(pres, args.max_class):
        image = step.invariants
        row = {
            "c": step.nclass,
            "free_rank": image.free_rank,
            "torsion": list(image.torsion),
            "ranks_if_elementary": _rank_if_elementary(image),
            "t_quotient_ms": _ms(step.quotient_seconds),
            "t_dwyer_ms": _ms(step.dwyer_seconds),
        }
        results.append(row)
        line = "c=%d: %s" % (step.nclass, image.render())
        if args.timing:
            line += "  [quotient %.1f ms, dwyer %.1f ms]" % (
                row["t_quotient_ms"],
                row["t_dwyer_ms"],
            )
        lines.append(line)
    return 0, {"group": name, "results": results}, lines


def _cmd_adjust(args):
    name, pres = _load(args)
    adjusted = adjust(pres)
    payload = {
        "group": name,
        "basis": [str(w) for w in adjusted.basis_words],
        "basis_vectors": [list(v) for v in adjusted.basis_vectors],
        "fixed_consequences": [str(w) for w in adjusted.fixed_consequences],
        "iterated_consequences": [str(w) for w in adjusted.iterated_consequences],
        "abelianization": adjusted.abelianization().render(),
    }
    return 0, payload, serialize(adjusted.presentation).splitlines()


def _cmd_catalog(args):
    rows, lines = [], []
    for nm in catalog_names():
        pres = load_catalog(nm)
        gens, maps = list(pres.alphabet.names), [n for n, _ in pres.endomorphisms]
        nfixed, niterated = len(pres.fixed), len(pres.iterated)
        rows.append(
            {
                "name": nm,
                "generators": gens,
                "fixed": nfixed,
                "iterated": niterated,
                "endomorphisms": maps,
                "invariant": pres.invariant,
            }
        )
        lines.append(
            "%-22s gens=%s  fixed=%d  iterated=%d  maps=%s"
            % (nm, ",".join(gens), nfixed, niterated, ",".join(maps) or "-")
        )
    return 0, {"groups": rows}, lines


def _cmd_check(args):
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
    results, lines = [], []
    # dwyer_range returns classes 1 .. max_class in order
    for step in dwyer_range(pres, args.max_class)[start - 1 :]:
        predicted = predicted_dwyer(name, step.nclass)
        row = {
            "c": step.nclass,
            "computed": step.invariants.render(),
            "predicted": predicted.render(),
            "match": predicted == step.invariants,
        }
        results.append(row)
        lines.append(
            "c=%d: computed %s, predicted %s  %s"
            % (step.nclass, row["computed"], row["predicted"], "PASS" if row["match"] else "FAIL")
        )
    bad = sum(1 for row in results if not row["match"])
    if bad:
        lines.append("FAIL: %d of %d classes mismatch" % (bad, len(results)))
    else:
        lines.append("PASS: all %d classes match the closed form" % len(results))
    payload = {"group": name, "results": results, "all_match": not bad}
    return (2 if bad else 0), payload, lines


# ------------------------------------------------------------------ wiring

_OPTIONS = {
    "group": dict(metavar="NAME", help="built-in group (see 'lpres catalog')"),
    "file": dict(metavar="PATH", help="file with one group block"),
    "max-class": dict(type=_positive_int, required=True, metavar="C"),
    "json": dict(action="store_true", help="machine-readable output"),
    "timing": dict(action="store_true", help="append per-class timings"),
}

# (name, help, command, options in the order they are declared); --group
# and --file exclude each other, and one of the two is required
_COMMANDS = [
    ("nq", "nilpotent quotients class by class", _cmd_nq, "group file max-class json timing"),
    ("dwyer", "multiplier images along the tower", _cmd_dwyer, "group file max-class json timing"),
    ("adjust", "rewrite over a relator-lattice basis", _cmd_adjust, "group file json"),
    ("catalog", "list the built-in groups", _cmd_catalog, "json"),
    (
        "check-conjecture",
        "computed multiplier images versus closed forms",
        _cmd_check,
        "group max-class json",
    ),
]


def _build_parser() -> _Parser:
    parser = _Parser(prog="lpres", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_text, func, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if "group" in options:
            source = p.add_mutually_exclusive_group(required=True)
        for option in options.split():
            target = source if option in ("group", "file") else p
            target.add_argument("--" + option, **_OPTIONS[option])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has written its help or usage message
        code, lines = (exc.code if isinstance(exc.code, int) else 1), []
    else:
        try:
            code, payload, lines = args.func(args)
        except _InputError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        except (ValueError, ArithmeticError, AssertionError) as exc:
            print("computation failed: %s" % exc, file=sys.stderr)
            return 2
        if args.json:
            lines = [json.dumps(payload, indent=2)]
    try:
        sys.stdout.writelines(line + "\n" for line in lines)
        sys.stdout.flush()
    except OSError as exc:
        # Point stdout at the null device, so the interpreter's flush at
        # exit has somewhere to put what is still buffered.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):  # a reader that left wants no message
            print("error: %s" % exc, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
