"""End-to-end checks of the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lpres.cli import main
from lpres.presentations import MAX_NESTING, catalog_names, parse_one
from lpres.quotients import abelian_quotient

KLEIN = """
group klein {
  generators: x, y;
  fixed: x^2, y^2, x^-1*y^-1*x*y;
}
"""

SWAP = """
group swap {
  generators: a, b;
  invariant: true;
  fixed: a^2;
  endomorphism s: a -> b, b -> a;
}
"""

NONINVARIANT = SWAP.replace("invariant: true", "invariant: false")

# s(a) = b lies in the relator lattice only thanks to the fixed relator
# b, yet its image s(b) = c must be spun too: the group is trivial.
SPUN_PAST_FIXED = """
group spun {
  generators: a, b, c;
  invariant: true;
  fixed: b;
  endomorphism s: a -> b, b -> c, c -> c;
  iterated: a;
}
"""


# The trivial group (nq stabilizes at class 0), yet the witness words
# that adjust builds for it grow until memory runs out, unless bounded.
WITNESS_GROWTH = """
group r { generators: a, b, c; invariant: true;
  endomorphism s: a -> a^-3, b -> b^-1*c, c -> b^-2*a^2*b^-2*a;
  iterated: c^-1*b^2, a^4*b; }
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_all_groups(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("grigorchuk", "twisted_twin", "grigorchuk_supergroup", "basilica", "bsv"):
        assert name in out


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    payload = json.loads(out)
    names = [g["name"] for g in payload["groups"]]
    assert names == ["grigorchuk", "twisted_twin", "grigorchuk_supergroup", "basilica", "bsv"]
    grig = payload["groups"][0]
    assert grig["generators"] == ["a", "b", "c", "d"]
    assert grig["invariant"] is True


def test_dwyer_text_lines(capsys):
    code, out, _ = run(capsys, "dwyer", "--group", "grigorchuk", "--max-class", "4")
    assert code == 0
    assert out.splitlines() == [
        "c=1: Z_2",
        "c=2: (Z_2)^2",
        "c=3: (Z_2)^3",
        "c=4: (Z_2)^3",
    ]


def test_dwyer_json_schema(capsys):
    code, out, _ = run(capsys, "dwyer", "--group", "grigorchuk", "--max-class", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "grigorchuk"
    assert [r["c"] for r in payload["results"]] == [1, 2, 3]
    for row in payload["results"]:
        assert set(row) == {
            "c",
            "free_rank",
            "torsion",
            "ranks_if_elementary",
            "t_quotient_ms",
            "t_dwyer_ms",
        }
        assert row["free_rank"] == 0
        assert row["ranks_if_elementary"] == len(row["torsion"])
        assert row["t_quotient_ms"] >= 0
        assert row["t_dwyer_ms"] >= 0
    assert payload["results"][2]["torsion"] == [2, 2, 2]


def test_nq_json_and_infinite_order(capsys):
    code, out, _ = run(capsys, "nq", "--group", "basilica", "--max-class", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert "stabilized_at" not in payload
    rows = payload["results"]
    assert [r["c"] for r in rows] == [1, 2, 3]
    assert rows[0]["free_rank"] == 2 and rows[0]["order"] is None
    assert rows[1]["free_rank"] == 1
    assert rows[2]["torsion"] == [4]


def test_nq_reports_stabilization(tmp_path, capsys):
    path = tmp_path / "klein.lp"
    path.write_text(KLEIN)
    code, out, _ = run(capsys, "nq", "--file", str(path), "--max-class", "5")
    assert code == 0
    assert "series stabilizes at class 1" in out
    assert "order 4" in out


@pytest.mark.parametrize(
    "fixed, layer",
    [
        ("a^2*b^-1", "c=1: layer Z, order infinite"),
        ("a^4*b^-2, b^4", "c=1: layer Z_2 x Z_8, order 16"),
    ],
    ids=["infinite-cyclic", "Z_2xZ_8"],
)
def test_nq_layer_counts_power_tails(tmp_path, capsys, fixed, layer):
    path = tmp_path / "tails.lp"
    path.write_text("group t {\n  generators: a, b;\n  fixed: %s;\n}\n" % fixed)
    code, out, _ = run(capsys, "nq", "--file", str(path), "--max-class", "3")
    assert code == 0
    assert out.splitlines()[0] == layer


def test_adjust_output_reparses(capsys):
    code, out, _ = run(capsys, "adjust", "--group", "grigorchuk")
    assert code == 0
    pres = parse_one(out)
    assert pres.name == "grigorchuk_adjusted"
    assert len(pres.fixed) == 5
    assert len(pres.iterated) == 2
    assert pres.invariant


def test_adjust_json(capsys):
    code, out, _ = run(capsys, "adjust", "--group", "bsv", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["abelianization"] == "Z^2"
    assert payload["basis"] == []
    assert len(payload["iterated_consequences"]) == 2


# The adjusted presentation and the --json record of each catalog group,
# as lpres adjust prints them; they are the adjustment golden values.
ADJUST_GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "adjust_golden.json").read_text())


@pytest.mark.parametrize("name", catalog_names())
def test_adjust_output_is_pinned_for_every_catalog_group(capsys, name):
    pinned = ADJUST_GOLDEN[name]
    code, out, _ = run(capsys, "adjust", "--group", name)
    assert code == 0
    assert out == "".join(line + "\n" for line in pinned["text"])
    code, out, _ = run(capsys, "adjust", "--group", name, "--json")
    assert code == 0
    assert out == json.dumps(pinned["json"], indent=2) + "\n"


def test_check_conjecture_ok(capsys):
    code, out, _ = run(capsys, "check-conjecture", "--group", "bsv", "--max-class", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] is True
    assert [r["c"] for r in payload["results"]] == [2, 3, 4]
    assert all(r["match"] for r in payload["results"])


def test_check_conjecture_text_verdicts(capsys):
    code, out, _ = run(capsys, "check-conjecture", "--group", "basilica", "--max-class", "3")
    assert code == 0
    lines = out.splitlines()
    assert all(line.endswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("PASS: all 2 classes")


def test_timing_flag_does_not_change_results(capsys):
    code, plain, _ = run(capsys, "dwyer", "--group", "grigorchuk", "--max-class", "3")
    assert code == 0
    code, timed, _ = run(capsys, "dwyer", "--group", "grigorchuk", "--max-class", "3", "--timing")
    assert code == 0
    stripped = [line.split("  [")[0] for line in timed.splitlines()]
    assert stripped == plain.splitlines()


def test_json_and_text_encode_same_data(capsys):
    code, text, _ = run(capsys, "dwyer", "--group", "bsv", "--max-class", "4")
    assert code == 0
    code, blob, _ = run(capsys, "dwyer", "--group", "bsv", "--max-class", "4", "--json")
    assert code == 0
    from lpres.lattices import AbelianInvariants

    rows = json.loads(blob)["results"]
    rebuilt = [
        "c=%d: %s" % (r["c"], AbelianInvariants(r["free_rank"], tuple(r["torsion"])).render())
        for r in rows
    ]
    assert rebuilt == text.splitlines()


def test_unknown_group_is_usage_error(capsys):
    code, _, err = run(capsys, "nq", "--group", "nonexistent", "--max-class", "2")
    assert code == 1
    assert "unknown catalog group" in err
    # an empty name is a name too, not a missing --group
    for command in ("nq", "check-conjecture"):
        code, out, err = run(capsys, command, "--group", "", "--max-class", "2")
        assert (code, out) == (1, ""), command
        assert err.startswith("error: unknown catalog group ''"), command


def test_missing_source_is_usage_error(capsys):
    code, _, _ = run(capsys, "nq", "--max-class", "2")
    assert code == 1


def test_nonpositive_class_is_usage_error(capsys):
    code, _, _ = run(capsys, "nq", "--group", "grigorchuk", "--max-class", "0")
    assert code == 1
    # there is no --jobs option
    code, _, err = run(capsys, "dwyer", "--group", "basilica", "--max-class", "3", "--jobs", "2")
    assert code == 1
    assert "--jobs" in err


def test_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "broken.lp"
    path.write_text("group x {\n  generators: a\n")
    code, _, err = run(capsys, "adjust", "--file", str(path))
    assert code == 1
    assert "expected" in err


def test_deeply_nested_word_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.lp"
    path.write_text(
        "group deep {\n  generators: a, b;\n  fixed: %sa%s;\n}\n" % ("(" * 3000, ")" * 3000)
    )
    code, _, err = run(capsys, "nq", "--file", str(path), "--max-class", "2")
    assert code == 1
    assert "error:" in err
    assert "line 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "relator",
    [
        # a power of a power is one power, so the chain has no depth
        pytest.param("a" + "^1" * 10_000, id="10000-link-power-chain"),
        # a conjugate of a conjugate is one conjugate, and a power of a
        # conjugate the conjugate of a power
        pytest.param("(a*b)" + "^b^1^b^-1" * 5_000, id="10000-link-conjugate-chain"),
        # words nested as deep as the parser allows, as commutators
        pytest.param("[" * (MAX_NESTING - 1) + "a, a]" + ", b]" * (MAX_NESTING - 2), id="nested-commutators"),
    ],
)
def test_deep_shapes_evaluate_without_recursion(tmp_path, capsys, relator):
    path = tmp_path / "deep.lp"
    path.write_text("group deep {\n  generators: a, b;\n  fixed: %s;\n}\n" % relator)
    code, out, err = run(capsys, "nq", "--file", str(path), "--max-class", "2")
    assert code == 0, err
    assert out.startswith("c=1: layer ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "exponent",
    [
        "1000000000000000000",
        "100000000000000000000",
        # more digits than int() converts by default
        pytest.param("9" * 5000, id="5000-digits"),
    ],
)
def test_huge_exponent_is_a_parse_error(tmp_path, capsys, exponent):
    path = tmp_path / "huge.lp"
    path.write_text("group huge {\n  generators: a, b;\n  fixed: (b^a)^%s;\n}\n" % exponent)
    code, _, err = run(capsys, "nq", "--file", str(path), "--max-class", "2")
    assert code == 1
    assert "error:" in err
    assert "line 3" in err
    assert "Traceback" not in err
    assert "set_int_max_str_digits" not in err


def test_power_of_a_conjugate_parses_to_three_syllables():
    pres = parse_one("group g { generators: a, b; fixed: (b^a)^1000000000000; }")
    assert pres.fixed[0].syllables == ((0, -1), (1, 10**12), (0, 1))


@pytest.mark.parametrize(
    "word",
    [
        "(a*b)^300000",
        # each factor is short enough, their product is not
        "*".join(["(a*b)^30000"] * 4),
        # a commutator doubles the length of its arguments at every level
        "[" * 30 + "a" + ", b]" * 30,
        "(b^((a*b)^30000))^((a*b)^30000)",
    ],
    ids=["power", "product", "commutators", "conjugates"],
)
def test_overlong_word_is_a_parse_error(tmp_path, capsys, word):
    path = tmp_path / "long.lp"
    path.write_text("group long {\n  generators: a, b;\n  fixed: %s;\n}\n" % word)
    code, _, err = run(capsys, "nq", "--file", str(path), "--max-class", "2")
    assert code == 1
    assert "line 3" in err
    assert "longer than" in err
    assert "Traceback" not in err


def test_quadratic_build_is_a_parse_error(tmp_path, capsys):
    # each link conjugates and powers the whole word, which stays under
    # MAX_WORD_LENGTH; a 100 KB file would build billions of syllables
    path = tmp_path / "chain.lp"
    path.write_text("group chain {\n  generators: a, b;\n  fixed: a%s;\n}\n" % ("^(a*b)^1" * 12_500))
    assert path.stat().st_size > 100_000
    code, _, err = run(capsys, "nq", "--file", str(path), "--max-class", "2")
    assert code == 1
    assert "line 3" in err
    assert "builds more than" in err
    assert "Traceback" not in err


def test_long_product_parses_in_one_pass():
    # 25,000 factors, reduced as they come rather than rebuilt each time
    factors = ["a", "b", "b^-1", "a^2", "b^3"] * 5_000
    pres = parse_one("group g { generators: a, b; fixed: %s; }" % "*".join(factors))
    assert pres.fixed[0].syllables == ((0, 3), (1, 3)) * 5_000


def test_million_exponent_reaches_class_four(tmp_path, capsys):
    # collection conjugates by a^e in about log2(e) passes, not e of them
    path = tmp_path / "million.lp"
    path.write_text("group g {\n  generators: a, b;\n  invariant: true;\n  fixed: (b^a)^1000000;\n}\n")
    code, out, err = run(capsys, "nq", "--file", str(path), "--max-class", "4")
    assert code == 0
    assert out.splitlines()[3] == "c=4: layer (Z_1000000)^3, order infinite"
    assert "Traceback" not in err


def test_missing_file_exit(tmp_path, capsys):
    code, _, _ = run(capsys, "adjust", "--file", "/nonexistent/path.lp")
    assert code == 1
    # so is a file that is not UTF-8
    path = tmp_path / "binary.lp"
    path.write_bytes(b"\xff\xfe group")
    code, out, err = run(capsys, "adjust", "--file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: %s: 'utf-8' codec can't decode" % path)


def test_adjust_refuses_overlong_witness_words(tmp_path, capsys):
    path = tmp_path / "growth.lp"
    path.write_text(WITNESS_GROWTH)
    code, out, err = run(capsys, "adjust", "--file", str(path))
    assert (code, out) == (2, "")
    assert "longer than 100000 syllables" in err
    assert "Traceback" not in err


def test_computation_failure_exit(tmp_path, capsys):
    path = tmp_path / "swap.lp"
    path.write_text(SWAP)
    for argv in (("dwyer", "--max-class", "3"), ("nq", "--max-class", "3"), ("adjust",)):
        code, _, err = run(capsys, *argv, "--file", str(path))
        assert code == 2, argv
        assert "ill-defined image" in err
    # a presentation declared not invariant has no multiplier image
    path.write_text(NONINVARIANT)
    code, _, err = run(capsys, "dwyer", "--file", str(path), "--max-class", "3")
    assert code == 2
    assert "invariant presentation" in err


def test_image_inside_the_lattice_by_a_fixed_relator_is_spun(tmp_path, capsys):
    path = tmp_path / "spun.lp"
    path.write_text(SPUN_PAST_FIXED)
    code, out, err = run(capsys, "nq", "--file", str(path), "--max-class", "2")
    assert (code, err) == (0, "")
    assert "series stabilizes at class 0" in out
    code, out, err = run(capsys, "dwyer", "--file", str(path), "--max-class", "2")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["c=1: 1", "c=2: 1"]
    assert abelian_quotient(parse_one(SPUN_PAST_FIXED)).is_trivial()


def test_check_conjecture_below_the_closed_form_is_an_input_error(capsys, monkeypatch):
    def no_tower(*args):
        raise AssertionError("the tower ran")

    monkeypatch.setattr("lpres.cli.dwyer_range", no_tower)
    for name in ("basilica", "bsv"):
        for extra in ((), ("--json",)):
            argv = ("check-conjecture", "--group", name, "--max-class", "1", *extra)
            code, out, err = run(capsys, *argv)
            assert code == 1, (name, extra)
            assert out == ""
            assert "starts at class 2" in err


def test_check_conjecture_rejects_file_source(capsys):
    code, _, _ = run(capsys, "check-conjecture", "--file", "x.lp", "--max-class", "2")
    assert code == 1


def test_import_loads_neither_dataclasses_nor_inspect():
    """Every run pays for what `import lpres.cli` loads: dataclasses,
    with inspect, ast and dis behind it, cost 15-20 ms of each start-up
    (2-core KVM guest, CPython 3.11)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import sys; before = set(sys.modules); import lpres.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    added = proc.stdout.split()
    assert "lpres.cli" in added
    assert "dataclasses" not in added
    assert "inspect" not in added


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lpres.cli", "dwyer", "--group", "grigorchuk", "--max-class", "2", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["results"][1]["torsion"] == [2, 2]
