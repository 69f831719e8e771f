"""The command line's output, pinned byte for byte.

fixtures/cli_golden.json holds, for each command line, the exit code
and the lines of standard output and standard error that lpres gave
before its subcommands shared one output path.  "{d8}" and
"{noninvariant}" in a command line stand for files holding the groups
below.  Only the timings vary from run to run: every "t_*" value of a
--json payload reads 0 and every "[... ms]" timing reads "N ms", here as
in the fixture.
"""

import json
import re
from pathlib import Path

import pytest

from lpres.cli import main

CASES = json.loads((Path(__file__).parent / "fixtures" / "cli_golden.json").read_text())

FILES = {
    # the dihedral group of order 8, whose series stabilizes at class 2
    "d8": "group d8 {\n  generators: a, b;\n  fixed: a^2, b^2, (a*b)^4;\n}\n",
    "noninvariant": (
        "group swap {\n  generators: a, b;\n  invariant: false;\n  fixed: a^2;\n"
        "  endomorphism s: a -> b, b -> a;\n}\n"
    ),
}


def without_timings(text: str) -> str:
    text = re.sub(r'("t_\w+": )[0-9.e+-]+', r"\g<1>0", text)
    return re.sub(r"\d+\.\d ms", "N ms", text)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_cli_output_is_pinned(case, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    paths = {}
    for key, text in FILES.items():
        paths[key] = tmp_path / (key + ".lp")
        paths[key].write_text(text)
    code = main([arg.format(**paths) for arg in case["argv"]])
    out, err = capsys.readouterr()
    expected = "".join(line + "\n" for line in case["stdout"])
    if "--help" in case["argv"]:
        # Python versions differ in where argparse breaks a usage line
        out, expected = " ".join(out.split()), " ".join(expected.split())
    assert code == case["exit"]
    assert without_timings(out) == expected
    assert err == "".join(line + "\n" for line in case["stderr"])
