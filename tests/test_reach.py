"""Closed forms at the reach classes, through `lpres check-conjecture`.

These classes lie far past the acceptance classes, and each case runs
`check-conjecture` through every class up to its own.  They cost from
a second to about half a minute each, about a minute in all on a 2-core
machine, so they are marked slow and run apart from the default suite:

    PYTHONPATH=src python -m pytest -q -m slow tests/test_reach.py
"""

import pytest

from lpres.cli import main


@pytest.mark.slow
@pytest.mark.parametrize(
    "group, max_class",
    [
        # the rank jumps from 9 to 11
        ("grigorchuk", 48),
        # the rank jumps from 19 to 21
        ("grigorchuk_supergroup", 32),
        # the rank goes from 15 to 16
        ("twisted_twin", 16),
        ("bsv", 11),
        # the class where the Z_8 factor of the level-1 window appears
        ("basilica", 16),
        # the class where the Z_2 factor of the level-2 window appears
        ("basilica", 24),
    ],
)
def test_closed_form_holds_at_reach_class(group, max_class, capsys):
    code = main(["check-conjecture", "--group", group, "--max-class", str(max_class)])
    out = capsys.readouterr().out
    assert code == 0, out
