"""Closed forms at the reach classes, through `lpres check-conjecture`.

These classes lie far past the acceptance classes and cost from
seconds to about half a minute each, so they are marked slow and run
apart from the default suite:

    PYTHONPATH=src python -m pytest -q -m slow tests/test_reach.py
"""

import pytest

from lpres.cli import main


@pytest.mark.slow
@pytest.mark.parametrize(
    "group, max_class",
    [
        ("grigorchuk", 24),
        ("twisted_twin", 12),
        ("grigorchuk_supergroup", 24),
        ("bsv", 9),
        # the class where the Z_8 factor of the level-1 window appears
        ("basilica", 16),
    ],
)
def test_closed_form_holds_at_reach_class(group, max_class, capsys):
    code = main(["check-conjecture", "--group", group, "--max-class", str(max_class)])
    out = capsys.readouterr().out
    assert code == 0, out
