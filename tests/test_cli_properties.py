"""The front end on arbitrary input: every file gives a documented exit
status (0, 1 or 2) and no traceback."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from lpres.cli import main

# the characters of the grammar, some whitespace, and letters and digits
# outside ASCII
CHARACTERS = "abcgroupenitvfxdmsl_0129 \t\r\n#{}()[],;:*^->" + "éß²٣"
TOKENS = [
    "group", "g", "{", "}", "generators", "fixed", "iterated", "invariant",
    "endomorphism", "s", "true", "false", ":", ";", ",", "a", "b", "->",
    "*", "^", "-", "(", ")", "[", "]", "1", "2", "3", "#", "\n",
]
words = st.recursive(
    st.sampled_from(["a", "b", "1"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.integers(-4, 4)).map(lambda t: "(%s)^%d" % t),
        st.tuples(inner, inner).map("%s*%s".__mod__),
        st.tuples(inner, inner).map("[%s, %s]".__mod__),
        st.tuples(inner, inner).map("(%s)^(%s)".__mod__),
    ),
    max_leaves=6,
)


@st.composite
def groups(draw):
    """A well-formed group block, sometimes with one character inserted."""
    sections = ["generators: a, b;"]
    if draw(st.booleans()):
        sections.append("invariant: %s;" % draw(st.sampled_from(["true", "false"])))
    if draw(st.booleans()):
        sections.append("fixed: %s;" % draw(words))
    if draw(st.booleans()):
        sections.append("endomorphism s: a -> %s, b -> %s;" % (draw(words), draw(words)))
    sections.append("iterated: %s;" % draw(words))
    text = "group g { %s }" % " ".join(sections)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(CHARACTERS)) + text[at:]
    return text


texts = st.one_of(
    st.text(alphabet=CHARACTERS, max_size=80),
    st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join),
    groups(),
)


def run_commands(path):
    return [
        main(["nq", "--file", str(path), "--max-class", "2"]),
        main(["adjust", "--file", str(path)]),
    ]


@given(text=texts)
def test_any_text_exits_as_documented(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("text") / "input.lp"
    path.write_text(text, encoding="utf-8")
    for code in run_commands(path):
        assert code in (0, 1, 2)


@given(data=st.binary(max_size=80))
def test_any_bytes_exit_as_documented(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("bytes") / "input.lp"
    path.write_bytes(data)
    codes = run_commands(path)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert codes == [1, 1]
    else:
        assert all(code in (0, 1, 2) for code in codes)
