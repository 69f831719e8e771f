"""Conjugation, commutators and relator evaluation against collection.

PcPresentation.conjugate conjugates u by the syllables of v below u
through the cached images and takes the rest of v off u * v, so it
never inverts v; comm_nf is u^-1 * u^v, and evaluate follows a word's
commutator, power and conjugate shape.  In a consistent presentation
each must give the normal form that collecting the flattened word
gives (collector_oracle.py).
The presentations are quotients and covers of the catalog groups at
small classes, and class-3 quotients of random finitely presented
groups, some of whose generators have infinite order.
"""

import functools
import random

import pytest

pytest.importorskip("hypothesis")
from collector_oracle import collected_conjugate, flat_value, four_factor_commutator
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpres.covers import build_cover
from lpres.presentations import ParseError, load_catalog, parse_one
from lpres.quotients import nilpotent_quotient

# (group, class, whether to take the cover of that quotient)
CASES = [
    ("grigorchuk", 4, False),
    ("twisted_twin", 3, False),
    ("grigorchuk_supergroup", 3, False),
    ("basilica", 4, False),
    ("bsv", 4, False),
    ("grigorchuk", 4, True),
    ("basilica", 4, True),
    ("bsv", 3, True),
]

# the reduced covers the relators are evaluated in
COVERS = [("grigorchuk", 4), ("twisted_twin", 3), ("grigorchuk_supergroup", 3), ("basilica", 5), ("bsv", 4)]

RANDOM_SEEDS = 40


def case_id(case):
    name, c, cover = case
    return "%s-%d%s" % (name, c, "-cover" if cover else "")


@functools.cache
def catalog_pc(case):
    name, c, cover = case
    system = nilpotent_quotient(load_catalog(name), c)
    return build_cover(system).pc if cover else system.pc


def random_source(seed):
    """2 or 3 generators, each of finite order or not, and up to two
    commutators of random words."""
    rng = random.Random(seed)
    names = ["a", "b", "c"][: rng.choice([2, 3])]

    def word():
        syllables = [(rng.choice(names), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(1, 3))]
        return "*".join("%s^%d" % s for s in syllables)

    relators = ["%s^%d" % (x, rng.choice([2, 3, 4])) for x in names if rng.random() < 0.5]
    relators += ["[%s, %s]" % (word(), word()) for _ in range(rng.randint(0, 2))]
    fixed = "fixed: %s; " % ", ".join(relators) if relators else ""
    return "group r { generators: %s; %s}" % (", ".join(names), fixed)


@functools.cache
def random_pc(seed):
    return nilpotent_quotient(parse_one(random_source(seed)), 3).pc


def normal_forms(pc):
    """Normal forms with at most six syllables, some exponents large."""
    exponents = st.one_of(st.integers(-5, 5), st.integers(-(10**6), 10**6))
    raw = st.dictionaries(st.integers(0, pc.ngens - 1), exponents, max_size=6)

    def normal(nf):
        out = {g: e if pc.orders[g] is None else e % pc.orders[g] for g, e in nf.items()}
        return {g: e for g, e in out.items() if e}

    return raw.map(normal)


def assert_matches_collection(pc, data):
    u, v = data.draw(normal_forms(pc)), data.draw(normal_forms(pc))
    assert pc.conjugate(u, v) == collected_conjugate(pc, u, v)
    assert pc.comm_nf(u, v) == four_factor_commutator(pc, u, v)
    assert pc.left_quotient(u, v) == pc.mul(pc.inv(u), v)


@pytest.mark.parametrize("case", CASES, ids=case_id)
@settings(deadline=None)
@given(data=st.data())
def test_conjugate_and_commutator_match_collection(case, data):
    assert_matches_collection(catalog_pc(case), data)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_conjugate_and_commutator_match_collection_in_random_quotients(data):
    pc = random_pc(data.draw(st.integers(0, RANDOM_SEEDS - 1)))
    assert_matches_collection(pc, data)


def low_conjugators(pc, data):
    """u over the generators from some m on, and v with a syllable below
    m whose exponent has several set bits, is negative, or is o - 1 for
    a generator of finite order o, so conjugate takes those syllables
    through the cached images one set bit at a time."""
    m = data.draw(st.integers(1, pc.ngens - 1))
    u = {g: e for g, e in data.draw(normal_forms(pc)).items() if g >= m}
    u[m] = data.draw(st.integers(1, 5)) if pc.orders[m] is None else pc.orders[m] - 1
    v = data.draw(normal_forms(pc))
    for g in data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3, unique=True)):
        o = pc.orders[g]
        choices = [o - 1] if o is not None else [-1, -7, -(2**20 + 5), 6, 2**30 + 7]
        if o is not None and o > 3:
            choices.append(3)
        v[g] = data.draw(st.sampled_from(choices))
    return {g: e for g, e in u.items() if e}, {g: e for g, e in v.items() if e}


@pytest.mark.parametrize("case", CASES, ids=case_id)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_conjugate_by_low_syllables_matches_collection(case, data):
    pc = catalog_pc(case)
    u, v = low_conjugators(pc, data)
    assert pc.conjugate(u, v) == collected_conjugate(pc, u, v)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_conjugate_by_low_syllables_matches_collection_in_random_quotients(data):
    pc = random_pc(data.draw(st.integers(0, RANDOM_SEEDS - 1)))
    assume(pc.ngens > 1)
    u, v = low_conjugators(pc, data)
    assert pc.conjugate(u, v) == collected_conjugate(pc, u, v)


def test_random_quotients_include_infinite_order():
    # the random sources must reach generators of infinite order, whose
    # conjugates by g^-1 the collected formulas take and conjugate avoids
    assert any(None in random_pc(seed).orders for seed in range(RANDOM_SEEDS))


LARGE_EXPONENTS = [-1, 5, -12, 2**40 + 3, -(10**15)]


def word_texts(names):
    """Relator text with nested commutators, powers of powers,
    conjugates, conjugates of conjugates and of powers, powers of
    conjugates and products; single generators take large exponents.
    A power's base is a product of two words, so that it is seldom a
    conjugate of one syllable, which powers without a shape."""
    atoms = st.one_of(
        st.sampled_from(names),
        st.builds("{}^{}".format, st.sampled_from(names), st.sampled_from(LARGE_EXPONENTS)),
    )
    exponents = st.integers(-3, 3)

    def extend(inner):
        return st.one_of(
            st.builds("[{}, {}]".format, inner, inner),
            st.builds("({}*{})^{}".format, inner, inner, exponents),
            st.builds("(({}*{})^{})^{}".format, inner, inner, exponents, exponents),
            st.builds("{}*{}".format, inner, inner),
            st.builds("({})^({})".format, inner, inner),
            st.builds("({})^({})^({})".format, inner, inner, inner),
            st.builds("(({}*{})^{})^({})".format, inner, inner, exponents, inner),
            st.builds("(({}*{})^({}))^{}".format, inner, inner, inner, exponents),
        )

    return st.recursive(atoms, extend, max_leaves=6)


@functools.cache
def reduced_cover(name, c):
    return build_cover(nilpotent_quotient(load_catalog(name), c))


def parse_relator(names, text):
    pres = parse_one("group g { generators: %s; fixed: %s; }" % (", ".join(names), text))
    (word,) = pres.fixed
    return word


def assert_evaluates_as_flat(cover, word):
    pc, images = cover.pc, cover.lift_images
    assert pc.evaluate(images, word) == flat_value(pc, images, word)


@pytest.mark.parametrize("name, c", COVERS, ids=["%s-%d" % case for case in COVERS])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_evaluate_by_shape_matches_flat_substitution(name, c, data):
    cover = reduced_cover(name, c)
    names = cover.pres.alphabet.names
    try:
        word = parse_relator(names, data.draw(word_texts(names)))
    except ParseError:
        assume(False)
    assert_evaluates_as_flat(cover, word)


# negative powers of shaped bases, and conjugates of conjugates and of
# powers, which random texts reach only now and then
SHAPED = [
    "((a*b)^2)^-3",
    "([a, b^-5]*b)^-2",
    "[[a, b]^-1, (a*b^2)^3]",
    "[a, b]^-1",
    "((a*b)^b^-1)^(a^3)^-2",
    "[a, b]^(b*a)^(a^-2*b)",
    "(a^b)^(a^-1)",
]


@pytest.mark.parametrize("name, c", COVERS, ids=["%s-%d" % case for case in COVERS])
def test_evaluate_negative_powers_of_shapes(name, c):
    cover = reduced_cover(name, c)
    for text in SHAPED:
        word = parse_relator(cover.pres.alphabet.names, text)
        assert word.shape is not None, text
        assert_evaluates_as_flat(cover, word)


def test_catalog_relators_keep_their_shape():
    # the relators the tower evaluates at every class are commutators
    # and powers, so evaluate takes them by their shape
    for name in ("grigorchuk", "twisted_twin", "basilica", "bsv"):
        pres = load_catalog(name)
        assert all(w.shape is not None for w in pres.iterated), name
