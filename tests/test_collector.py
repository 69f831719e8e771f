"""The collector against the recursive, repeated-conjugation reference.

PcPresentation collects in one loop over a stack of syllables and
conjugates by g^e through the cached images of each generator under
conjugation by g^(+-2^k); ReferenceCollector (collector_oracle.py)
recurses through mul_gen and conjugates abs(e) times by g^(+-1).  In a
consistent presentation both must give the same normal forms.  The
cases include long segments, power tails whose syllables do not
commute, and covers whose central generators carry into power tails
inside the central block.
"""

import functools

import pytest

pytest.importorskip("hypothesis")
from collector_oracle import ReferenceCollector
from hypothesis import given
from hypothesis import strategies as st

from lpres.covers import build_cover
from lpres.presentations import load_catalog, parse_one
from lpres.quotients import nilpotent_quotient

SOURCES = {
    "quat8": "group quat8 { generators: a, b; fixed: a^4, b^2*a^-2, a^b*a; }",
    "heisenberg": "group heis { generators: a, b; fixed: [[a, b], a], [[a, b], b]; }",
    "power12": "group g { generators: a, b; invariant: true; fixed: (b^a)^12; }",
    # a^2 = b*c with b and c not commuting, so a carry of a raises a
    # power tail whose syllables do not commute; its cover has central
    # generators whose power tails carry within the central block
    "square_bc": "group g { generators: a, b, c; fixed: a^2*c^-1*b^-1, b^4, c^4; }",
}

# (group, class, whether to take the cover of that quotient); the covers
# have a central block, so central syllables are exercised as well
CASES = [
    ("grigorchuk", 3, False),
    ("twisted_twin", 2, False),
    ("grigorchuk_supergroup", 2, False),
    ("basilica", 2, False),
    ("bsv", 2, False),
    ("quat8", 2, False),
    ("heisenberg", 2, False),
    ("power12", 3, False),
    ("quat8", 2, True),
    ("power12", 2, True),
    # longer segments, and power tails that carry into the central block
    ("grigorchuk", 8, False),
    ("grigorchuk", 8, True),
    ("basilica", 4, True),
    ("bsv", 4, True),
    ("twisted_twin", 4, True),
    ("square_bc", 3, False),
    ("square_bc", 2, True),
]

BIG = 10**4
# The reference is linear in every exponent it conjugates by, and a
# product compounds the exponents of infinite-order generators, so
# those get a smaller bound (and so do powers of elements that have
# them) to keep each example within a fraction of a second.
SMALL = 40
SMALL_POWER = 4


def case_id(case):
    name, c, cover = case
    return "%s-%d%s" % (name, c, "-cover" if cover else "")


@functools.cache
def collectors(case):
    name, c, cover = case
    pres = parse_one(SOURCES[name]) if name in SOURCES else load_catalog(name)
    system = nilpotent_quotient(pres, c)
    pc = build_cover(system).pc if cover else system.pc
    return pc, ReferenceCollector(pc)


def words(pc):
    syllables = [
        st.tuples(st.just(g), st.integers(-SMALL, SMALL) if o is None else st.integers(-BIG, BIG))
        for g, o in enumerate(pc.orders)
    ]
    return st.lists(st.one_of(syllables), max_size=4)


def reference_value(ref, word):
    out = {}
    for g, e in word:
        out = ref.mul(out, ref.pow_nf({g: 1}, e))
    return out


@pytest.mark.parametrize("case", CASES, ids=case_id)
@given(data=st.data())
def test_collection_matches_the_reference(case, data):
    pc, ref = collectors(case)
    u_word, v_word = data.draw(words(pc)), data.draw(words(pc))
    u, v = reference_value(ref, u_word), reference_value(ref, v_word)
    units = [{g: 1} for g in range(pc.ngens)]
    assert pc.substitute(units, u_word) == u
    assert pc.substitute(units, v_word) == v
    assert pc.mul(u, v) == ref.mul(u, v)
    assert pc.inv(u) == ref.inv(u)
    bound = SMALL_POWER if any(pc.orders[g] is None for g in u) else BIG
    k = data.draw(st.integers(-bound, bound))
    assert pc.pow_nf(u, k) == ref.pow_nf(u, k)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_powered_conjugation_equals_repeated_conjugation(case):
    pc, _ = collectors(case)
    for g in range(pc.ngens - 1):
        nf = {j: 1 + j % 3 for j in range(g + 1, pc.ngens)}
        nf = {j: e if pc.orders[j] is None else e % pc.orders[j] for j, e in nf.items()}
        nf = {j: e for j, e in nf.items() if e}
        for e in (-7, -1, 0, 1, 2, 5, 64, 1000):
            step = nf
            for _ in range(abs(e)):
                step = pc._conj_nf(step, g, 1 if e > 0 else -1)
            assert pc._conj_nf(nf, g, e) == step, (g, e)


def test_cold_high_level_conjugation_needs_no_deep_stack():
    # conjugation by a^(2^3000) on an empty cache builds 3000 levels;
    # in the Heisenberg group b^(a^e) = b * c^e with c = [b, a]^+-1
    pc, _ = collectors(("heisenberg", 2, False))
    (c, sign), = pc.conj[(0, 1)].items()
    e = 2**3000
    pc.clear_caches()
    assert pc._conj_nf({1: 1}, 0, e) == {1: 1, c: sign * e}
    pc.clear_caches()
    assert pc._conj_nf({1: 1}, 0, -e) == {1: 1, c: -sign * e}
