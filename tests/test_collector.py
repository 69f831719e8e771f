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
import random

import pytest

pytest.importorskip("hypothesis")
from collector_oracle import ReferenceCollector
from hypothesis import given
from hypothesis import strategies as st

from lpres.covers import _apply_central_rows, build_cover
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
    # deeper covers, whose segments stop short of generators of several
    # weights that commute with the collected one by weight
    ("basilica", 8, True),
    ("twisted_twin", 6, True),
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
            # nf * g^e = g^e * nf^(g^e), with g^e split into +-2^k syllables
            assert pc._collect(dict(nf), [(g, e)]) == pc.mul(pc.pow_nf({g: 1}, e), step), (g, e)


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


def test_memo_is_cleared_when_a_relation_changes():
    # the collector keeps powered tails and powered conjugates under the
    # presentation state they were collected in: warm that memo in a
    # changed state, restore the relation, and every product must again
    # match a reference that has never seen the change; the relations
    # changed are the power tails of a generator of weight 1 and of one
    # of the top weight, and a conjugation relation
    pres = parse_one(SOURCES["square_bc"])
    cover = build_cover(nilpotent_quotient(pres, 2))
    pc = cover.pc
    rng = random.Random(5)

    def sample():
        elements = []
        for _ in range(5):
            u = {g: rng.randint(-2, 2) if o is None else rng.randrange(o) for g, o in enumerate(pc.orders)}
            elements.append({g: e for g, e in u.items() if e})
        return elements

    def top_tails():
        return [g for g in sorted(pc.power_tails) if pc.weights[g] == pc.nclass]

    def assert_matches(collector, elements):
        for u in elements:
            assert pc.inv(u) == collector.inv(u)
            for k in (-3, 2, 3):
                assert pc.pow_nf(u, k) == collector.pow_nf(u, k)
            for v in elements:
                assert pc.mul(u, v) == collector.mul(u, v)
            # carry the power tail of a top-weight generator 2 and 3 times
            for g in top_tails():
                for k in (2, 3):
                    v = {g: k * pc.orders[g]}
                    assert pc.mul(u, v) == collector.mul(u, v)

    def warm_in(change, undo):
        # start cold, so that the memo is filled in the changed state
        pc.clear_caches()
        change()
        assert_matches(pc, elements)
        assert any(len(k) == 2 and k[1] not in (0, 1) for k in pc._cache), "no carry past 0, 1"
        # a 4-tuple key also holds g_j^f itself when g_j commutes with
        # the conjugator; a conjugate power is an entry that differs
        assert any(
            len(k) == 4 and k[3] not in (0, 1) and v != [(k[2], k[3])] for k, v in pc._cache.items()
        ), "no conjugate power"
        assert any(
            len(k) == 2 and k[1] >= 2 and pc.weights[k[0]] == pc.nclass for k in pc._cache
        ), "no top-weight carry past 1"
        undo()
        assert_matches(ReferenceCollector(pc), elements)

    elements = sample()
    tail = pc.power_tails[0]
    warm_in(lambda: pc.set_power_tail(0, dict(list(tail.items())[:1])), lambda: pc.set_power_tail(0, tail))
    (i, j), conj_tail = min(pc.conj.items())
    warm_in(lambda: pc.set_conj_tail(i, j, {}), lambda: pc.set_conj_tail(i, j, conj_tail))
    t = top_tails()[0]
    top_tail = pc.power_tails[t]
    assert len(top_tail) > 1
    warm_in(
        lambda: pc.set_power_tail(t, dict(list(top_tail.items())[:1])),
        lambda: pc.set_power_tail(t, top_tail),
    )

    # the central block: impose the relator lattice on the warmed cover
    # in place, so that generators are dropped and renumbered under it
    assert_matches(pc, elements)
    rows = [dict(enumerate(r)) for r in cover.relator_lattice.rows]
    _apply_central_rows(pc, cover.lift_images, cover.base_ngens, rows)
    elements = sample()
    assert_matches(ReferenceCollector(pc), elements)


def test_extending_a_presentation_drops_its_segment_bounds():
    # the segment of g ends at the first generator of weight above
    # nclass - w_g; collect in the free nilpotent group of class 2 on
    # a, b, then extend it in place to class 3 with [c, a] and [c, b]
    # for c = [b, a], of order 4, and every product must follow the new
    # class; then change relations in place, each change keeping the
    # presentation consistent, and every product must follow the change
    # with the memo of the previous state warm
    pc = nilpotent_quotient(parse_one("group f { generators: a, b; }"), 2).pc
    assert pc.weights == [1, 1, 2] and pc.conj == {(0, 1): {2: 1}}
    rng = random.Random(17)

    def assert_matches(pc):
        ref = ReferenceCollector(pc)
        elements = [
            {g: rng.randint(-3, 3) if o is None else rng.randrange(o) for g, o in enumerate(pc.orders)}
            for _ in range(6)
        ]
        elements = [{g: e for g, e in u.items() if e} for u in elements]
        for u in elements:
            assert pc.inv(u) == ref.inv(u)
            assert pc.pow_nf(u, 3) == ref.pow_nf(u, 3)
            for v in elements:
                assert pc.mul(u, v) == ref.mul(u, v)

    assert_matches(pc)
    for j in (0, 1):
        g = pc.add_generator(4, 3, ("conj", j, 2), (0, 0))
        pc.set_conj_tail(j, 2, {g: 1})
    assert pc.mul({2: 1}, {0: 1}) == {0: 1, 2: 1, 3: 1}
    assert_matches(pc)
    # c^a = c * [c, a]^-1: the class-3 layer is central, so this only
    # renames [c, a]
    pc.set_conj_tail(0, 2, {3: 3})
    assert pc.mul({2: 1}, {0: 1}) == {0: 1, 2: 1, 3: 3}
    assert_matches(pc)
    # [c, a]^4 = [c, b]^2, a quotient by a central subgroup
    pc.set_power_tail(3, {4: 2})
    assert pc.mul({3: 2}, {3: 2}) == {4: 2}
    assert_matches(pc)
    # a relation changed in place, then the caches dropped
    pc.conj[(1, 2)] = {4: 3}
    pc.clear_caches()
    assert pc.mul({2: 1}, {1: 1}) == {1: 1, 2: 1, 4: 3}
    assert_matches(pc)


def test_collection_past_one_machine_word():
    # the class-4 quotient of the free product of six cyclic groups of
    # order 4 has 406 pc generators, 91 of which some segment can reach,
    # so the bits of a word's reachable generators do not fit in 64
    pres = parse_one("group g { generators: a, b, c, d, e, f; fixed: a^4, b^4, c^4, d^4, e^4, f^4; }")
    pc = nilpotent_quotient(pres, 4).pc
    ref = ReferenceCollector(pc)
    top = pc._segment_masks()[0].bit_length()
    assert (pc.ngens, top) == (406, 91)
    rng = random.Random(3)

    def element(size):
        u = {g: rng.randrange(pc.orders[g]) for g in rng.sample(range(pc.ngens), size)}
        return {g: e for g, e in u.items() if e}

    elements = [element(12) for _ in range(4)]
    for u in elements:
        assert pc.inv(u) == ref.inv(u)
        for k in (-3, 2, 5):
            assert pc.pow_nf(u, k) == ref.pow_nf(u, k)
        for v in elements:
            assert pc.mul(u, v) == ref.mul(u, v)
    # one syllable collected in place onto a word that already holds
    # top-weight generators, as left_quotient does
    for _ in range(20):
        u = element(20)
        u.update((g, rng.randrange(1, pc.orders[g])) for g in rng.sample(range(top, pc.ngens), 5))
        g = rng.randrange(top)
        e = rng.randrange(1, pc.orders[g])
        expected = ref.mul(u, {g: e})
        assert pc._collect(dict(u), [(g, e)]) == expected
