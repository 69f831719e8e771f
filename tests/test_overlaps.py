"""Overlap checks against the per-kind reference, on random presentations.

The presentations are weighted pc presentations on 3 to 6 generators
with relative orders in {None, 2, 3, 4} and random tails that satisfy
the index and weight conditions but not, as a rule, consistency, so
that most overlaps disagree.  Stored tails are normal forms, as the
module docstring of pcgroups requires.  Their generators are not
derived, so with prune set only the weight rule of
PcPresentation._overlap_triples applies to them; the covers of the
catalog exercise the rule for derived conjugators.
"""

from bisect import bisect_left
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from overlap_oracle import reference_overlap_checks

from lpres.covers import build_cover, impose_relators, trivial_system
from lpres.pcgroups import PcPresentation
from lpres.presentations import load_catalog


@st.composite
def presentations(draw):
    n = draw(st.integers(3, 6))
    weights = [1]
    for _ in range(n - 1):
        weights.append(weights[-1] + draw(st.integers(0, 1)))
    orders = [draw(st.sampled_from([None, 2, 3, 4])) for _ in range(n)]
    pc = PcPresentation(nfree=1)
    for g in range(n):
        pc.add_generator(orders[g], weights[g], ("free", g), (0,))

    def tail(gens):
        # a normal form over gens
        return {
            g: draw(st.integers(0, orders[g] - 1) if orders[g] else st.integers(-2, 2))
            for g in gens
        }

    for i in range(n):
        if orders[i] is not None:
            pc.set_power_tail(i, tail(range(i + 1, n)))
        for j in range(i + 1, n):
            # half the pairs commute, so that some commutator triples
            # have a conjugation relation in one pair only
            if draw(st.booleans()):
                gens = [g for g in range(j + 1, n) if weights[g] >= weights[i] + weights[j]]
                pc.set_conj_tail(i, j, tail(gens))
    return pc


def overlap_multiset(checks):
    def key(nf):
        return tuple(sorted(nf.items()))

    return Counter((kind, idx, frozenset((key(lhs), key(rhs)))) for kind, idx, lhs, rhs in checks)


def overweight(pc, kind, idx):
    """Whether the weight rule of the pruned checks skips the overlap:
    its weight sum, counting g_i twice in pow (i), exceeds nclass."""
    weight = sum(pc.weights[g] for g in idx)
    return (2 * weight if kind == "pow" else weight) > pc.nclass


@settings(max_examples=200)
@given(presentations())
def test_overlap_checks_match_the_per_kind_reference(pc):
    reference = list(reference_overlap_checks(pc, prune=True))
    kept = [item for item in reference if not overweight(pc, *item[:2])]
    pruned = list(pc.overlap_checks(prune=True))
    assert overlap_multiset(pruned) == overlap_multiset(kept)
    # the weight rule alone keeps every generator of the top weight out
    top = bisect_left(pc.weights, pc.nclass)
    assert all(g < top for _, idx, _, _ in pruned for g in idx)
    # the overlaps the weight rule skips agree on any presentation
    assert all(lhs == rhs for kind, idx, lhs, rhs in reference if overweight(pc, kind, idx))
    got = overlap_multiset(pc.overlap_checks(prune=False))
    assert got == overlap_multiset(reference_overlap_checks(pc, prune=False))


@pytest.mark.parametrize("name, c", [("grigorchuk", 5), ("basilica", 4), ("twisted_twin", 3)])
def test_pruned_checks_skip_exactly_overweight_and_derived_conjugators(name, c):
    """On catalog covers, whose generators of weight > 1 are derived,
    the pruned checks are the reference's minus the overweight overlaps
    and the comm and pow-conj overlaps whose conjugator g_i is derived."""
    system = trivial_system(load_catalog(name))
    for _ in range(c):
        cover = build_cover(system)
        pc = cover.pc
        derived = {g for g, d in enumerate(pc.definitions) if d[0] in ("conj", "pow")}
        kept = [
            (kind, idx, lhs, rhs)
            for kind, idx, lhs, rhs in reference_overlap_checks(pc, prune=True)
            if not overweight(pc, kind, idx)
            and not (kind in ("comm", "pow-conj") and idx[-1] in derived)
        ]
        assert overlap_multiset(pc.overlap_checks(prune=True)) == overlap_multiset(kept)
        system = impose_relators(cover)


def test_derived_conjugator_with_a_broken_definition_is_an_error():
    system = trivial_system(load_catalog("grigorchuk"))
    for _ in range(5):
        system = impose_relators(build_cover(system))
    pc = system.pc.copy()
    g = next(g for g, d in enumerate(pc.definitions) if d[0] == "conj")
    _, i, j = pc.definitions[g]
    assert pc.is_consistent()
    # drop the defined generator from its defining relation
    pc.set_conj_tail(i, j, {h: e for h, e in pc.conj[(i, j)].items() if h != g})
    with pytest.raises(AssertionError, match="defining relation lost its generator"):
        pc.is_consistent()
