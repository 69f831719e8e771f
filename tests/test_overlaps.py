"""Overlap checks against the per-kind reference, on random presentations.

The presentations are weighted pc presentations on 3 to 6 generators
with relative orders in {None, 2, 3, 4} and random tails that satisfy
the index and weight conditions but not, as a rule, consistency, so
that most overlaps disagree.  Stored tails are normal forms, as the
module docstring of pcgroups requires.
"""

from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from overlap_oracle import reference_overlap_checks

from lpres.pcgroups import PcPresentation


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


@settings(max_examples=200)
@given(presentations())
def test_overlap_checks_match_the_per_kind_reference(pc):
    for prune in (True, False):
        got = overlap_multiset(pc.overlap_checks(prune=prune))
        assert got == overlap_multiset(reference_overlap_checks(pc, prune=prune))
