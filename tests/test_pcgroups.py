"""Collection, consistency checks, and layer invariants for pc presentations."""

import random

import pytest

from lpres.lattices import AbelianInvariants
from lpres.pcgroups import PcPresentation
from lpres.words import Alphabet, Word


def dihedral8():
    """D4 on s, r, r^2: s^2 = 1, r^2 = g3, g3^2 = 1, r^s = r*g3."""
    pc = PcPresentation(nfree=2)
    pc.add_generator(order=2, weight=1, definition=("free", 0), ab_image=(1, 0))
    pc.add_generator(order=2, weight=1, definition=("free", 1), ab_image=(0, 1))
    pc.add_generator(order=2, weight=2, definition=("pow", 1), ab_image=(0, 2))
    pc.set_power_tail(1, {2: 1})
    pc.set_conj_tail(0, 1, {2: 1})
    return pc


def heisenberg():
    """Free class-2 nilpotent on x, y: [y, x] = z, z central of infinite order."""
    pc = PcPresentation(nfree=2)
    pc.add_generator(order=None, weight=1, definition=("free", 0), ab_image=(1, 0))
    pc.add_generator(order=None, weight=1, definition=("free", 1), ab_image=(0, 1))
    pc.add_generator(order=None, weight=2, definition=("conj", 0, 1), ab_image=(0, 0))
    pc.set_conj_tail(0, 1, {2: 1})
    return pc


def broken_presentation():
    """x^2 = y^2 = 1 and [y, x] = z with z of order 3: inconsistent."""
    pc = PcPresentation(nfree=2)
    pc.add_generator(order=2, weight=1, definition=("free", 0), ab_image=(1, 0))
    pc.add_generator(order=2, weight=1, definition=("free", 1), ab_image=(0, 1))
    pc.add_generator(order=3, weight=2, definition=("conj", 0, 1), ab_image=(0, 0))
    pc.set_conj_tail(0, 1, {2: 1})
    return pc


def random_nf(rng, pc, max_exp=3):
    nf = {}
    for g in range(pc.ngens):
        o = pc.orders[g]
        hi = (o - 1) if o is not None else max_exp
        e = rng.randint(0, hi) if o is not None else rng.randint(-max_exp, max_exp)
        if e:
            nf[g] = e
    return nf


def test_tail_validation():
    pc = dihedral8()
    with pytest.raises(ValueError, match="above its own"):
        pc.set_power_tail(1, {1: 1})
    with pytest.raises(ValueError, match="above the conjugated"):
        pc.set_conj_tail(0, 1, {0: 1})
    pc.add_generator(order=2, weight=2, definition=("conj", 0, 2), ab_image=(0, 0))
    with pytest.raises(ValueError, match="weight at least"):
        pc.set_conj_tail(0, 2, {3: 1})
    with pytest.raises(ValueError, match="i < j"):
        pc.set_conj_tail(1, 0, {2: 1})
    with pytest.raises(ValueError, match="non-decreasing"):
        pc.add_generator(order=2, weight=1, definition=("pow", 0), ab_image=(0, 0))


@pytest.mark.parametrize("weight", [0, -1])
def test_weights_start_at_one(weight):
    # the weight rule of collection and of the pruned overlaps needs
    # every weight to be at least 1
    pc = PcPresentation(nfree=1)
    with pytest.raises(ValueError, match="at least 1"):
        pc.add_generator(order=None, weight=weight, definition=("free", 0), ab_image=(1,))
    assert pc.ngens == 0


def test_dihedral_collection():
    pc = dihedral8()
    s, r = {0: 1}, {1: 1}
    # r*s collects to s*r*g3
    assert pc.mul(r, s) == {0: 1, 1: 1, 2: 1}
    # (s*r)^2 = 1
    sr = pc.mul(s, r)
    assert pc.mul(sr, sr) == {}
    # r has order 4 through the tail
    assert pc.pow_nf(r, 2) == {2: 1}
    assert pc.pow_nf(r, 4) == {}
    assert pc.inv(r) == {1: 1, 2: 1}


def test_dihedral_is_consistent_and_counts():
    pc = dihedral8()
    assert pc.is_consistent(prune=False)
    assert pc.order() == 8
    # all eight normal forms are distinct group elements: multiply out a
    # regular representation check on a few random pairs
    rng = random.Random(5)
    seen = set()
    for e0 in range(2):
        for e1 in range(2):
            for e2 in range(2):
                nf = {}
                if e0:
                    nf[0] = e0
                if e1:
                    nf[1] = e1
                if e2:
                    nf[2] = e2
                seen.add(tuple(sorted(nf.items())))
    assert len(seen) == 8
    for _ in range(40):
        u, v, w = (random_nf(rng, pc) for _ in range(3))
        assert pc.mul(pc.mul(u, v), w) == pc.mul(u, pc.mul(v, w))


def test_heisenberg_commutator_convention():
    pc = heisenberg()
    x, y, z = {0: 1}, {1: 1}, {2: 1}
    # stored conjugation relation means [y, x] = z
    assert pc.comm_nf(y, x) == z
    assert pc.comm_nf(x, y) == pc.inv(z)
    # x^-5 y^3 x^5 = y^3 z^15
    lhs = pc.mul(pc.mul(pc.pow_nf(x, -5), pc.pow_nf(y, 3)), pc.pow_nf(x, 5))
    assert lhs == {1: 3, 2: 15}


def test_heisenberg_properties_random():
    pc = heisenberg()
    assert pc.is_consistent(prune=False)
    rng = random.Random(9)
    for _ in range(60):
        u, v, w = (random_nf(rng, pc) for _ in range(3))
        assert pc.mul(pc.mul(u, v), w) == pc.mul(u, pc.mul(v, w))
        assert pc.mul(u, pc.inv(u)) == {}
        assert pc.mul(pc.inv(u), u) == {}
        k = rng.randint(-4, 4)
        direct = {}
        for _ in range(abs(k)):
            direct = pc.mul(direct, u if k > 0 else pc.inv(u))
        assert pc.pow_nf(u, k) == direct


def test_central_merge_cascades():
    # two central generators of order 2, the top weight block, where the
    # first's tail feeds the second
    pc = PcPresentation(nfree=1)
    pc.add_generator(order=None, weight=1, definition=("free", 0), ab_image=(1,))
    pc.add_generator(order=2, weight=2, definition=("pow", 0), ab_image=(2,))
    pc.add_generator(order=2, weight=2, definition=("pow", 1), ab_image=(4,))
    pc.set_power_tail(1, {2: 1})
    # g2^2 = g3, g3^2 = 1, so g2^4 = 1 and g2^3 = g2*g3
    g2 = {1: 1}
    assert pc.pow_nf(g2, 2) == {2: 1}
    assert pc.pow_nf(g2, 3) == {1: 1, 2: 1}
    assert pc.pow_nf(g2, 4) == {}
    assert pc.pow_nf(g2, -1) == {1: 1, 2: 1}


def test_inconsistent_presentation_detected():
    pc = broken_presentation()
    kinds = {kind for kind, _, lhs, rhs in pc.overlap_checks(prune=False) if lhs != rhs}
    assert kinds
    assert "pow-conj" in kinds or "conj-pow" in kinds


def test_pruned_checks_match_unpruned_on_consistent_groups():
    for pc in (dihedral8(), heisenberg()):
        for prune in (True, False):
            assert [lhs for _, _, lhs, rhs in pc.overlap_checks(prune=prune) if lhs != rhs] == []


def test_substitute_word():
    pc = heisenberg()
    alph = Alphabet(["u", "v"])
    word = Word(alph, ((0, 1), (1, 1), (0, -1), (1, -1)))  # u v u^-1 v^-1 = [u^-1, v^-1]
    images = [{0: 1}, {1: 1}]
    # x y x^-1 y^-1 = [y, x]^{-1} conjugated; direct collection:
    expected = pc.mul(
        pc.mul({0: 1}, {1: 1}),
        pc.mul(pc.inv({0: 1}), pc.inv({1: 1})),
    )
    assert pc.substitute(images, word.syllables) == expected
    assert pc.substitute(images, Word.identity(alph).syllables) == {}


def test_lcs_factors_and_order():
    d4 = dihedral8()
    assert d4.lcs_factors() == [AbelianInvariants(0, (2, 2)), AbelianInvariants(0, (2,))]
    assert d4.abelian_invariants() == AbelianInvariants(0, (2, 2))
    h = heisenberg()
    assert h.lcs_factors() == [AbelianInvariants(2, ()), AbelianInvariants(1, ())]
    assert h.order() is None
    assert d4.order() == 8


def test_copy_is_deep():
    pc = dihedral8()
    twin = pc.copy()
    twin.set_conj_tail(0, 1, {})
    assert pc.conj == {(0, 1): {2: 1}}
    assert (0, 1) not in twin.conj
    twin.orders[0] = 4
    assert pc.orders[0] == 2
