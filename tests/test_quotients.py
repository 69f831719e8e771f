"""Nilpotent quotient tower against independently known groups."""

import inspect
import random
import sys

import pytest
from relator_oracle import spun_relators

from lpres.lattices import AbelianInvariants
from lpres.presentations import load_catalog, parse_one
from lpres.quotients import (
    abelian_quotient,
    induce_endomorphism,
    nilpotent_quotient,
    quotient_tower,
)
from lpres.words import Word


def test_free_group_quotients_have_witt_ranks():
    """Free nilpotent groups of rank two: layer ranks 2, 1, 2, 3, 6.

    The ranks count the basic commutators of each weight, a classical
    closed form that the tower must reproduce exactly.
    """
    pres = parse_one("group free2 { generators: a, b; }")
    system = nilpotent_quotient(pres, 5)
    assert [f.render() for f in system.lcs_factors()] == [
        "Z^2",
        "Z",
        "Z^2",
        "Z^3",
        "Z^6",
    ]
    assert system.pc.is_consistent(prune=False)


def test_four_hundred_pc_generators_collect_without_recursion():
    """<a..f | a^4, ..., f^4> to class 4 has 6 + 15 + 70 + 315 = 406 pc
    generators.  Building it runs under a recursion limit only 100
    frames above the caller's, so collection that nested once per
    generator would raise RecursionError here."""
    names = "abcdef"
    pres = parse_one(
        "group g { generators: %s; fixed: %s; }"
        % (", ".join(names), ", ".join(x + "^4" for x in names))
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        system = nilpotent_quotient(pres, 4)
    finally:
        sys.setrecursionlimit(limit)
    assert system.pc.ngens == 406
    assert [f.render() for f in system.lcs_factors()[:2]] == ["(Z_4)^6", "(Z_4)^15"]


def test_heisenberg_presentation_stabilizes_at_class_two():
    pres = parse_one("group heis { generators: a, b; fixed: [[a, b], a], [[a, b], b]; }")
    system = nilpotent_quotient(pres, 5)
    assert system.nclass == 2
    assert [f.render() for f in system.lcs_factors()] == ["Z^2", "Z"]


def test_dihedral_tower():
    pres = parse_one("group dih16 { generators: a, b; fixed: a^2, b^2, (a*b)^8; }")
    system = nilpotent_quotient(pres, 3)
    assert system.order() == 16
    assert [f.render() for f in system.lcs_factors()] == ["(Z_2)^2", "Z_2", "Z_2"]


def test_quotient_orders_multiply_along_layers():
    pres = load_catalog("grigorchuk")
    for c, system in quotient_tower(pres, 4):
        total = 1
        for f in system.lcs_factors():
            total *= f.order()
        assert total == system.order()
        assert system.nclass == c


def test_abelian_quotients_of_catalog():
    expect = {
        "grigorchuk": AbelianInvariants(0, (2, 2, 2)),
        "twisted_twin": AbelianInvariants(0, (2, 2, 2, 2)),
        "grigorchuk_supergroup": AbelianInvariants(0, (2, 2, 2, 2)),
        "basilica": AbelianInvariants(2, ()),
        "bsv": AbelianInvariants(2, ()),
    }
    for name, inv in expect.items():
        pres = load_catalog(name)
        assert abelian_quotient(pres) == inv
        assert nilpotent_quotient(pres, 1).abelian_invariants() == inv


def test_class_one_quotient_matches_abelianization_random():
    """Power tails inside the weight-1 block must count in the layer."""
    rng = random.Random(20261018)
    for _ in range(200):
        names = "abc"[: rng.randrange(2, 4)]
        fixed = ", ".join(
            "*".join(
                "%s^%d" % (rng.choice(names), rng.randint(-6, 6))
                for _ in range(rng.randrange(1, 5))
            )
            for _ in range(rng.randrange(1, 4))
        )
        pres = parse_one("group r { generators: %s; fixed: %s; }" % (", ".join(names), fixed))
        assert nilpotent_quotient(pres, 1).abelian_invariants() == abelian_quotient(pres), fixed


def test_class_one_images_generate():
    pres = load_catalog("grigorchuk")
    system = nilpotent_quotient(pres, 1)
    assert system.images[0] == {0: 1}
    assert system.images[2] == {1: 1}
    assert system.images[3] == {2: 1}
    # the eliminated generator maps to the product of the others
    assert system.images[1] == {1: 1, 2: 1}


def test_image_of_word_is_a_homomorphism():
    pres = load_catalog("basilica")
    system = nilpotent_quotient(pres, 4)
    rng = random.Random(20240906)
    names = pres.alphabet.names

    def image(w):
        return system.pc.substitute(system.images, w.syllables)

    for _ in range(25):
        u = Word.identity(pres.alphabet)
        v = Word.identity(pres.alphabet)
        for _ in range(rng.randrange(1, 6)):
            u = u * pres.alphabet.word(rng.choice(names)) ** rng.choice([-1, 1, 2])
            v = v * pres.alphabet.word(rng.choice(names)) ** rng.choice([-1, 1, 2])
        assert image(u * v) == system.pc.mul(image(u), image(v))


def test_relators_die_in_quotients():
    for name in ["grigorchuk", "twisted_twin", "basilica", "bsv"]:
        pres = load_catalog(name)
        system = nilpotent_quotient(pres, 3)
        for w in spun_relators(pres, 4):
            assert system.pc.substitute(system.images, w.syllables) == {}


def test_induced_endomorphism_validates():
    pres = load_catalog("grigorchuk")
    system = nilpotent_quotient(pres, 3)
    sigma = dict(pres.endomorphisms)["sigma"]
    ims = induce_endomorphism(system, sigma)
    assert len(ims) == system.pc.ngens
    # the induced map tracks the free-level endomorphism on every word
    rng = random.Random(20240907)
    names = pres.alphabet.names

    def map_nf(nf):
        out = {}
        for h in sorted(nf):
            out = system.pc.mul(out, system.pc.pow_nf(ims[h], nf[h]))
        return out

    def image(w):
        return system.pc.substitute(system.images, w.syllables)

    for _ in range(15):
        w = Word.identity(pres.alphabet)
        for _ in range(rng.randrange(1, 7)):
            w = w * pres.alphabet.word(rng.choice(names)) ** rng.choice([-1, 1])
        assert map_nf(image(w)) == image(sigma(w))


def test_induced_endomorphism_rejects_non_invariant():
    src = """
    group swap {
      generators: a, b;
      invariant: true;
      fixed: a^2;
      endomorphism sigma: a -> b, b -> a;
    }
    """
    pres = parse_one(src)
    system = nilpotent_quotient(pres, 1)
    with pytest.raises(ValueError, match="ill-defined image"):
        induce_endomorphism(system, dict(pres.endomorphisms)["sigma"])
    # the tower itself needs the induced maps to spin relators, so it
    # surfaces the same defect when asked to go deeper
    with pytest.raises(ValueError, match="ill-defined image"):
        nilpotent_quotient(pres, 2)


@pytest.mark.parametrize(
    "relations, images",
    [
        # breaks the stored conjugation relation (0, 1)
        ("fixed: b*a^-1*c", "a -> a*c, b -> b, c -> c*c"),
        # breaks the commuting pair (0, 2), which stores no relation
        ("fixed: [a, c]", "a -> b*a, b -> b*b, c -> b"),
    ],
)
def test_induced_endomorphism_rejects_broken_conjugation_relations(relations, images):
    pres = parse_one(
        "group t { generators: a, b, c; invariant: true; %s; endomorphism s: %s; }"
        % (relations, images)
    )
    system = nilpotent_quotient(pres, 2)
    with pytest.raises(ValueError, match="ill-defined image"):
        induce_endomorphism(system, dict(pres.endomorphisms)["s"])


def test_nilpotent_quotient_rejects_negative_class():
    pres = load_catalog("basilica")
    with pytest.raises(ValueError):
        nilpotent_quotient(pres, -1)


def test_class_zero_is_trivial():
    pres = load_catalog("basilica")
    system = nilpotent_quotient(pres, 0)
    assert system.order() == 1
    assert system.nclass == 0
