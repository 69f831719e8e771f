"""Covers of nilpotent quotients checked against textbook multipliers."""

import random

import pytest
from conftest import ACCEPTANCE_CLASSES
from echelon_oracle import ReferenceEchelon
from relator_oracle import spun_relators

from lpres import covers
from lpres.covers import build_cover, impose_relators, lift_through_definitions, trivial_system
from lpres.lattices import AbelianInvariants, _SparseEchelon, echelon, hnf_sparse, smith_invariants
from lpres.pcgroups import PcPresentation
from lpres.presentations import load_catalog, parse_one
from lpres.words import Word


def tower(pres, c):
    """Quotient of class c, by repeated extension and imposition."""
    system = trivial_system(pres)
    for _ in range(c):
        system = impose_relators(build_cover(system))
    return system


def random_word(rng, alphabet, length):
    syllables = []
    for _ in range(length):
        name = rng.choice(alphabet.names)
        syllables.append(alphabet.word(name) ** rng.choice([-2, -1, 1, 2]))
    out = Word.identity(alphabet)
    for s in syllables:
        out = out * s
    return out


def test_cover_of_trivial_quotient_is_free_abelian():
    pres = load_catalog("grigorchuk")
    cover = build_cover(trivial_system(pres))
    assert cover.base_ngens == 0
    assert cover.central_dim == 4
    assert smith_invariants(cover.torsion_rows(), cover.central_dim) == AbelianInvariants(4, ())
    assert cover.multiplier_invariants().is_trivial()
    # every free generator lifts to its own central generator
    assert cover.lift_images == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]


def test_free_group_multiplier_of_Z2():
    # the abelianization of a free group of rank two has multiplier Z,
    # and its cover is the free nilpotent group of class two
    pres = parse_one("group free2 { generators: a, b; }")
    sys1 = tower(pres, 1)
    assert sys1.abelian_invariants() == AbelianInvariants(2, ())
    cover = build_cover(sys1)
    assert cover.multiplier_invariants() == AbelianInvariants(1, ())
    sys2 = impose_relators(cover)
    assert [f.render() for f in sys2.lcs_factors()] == ["Z^2", "Z"]


def test_klein_four_multiplier():
    pres = parse_one("group klein { generators: a, b; fixed: a^2, b^2, (a*b)^2; }")
    sys1 = tower(pres, 1)
    assert sys1.abelian_invariants() == AbelianInvariants(0, (2, 2))
    cover = build_cover(sys1)
    assert cover.multiplier_invariants() == AbelianInvariants(0, (2,))
    # the relators kill the class-two layer: the group is abelian
    sys2 = impose_relators(cover)
    assert sys2.nclass == 1
    assert sys2.order() == 4


def test_dihedral_multiplier():
    pres = parse_one("group dih8 { generators: a, b; fixed: a^2, b^2, (a*b)^4; }")
    sys2 = tower(pres, 2)
    assert sys2.order() == 8
    assert [f.render() for f in sys2.lcs_factors()] == ["(Z_2)^2", "Z_2"]
    cover = build_cover(sys2)
    assert cover.multiplier_invariants() == AbelianInvariants(0, (2,))


def test_quaternion_multiplier_is_trivial():
    pres = parse_one("group quat8 { generators: a, b; fixed: a^4, b^2*a^-2, a^b*a; }")
    sys2 = tower(pres, 2)
    assert sys2.order() == 8
    assert sys2.abelian_invariants() == AbelianInvariants(0, (2, 2))
    cover = build_cover(sys2)
    assert cover.multiplier_invariants().is_trivial()


def test_direct_product_multiplier():
    # Z_4 x Z_2 has multiplier Z_gcd(4, 2)
    pres = parse_one("group z4z2 { generators: a, b; fixed: a^4, b^2, [a, b]; }")
    sys1 = tower(pres, 1)
    assert sys1.order() == 8
    cover = build_cover(sys1)
    assert cover.multiplier_invariants() == AbelianInvariants(0, (2,))


def test_grigorchuk_class1_cover():
    """The cover of the class-1 quotient, checked entry by entry."""
    pres = load_catalog("grigorchuk")
    cover = build_cover(tower(pres, 1))
    pc = cover.pc
    assert cover.base_ngens == 3
    assert cover.central_dim == 7
    assert pc.definitions[3:] == [
        ("pow", 0),
        ("pow", 1),
        ("pow", 2),
        ("conj", 0, 1),
        ("conj", 0, 2),
        ("conj", 1, 2),
        ("freetail", 1),
    ]
    # the power corrections and the redundant-generator correction stay
    # free; consistency forces order two on the commutator corrections
    assert pc.orders == [2, 2, 2, None, None, None, 2, 2, 2, None]
    section = smith_invariants(cover.torsion_rows(), cover.central_dim)
    assert section == AbelianInvariants(4, (2, 2, 2))
    assert cover.multiplier_invariants() == AbelianInvariants(0, (2, 2, 2))
    assert cover.mu_rows() == [
        [2, 0, 0, 0],
        [0, 0, 2, 0],
        [0, 0, 0, 2],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 1, -1, -1],
    ]
    assert sorted(cover.torsion_rows()) == [
        [0, 0, 0, 0, 0, 2, 0],
        [0, 0, 0, 0, 2, 0, 0],
        [0, 0, 0, 2, 0, 0, 0],
    ]
    assert pc.is_consistent(prune=False)


def assert_normal_forms(pc, images):
    """Every stored power tail, conjugation tail and image is a normal
    form: exponents of finite-order generators lie in [0, order), and a
    tail uses only generators above its own."""

    def check(nf, above):
        for g, e in nf.items():
            assert g > above
            assert pc.orders[g] is None or 0 <= e < pc.orders[g]

    for i, tail in pc.power_tails.items():
        check(tail, i)
    for (_, j), tail in pc.conj.items():
        check(tail, j)
    for image in images:
        check(image, -1)


def random_fp_group(rng):
    """A p-group on 2 or 3 generators of orders p or p^2, p = 2 or 3,
    with one or two more relators that are commutators of random words,
    so the abelianization stays (Z_p or Z_p^2)^k and the quotients grow."""
    names = ["a", "b", "c"][: rng.choice([2, 3])]
    p = rng.choice([2, 3])
    relators = ["%s^%d" % (x, p ** rng.choice([1, 2])) for x in names]

    def word():
        syllables = [(rng.choice(names), rng.choice([-1, 1, 2])) for _ in range(rng.randint(1, 3))]
        return "*".join("%s^%d" % s for s in syllables)

    for _ in range(rng.randint(1, 2)):
        relators.append("[%s, %s]" % (word(), word()) + rng.choice(["", "^%d" % p]))
    return "group r { generators: %s; fixed: %s; }" % (", ".join(names), ", ".join(relators))


# the catalog to its acceptance classes, deeper where that is cheap
CERTIFIED_CLASSES = {**ACCEPTANCE_CLASSES, "basilica": 8, "bsv": 6}
CERTIFIED = [(name, load_catalog(name), c) for name, c in CERTIFIED_CLASSES.items()]
CERTIFIED += [
    ("quat8", parse_one("group quat8 { generators: a, b; fixed: a^4, b^2*a^-2, a^b*a; }"), 3),
    ("heisenberg", parse_one("group heis { generators: a, b; fixed: [[a, b], a], [[a, b], b]; }"), 3),
]
_rng = random.Random(20261019)
CERTIFIED += [("random%d" % t, parse_one(random_fp_group(_rng)), 4) for t in range(12)]


@pytest.mark.parametrize("pres, c", [case[1:] for case in CERTIFIED], ids=[case[0] for case in CERTIFIED])
def test_enforced_covers_are_consistent(pres, c):
    """build_cover enforces only the restricted overlap set (no derived
    conjugators, no overweight overlaps).  Every overlap of the full set
    is a row in the central block that must lie in the lattice those
    rows span, so a cover that passes every overlap proves, for that
    input, that the restricted rows span the full consistency lattice."""
    system = trivial_system(pres)
    for _ in range(c):
        cover = build_cover(system)
        assert cover.pc.is_consistent(prune=False)
        assert_normal_forms(cover.pc, cover.lift_images)
        system = impose_relators(cover)
        assert system.pc.is_consistent(prune=False)
        assert_normal_forms(system.pc, system.images)


@pytest.mark.parametrize("pres, c", [case[1:] for case in CERTIFIED], ids=[case[0] for case in CERTIFIED])
def test_overlap_right_sides_match_collecting_b_times_c_first(pres, c, monkeypatch):
    """overlap_checks collects a*(b*c) of a comm triple as (a*c) * b^c.
    On the inconsistent extensions that build_cover checks, each such
    side, and that of each pow-conj triple, must be the normal form,
    items in the same order, that collecting b*c and then a times it
    gives."""
    checks = PcPresentation.overlap_checks
    seen = set()

    def compared(pc, prune=True):
        for kind, idx, lhs, rhs in checks(pc, prune):
            if kind in ("comm", "pow-conj"):
                a = (idx[0], 1 if kind == "comm" else pc.orders[idx[0]] - 1)
                b, c = idx[-2:] if kind == "comm" else idx
                expected = pc.mul({a[0]: a[1]}, pc.mul({b: 1}, {c: 1}))
                assert list(rhs.items()) == list(expected.items()), (kind, idx)
                seen.add(kind)
            yield kind, idx, lhs, rhs

    monkeypatch.setattr(PcPresentation, "overlap_checks", compared)
    system = trivial_system(pres)
    for _ in range(c):
        system = impose_relators(build_cover(system))
    # the catalog covers have triples of both kinds
    assert seen == {"comm", "pow-conj"} or pres.name not in CERTIFIED_CLASSES


@pytest.mark.parametrize("name", ["grigorchuk", "twisted_twin", "grigorchuk_supergroup", "basilica", "bsv"])
def test_lifted_endomorphism_intertwines_projection(name):
    """Lifting commutes with projecting: sigma~(pi~(w)) = pi~(sigma(w))."""
    pres = load_catalog(name)
    rng = random.Random(20240905)
    system = tower(pres, 1)
    for _ in range(2):
        cover = build_cover(system)
        for _name, endo in pres.endomorphisms:
            lifted = lift_through_definitions(cover.pc, cover.lift_images, endo)
            for _ in range(8):
                w = random_word(rng, pres.alphabet, rng.randrange(1, 7))
                nf = cover.pc.substitute(cover.lift_images, w.syllables)
                lhs = cover.pc.substitute(lifted, sorted(nf.items()))
                rhs = cover.pc.substitute(cover.lift_images, endo(w).syllables)
                assert lhs == rhs
        system = impose_relators(cover)


def test_consistency_rows_must_vanish_in_the_abelianization():
    # the weight-2 generator [b, a] claims a nonzero abelian image, so the
    # fresh generator of its power relation does too, and the overlap
    # rows through it no longer vanish in the abelianization
    system = tower(parse_one("group k { generators: a, b; fixed: a^2, b^2; }"), 2)
    assert system.pc.definitions[2] == ("conj", 0, 1)
    system.pc.abelian_image[2] = (1, 1)
    with pytest.raises(AssertionError, match="nonzero abelianization"):
        build_cover(system)


@pytest.mark.parametrize("case", ["value-differs", "key-only-in-lhs", "key-only-in-rhs"])
def test_overlap_sides_must_agree_outside_the_center(case, monkeypatch):
    """build_cover reads a row off the central keys of lhs and rhs, and
    every other key must carry the same exponent on both sides: a
    differing value, or a key on one side only, is an inconsistent
    cover, reported with the overlap's kind and indices."""
    system = tower(load_catalog("basilica"), 2)
    cs = system.pc.ngens  # the cover's first fresh central generator
    lhs, rhs = {
        "value-differs": ({0: 1, cs: 1}, {0: -1, cs: 1}),
        "key-only-in-lhs": ({1: 1, cs: 2}, {cs: 1}),
        "key-only-in-rhs": ({cs: 1}, {1: 1, cs: 1}),
    }[case]
    checks = PcPresentation.overlap_checks

    def with_bad_overlap(pc, prune=True):
        yield from checks(pc, prune)
        yield "comm", (3, 2, 1), lhs, rhs

    monkeypatch.setattr(PcPresentation, "overlap_checks", with_bad_overlap)
    message = r"inconsistent cover: comm overlap \(3, 2, 1\) differs outside the center"
    with pytest.raises(AssertionError, match=message):
        build_cover(system)


def _consistency_rows(monkeypatch, pres, c):
    """For the covers of the tower of pres to class c: the overlaps each
    checks, how many of them agree, and the rows and central rank its
    build_cover hands to _apply_central_rows."""
    checks = PcPresentation.overlap_checks
    apply = covers._apply_central_rows
    steps = []

    def counted(pc, prune=True):
        steps.append({"overlaps": 0, "agreeing": 0})
        for kind, idx, lhs, rhs in checks(pc, prune):
            steps[-1]["overlaps"] += 1
            steps[-1]["agreeing"] += lhs == rhs
            yield kind, idx, lhs, rhs

    def record(pc, images, cs, rows):
        rows = list(rows)
        steps[-1].setdefault("rows", rows)
        steps[-1].setdefault("ncols", pc.ngens - cs)
        apply(pc, images, cs, rows)

    monkeypatch.setattr(PcPresentation, "overlap_checks", counted)
    monkeypatch.setattr(covers, "_apply_central_rows", record)
    tower(pres, c)
    return steps


def test_consistency_step_counts_on_the_grigorchuk_tower(monkeypatch):
    """Overlaps checked, and nonzero rows handed on, by each cover of
    grigorchuk's tower to class 8, pinned from a reader that compared the
    two sides as whole dicts: a row is dropped exactly when its overlap's
    sides agree."""
    steps = _consistency_rows(monkeypatch, load_catalog("grigorchuk"), 8)
    assert [s["overlaps"] for s in steps] == [0, 9, 22, 43, 62, 94, 127, 166]
    assert [len(s["rows"]) for s in steps] == [0, 6, 19, 37, 55, 83, 114, 150]
    for s in steps:
        assert all(s["rows"]) and len(s["rows"]) == s["overlaps"] - s["agreeing"]


def test_consistency_echelon_matches_the_reference_on_a_grigorchuk_cover(monkeypatch):
    """The consistency rows of grigorchuk's class-8 cover, long rows of
    +-1 and +-2 entries, give the reference echelon's HNF inserted in
    build_cover's order or by echelon, and the record of non-unit pivots
    agrees with the rows after every insert."""
    step = _consistency_rows(monkeypatch, load_catalog("grigorchuk"), 8)[-1]
    rows, ncols = step["rows"], step["ncols"]
    assert max(map(len, rows)) > 10
    lattice, reference = _SparseEchelon(), ReferenceEchelon()
    for row in rows:
        lattice.insert(row)
        reference.insert(row)
        assert lattice.nonunit == {p for p, r in lattice.rows.items() if r[p] > 1}
    expected = reference.canonical(ncols)
    assert lattice.canonical(ncols).rows == expected
    assert echelon(rows, ncols).canonical(ncols).rows == expected


def test_central_quotient_depends_only_on_the_lattice_its_rows_span(monkeypatch):
    """The central block is quotiented by the lattice the rows span, not
    by the rows: the consistency rows of build_cover and the relator
    lattice of impose_relators, shuffled, duplicated, or each changed by
    an integer combination of the others, give the presentation and
    images that the HNF rows of their lattice give."""
    calls = []
    apply = covers._apply_central_rows

    def record(pc, images, cs, rows):
        rows = list(rows)
        calls.append((pc.copy(), [dict(im) for im in images], cs, rows))
        apply(pc, images, cs, rows)

    monkeypatch.setattr(covers, "_apply_central_rows", record)
    for name, c in [
        ("grigorchuk", 5),
        ("twisted_twin", 3),
        ("grigorchuk_supergroup", 3),
        ("basilica", 4),
        ("bsv", 4),
    ]:
        tower(load_catalog(name), c)
    assert len(calls) == 38

    def imposed(pc, images, cs, rows):
        pc, images = pc.copy(), [dict(im) for im in images]
        apply(pc, images, cs, rows)
        fields = (pc.orders, pc.weights, pc.power_tails, pc.conj, pc.definitions, pc.abelian_image)
        return fields + (images,)

    rng = random.Random(23)
    for pc, images, cs, rows in calls:
        basis = hnf_sparse(rows, pc.ngens - cs)
        expected = imposed(pc, images, cs, [dict(enumerate(r)) for r in basis.rows])
        shuffled = rng.sample(rows, len(rows))
        duplicated = rows + [r for r in rows if rng.random() < 0.5]
        combined = [dict(r) for r in shuffled]
        for row in combined:
            for other in rng.sample(combined, min(2, len(combined))):
                if other is not row:
                    f = rng.randint(-3, 3)
                    for k, v in other.items():
                        row[k] = row.get(k, 0) + f * v
        for generating in (rows, shuffled, duplicated, combined):
            assert imposed(pc, images, cs, generating) == expected


def test_relator_values_are_central():
    pres = load_catalog("twisted_twin")
    system = tower(pres, 2)
    cover = build_cover(system)
    rows = cover.relator_rows(pres.fixed + pres.iterated)
    assert all(len(r) == cover.central_dim for r in rows)


def test_section_rank_bookkeeping():
    """The free rank of the section is the generator count minus the
    torsion-free rank of the abelianization, plus the multiplier's."""
    for name in ["grigorchuk", "twisted_twin", "basilica", "bsv"]:
        pres = load_catalog(name)
        system = tower(pres, 1)
        for _ in range(2):
            cover = build_cover(system)
            section = smith_invariants(cover.torsion_rows(), cover.central_dim)
            mult = cover.multiplier_invariants()
            ab = system.abelian_invariants()
            assert section.free_rank == len(pres.alphabet) - ab.free_rank + mult.free_rank
            system = impose_relators(cover)


def test_non_invariant_presentation_detected():
    src = """
    group swap {
      generators: a, b;
      invariant: true;
      fixed: a^2;
      endomorphism sigma: a -> b, b -> a;
    }
    """
    pres = parse_one(src)
    cover = build_cover(tower(pres, 1))
    with pytest.raises(ValueError, match="ill-defined image"):
        cover.endomorphism_matrices()


def test_imposing_matches_abelianization():
    for name in ["grigorchuk", "twisted_twin", "grigorchuk_supergroup", "basilica", "bsv"]:
        pres = load_catalog(name)
        sys1 = tower(pres, 1)
        assert sys1.nclass <= 1
        spun = spun_relators(pres, 8)
        vectors = [w.exponent_vector() for w in spun]
        from lpres.lattices import smith_invariants

        assert sys1.abelian_invariants() == smith_invariants(vectors, len(pres.alphabet))


def test_tower_class_growth_stops_for_finite_groups():
    pres = parse_one("group klein { generators: a, b; fixed: a^2, b^2, (a*b)^2; }")
    sys3 = tower(pres, 3)
    assert sys3.nclass == 1
    assert sys3.order() == 4
