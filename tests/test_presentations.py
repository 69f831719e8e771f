"""Presentation parsing, serialization, the catalog, and adjustment."""

import pytest
from relator_oracle import spun_relators

from lpres.lattices import AbelianInvariants, hnf
from lpres.presentations import (
    LPresentation,
    ParseError,
    adjust,
    catalog_names,
    load_catalog,
    parse,
    parse_one,
    serialize,
)
from lpres.words import Word, commutator


def W(alphabet, text_gens):
    """Tiny helper: word from a string of generator names."""
    w = Word.identity(alphabet)
    for ch in text_gens:
        w = w * alphabet.word(ch)
    return w


# ---------------------------------------------------------------- parsing


def test_parse_simple_group():
    pres = parse_one(
        """
        group demo {
          generators: x, y;
          fixed: x^2;
          endomorphism phi: x -> y, y -> x*y;
          iterated: [x, y];
        }
        """
    )
    assert pres.name == "demo"
    assert pres.alphabet.names == ("x", "y")
    assert pres.fixed == (Word(pres.alphabet, ((0, 2),)),)
    assert pres.iterated == (commutator(pres.alphabet.word("x"), pres.alphabet.word("y")),)
    assert not pres.invariant  # fixed nonempty, no declaration
    phi = dict(pres.endomorphisms)["phi"]
    assert phi(pres.alphabet.word("x")) == pres.alphabet.word("y")


def test_parse_defaults_invariant_when_no_fixed():
    pres = parse_one(
        """
        group demo {
          generators: x;
          endomorphism phi: x -> x^2;
          iterated: x^4;
        }
        """
    )
    assert pres.invariant


def test_word_grammar():
    pres = parse_one(
        """
        group demo {
          generators: a, b, c;
          fixed: c^a*b, c^(a*b), a^-2, a^2^b, [a, b], 1*a;
        }
        """
    )
    a, b, c = (pres.alphabet.word(x) for x in "abc")
    conj_then_times = c.conjugate(a) * b
    conj_by_product = c.conjugate(a * b)
    assert pres.fixed[0] == conj_then_times
    assert pres.fixed[1] == conj_by_product
    assert pres.fixed[0] != pres.fixed[1]
    assert pres.fixed[2] == a**-2
    assert pres.fixed[3] == (a**2).conjugate(b)
    assert pres.fixed[4] == commutator(a, b)
    assert pres.fixed[5] == a


def test_comments_and_whitespace():
    pres = parse_one(
        """
        # leading comment
        group demo {
          generators: x;  # trailing comment
          fixed: x^2;
        }
        """
    )
    assert pres.fixed[0] == Word(pres.alphabet, ((0, 2),))


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_one("group demo {\n  generators: x;\n  fixed: x^2 @;\n}")
    assert err.value.line == 3
    assert "unexpected character" in str(err.value)

    # exponents are ASCII digits; "²" is a digit to str.isdigit() only
    for exponent in ("²", "٣"):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_one("group demo {\n  generators: x;\n  fixed: x^%s;\n}" % exponent)
        assert (err.value.line, err.value.col) == (3, 12)

    with pytest.raises(ParseError, match="unknown generator 'z'"):
        parse_one("group demo {\n  generators: x;\n  fixed: z^2;\n}")

    with pytest.raises(ParseError, match="generators section must come first"):
        parse_one("group demo {\n  fixed: x;\n  generators: x;\n}")

    with pytest.raises(ParseError, match="missing images"):
        parse_one("group demo {\n  generators: x, y;\n  endomorphism s: x -> y;\n}")

    with pytest.raises(ParseError, match="duplicate 'fixed'"):
        parse_one("group demo {\n  generators: x;\n  fixed: x;\n  fixed: x^2;\n}")

    with pytest.raises(ParseError, match="expected"):
        parse_one("group demo {\n  generators: x;\n  endomorphism s: x y;\n}")


@pytest.mark.parametrize(
    "sections, message, line, col",
    [
        ("generators: a, b;\n  fixed: a^-b;", "expected an integer", 3, 13),
        ("generators: a, b;\n  fixed: 2;", "only 1 may appear as a bare word", 3, 10),
        ("generators: a, b;\n  fixed: a*;", "expected a generator, '(', '[' or 1", 3, 12),
        ("generators: a, a;", "generator names must be distinct", 2, 3),
        ("generators: a, b;\n  invariant: yes;", "expected 'true' or 'false'", 3, 14),
        (
            "generators: a, b;\n  endomorphism s: a -> b, b -> a;\n  endomorphism s: a -> a, b -> b;",
            "duplicate endomorphism 's'",
            4,
            3,
        ),
        ("generators: a, b;\n  endomorphism s: a -> b, a -> a;", "duplicate image for 'a'", 3, 27),
        ("generators: a, b;\n  relators: a;", "unknown section 'relators'", 3, 3),
    ],
)
def test_parse_error_names_its_line_and_column(sections, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_one("group g {\n  %s\n}" % sections)
    assert str(err.value) == "line %d, col %d: %s" % (line, col, message)
    assert (err.value.line, err.value.col) == (line, col)


def test_parse_one_rejects_many():
    text = "group a { generators: x; }\ngroup b { generators: y; }"
    assert len(parse(text)) == 2
    with pytest.raises(ValueError, match="exactly one"):
        parse_one(text)


def test_serialize_round_trip_catalog():
    for name in catalog_names():
        pres = load_catalog(name)
        again = parse_one(serialize(pres))
        assert again == pres


def test_catalog_contents():
    assert set(catalog_names()) == {
        "grigorchuk",
        "twisted_twin",
        "grigorchuk_supergroup",
        "basilica",
        "bsv",
    }
    grig = load_catalog("grigorchuk")
    assert len(grig.alphabet) == 4
    assert len(grig.fixed) == 5
    assert len(grig.iterated) == 2
    assert grig.invariant
    a, b, c, d = (grig.alphabet.word(x) for x in "abcd")
    sigma = dict(grig.endomorphisms)["sigma"]
    assert sigma(a) == c.conjugate(a)
    assert sigma(b) == d
    tt = load_catalog("twisted_twin")
    assert len(tt.iterated) == 5
    assert tt.iterated[2] == tt.iterated[3]  # kept verbatim
    bsv = load_catalog("bsv")
    eps = dict(bsv.endomorphisms)["epsilon"]
    x, y = bsv.alphabet.word("a"), bsv.alphabet.word("b")
    assert eps(x) == x**2
    assert eps(y) == x**2 * y**-1 * x**2
    with pytest.raises(ValueError, match="unknown catalog group"):
        load_catalog("nope")


def test_load_catalog_is_cached():
    assert load_catalog("basilica") is load_catalog("basilica")


# ------------------------------------------------------------- spun relators


def test_spun_relators():
    pres = load_catalog("basilica")
    rels = spun_relators(pres, 2)
    a, b = pres.alphabet.word("a"), pres.alphabet.word("b")
    sigma = dict(pres.endomorphisms)["sigma"]
    r = commutator(a, a.conjugate(b))
    assert rels == (r, sigma(r), sigma(sigma(r)))


def _demo(maps):
    """x, y with fixed y^3, iterated x, and the named maps of f (swap), g (x -> x^2)."""
    lines = {
        "f": "endomorphism f: x -> y, y -> x;",
        "g": "endomorphism g: x -> x^2, y -> y;",
    }
    body = "\n".join(lines[m] for m in maps)
    return parse_one(
        "group demo { generators: x, y; fixed: y^3; %s iterated: x; }" % body
    )


def test_enumerate_monoid_counts():
    # k maps give (k^(depth+1)-1)/(k-1) copies of the iterated relators
    def copies(pres, depth):
        rels = spun_relators(pres, depth)
        return (len(rels) - len(pres.fixed)) // len(pres.iterated)

    assert copies(_demo("fg"), 2) == 7
    assert copies(_demo("f"), 3) == 4
    assert copies(_demo(""), 5) == 1
    pres = _demo("fg")
    assert spun_relators(pres, 0) == pres.fixed + pres.iterated


def test_enumerate_monoid_order_and_semantics():
    # breadth first: id, f, g, ff, fg, gf, gg; the first map acts first
    pres = _demo("fg")
    x, y = pres.alphabet.word("x"), pres.alphabet.word("y")
    assert spun_relators(pres, 0) == (y**3, x)
    assert spun_relators(pres, 2) == (y**3, x, y, x**2, x, y, y**2, x**4)


# ------------------------------------------------------------- adjustment


def test_adjust_grigorchuk_golden():
    grig = load_catalog("grigorchuk")
    a, b, c, d = (grig.alphabet.word(x) for x in "abcd")
    adj = adjust(grig)

    assert adj.basis_words == (a**2, b * c * d, c**2, d**2)
    assert adj.basis_vectors == (
        (2, 0, 0, 0),
        (0, 1, 1, 1),
        (0, 0, 2, 0),
        (0, 0, 0, 2),
    )
    assert adj.fixed_consequences == (b**2 * (b * c * d) ** -2 * c**2 * d**2,)
    ad4 = (a * d) ** 4
    adacac4 = (a * d * a * c * a * c) ** 4
    assert adj.iterated_consequences == (
        ad4 * a**-4 * d**-4,
        adacac4 * a**-12 * c**-8 * d**-4,
    )
    assert adj.abelianization() == AbelianInvariants(0, (2, 2, 2))


def test_adjust_consequences_lie_in_derived_subgroup():
    for name in catalog_names():
        adj = adjust(load_catalog(name))
        n = len(adj.original.alphabet)
        for w in adj.fixed_consequences + adj.iterated_consequences:
            assert w.exponent_vector() == (0,) * n
        for w, v in zip(adj.basis_words, adj.basis_vectors):
            assert w.exponent_vector() == v


def test_adjust_basis_matches_spun_lattice():
    """The basis must equal the HNF of the spun relator exponent vectors."""
    for name in catalog_names():
        pres = load_catalog(name)
        adj = adjust(pres)
        n = len(pres.alphabet)
        spun = [list(w.exponent_vector()) for w in spun_relators(pres, 6)]
        reference = hnf(spun, n)
        assert adj.basis_vectors == reference.rows


def test_adjust_abelianizations():
    assert adjust(load_catalog("grigorchuk")).abelianization() == AbelianInvariants(0, (2, 2, 2))
    assert adjust(load_catalog("twisted_twin")).abelianization() == AbelianInvariants(
        0, (2, 2, 2, 2)
    )
    assert adjust(load_catalog("grigorchuk_supergroup")).abelianization() == AbelianInvariants(
        0, (2, 2, 2, 2)
    )
    assert adjust(load_catalog("basilica")).abelianization() == AbelianInvariants(2, ())
    assert adjust(load_catalog("bsv")).abelianization() == AbelianInvariants(2, ())


def test_adjust_zero_vector_relators_pass_through():
    pres = load_catalog("basilica")
    adj = adjust(pres)
    assert adj.basis_words == ()
    assert adj.fixed_consequences == ()
    assert adj.iterated_consequences == pres.iterated


def test_adjust_requires_invariance():
    pres = parse_one(
        """
        group demo {
          generators: x, y;
          invariant: false;
          fixed: x^2;
          endomorphism s: x -> y, y -> x;
          iterated: y^2;
        }
        """
    )
    with pytest.raises(ValueError, match="invariant"):
        adjust(pres)


def test_presentation_is_immutable_and_checked_on_construction():
    pres = load_catalog("grigorchuk")
    with pytest.raises(AttributeError):
        pres.name = "other"
    other = parse_one("group other { generators: x, y; fixed: x^2; }")
    endo = pres.endomorphisms[0]
    with pytest.raises(ValueError, match="relator word over a different alphabet"):
        LPresentation(pres.alphabet, other.fixed, (), (), True)
    with pytest.raises(ValueError, match="endomorphism 'sigma' over a different alphabet"):
        LPresentation(other.alphabet, (), (endo,), (), True)
    with pytest.raises(ValueError, match="duplicate endomorphism name 'sigma'"):
        LPresentation(pres.alphabet, (), (endo, endo), (), True)


def test_replace_checks_like_the_constructor():
    pres = load_catalog("grigorchuk")
    other = parse_one("group other { generators: x, y; fixed: x^2; }")
    assert pres._replace(name="renamed").fixed == pres.fixed
    with pytest.raises(ValueError, match="relator word over a different alphabet"):
        pres._replace(fixed=other.fixed)


def test_adjusted_presentation_serializes():
    adj = adjust(load_catalog("grigorchuk"))
    pres = adj.presentation
    assert pres.name == "grigorchuk_adjusted"
    assert pres.fixed == adj.fixed_consequences + adj.basis_words
    assert pres.iterated == adj.iterated_consequences
    again = parse_one(serialize(pres))
    assert again == pres
