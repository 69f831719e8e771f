"""Free-group word arithmetic and endomorphism application."""

import random

import pytest

from lpres.words import Alphabet, FreeEndomorphism, Word, commutator


@pytest.fixture
def abcd():
    return Alphabet(["a", "b", "c", "d"])


@pytest.fixture
def sigma(abcd):
    a, b, c, d = (abcd.word(x) for x in "abcd")
    return FreeEndomorphism(abcd, [c.conjugate(a), d, b, c])


def random_word(rng, alphabet, max_syllables=12, max_exp=4):
    runs = []
    for _ in range(rng.randrange(max_syllables + 1)):
        g = rng.randrange(len(alphabet))
        e = rng.choice([k for k in range(-max_exp, max_exp + 1) if k != 0])
        runs.append((g, e))
    return Word(alphabet, runs)


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(["a", "b", "a"])
    with pytest.raises(ValueError):
        Alphabet([])


def test_alphabet_unknown_name(abcd):
    with pytest.raises(ValueError, match="unknown generator"):
        abcd.index("x")


def test_free_reduction_cancels(abcd):
    w = Word(abcd, [(0, 2), (0, -2), (1, 1), (2, 3), (2, -3), (1, -1)])
    assert w.is_identity()
    w = Word(abcd, [(0, 1), (1, 2), (1, -1), (1, -1), (0, 1)])
    assert w.syllables == ((0, 2),)


def test_mul_and_inverse(abcd):
    a, b = abcd.word("a"), abcd.word("b")
    w = a * b * a.inverse()
    assert w.syllables == ((0, 1), (1, 1), (0, -1))
    assert (w * w.inverse()).is_identity()
    assert w.inverse().inverse() == w


def test_pow(abcd):
    a, b = abcd.word("a"), abcd.word("b")
    w = a * b
    assert w**0 == Word.identity(abcd)
    assert w**3 == w * w * w
    assert w**-2 == (w * w).inverse()


def test_commutator_identity_when_equal(abcd):
    a = abcd.word("a")
    assert commutator(a, a).is_identity()
    assert commutator(a, a**3).is_identity()


def test_shape_is_kept_by_commutators_and_powers_and_ignored_by_equality(abcd):
    a, b, c = abcd.word("a"), abcd.word("b"), abcd.word("c")
    comm = commutator(a, b * c)
    flat = Word(abcd, comm.syllables)
    assert comm.shape == ("comm", a, b * c) and flat.shape is None
    assert comm == flat and hash(comm) == hash(flat) and str(comm) == str(flat)
    assert len({comm, flat}) == 1
    power = (a * b) ** 3
    assert power.shape == ("pow", a * b, 3)
    assert power == Word(abcd, power.syllables) and hash(power) == hash(Word(abcd, power.syllables))
    # every other operation returns a flat word
    sigma = FreeEndomorphism(abcd, [b, a, c, c])
    for w in (comm * a, comm.inverse(), comm.conjugate(a), sigma(comm), Word(abcd, comm.syllables)):
        assert w.shape is None


def test_power_of_a_power_is_one_power(abcd):
    a, b = abcd.word("a"), abcd.word("b")
    w = ((a * b) ** 2) ** -3
    assert w.shape == ("pow", a * b, -6)
    assert w == (a * b) ** -6
    chain = a * b
    for _ in range(10_000):
        chain = chain**1
    assert chain.shape == ("pow", a * b, 1)
    # a conjugate of one syllable powers to another, and stays flat
    assert (a**2).shape is None and ((a**2) ** 3).shape is None
    assert (b.conjugate(a) ** 5).syllables == ((0, -1), (1, 5), (0, 1))
    assert (b.conjugate(a) ** 5).shape is None
    # a commutator is the base of its powers
    comm = commutator(a, b)
    assert ((comm**2) ** 5).shape == ("pow", comm, 10)
    assert ((comm**2) ** 5).shape[1].shape == ("comm", a, b)


def test_conjugation_convention(abcd):
    a, c = abcd.word("a"), abcd.word("c")
    # c^a = a^-1 c a
    assert c.conjugate(a).syllables == ((0, -1), (2, 1), (0, 1))


def test_sigma_images(abcd, sigma):
    a, b, c, d = (abcd.word(x) for x in "abcd")
    assert sigma(a) == a.inverse() * c * a
    assert sigma(b) == d
    assert sigma(c) == b
    assert sigma(d) == c
    # sigma(a*d) = a^-1 c a c
    assert sigma(a * d) == a.inverse() * c * a * c


def test_sigma_matrix(sigma):
    assert sigma.matrix() == [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
    ]


def test_sigma_exponent_vector(abcd, sigma):
    a, b, c, d = (abcd.word(x) for x in "abcd")
    w = sigma(a * b * c * d)
    assert w.exponent_vector() == (0, 1, 2, 1)


def test_compose_is_left_to_right(abcd, sigma):
    b, c, d = (abcd.word(x) for x in "bcd")
    # c -> b -> d under two applications, letter by letter in order
    assert sigma(sigma(c)) == d
    assert sigma(sigma(c * d)) == d * b


def test_endomorphism_validates_length(abcd):
    with pytest.raises(ValueError):
        FreeEndomorphism(abcd, [abcd.word("a")])


def test_reduce_idempotent_random(abcd):
    rng = random.Random(20240901)
    for _ in range(200):
        w = random_word(rng, abcd)
        again = Word(abcd, w.syllables)
        assert again.syllables == w.syllables
        # no adjacent equal generators, no zero exponents
        for (g1, e1), (g2, _) in zip(w.syllables, w.syllables[1:]):
            assert g1 != g2
            assert e1 != 0


def test_exponent_vector_homomorphism_random(abcd):
    rng = random.Random(20240902)
    for _ in range(200):
        u = random_word(rng, abcd)
        v = random_word(rng, abcd)
        uv = tuple(x + y for x, y in zip(u.exponent_vector(), v.exponent_vector()))
        assert (u * v).exponent_vector() == uv
        assert u.inverse().exponent_vector() == tuple(-x for x in u.exponent_vector())


def test_matrix_tracks_abelianization_random(abcd):
    rng = random.Random(20240903)
    for _ in range(50):
        images = [random_word(rng, abcd, max_syllables=5, max_exp=3) for _ in range(4)]
        phi = FreeEndomorphism(abcd, images)
        mat = phi.matrix()
        for _ in range(5):
            w = random_word(rng, abcd)
            vec = w.exponent_vector()
            expected = tuple(
                sum(vec[g] * mat[g][j] for g in range(4)) for j in range(4)
            )
            assert phi(w).exponent_vector() == expected


def test_power_equals_repeated_product_random(abcd):
    rng = random.Random(20241019)
    for _ in range(300):
        w = random_word(rng, abcd, max_syllables=6)
        for n in range(-4, 5):
            expected = Word(abcd)
            for _ in range(abs(n)):
                expected = expected * (w if n > 0 else w.inverse())
            assert w**n == expected, (w, n)
            assert len(expected.syllables) == w.power_length(n)
