"""Exact arithmetic in finitely generated free groups.

Words are kept freely reduced in run-length form: a tuple of
(generator index, exponent) pairs with nonzero exponents and no two
adjacent pairs sharing a generator.  Exponents are plain Python ints,
so iterated endomorphism images never overflow.  A commutator or a
power also remembers the words it was built from, so a group that
evaluates it can commute or power their values instead of collecting
the flattened word.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class Alphabet:
    """Ordered, immutable list of distinct generator names."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("alphabet needs at least one generator")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError("unknown generator %r" % (name,)) from None

    def word(self, name: str) -> "Word":
        """Single-generator word, a convenience for building relators."""
        return Word(self, ((self.index(name), 1),))

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return "Alphabet(%s)" % ", ".join(self.names)


def _reduce_runs(alphabet: Alphabet, runs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    n = len(alphabet)
    out: list[list[int]] = []
    for gen, exp in runs:
        if not 0 <= gen < n:
            raise ValueError("generator index %r out of range" % (gen,))
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([gen, exp])
    return tuple((g, e) for g, e in out)


def _inverse(syllables: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    return tuple((g, -e) for g, e in reversed(syllables))


class Word:
    """A freely reduced word over an :class:`Alphabet`.

    The ``syllables`` attribute is the run-length normal form; the empty
    tuple is the identity.  Words are immutable and hashable.

    ``shape`` is ``("comm", u, v)`` for a word built as
    ``commutator(u, v)``, ``("pow", w, n)`` for one built as ``w**n``,
    and None otherwise.  A power of a power is one power of the inner
    base.  A power of a conjugate of one syllable, p * g^e * p^-1, has
    no shape: it is p * g^(e*n) * p^-1, no longer than the word itself.
    Equality, hashing and printing ignore the shape, and every other
    operation returns a word without one.
    """

    __slots__ = ("alphabet", "syllables", "shape")

    def __init__(
        self,
        alphabet: Alphabet,
        runs: Iterable[tuple[int, int]] = (),
        shape: Optional[tuple] = None,
    ):
        self.alphabet = alphabet
        self.syllables = _reduce_runs(alphabet, runs)
        self.shape = shape

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Word":
        return cls(alphabet)

    def is_identity(self) -> bool:
        return not self.syllables

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise ValueError("words over different alphabets")
        return Word(self.alphabet, self.syllables + other.syllables)

    def inverse(self) -> "Word":
        return Word(self.alphabet, _inverse(self.syllables))

    def _cyclic_split(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """(p, c) with self = p * c * p^-1 and c cyclically reduced."""
        s = self.syllables
        i, j = 0, len(s) - 1
        while i < j and s[i][0] == s[j][0]:
            (g, x), (_, y) = s[i], s[j]
            if x + y:
                # p * g^x * m * g^y * p^-1 = (p * g^x) * (m * g^(x+y)) * (p * g^x)^-1
                return s[: i + 1], s[i + 1 : j] + ((g, x + y),)
            i, j = i + 1, j - 1
        return s[:i], s[i : j + 1]

    def power_length(self, n: int) -> int:
        """The number of syllables of self**n, found without building it."""
        prefix, core = self._cyclic_split()
        if n == 0 or not core:
            return 0
        if len(core) == 1:
            return 2 * len(prefix) + 1
        # a split that merged the end syllables leaves the core ending in
        # the prefix's last generator, so the core's last syllable and
        # the inverse prefix reduce to one syllable
        merged = bool(prefix) and prefix[-1][0] == core[-1][0]
        return 2 * len(prefix) + len(core) * abs(n) - merged

    def __pow__(self, n: int) -> "Word":
        """p * c^n * p^-1 for self = p * c * p^-1 with c cyclically
        reduced, so a core of one syllable g^e gives g^(e*n) and no
        syllable is repeated that reduction would cancel."""
        prefix, core = self._cyclic_split()
        if n == 0 or not core:
            return Word(self.alphabet)
        if len(core) == 1:
            ((g, e),) = core
            return Word(self.alphabet, prefix + ((g, e * n),) + _inverse(prefix))
        power = (core if n > 0 else _inverse(core)) * abs(n)
        base, m = self, 1
        if self.shape is not None and self.shape[0] == "pow":
            _, base, m = self.shape
        return Word(self.alphabet, prefix + power + _inverse(prefix), ("pow", base, m * n))

    def conjugate(self, by: "Word") -> "Word":
        """self**by in the exponent convention w^v = v^-1 * w * v."""
        return by.inverse() * self * by

    def exponent_vector(self) -> tuple[int, ...]:
        vec = [0] * len(self.alphabet)
        for g, e in self.syllables:
            vec[g] += e
        return tuple(vec)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.syllables == other.syllables
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.syllables))

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        names = self.alphabet.names
        parts = []
        for g, e in self.syllables:
            parts.append(names[g] if e == 1 else "%s^%d" % (names[g], e))
        return "*".join(parts)

    def __repr__(self) -> str:
        return "Word(%s)" % self


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 * v^-1 * u * v, of shape ("comm", u, v)."""
    w = u.inverse() * v.inverse() * u * v
    return Word(u.alphabet, w.syllables, ("comm", u, v))


class FreeEndomorphism:
    """An endomorphism of the free group, given by generator images."""

    __slots__ = ("alphabet", "images")

    def __init__(self, alphabet: Alphabet, images: Sequence[Word]):
        images = tuple(images)
        if len(images) != len(alphabet):
            raise ValueError(
                "endomorphism needs an image for each of the %d generators" % len(alphabet)
            )
        for w in images:
            if w.alphabet != alphabet:
                raise ValueError("image word over a different alphabet")
        self.alphabet = alphabet
        self.images = images

    def __call__(self, word: Word) -> Word:
        if word.alphabet != self.alphabet:
            raise ValueError("word over a different alphabet")
        runs: list[tuple[int, int]] = []
        for g, e in word.syllables:
            runs.extend((self.images[g] ** e).syllables)
        return Word(self.alphabet, runs)

    def matrix(self) -> list[list[int]]:
        """Induced matrix on the abelianization; row g is images[g]'s exponent vector."""
        return [list(w.exponent_vector()) for w in self.images]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FreeEndomorphism)
            and self.alphabet == other.alphabet
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.images))

    def __repr__(self) -> str:
        body = ", ".join(
            "%s -> %s" % (self.alphabet.names[g], w) for g, w in enumerate(self.images)
        )
        return "FreeEndomorphism(%s)" % body
