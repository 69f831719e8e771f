"""Finite L-presentations: data model, file format, catalog, adjustment.

An L-presentation (X | Q | Phi | R) describes the group F/N where F is
free on X and N is the normal closure of the fixed relators Q together
with all images of the iterated relators R under the monoid generated
by the endomorphisms Phi.  The presentation is invariant when every
endomorphism of Phi maps N into N; every algorithm downstream assumes
an invariant presentation.

File format, one or more blocks::

    group grigorchuk {
      generators: a, b, c, d;
      invariant: true;
      fixed: a^2, b^2, c^2, d^2, b*c*d;
      endomorphism sigma: a -> c^a, b -> d, c -> b, d -> c;
      iterated: (a*d)^4, (a*d*a*c*a*c)^4;
    }

Words use * for products and ^ for powers and conjugation: w^3 is a
power, w^v with a word exponent is the conjugate v^-1*w*v.  The ^
operator is left associative and binds tighter than *, so c^a*b means
(c^a)*b.  Brackets [u, v] denote the commutator u^-1*v^-1*u*v and a
bare 1 is the empty word.  Exponents are ASCII digits; generator names
start with a letter or _ and go on with letters, digits or _.  The
generators section must come first; # starts a comment running to the
end of the line.

Neither the parser nor adjust builds a word of more than
MAX_WORD_LENGTH syllables: the parser fails with a ParseError, adjust
with a ValueError.  The parser also fails on a word whose powers,
conjugates and commutators build more than MAX_BUILT_SYLLABLES
syllables in all.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import deque
from typing import Callable, NamedTuple, Optional

from .lattices import AbelianInvariants, hnf, smith_invariants, spin_closure, xgcd
from .words import Alphabet, FreeEndomorphism, Word, append_reduced, commutator


class ParseError(ValueError):
    """Syntax or semantic error in presentation text, with position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class _LPresentationFields(NamedTuple):
    alphabet: Alphabet
    fixed: tuple[Word, ...]
    endomorphisms: tuple[tuple[str, FreeEndomorphism], ...]
    iterated: tuple[Word, ...]
    invariant: bool
    name: str = ""


class LPresentation(_LPresentationFields):
    """An L-presentation over a fixed alphabet.

    endomorphisms is an ordered tuple of (name, map) pairs; the order
    fixes the deterministic processing order everywhere downstream.
    The constructor checks that every word and map is over the
    alphabet and that the map names are distinct.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for w in self.fixed + self.iterated:
            if w.alphabet != self.alphabet:
                raise ValueError("relator word over a different alphabet")
        seen = set()
        for nm, endo in self.endomorphisms:
            if endo.alphabet != self.alphabet:
                raise ValueError("endomorphism %r over a different alphabet" % nm)
            if nm in seen:
                raise ValueError("duplicate endomorphism name %r" % nm)
            seen.add(nm)
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the checks
        return cls(*iterable)

    @property
    def maps(self) -> tuple[FreeEndomorphism, ...]:
        return tuple(endo for _, endo in self.endomorphisms)


# --------------------------------------------------------------------------
# tokenizer and parser


# Each level of nested words costs the word grammar three stack frames;
# deeper input is rejected well before Python's recursion limit.
MAX_NESTING = 100
# A power, conjugate, commutator or product may not build a word of
# more syllables: every syllable of a relator is collected at every
# class, and a few characters of nested input can otherwise ask for
# more syllables than fit in memory.
MAX_WORD_LENGTH = 100_000
# Each power, conjugate or commutator builds its word anew, so a chain
# of them, each under MAX_WORD_LENGTH, takes time quadratic in its
# length; a word may build at most this many syllables in all that way.
# A product is built once, however many factors it has.
MAX_BUILT_SYLLABLES = 10 * MAX_WORD_LENGTH
# Larger exponent literals are rejected as input errors.  Collection and
# the lattices take exponents of any size, so the bound only keeps a
# mistyped exponent from becoming a relative order of hundreds of bits.
MAX_EXPONENT = 10**15


class _Token(NamedTuple):
    kind: str  # 'ident' | 'int' | 'sym' | 'end'
    value: str
    line: int
    col: int


# Token kinds, tried in order; any other character is unexpected.  \w is
# str.isalnum() or "_".  An identifier starts with a letter or "_", which
# _tokenize checks, as [^\W\d] also admits digits such as "²".  Integers
# are ASCII digits.
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<blank>[ \t\r]+|#[^\n]*)"
    r"|(?P<ident>[^\W\d]\w*)|(?P<int>[0-9]+)|(?P<sym>->|[{}()\[\],;:*^-])"
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        kind = match and match.lastgroup
        col = pos - line_start + 1
        if not kind or kind == "ident" and not (text[pos].isalpha() or text[pos] == "_"):
            raise ParseError("unexpected character %r" % text[pos], line, col)
        pos = match.end()
        if kind == "newline":
            line, line_start = line + 1, pos
        elif kind != "blank":
            tokens.append(_Token(kind, match.group(), line, col))
    tokens.append(_Token("end", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        # syllables built for the word being parsed, see check_built
        self.built = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_sym(self, sym: str) -> _Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.value != sym:
            self.fail("expected %r" % sym)
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("expected %s" % what)
        return self.advance()

    def at_sym(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.value == sym

    # ---- word grammar ----

    def parse_int(self) -> int:
        negative = False
        if self.at_sym("-"):
            self.advance()
            negative = True
        tok = self.peek()
        if tok.kind != "int":
            self.fail("expected an integer")
        self.advance()
        try:
            value = int(tok.value)
        except ValueError:
            # more digits than the interpreter converts
            self.fail("integer literal too long", tok)
        if value > MAX_EXPONENT:
            self.fail("exponent larger than %d" % MAX_EXPONENT, tok)
        return -value if negative else value

    def check_length(self, length: int, tok: _Token):
        """Fail at tok before a word of more than MAX_WORD_LENGTH syllables is built."""
        if length > MAX_WORD_LENGTH:
            self.fail("word longer than %d syllables" % MAX_WORD_LENGTH, tok)

    def check_built(self, length: int, tok: _Token):
        """check_length for a power, conjugate or commutator, whose
        syllables also count towards the MAX_BUILT_SYLLABLES of the
        outermost word being parsed."""
        self.check_length(length, tok)
        self.built += length
        if self.built > MAX_BUILT_SYLLABLES:
            self.fail("word builds more than %d syllables" % MAX_BUILT_SYLLABLES, tok)

    def generator(self, alphabet: Alphabet, tok: _Token) -> int:
        try:
            return alphabet.index(tok.value)
        except ValueError:
            self.fail("unknown generator %r" % tok.value, tok)

    def parse_atom(self, alphabet: Alphabet) -> Word:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return Word(alphabet, ((self.generator(alphabet, tok), 1),))
        if tok.kind == "int":
            if tok.value == "1":
                self.advance()
                return Word.identity(alphabet)
            self.fail("only 1 may appear as a bare word")
        if self.at_sym("("):
            self.advance()
            w = self.parse_word(alphabet)
            self.expect_sym(")")
            return w
        if self.at_sym("["):
            self.advance()
            u = self.parse_word(alphabet)
            self.expect_sym(",")
            v = self.parse_word(alphabet)
            self.expect_sym("]")
            self.check_built(2 * (len(u.syllables) + len(v.syllables)), tok)
            return commutator(u, v)
        self.fail("expected a generator, '(', '[' or 1")

    def parse_factor(self, alphabet: Alphabet) -> Word:
        w = self.parse_atom(alphabet)
        while self.at_sym("^"):
            self.advance()
            tok = self.peek()
            if tok.kind == "int" or (tok.kind == "sym" and tok.value == "-"):
                n = self.parse_int()
                self.check_built(w.power_length(n), tok)
                w = w**n
            else:
                v = self.parse_atom(alphabet)
                self.check_built(len(w.syllables) + 2 * len(v.syllables), tok)
                w = w.conjugate(v)
        return w

    def parse_word(self, alphabet: Alphabet) -> Word:
        if self.depth == MAX_NESTING:
            self.fail("words nested more than %d deep" % MAX_NESTING)
        if not self.depth:
            self.built = 0
        self.depth += 1
        w = self.parse_factor(alphabet)
        if self.at_sym("*"):
            # one reduced list for the whole product, not a word per factor
            runs = list(w.syllables)
            while self.at_sym("*"):
                tok = self.advance()
                v = self.parse_factor(alphabet)
                self.check_length(len(runs) + len(v.syllables), tok)
                append_reduced(runs, v.syllables, len(alphabet))
            w = Word(alphabet, runs)
        self.depth -= 1
        return w

    def parse_list(self, item: Callable[[], object]) -> list:
        """One or more items separated by commas."""
        items = [item()]
        while self.at_sym(","):
            self.advance()
            items.append(item())
        return items

    # ---- group blocks ----

    def parse_group(self) -> LPresentation:
        tok = self.expect_ident("the keyword 'group'")
        if tok.value != "group":
            self.fail("expected the keyword 'group'", tok)
        name = self.expect_ident("a group name").value
        self.expect_sym("{")

        first = self.expect_ident("a 'generators' section")
        if first.value != "generators":
            self.fail("the generators section must come first", first)
        self.expect_sym(":")
        names = self.parse_list(lambda: self.expect_ident("a generator name").value)
        self.expect_sym(";")
        if len(set(names)) != len(names):
            self.fail("generator names must be distinct", first)
        alphabet = Alphabet(names)

        sections: dict[str, object] = {}
        endos: list[tuple[str, FreeEndomorphism]] = []

        while not self.at_sym("}"):
            section = self.expect_ident("a section name or '}'")
            key = section.value
            if key in ("fixed", "iterated", "invariant"):
                if key in sections:
                    self.fail("duplicate %r section" % key, section)
                self.expect_sym(":")
                if key == "invariant":
                    flag = self.expect_ident("'true' or 'false'")
                    if flag.value not in ("true", "false"):
                        self.fail("expected 'true' or 'false'", flag)
                    sections[key] = flag.value == "true"
                else:
                    sections[key] = self.parse_list(lambda: self.parse_word(alphabet))
                self.expect_sym(";")
            elif key == "endomorphism":
                endo_name = self.expect_ident("an endomorphism name").value
                if any(nm == endo_name for nm, _ in endos):
                    self.fail("duplicate endomorphism %r" % endo_name, section)
                self.expect_sym(":")
                images: dict[int, Word] = {}

                def image():
                    gen_tok = self.expect_ident("a generator name")
                    g = self.generator(alphabet, gen_tok)
                    if g in images:
                        self.fail("duplicate image for %r" % gen_tok.value, gen_tok)
                    self.expect_sym("->")
                    images[g] = self.parse_word(alphabet)

                self.parse_list(image)
                self.expect_sym(";")
                missing = [alphabet.names[g] for g in range(len(alphabet)) if g not in images]
                if missing:
                    self.fail(
                        "endomorphism %r is missing images for %s"
                        % (endo_name, ", ".join(missing)),
                        section,
                    )
                endos.append(
                    (endo_name, FreeEndomorphism(alphabet, [images[g] for g in range(len(alphabet))]))
                )
            else:
                self.fail("unknown section %r" % key, section)
        self.expect_sym("}")

        fixed = tuple(sections.get("fixed", ()))
        # without fixed relators the relation subgroup is a closure under
        # the maps by construction; without maps there is nothing to be
        # invariant under
        invariant = sections.get("invariant", not fixed or not endos)
        return LPresentation(
            alphabet=alphabet,
            fixed=fixed,
            endomorphisms=tuple(endos),
            iterated=tuple(sections.get("iterated", ())),
            invariant=invariant,
            name=name,
        )

    def parse_all(self) -> tuple[LPresentation, ...]:
        groups = []
        while self.peek().kind != "end":
            groups.append(self.parse_group())
        if not groups:
            self.fail("no group block found")
        return tuple(groups)


def parse(text: str) -> tuple[LPresentation, ...]:
    """Parse every group block in the text."""
    return _Parser(text).parse_all()


def parse_one(text: str) -> LPresentation:
    """Parse text that must contain exactly one group block."""
    groups = parse(text)
    if len(groups) != 1:
        raise ValueError("expected exactly one group block, found %d" % len(groups))
    return groups[0]


def serialize(pres: LPresentation) -> str:
    """Render a presentation in the file format; parse() round-trips it."""
    lines = ["group %s {" % (pres.name or "G")]
    lines.append("  generators: %s;" % ", ".join(pres.alphabet.names))
    lines.append("  invariant: %s;" % ("true" if pres.invariant else "false"))
    if pres.fixed:
        lines.append("  fixed: %s;" % ", ".join(str(w) for w in pres.fixed))
    for nm, endo in pres.endomorphisms:
        body = ", ".join(
            "%s -> %s" % (pres.alphabet.names[g], endo.images[g])
            for g in range(len(pres.alphabet))
        )
        lines.append("  endomorphism %s: %s;" % (nm, body))
    if pres.iterated:
        lines.append("  iterated: %s;" % ", ".join(str(w) for w in pres.iterated))
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# catalog


_CATALOG_SOURCES = {
    "grigorchuk": """
group grigorchuk {
  generators: a, b, c, d;
  invariant: true;
  fixed: a^2, b^2, c^2, d^2, b*c*d;
  endomorphism sigma: a -> c^a, b -> d, c -> b, d -> c;
  iterated: (a*d)^4, (a*d*a*c*a*c)^4;
}
""",
    "twisted_twin": """
group twisted_twin {
  generators: a, b, c, d;
  invariant: true;
  fixed: a^2, b^2, c^2, d^2;
  endomorphism sigma: a -> c^a, b -> d, c -> b^a, d -> c;
  iterated: [d^a, d], [d, c^a*b], [d, (c^a*b)^c], [d, (c^a*b)^c],
            [c^a*b, c*b^a];
}
""",
    "grigorchuk_supergroup": """
group grigorchuk_supergroup {
  generators: a, b, c, d;
  invariant: true;
  endomorphism sigma: a -> a*b*a, b -> d, c -> b, d -> c;
  iterated: a^2, [b, c], [c, c^a], [c, d^a], [d, d^a],
            [c^(a*b), (c^(a*b))^a], [c^(a*b), (d^(a*b))^a],
            [d^(a*b), (d^(a*b))^a];
}
""",
    "basilica": """
group basilica {
  generators: a, b;
  invariant: true;
  endomorphism sigma: a -> b^2, b -> a;
  iterated: [a, a^b];
}
""",
    "bsv": """
group bsv {
  generators: a, b;
  invariant: true;
  endomorphism epsilon: a -> a^2, b -> a^2*b^-1*a^2;
  iterated: [b, b^a], [b, b^(a^3)];
}
""",
}

_catalog_cache: dict[str, LPresentation] = {}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG_SOURCES)


def load_catalog(name: str) -> LPresentation:
    if name not in _CATALOG_SOURCES:
        raise ValueError(
            "unknown catalog group %r; available: %s" % (name, ", ".join(_CATALOG_SOURCES))
        )
    if name not in _catalog_cache:
        _catalog_cache[name] = parse_one(_CATALOG_SOURCES[name])
    return _catalog_cache[name]


# --------------------------------------------------------------------------
# adjustment


class AdjustedLPresentation(NamedTuple):
    """An equivalent presentation whose relator lattice is explicit.

    basis_words carry the exponent-vector basis of the full relator
    lattice (basis_vectors, in Hermite normal form, one row per word).
    fixed_consequences and iterated_consequences have zero exponent
    vectors: they record how the original relators reduce over the
    basis, as exact words.
    """

    original: LPresentation
    basis_words: tuple[Word, ...]
    basis_vectors: tuple[tuple[int, ...], ...]
    fixed_consequences: tuple[Word, ...]
    iterated_consequences: tuple[Word, ...]

    @property
    def presentation(self) -> LPresentation:
        """Assembled presentation: consequences and basis fixed, rest iterated."""
        name = self.original.name + "_adjusted" if self.original.name else "adjusted"
        return LPresentation(
            alphabet=self.original.alphabet,
            fixed=self.fixed_consequences + self.basis_words,
            endomorphisms=self.original.endomorphisms,
            iterated=self.iterated_consequences,
            invariant=self.original.invariant,
            name=name,
        )

    def abelianization(self) -> AbelianInvariants:
        return smith_invariants(
            [list(v) for v in self.basis_vectors], len(self.original.alphabet)
        )


_FIXED, _ITERATED, _PROBE = range(3)


class _EchelonRow:
    __slots__ = ("vector", "word", "pivot")

    def __init__(self, vector: list[int], word: Word, pivot: int):
        self.vector = vector
        self.word = word
        self.pivot = pivot


def _bound(length: int) -> None:
    """Refuse to build a word of more than MAX_WORD_LENGTH syllables."""
    if length > MAX_WORD_LENGTH:
        raise ValueError("adjustment builds a word longer than %d syllables" % MAX_WORD_LENGTH)


def _minus(vec: list[int], word: Word, q: int, row: _EchelonRow) -> tuple[list[int], Word]:
    """(vec, word) minus q times row: the vector and its witness word."""
    _bound(len(word.syllables) + row.word.power_length(-q))
    return [a - q * b for a, b in zip(vec, row.vector)], word * row.word ** (-q)


def _image(endo: FreeEndomorphism, word: Word) -> Word:
    _bound(sum(endo.images[g].power_length(e) for g, e in word.syllables))
    return endo(word)


def adjust(pres: LPresentation) -> AdjustedLPresentation:
    """Rewrite the relators so their exponent vectors form a lattice basis.

    Every relator (and, where the lattice keeps growing, its images
    under the endomorphisms) is reduced against a running echelon
    basis of exponent vectors.  Each basis row keeps a witness word
    with exactly that exponent vector; a relator that reduces to the
    zero vector is replaced by its witness, a product of the original
    relator with basis words, which lies in the derived subgroup.
    Fixed relators reduce into fixed consequences, iterated ones into
    iterated consequences, and the process terminates because the
    lattice cannot grow forever.

    The basis also takes in the images of the fixed relators.  In an
    invariant presentation they lie in the relation subgroup, so the
    basis spans the fixed vectors plus the closure of the iterated ones
    under the endomorphisms' matrices; a ValueError is raised when it
    does not, as the invariant claim is then false.  A ValueError is
    also raised before any witness word or image would grow past
    MAX_WORD_LENGTH syllables.
    """
    if not pres.invariant:
        raise ValueError("adjustment requires an invariant presentation")
    echelon: list[_EchelonRow] = []
    # consequences by sink; a probe's consequence is dropped
    sinks: dict[int, list[Word]] = {_FIXED: [], _ITERATED: []}

    def insert(word: Word, sink: int) -> bool:
        grew = False
        pending = deque([(list(word.exponent_vector()), word, sink)])
        while pending:
            vec, w, snk = pending.popleft()
            # a pass changes rows in place only; new rows wait in pending
            for row in echelon:
                p = row.pivot
                if any(vec[:p]):
                    break
                if not vec[p]:
                    continue
                d = row.vector[p]
                q, r = divmod(vec[p], d)
                if r == 0:
                    vec, w = _minus(vec, w, q, row)
                    continue
                # replace the row by the gcd row; the old row is displaced
                g, x, y = xgcd(d, vec[p])
                _bound(row.word.power_length(x) + w.power_length(y))
                new = _EchelonRow(
                    [x * a + y * b for a, b in zip(row.vector, vec)], row.word**x * w**y, p
                )
                pending.append((*_minus(row.vector, row.word, d // g, new), _FIXED))
                vec, w = _minus(vec, w, vec[p] // g, new)
                row.vector, row.word = new.vector, new.word
                grew = True
            lead = next((j for j, x in enumerate(vec) if x), None)
            if lead is not None:
                if vec[lead] < 0:
                    vec, w = [-x for x in vec], w.inverse()
                slot = bisect_left(echelon, lead, key=lambda row: row.pivot)
                echelon.insert(slot, _EchelonRow(vec, w, lead))
                grew = True
            elif w and snk in sinks:
                sinks[snk].append(w)
        return grew

    queue: deque[tuple[Word, int]] = deque()
    for q in pres.fixed:
        if insert(q, _FIXED):
            queue.extend((_image(endo, q), _PROBE) for endo in pres.maps)
    queue.extend((r, _ITERATED) for r in pres.iterated)
    while queue:
        word, sink = queue.popleft()
        if insert(word, sink):
            queue.extend((_image(endo, word), sink) for endo in pres.maps)

    # canonicalize: reduce entries above each pivot into [0, pivot)
    for k, rk in enumerate(echelon):
        for ri in echelon[:k]:
            q = ri.vector[rk.pivot] // rk.vector[rk.pivot]
            if q:
                ri.vector, ri.word = _minus(ri.vector, ri.word, q, rk)

    for row in echelon:
        assert list(row.word.exponent_vector()) == row.vector
    basis_vectors = tuple(tuple(row.vector) for row in echelon)
    n = len(pres.alphabet)
    spun = spin_closure(
        [q.exponent_vector() for q in pres.iterated], [endo.matrix() for endo in pres.maps], ncols=n
    )
    relations = hnf([*(q.exponent_vector() for q in pres.fixed), *spun.rows], ncols=n)
    if relations.rows != basis_vectors:
        raise ValueError(
            "ill-defined image detected: the endomorphisms do not map the "
            "relator lattice into itself, so the presentation is not invariant"
        )

    return AdjustedLPresentation(
        original=pres,
        basis_words=tuple(row.word for row in echelon),
        basis_vectors=basis_vectors,
        fixed_consequences=tuple(sinks[_FIXED]),
        iterated_consequences=tuple(sinks[_ITERATED]),
    )
