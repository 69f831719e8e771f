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
bare 1 is the empty word.  The generators section must come first;
# starts a comment running to the end of the line.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .lattices import AbelianInvariants, hnf, smith_invariants, spin_closure, xgcd
from .words import Alphabet, FreeEndomorphism, Word, commutator


class ParseError(ValueError):
    """Syntax or semantic error in presentation text, with position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


@dataclass(frozen=True)
class LPresentation:
    """An L-presentation over a fixed alphabet.

    endomorphisms is an ordered tuple of (name, map) pairs; the order
    fixes the deterministic processing order everywhere downstream.
    """

    alphabet: Alphabet
    fixed: tuple[Word, ...]
    endomorphisms: tuple[tuple[str, FreeEndomorphism], ...]
    iterated: tuple[Word, ...]
    invariant: bool
    name: str = ""

    def __post_init__(self):
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

    @property
    def maps(self) -> tuple[FreeEndomorphism, ...]:
        return tuple(endo for _, endo in self.endomorphisms)


# --------------------------------------------------------------------------
# tokenizer and parser


# Each level of nested words costs the word grammar three stack frames;
# deeper input is rejected well before Python's recursion limit.
MAX_NESTING = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident' | 'int' | 'sym' | 'end'
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if text.startswith("->", i):
            tokens.append(_Token("sym", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "{}()[],;:*^-":
            tokens.append(_Token("sym", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

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
        return -value if negative else value

    def parse_atom(self, alphabet: Alphabet) -> Word:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            try:
                g = alphabet.index(tok.value)
            except ValueError:
                self.fail("unknown generator %r" % tok.value, tok)
            return Word(alphabet, ((g, 1),))
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
            return commutator(u, v)
        self.fail("expected a generator, '(', '[' or 1")

    def parse_factor(self, alphabet: Alphabet) -> Word:
        w = self.parse_atom(alphabet)
        while self.at_sym("^"):
            self.advance()
            tok = self.peek()
            if tok.kind == "int" or (tok.kind == "sym" and tok.value == "-"):
                n = self.parse_int()
                try:
                    w = w**n
                except (OverflowError, MemoryError):
                    self.fail("exponent too large to expand", tok)
            else:
                w = w.conjugate(self.parse_atom(alphabet))
        return w

    def parse_word(self, alphabet: Alphabet) -> Word:
        if self.depth == MAX_NESTING:
            self.fail("words nested more than %d deep" % MAX_NESTING)
        self.depth += 1
        w = self.parse_factor(alphabet)
        while self.at_sym("*"):
            self.advance()
            w = w * self.parse_factor(alphabet)
        self.depth -= 1
        return w

    def parse_word_list(self, alphabet: Alphabet) -> list[Word]:
        words = [self.parse_word(alphabet)]
        while self.at_sym(","):
            self.advance()
            words.append(self.parse_word(alphabet))
        return words

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
        names = [self.expect_ident("a generator name").value]
        while self.at_sym(","):
            self.advance()
            names.append(self.expect_ident("a generator name").value)
        self.expect_sym(";")
        if len(set(names)) != len(names):
            self.fail("generator names must be distinct", first)
        alphabet = Alphabet(names)

        fixed: Optional[list[Word]] = None
        iterated: Optional[list[Word]] = None
        invariant: Optional[bool] = None
        endos: list[tuple[str, FreeEndomorphism]] = []

        while not self.at_sym("}"):
            section = self.expect_ident("a section name or '}'")
            if section.value == "fixed":
                if fixed is not None:
                    self.fail("duplicate 'fixed' section", section)
                self.expect_sym(":")
                fixed = self.parse_word_list(alphabet)
                self.expect_sym(";")
            elif section.value == "iterated":
                if iterated is not None:
                    self.fail("duplicate 'iterated' section", section)
                self.expect_sym(":")
                iterated = self.parse_word_list(alphabet)
                self.expect_sym(";")
            elif section.value == "invariant":
                if invariant is not None:
                    self.fail("duplicate 'invariant' section", section)
                self.expect_sym(":")
                flag = self.expect_ident("'true' or 'false'")
                if flag.value not in ("true", "false"):
                    self.fail("expected 'true' or 'false'", flag)
                invariant = flag.value == "true"
                self.expect_sym(";")
            elif section.value == "endomorphism":
                endo_name = self.expect_ident("an endomorphism name").value
                if any(nm == endo_name for nm, _ in endos):
                    self.fail("duplicate endomorphism %r" % endo_name, section)
                self.expect_sym(":")
                images: dict[int, Word] = {}
                while True:
                    gen_tok = self.expect_ident("a generator name")
                    try:
                        g = alphabet.index(gen_tok.value)
                    except ValueError:
                        self.fail("unknown generator %r" % gen_tok.value, gen_tok)
                    if g in images:
                        self.fail("duplicate image for %r" % gen_tok.value, gen_tok)
                    self.expect_sym("->")
                    images[g] = self.parse_word(alphabet)
                    if not self.at_sym(","):
                        break
                    self.advance()
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
                self.fail("unknown section %r" % section.value, section)
        self.expect_sym("}")

        fixed = fixed or []
        iterated = iterated or []
        if invariant is None:
            # without fixed relators the relation subgroup is a closure
            # under the maps by construction; without maps there is
            # nothing to be invariant under
            invariant = not fixed or not endos
        return LPresentation(
            alphabet=alphabet,
            fixed=tuple(fixed),
            endomorphisms=tuple(endos),
            iterated=tuple(iterated),
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


@dataclass(frozen=True)
class AdjustedLPresentation:
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


_FIXED, _ITERATED, _PROBE, _DISPLACED = range(4)


class _EchelonRow:
    __slots__ = ("vector", "word", "pivot")

    def __init__(self, vector: list[int], word: Word, pivot: int):
        self.vector = vector
        self.word = word
        self.pivot = pivot


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
    does not, as the invariant claim is then false.
    """
    if not pres.invariant:
        raise ValueError("adjustment requires an invariant presentation")
    n = len(pres.alphabet)
    echelon: list[_EchelonRow] = []
    fixed_out: list[Word] = []
    iterated_out: list[Word] = []

    def lead_column(vec: list[int]) -> Optional[int]:
        for j, x in enumerate(vec):
            if x:
                return j
        return None

    def insert(word: Word, sink: int) -> bool:
        grew = False
        pending = deque([(list(word.exponent_vector()), word, sink)])
        while pending:
            vec, w, snk = pending.popleft()
            idx = 0
            placed = False
            while idx < len(echelon):
                row = echelon[idx]
                lead = lead_column(vec)
                if lead is None:
                    break
                if lead < row.pivot:
                    break
                p = row.pivot
                if vec[p]:
                    d = row.vector[p]
                    q, r = divmod(vec[p], d)
                    if r == 0:
                        if q:
                            vec = [a - q * b for a, b in zip(vec, row.vector)]
                            w = w * row.word ** (-q)
                    else:
                        g, x, y = xgcd(d, vec[p])
                        new_vec = [x * a + y * b for a, b in zip(row.vector, vec)]
                        new_word = row.word**x * w**y
                        du, dv = d // g, vec[p] // g
                        disp_vec = [a - du * b for a, b in zip(row.vector, new_vec)]
                        disp_word = row.word * new_word ** (-du)
                        rem_vec = [a - dv * b for a, b in zip(vec, new_vec)]
                        rem_word = w * new_word ** (-dv)
                        row.vector, row.word = new_vec, new_word
                        grew = True
                        pending.append((disp_vec, disp_word, _DISPLACED))
                        vec, w = rem_vec, rem_word
                idx += 1
            lead = lead_column(vec)
            if lead is not None:
                if vec[lead] < 0:
                    vec = [-x for x in vec]
                    w = w.inverse()
                slot = 0
                while slot < len(echelon) and echelon[slot].pivot < lead:
                    slot += 1
                echelon.insert(slot, _EchelonRow(vec, w, lead))
                grew = True
            elif not w.is_identity():
                if snk in (_FIXED, _DISPLACED):
                    fixed_out.append(w)
                elif snk == _ITERATED:
                    iterated_out.append(w)
        return grew

    queue: deque[tuple[Word, int]] = deque()
    for q in pres.fixed:
        if insert(q, _FIXED):
            for endo in pres.maps:
                queue.append((endo(q), _PROBE))
    for r in pres.iterated:
        queue.append((r, _ITERATED))
    while queue:
        word, sink = queue.popleft()
        if insert(word, sink):
            follow = _ITERATED if sink == _ITERATED else _PROBE
            for endo in pres.maps:
                queue.append((endo(word), follow))

    # canonicalize: reduce entries above each pivot into [0, pivot)
    for k in range(len(echelon)):
        rk = echelon[k]
        d = rk.vector[rk.pivot]
        for i in range(k):
            ri = echelon[i]
            q = ri.vector[rk.pivot] // d
            if q:
                ri.vector = [a - q * b for a, b in zip(ri.vector, rk.vector)]
                ri.word = ri.word * rk.word ** (-q)

    for row in echelon:
        assert list(row.word.exponent_vector()) == row.vector
    basis_vectors = tuple(tuple(row.vector) for row in echelon)
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
        fixed_consequences=tuple(fixed_out),
        iterated_consequences=tuple(iterated_out),
    )
