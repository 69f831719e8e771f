"""Weighted polycyclic presentations and collection from the left.

A PcPresentation describes a finitely generated nilpotent group on
generators g_0 < g_1 < ... < g_{n-1}, each with a weight, such that:

* weights are at least 1 and non-decreasing in the generator index;
* for finite relative order o_i there is a power relation
  g_i^{o_i} = tail, with the tail a normal form over generators of
  index > i;
* for i < j there is a conjugation relation g_j^{g_i} = g_j * tail
  with the tail a normal form over generators of index > j and of
  weight at least w_i + w_j; a missing entry means the two generators
  commute.

Normal forms are sparse dicts {generator index: exponent} with the
exponent of a finite-order generator kept in [0, order).  Products are
computed by collection from the left, in one loop over a stack of
(generator, exponent) syllables: u * g^e keeps the part of u below g
and pushes the segment above g, conjugated by g^e, back on the stack.
The segment stops at the first generator of weight > nclass - w_g:
that one and all above it commute with g by weight, as no conjugation
relation exists past the class, so they stay in u.  The generators of
u that some segment can reach are kept as the bits of one integer for
the length of a product, and the segment is that integer masked by a
range of bits precomputed for g.
Conjugation is only ever by g^(+-2^k), from the cached images of the
generators under it: a syllable g^e with any other exponent is split
into g^(+-2^k) for the lowest set bit of |e| and the rest, so it takes
one pass per set bit, not |e| (Vaughan-Lee, "Collection from the
left", J. Symbolic Comput. 9, 1990).  The top weight is central, so a
power of g^a * z, z of the top weight, is g^(a*k) * z^k, collected
once from the syllables with their exponents times k, not squared.
The blocks of syllables that collection pushes again and again are
collected once per presentation state: the power tail of g to the
power of a carry, and the image of g_j under g^(+-2^k) to the power of
its exponent, are kept as syllable lists beside the cached images, so
a carry or a conjugated syllable costs one lookup, a miss on either is
filled in one place, and all of them are dropped whenever the
presentation changes (add_generator, set_power_tail, set_conj_tail,
clear_caches).

Conjugates and commutators never invert the conjugating element.  For
u^v, each syllable g^e of v below the lowest generator of u conjugates
u through the cached images under g^(+-2^k), one pass per set bit of
|e|, as collection would conjugate a segment; the rest of v is
multiplied onto u and divided off on the left again.  The commutator
[u, v] = u^-1 * u^v is divided by u in the same way.  Division finds
the x with u * x = w one syllable at a time, from the lowest generator
on.  A relator is evaluated by the shape of its word: a commutator of
two words through the commutator of their values, a conjugate through
the conjugate of their values, a power of a word through the power
of its value, and any other word syllable by syllable.

Consistency is checked on overlaps: triples a, b, c of one-syllable
normal forms, each collected as (a*b)*c and as a*(b*c).  They are
g_i * g_i^(o_i-1) * g_i for a finite order o_i ("pow"),
g_j^(o_j-1) * g_j * g_i ("pow-conj") and g_j * g_i * g_i^(o_i-1)
("conj-pow") for j > i, and g_k * g_j * g_i for k > j > i ("comm").
The presentation is consistent if and only if every one of these
agrees, as the other overlaps of the rewriting rules reduce to them
(the consistency theorem for nilpotent pc presentations: Sims,
"Computation with Finitely Presented Groups", 1994, the chapter on
polycyclic groups; Vaughan-Lee 1984).  Conjugates by g_i^-1 are
derived from the stored relations, not stored, so they need no
overlap of their own.  The extension machinery checks a restricted
set, which implies the rest.  It leaves out every overlap whose weight
sum (2 w_i for pow) exceeds the class, as no conjugation relation
exists at that weight.  It also leaves out the comm and pow-conj
overlaps whose conjugator g_i is derived, that is, defined by an exact
conjugation or power relation of lower generators: conjugation by g_i
is then a product of conjugations by lower generators (Vaughan-Lee,
"An aspect of the nilpotent quotient algorithm", Computational Group
Theory, Academic Press 1984; Nickel, "Computing nilpotent quotients of
finitely presented groups", DIMACS 25, 1996).  The extension machinery
turns the disagreements into relations between the central generators.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Optional, Sequence

from .lattices import AbelianInvariants, smith_invariants

# generator definitions:
#   ("freetail", s)  correction factor multiplied onto the image of the
#                    s-th free generator during an extension
#   ("conj", i, j)   new factor in the relation g_j^{g_i} = g_j * tail
#   ("pow", i)       new factor in the power relation of g_i


def assert_defining(tail: dict[int, int], g: int):
    """A defining relation's tail ends in its generator g, with exponent 1."""
    if not tail or max(tail) != g or tail[g] != 1:
        raise AssertionError("defining relation lost its generator")


class PcPresentation:
    __slots__ = (
        "nfree",
        "orders",
        "weights",
        "power_tails",
        "conj",
        "definitions",
        "abelian_image",
        "_cache",
        "_masks",
    )

    def __init__(self, nfree: int):
        self.nfree = nfree
        self.orders: list[Optional[int]] = []
        self.weights: list[int] = []
        self.power_tails: dict[int, dict[int, int]] = {}
        self.conj: dict[tuple[int, int], dict[int, int]] = {}
        self.definitions: list[tuple] = []
        self.abelian_image: list[tuple[int, ...]] = []
        # cleared by clear_caches whenever the presentation changes:
        #   (g, s, j)     conj_gen_nf(g, s, j)
        #   (g, s, j, f)  its power f, as syllables to push; g_j^f itself
        #                 when g_j commutes with g_g^s
        #   (g, carry)    the power tail of g to the power carry, as syllables
        self._cache: dict[tuple[int, ...], dict[int, int] | list[tuple[int, int]]] = {}
        # likewise: _segment_masks()
        self._masks: Optional[list[int]] = None

    # ------------------------------------------------------------ structure

    @property
    def ngens(self) -> int:
        return len(self.orders)

    @property
    def nclass(self) -> int:
        return self.weights[-1] if self.weights else 0

    def add_generator(
        self,
        order: Optional[int],
        weight: int,
        definition: tuple,
        ab_image: Sequence[int],
    ) -> int:
        if weight < 1:
            raise ValueError("weights must be at least 1")
        if self.weights and weight < self.weights[-1]:
            raise ValueError("weights must be non-decreasing")
        self.orders.append(order)
        self.weights.append(weight)
        self.definitions.append(definition)
        self.abelian_image.append(tuple(ab_image))
        self.clear_caches()
        return self.ngens - 1

    def set_power_tail(self, i: int, tail: dict[int, int]):
        tail = {g: e for g, e in tail.items() if e}
        if any(g <= i for g in tail):
            raise ValueError("power tail must use generators above its own")
        if tail:
            self.power_tails[i] = tail
        else:
            self.power_tails.pop(i, None)
        self.clear_caches()

    def set_conj_tail(self, i: int, j: int, tail: dict[int, int]):
        if not i < j:
            raise ValueError("conjugation relations are stored for i < j")
        tail = {g: e for g, e in tail.items() if e}
        if any(g <= j for g in tail):
            raise ValueError("conjugation tail must use generators above the conjugated one")
        if any(self.weights[g] < self.weights[i] + self.weights[j] for g in tail):
            raise ValueError("conjugation tail must have weight at least w_i + w_j")
        if tail:
            self.conj[(i, j)] = tail
        else:
            self.conj.pop((i, j), None)
        self.clear_caches()

    def clear_caches(self):
        self._cache.clear()
        self._masks = None

    def _segment_masks(self) -> list[int]:
        """For each generator g, the bits of the generators strictly
        between g and the first generator of weight > nclass - w_g: that
        one and all above it commute with g."""
        if self._masks is None:
            w, c = self.weights, self.nclass
            self._masks = [
                (1 << b) - (2 << g) if b > g + 1 else 0
                for g, b in enumerate(bisect_right(w, c - wg) for wg in w)
            ]
        return self._masks

    def copy(self) -> "PcPresentation":
        twin = PcPresentation(self.nfree)
        twin.orders = list(self.orders)
        twin.weights = list(self.weights)
        twin.power_tails = {i: dict(t) for i, t in self.power_tails.items()}
        twin.conj = {k: dict(t) for k, t in self.conj.items()}
        twin.definitions = list(self.definitions)
        twin.abelian_image = list(self.abelian_image)
        return twin

    # ------------------------------------------------------------ collection

    def mul(self, u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
        return self._collect(dict(u), sorted(v.items(), reverse=True))

    def _collect(self, out: dict[int, int], stack: list[tuple[int, int]]) -> dict[int, int]:
        """Multiply out, a normal form, by the syllables popped off stack.

        A generator of weight > nclass - w_g commutes with g, and so with
        every generator above g, as no conjugation relation exists past
        the class.  So with out = base * g^a * segment * rest (base below
        g, segment the generators above g up to the first of weight
        > nclass - w_g, rest the others), out * g^e is base * g^(a+e) *
        rest * segment^(g^e), and collection only moves the segment: it
        is popped off out, and its conjugate, then the power tail of any
        carry past the order of g, go on the stack to be collected next.
        The generators of out that some segment can reach, those below
        the bound of g_0, are kept as the bits of one integer for the
        length of the call, so the segment is that integer masked by
        the range of g, popped from its highest bit down.  The segment
        is conjugated by g^(+-2^k) only: for any other e, g^e is split
        into g^low for the lowest set bit of e, collected now, and
        g^(e-low), pushed to follow the conjugated segment.  The power
        tail to the power of a carry, and each conjugated syllable of
        the segment, are blocks taken from the cache by one lookup
        each; _block collects a missing one, once until the
        presentation changes.
        """
        ranges = self._segment_masks()
        orders, tails, cache = self.orders, self.power_tails, self._cache
        top = ranges[0].bit_length() if ranges else 0
        mask = 0
        for k in out:
            if k < top:
                mask |= 1 << k
        while stack:
            g, e = stack.pop()
            if not e:
                continue
            segment = 0
            listed = g < top
            if listed:
                segment = mask & ranges[g]
                if segment:
                    mask ^= segment
                    low = e & -e
                    if low != abs(e):
                        low = low if e > 0 else -low
                        stack.append((g, e - low))
                        e = low
            before = out.get(g, 0)
            total = before + e
            carry = 0
            o = orders[g]
            if o is not None:
                carry, total = divmod(total, o)
            if total:
                out[g] = total
                if listed and not before:
                    mask |= 1 << g
            elif before:
                del out[g]
                if listed:
                    mask ^= 1 << g
            while segment:
                j = segment.bit_length() - 1
                segment ^= 1 << j
                key = (g, e, j, out.pop(j))
                syllables = cache.get(key)
                stack += self._block(key) if syllables is None else syllables
            if carry and g in tails:
                key = (g, carry)
                syllables = cache.get(key)
                stack += self._block(key) if syllables is None else syllables
        return out

    def _block(self, key: tuple[int, ...]) -> list[tuple[int, int]]:
        """Syllables of a block collection pushes, in reverse order, for a
        cache miss on key: the power tail of g_g to the power carry for
        key (g, carry), g_j^f conjugated by g_g^s for key (g, s, j, f).
        Collected once and cached under key until a relation changes."""
        if len(key) == 2:
            g, k = key
            nf = self.power_tails[g]
        else:
            g, s, j, k = key
            nf = self.conj_gen_nf(g, s, j)
            if len(nf) == 1:
                # g_j commutes with g_g^s, so its power is g_j^f
                syllables = self._cache[key] = [(j, k)]
                return syllables
        power = nf if k == 1 else self.pow_nf(nf, k)
        syllables = self._cache[key] = sorted(power.items(), reverse=True)
        return syllables

    def inv(self, u: dict[int, int]) -> dict[int, int]:
        return self._collect({}, [(g, -u[g]) for g in sorted(u)])

    def pow_nf(self, u: dict[int, int], k: int) -> dict[int, int]:
        """Normal form of u^k for any integer k.

        The generators of the top weight are central, so when u has at
        most one syllable g^a below the top weight, u = g^a * z with z
        central and u^k = g^(a*k) * z^k: one collection of u's
        syllables, each exponent multiplied by k, which takes the
        carries and the power tails.  Any other u is powered by
        squaring, inverted first when k < 0.
        """
        if k == 0 or not u:
            return {}
        syllables = sorted(u.items(), reverse=True)
        if len(syllables) < 2 or syllables[-2][0] >= bisect_left(self.weights, self.nclass):
            return self._collect({}, [(g, e * k) for g, e in syllables])
        if k < 0:
            u = self.inv(u)
            k = -k
        result: dict[int, int] = {}
        base = dict(u)
        while True:
            if k & 1:
                result = self.mul(result, base)
            k >>= 1
            if not k:
                return result
            base = self.mul(base, base)

    def conjugate(self, u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
        """Normal form of u^v = v^-1 * u * v, never inverting v.

        Conjugation fixes the lowest generator g of u and its weight w,
        and a generator of weight > nclass - w commutes with every
        generator of weight w or more, so the syllables of v past that
        weight are dropped first.  Each syllable h^e of v below g
        conjugates u through the cached images under h^(+-2^k), one
        pass per set bit of |e|.  The rest of v, from g on, is taken as
        the x with rest * x = u * rest.
        """
        if not u:
            return {}
        weights = self.weights
        low = min(u)
        bound = self.nclass - weights[low]
        nf, rest = u, {}
        for g, e in sorted(v.items()):
            if weights[g] > bound:
                break
            if g >= low:
                rest[g] = e
                continue
            sign, e = (1, e) if e > 0 else (-1, -e)
            while e:
                bit = e & -e
                nf = self._conj_nf(nf, g, sign * bit)
                e -= bit
        if rest:
            return self.left_quotient(rest, self.mul(nf, rest))
        return dict(nf) if nf is u else nf

    def comm_nf(self, u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
        """Normal form of the commutator [u, v] = u^-1 * u^v."""
        return self.left_quotient(u, self.conjugate(u, v))

    def left_quotient(self, u: dict[int, int], w: dict[int, int]) -> dict[int, int]:
        """Normal form of u^-1 * w for normal forms u and w, found as the
        x with u * x = w.

        At the lowest generator g where u and w differ, x takes the
        exponent of g that makes them agree, and u is multiplied by it.
        That changes u only above g, so x is built in increasing order.
        """
        u, x = dict(u), {}
        orders = self.orders
        while True:
            g = min((h for h in u.keys() | w.keys() if u.get(h, 0) != w.get(h, 0)), default=None)
            if g is None:
                return x
            e = w.get(g, 0) - u.get(g, 0)
            if orders[g] is not None:
                e %= orders[g]
            x[g] = e
            self._collect(u, [(g, e)])

    def conj_gen_nf(self, g: int, s: int, j: int) -> dict[int, int]:
        """Normal form of g_j conjugated by g_g^s, for j > g and s = +-2^k.

        Level k is level k - 1 applied to level k - 1's image.  The
        levels are built in a loop from the highest one cached, so a
        cold level costs no stack depth, and every level is cached
        until a tail changes.
        """
        cache = self._cache
        cached = cache.get((g, s, j))
        if cached is not None:
            return cached
        tail = self.conj.get((g, j))
        if not tail:
            res = cache[(g, s, j)] = {j: 1}
            return res
        unit = 1 if s > 0 else -1
        level, res = s, None
        while res is None and level != unit:
            level //= 2
            res = cache.get((g, level, j))
        if res is None:
            if unit == 1:
                res = {j: 1}
                res.update(tail)
            else:
                # from g_j^{g} = g_j * t:  g_j^{g^-1} = g_j * (t^{g^-1})^-1
                res = self.mul({j: 1}, self.inv(self._conj_nf(tail, g, -1)))
            cache[(g, unit, j)] = res
        while level != s:
            res = self._conj_nf(res, g, level)
            level *= 2
            cache[(g, level, j)] = res
        return res

    def _conj_nf(self, nf: dict[int, int], g: int, s: int) -> dict[int, int]:
        """Conjugate a normal form over generators > g by g_g^s, s = +-2^k,
        one cache lookup per syllable as in _collect."""
        cache = self._cache
        stack: list[tuple[int, int]] = []
        for j, f in sorted(nf.items(), reverse=True):
            key = (g, s, j, f)
            syllables = cache.get(key)
            stack += self._block(key) if syllables is None else syllables
        return self._collect({}, stack)

    def substitute(
        self, images: Sequence[dict[int, int]], syllables: Iterable[tuple[int, int]]
    ) -> dict[int, int]:
        """Product of images[g]^e over the (g, e) syllables: a word's, or
        the sorted items of a normal form to map it by g -> images[g].

        Each factor is collected onto one running normal form: the image
        itself for e = 1, its power otherwise.
        """
        out: dict[int, int] = {}
        for g, e in syllables:
            image = images[g]
            if e != 1:
                image = self.pow_nf(image, e)
            stack = sorted(image.items(), reverse=True)
            self._collect(out, stack)
        return out

    def evaluate(self, images: Sequence[dict[int, int]], word) -> dict[int, int]:
        """Image of a Word under g -> images[g], by its shape: the
        commutator of a ("comm", u, v) word's values through comm_nf,
        the conjugate of a ("conj", w, v) word's values through
        conjugate, the power of a ("pow", w, n) word's value through
        pow_nf, and the syllables of any other word, or of the identity,
        through substitute."""
        shape = word.shape
        if shape is None or not word.syllables:
            return self.substitute(images, word.syllables)
        kind, first, second = shape
        if kind == "pow":
            return self.pow_nf(self.evaluate(images, first), second)
        combine = self.comm_nf if kind == "comm" else self.conjugate
        return combine(self.evaluate(images, first), self.evaluate(images, second))

    # ------------------------------------------------------------ consistency

    def overlap_checks(
        self, prune: bool = True
    ) -> Iterator[tuple[str, tuple[int, ...], dict[int, int], dict[int, int]]]:
        """Collect each overlap a*b*c as lhs = (a*b)*c and rhs = a*(b*c).

        Yields (kind, indices, lhs, rhs) for the triples of the
        consistency theorem (see the module docstring): pow (i) is
        g_i, g_i^(o_i-1), g_i; pow-conj (j, i) is g_j^(o_j-1), g_j, g_i;
        conj-pow (j, i) is g_j, g_i, g_i^(o_i-1); comm (k, j, i) is
        g_k, g_j, g_i.  The presentation is consistent when every pair
        agrees.  With prune set, only the restricted set of
        _overlap_triples is collected: no overweight or derived
        conjugator overlaps (Vaughan-Lee 1984; Nickel 1996).  Every
        product is collected straight from syllables by _collect, as mul
        would after copying and sorting its factors: a syllable onto the
        other, or the syllables of a normal form onto a copy of one.
        Each product of two syllables is collected once per call and
        kept: g_j*g_i is b*c of the pow-conj overlap and of every comm
        triple over (i, j), and a*b of the conj-pow overlap.  In a comm triple
        c = g_i lies below b = g_j, so b*c is g_i times
        b^c = conj_gen_nf(i, 1, j), and a*(b*c) is collected as
        (a*c) * b^c: collecting a times b*c would pop g_i first and then
        exactly the syllables of b^c, so the result is the same, and
        a*c = g_k*g_i is shared with the other triples over (i, k).
        The pow-conj overlap keeps a*(b*c), as its a*c, g_j^(o_j-1)*g_i,
        would be a product of its own.
        """
        collect = self._collect
        products: dict[tuple[tuple[int, int], tuple[int, int]], dict[int, int]] = {}

        def product(x: tuple[int, int], y: tuple[int, int]) -> dict[int, int]:
            nf = products.get((x, y))
            if nf is None:
                nf = products[(x, y)] = collect(dict([x]), [y])
            return nf

        for kind, idx, a, b, c in self._overlap_triples(prune):
            if kind == "comm":
                ac = dict(product(a, c))
                rhs = collect(ac, sorted(self.conj_gen_nf(c[0], 1, b[0]).items(), reverse=True))
            else:
                rhs = collect(dict([a]), sorted(product(b, c).items(), reverse=True))
            yield kind, idx, collect(dict(product(a, b)), [c]), rhs

    def _overlap_triples(
        self, prune: bool
    ) -> Iterator[tuple[str, tuple[int, ...], tuple[int, int], tuple[int, int], tuple[int, int]]]:
        """The overlaps of overlap_checks as (kind, indices, a, b, c),
        each of a, b, c a syllable (g, e) standing for g^e.

        Commutator triples in which no pair has a stored conjugation
        relation commute pairwise and are always skipped.  With prune
        set, the overlaps that follow from the others are skipped too:

        * overweight ones: pow (i) with 2 w_i > nclass, pow-conj and
          conj-pow (j, i) with w_i + w_j > nclass, and comm (k, j, i)
          with w_i + w_j + w_k > nclass.  No conjugation relation exists
          at those weights, so g_i commutes with every generator the
          overlap collects past it, and both sides agree.  As weights
          are at least 1, every overlap that meets a generator of the
          top weight is one of them;
        * comm (k, j, i) and pow-conj (j, i) whose conjugator g_i is
          derived: defined by a conjugation or power relation of lower
          generators whose tail ends in g_i with exponent 1.  Conjugation
          by g_i is then a product of conjugations by lower generators,
          whose overlaps are checked (Vaughan-Lee, "An aspect of the
          nilpotent quotient algorithm", Computational Group Theory,
          1984; Nickel, DIMACS 25, 1996).  The defining relation of each
          derived conjugator is checked, and AssertionError raised if
          it lost its generator.
        """
        n = self.ngens
        orders, weights, conj, bound = self.orders, self.weights, self.conj, self.nclass
        conjugator = [not (prune and self._is_derived(g)) for g in range(n)]
        for i in range(n):
            # weights ascend with the index, so past the first overweight
            # i, j or k every later one is overweight too
            if prune and 2 * weights[i] > bound:
                break
            oi = orders[i]
            if oi is not None:
                yield "pow", (i,), (i, 1), (i, oi - 1), (i, 1)
            for j in range(i + 1, n):
                wij = weights[i] + weights[j]
                if prune and wij > bound:
                    break
                oj = orders[j]
                if oj is not None and conjugator[i]:
                    yield "pow-conj", (j, i), (j, oj - 1), (j, 1), (i, 1)
                if oi is not None:
                    yield "conj-pow", (j, i), (j, 1), (i, 1), (i, oi - 1)
                if not conjugator[i]:
                    continue
                for k in range(j + 1, n):
                    if prune and wij + weights[k] > bound:
                        break
                    if (i, j) in conj or (i, k) in conj or (j, k) in conj:
                        yield "comm", (k, j, i), (k, 1), (j, 1), (i, 1)

    def _is_derived(self, g: int) -> bool:
        """Whether g_g is defined by a conjugation or power relation; its
        tail must then end in g_g with exponent 1."""
        d = self.definitions[g]
        if d[0] == "conj":
            assert_defining(self.conj.get((d[1], d[2]), {}), g)
        elif d[0] == "pow":
            assert_defining(self.power_tails.get(d[1], {}), g)
        else:
            return False
        return True

    def is_consistent(self, prune: bool = True) -> bool:
        return all(lhs == rhs for _, _, lhs, rhs in self.overlap_checks(prune=prune))

    # ------------------------------------------------------------ invariants

    def relation_rows(self, lo: int, hi: int) -> list[list[int]]:
        """Power relations of the generators in [lo, hi), as rows over them.

        The row of g_i is o_i at its own column minus the exponents of
        its power tail; tail entries at or above hi are left out.
        """
        rows = []
        for g in range(lo, hi):
            o = self.orders[g]
            if o is None:
                continue
            row = [0] * (hi - lo)
            row[g - lo] = o
            for l, e in self.power_tails.get(g, {}).items():
                if l < hi:
                    row[l - lo] -= e
            rows.append(row)
        return rows

    def lcs_factor(self, w: int) -> AbelianInvariants:
        """Invariants of the weight-w layer of the lower central series.

        The weight-w generators form one block, as weights never
        decrease, and the layer is presented by the block's power
        relations.  A power tail counts inside its own block: the
        relations imposed on a central block can give a generator a
        tail among the generators of its own weight.  Tail entries in
        deeper blocks are zero in the layer.  Past the class the layer
        is trivial.
        """
        lo, hi = bisect_left(self.weights, w), bisect_right(self.weights, w)
        return smith_invariants(self.relation_rows(lo, hi), hi - lo)

    def lcs_factors(self) -> list[AbelianInvariants]:
        """Invariants of the lower central series layers, weight 1 upward."""
        return [self.lcs_factor(w) for w in range(1, self.nclass + 1)]

    def abelian_invariants(self) -> AbelianInvariants:
        return self.lcs_factor(1)

    def order(self) -> Optional[int]:
        total = 1
        for o in self.orders:
            if o is None:
                return None
            total *= o
        return total
