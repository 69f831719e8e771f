"""Weighted polycyclic presentations and collection from the left.

A PcPresentation describes a finitely generated nilpotent group on
generators g_0 < g_1 < ... < g_{n-1}, each with a weight, such that:

* weights are non-decreasing in the generator index;
* for finite relative order o_i there is a power relation
  g_i^{o_i} = tail, with the tail a normal form over generators of
  index > i;
* for i < j there is a conjugation relation g_j^{g_i} = g_j * tail
  with the tail a normal form over generators of index > j and of
  weight at least w_i + w_j; a missing entry means the two generators
  commute.

The weight condition leaves the generators of the top weight without
conjugation relations, so they form a central block, inferred from
the weights: it is the new layer while a quotient is extended, and
the last lower central layer of a quotient.

Normal forms are sparse dicts {generator index: exponent} with the
exponent of a finite-order generator kept in [0, order).  Products are
computed by collection from the left, in one loop over a stack of
(generator, exponent) syllables: u * g^e keeps the part of u below g
and pushes the part above g, conjugated by g^e, back on the stack.
Conjugation is only ever by g^(+-2^k), from the cached images of the
generators under it: a syllable g^e with any other exponent is split
into g^(+-2^k) for the lowest set bit of |e| and the rest, so it takes
one pass per set bit, not |e| (Vaughan-Lee, "Collection from the
left", J. Symbolic Comput. 9, 1990).  A syllable of the central block
only adds to its exponent.

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
overlap of their own.  The extension machinery turns the
disagreements into relations between the central generators.
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


class PcPresentation:
    __slots__ = (
        "nfree",
        "orders",
        "weights",
        "power_tails",
        "conj",
        "definitions",
        "abelian_image",
        "_conj_cache",
    )

    def __init__(self, nfree: int):
        self.nfree = nfree
        self.orders: list[Optional[int]] = []
        self.weights: list[int] = []
        self.power_tails: dict[int, dict[int, int]] = {}
        self.conj: dict[tuple[int, int], dict[int, int]] = {}
        self.definitions: list[tuple] = []
        self.abelian_image: list[tuple[int, ...]] = []
        self._conj_cache: dict[tuple[int, int, int], dict[int, int]] = {}

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
        if self.weights and weight < self.weights[-1]:
            raise ValueError("weights must be non-decreasing")
        self.orders.append(order)
        self.weights.append(weight)
        self.definitions.append(definition)
        self.abelian_image.append(tuple(ab_image))
        return self.ngens - 1

    def set_power_tail(self, i: int, tail: dict[int, int]):
        tail = {g: e for g, e in tail.items() if e}
        if any(g <= i for g in tail):
            raise ValueError("power tail must use generators above its own")
        if tail:
            self.power_tails[i] = tail
        else:
            self.power_tails.pop(i, None)
        self._conj_cache.clear()

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
        self._conj_cache.clear()

    def clear_caches(self):
        self._conj_cache.clear()

    def _central_bound(self) -> int:
        """Index of the first generator of the top weight: the central block."""
        w = self.weights
        return bisect_left(w, w[-1]) if w else 0

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

        With out = base * g^a * segment * central (base below g, the
        segment up to the central block), out * g^e is base * g^(a+e) *
        segment^(g^e) * central.  So the segment is popped off out, and
        its conjugate, then the power tail of any carry past the order
        of g, go on the stack to be collected next.  The segment is
        conjugated by g^(+-2^k) only: for any other e, g^e is split into
        g^low for the lowest set bit of e, collected now, and g^(e-low),
        pushed to follow the conjugated segment.  A central g only adds
        to its exponent and pushes its tail times the carry.
        """
        cs = self._central_bound()
        orders, tails = self.orders, self.power_tails
        # no generator of out below the central block is above top
        top = max(out, default=-1)
        while stack:
            g, e = stack.pop()
            if not e:
                continue
            segment = None
            if g < cs:
                if g < top:
                    segment = sorted([k for k in out if g < k < cs])
                    segment = [(k, out.pop(k)) for k in segment]
                    low = e & -e
                    if segment and low != abs(e):
                        low = low if e > 0 else -low
                        stack.append((g, e - low))
                        e = low
                top = g
            total = out.get(g, 0) + e
            carry = 0
            o = orders[g]
            if o is not None:
                carry, total = divmod(total, o)
            if total:
                out[g] = total
            else:
                out.pop(g, None)
            if segment:
                stack += self._conjugate_syllables(g, e, segment)
            if carry and g in tails:
                if g < cs and carry != 1:
                    stack += sorted(self.pow_nf(tails[g], carry).items(), reverse=True)
                else:
                    # the tail itself, or a central tail, whose power
                    # scales its exponents as it commutes
                    stack += sorted(((h, carry * f) for h, f in tails[g].items()), reverse=True)
        return out

    def _conjugate_syllables(
        self, g: int, s: int, segment: list[tuple[int, int]]
    ) -> list[tuple[int, int]]:
        """Syllables of a sorted segment over generators > g, conjugated by
        g_g^s for s = +-2^k, in reverse order to be pushed on a stack."""
        out: list[tuple[int, int]] = []
        for j, f in reversed(segment):
            image = self.conj_gen_nf(g, s, j)
            if len(image) == 1:
                # g_j commutes with g_g^s, so its power is g_j^f
                out.append((j, f))
            else:
                out += sorted((image if f == 1 else self.pow_nf(image, f)).items(), reverse=True)
        return out

    def inv(self, u: dict[int, int]) -> dict[int, int]:
        return self._collect({}, [(g, -u[g]) for g in sorted(u)])

    def pow_nf(self, u: dict[int, int], k: int) -> dict[int, int]:
        if k == 0 or not u:
            return {}
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

    def comm_nf(self, u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
        """Normal form of the commutator u^-1 * v^-1 * u * v."""
        return self.substitute((u, v), ((0, -1), (1, -1), (0, 1), (1, 1)))

    def conj_gen_nf(self, g: int, s: int, j: int) -> dict[int, int]:
        """Normal form of g_j conjugated by g_g^s, for j > g and s = +-2^k.

        Level k is level k - 1 applied to level k - 1's image.  The
        levels are built in a loop from the highest one cached, so a
        cold level costs no stack depth, and every level is cached
        until a tail changes.
        """
        cache = self._conj_cache
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
        """Conjugate a normal form over generators > g by g_g^s, s = +-2^k."""
        return self._collect({}, self._conjugate_syllables(g, s, sorted(nf.items())))

    def substitute(
        self, images: Sequence[dict[int, int]], syllables: Iterable[tuple[int, int]]
    ) -> dict[int, int]:
        """Product of images[g]^e over the (g, e) syllables: a word's, or
        the sorted items of a normal form to map it by g -> images[g].

        Each factor is collected onto one running normal form: the image
        itself for e = 1, its inverse word for e = -1, its power otherwise.
        """
        out: dict[int, int] = {}
        for g, e in syllables:
            image = images[g]
            if e == 1:
                stack = sorted(image.items(), reverse=True)
            elif e == -1:
                stack = [(h, -f) for h, f in sorted(image.items())]
            else:
                stack = sorted(self.pow_nf(image, e).items(), reverse=True)
            self._collect(out, stack)
        return out

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
        agrees.  Each product of two syllables is collected once per
        call: g_j*g_i is b*c of the pow-conj overlap and of every comm
        triple over (i, j), and a*b of the conj-pow overlap.
        """
        mul = self.mul
        products: dict[tuple[tuple[int, int], tuple[int, int]], dict[int, int]] = {}

        def product(x: tuple[int, int], y: tuple[int, int]) -> dict[int, int]:
            if (x, y) not in products:
                products[(x, y)] = mul(dict([x]), dict([y]))
            return products[(x, y)]

        for kind, idx, a, b, c in self._overlap_triples(prune):
            yield kind, idx, mul(product(a, b), dict([c])), mul(dict([a]), product(b, c))

    def _overlap_triples(
        self, prune: bool
    ) -> Iterator[tuple[str, tuple[int, ...], tuple[int, int], tuple[int, int], tuple[int, int]]]:
        """The overlaps of overlap_checks as (kind, indices, a, b, c),
        each of a, b, c a syllable (g, e) standing for g^e.

        Commutator triples in which no pair has a stored conjugation
        relation commute pairwise and are always skipped.  With prune
        set, two more kinds of overlap are skipped, as they always agree:
        those that involve a generator of the central block (the top
        weight, whose generators have no conjugation relations), and
        commutator triples whose weight sum exceeds nclass (they lie in a
        trivial section of the group).
        """
        n = self._central_bound() if prune else self.ngens
        orders, weights, conj, bound = self.orders, self.weights, self.conj, self.nclass
        for i in range(n):
            oi = orders[i]
            if oi is not None:
                yield "pow", (i,), (i, 1), (i, oi - 1), (i, 1)
            for j in range(i + 1, n):
                oj = orders[j]
                if oj is not None:
                    yield "pow-conj", (j, i), (j, oj - 1), (j, 1), (i, 1)
                if oi is not None:
                    yield "conj-pow", (j, i), (j, 1), (i, 1), (i, oi - 1)
                wij = weights[i] + weights[j]
                for k in range(j + 1, n):
                    if prune and wij + weights[k] > bound:
                        # weights ascend with the index, so every later k is pruned too
                        break
                    if (i, j) in conj or (i, k) in conj or (j, k) in conj:
                        yield "comm", (k, j, i), (k, 1), (j, 1), (i, 1)

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

    def lcs_factors(self) -> list[AbelianInvariants]:
        """Invariants of the lower central series layers, weight 1 upward.

        The weight-w generators form one block, as weights never
        decrease, and the layer is presented by the block's power
        relations.  A power tail counts inside its own block: the
        relations imposed on a central block can give a generator a
        tail among the generators of its own weight.  Tail entries in
        deeper blocks are zero in the layer.
        """
        out = []
        for w in range(1, self.nclass + 1):
            lo, hi = bisect_left(self.weights, w), bisect_right(self.weights, w)
            out.append(smith_invariants(self.relation_rows(lo, hi), hi - lo))
        return out

    def abelian_invariants(self) -> AbelianInvariants:
        if self.nclass == 0:
            return AbelianInvariants(0, ())
        return self.lcs_factors()[0]

    def order(self) -> Optional[int]:
        total = 1
        for o in self.orders:
            if o is None:
                return None
            total *= o
        return total
