"""Central extensions of nilpotent quotients.

Given a consistent weighted pc presentation of a class-c quotient of an
L-presented group, the extension engine builds the covering group one
class higher: every non-defining relation and every redundant free
generator acquires a fresh central generator recording its failure in
the cover, the standard overlap checks turn into relations among those
central generators, and enforcing them in Hermite normal form leaves a
consistent presentation of the cover.

The central section of the cover over the quotient carries all the
homological data used downstream: its torsion describes the next
quotient in the tower once the relator lattice is imposed, the kernel
of its abelianization map is the Schur multiplier of the quotient, and
endomorphisms of the presentation lift to integer matrices on it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional

from .lattices import (
    AbelianInvariants,
    HNFBasis,
    echelon,
    hnf,
    left_kernel,
    matrix_product,
    spin_closure,
    subgroup_invariants,
)
from .pcgroups import PcPresentation, assert_defining
from .presentations import LPresentation
from .words import FreeEndomorphism, Word


class QuotientSystem:
    """A nilpotent quotient: presentation, pc group, and generator images."""

    __slots__ = ("pres", "pc", "images")

    def __init__(self, pres: LPresentation, pc: PcPresentation, images: list[dict[int, int]]):
        self.pres = pres
        self.pc = pc
        self.images = images

    @property
    def nclass(self) -> int:
        return self.pc.nclass

    def lcs_factors(self) -> list[AbelianInvariants]:
        return self.pc.lcs_factors()

    def abelian_invariants(self) -> AbelianInvariants:
        return self.pc.abelian_invariants()

    def order(self) -> Optional[int]:
        return self.pc.order()


def trivial_system(pres: LPresentation) -> QuotientSystem:
    pc = PcPresentation(nfree=len(pres.alphabet))
    return QuotientSystem(pres, pc, [{} for _ in range(len(pres.alphabet))])


# --------------------------------------------------------------------------
# the extension step


def _ab_of_nf(pc: PcPresentation, nf: dict[int, int]) -> list[int]:
    vec = [0] * pc.nfree
    for g, e in nf.items():
        for t, x in enumerate(pc.abelian_image[g]):
            if x:
                vec[t] += e * x
    return vec


def lift_through_definitions(
    pc: PcPresentation, images: list[dict[int, int]], endo: FreeEndomorphism
) -> list[dict[int, int]]:
    """Images of every pc generator under the induced endomorphism.

    Each generator is resolved through its defining relation, in index
    order, so only images of earlier generators and of the free
    generators' images are ever needed.  A relation reads prefix * g =
    value, and the image of g is the image of value divided on the left
    by that of prefix.  The value of a commutator definition [g_j, g_i]
    is comm_nf of the images of g_j and g_i, so neither is inverted.
    """
    ims: list[dict[int, int]] = []
    for g in range(pc.ngens):
        d = pc.definitions[g]
        # each definition reads prefix * g = value, with prefix the tail minus g
        if d[0] == "freetail":
            tail, value = images[d[1]], pc.evaluate(images, endo.images[d[1]])
        elif d[0] == "conj":
            i, j = d[1], d[2]
            tail, value = pc.conj[(i, j)], pc.comm_nf(ims[j], ims[i])
        elif d[0] == "pow":
            tail, value = pc.power_tails.get(d[1], {}), pc.pow_nf(ims[d[1]], pc.orders[d[1]])
        else:
            raise AssertionError("unknown definition %r" % (d,))
        assert_defining(tail, g)
        prefix = sorted((h, e) for h, e in tail.items() if h != g)
        ims.append(pc.left_quotient(pc.substitute(ims, prefix), value))
    return ims


def _apply_central_rows(
    pc: PcPresentation, images: list[dict[int, int]], cs: int, rows: Iterable[dict[int, int]]
):
    """Quotient the central block, the generators from cs on read as
    Z^ncols, by the lattice the sparse rows span, then renumber: one
    pass, with no collection.

    The rows may be any generating set; they are inserted into one
    echelon, kept in canonical HNF, and the normal form of a block
    element is its canonical remainder modulo it: zero at a unit pivot
    column, in [0, d) at a pivot d > 1, and any integer at a column
    without a pivot.  So a unit pivot eliminates its generator, a pivot
    d > 1 at column p becomes a relative order whose power tail is the
    remainder of d * e_p, and every stored tail and image keeps its part
    below the block and takes the remainder of its block part.  The
    orders and power tails the block had before are replaced, so the
    lattice must contain the relations they stood for.
    """
    ncols = pc.ngens - cs
    lattice = echelon(rows, ncols)
    pivot = {p: lattice.rows[p][p] for p in sorted(lattice.rows)}
    kept = [c for c in range(ncols) if pivot.get(c) != 1]
    renumber = {c: cs + t for t, c in enumerate(kept)}

    def normal(nf: dict[int, int]) -> dict[int, int]:
        out = {g: e for g, e in nf.items() if g < cs}
        block = {g - cs: e for g, e in nf.items() if g >= cs}
        if block:
            out.update((renumber[c], e) for c, e in lattice.reduce(block).items())
        return out

    tails = {i: normal(t) for i, t in pc.power_tails.items() if i < cs}
    tails.update((renumber[p], normal({cs + p: d})) for p, d in pivot.items() if d > 1)
    pc.power_tails = {i: t for i, t in tails.items() if t}
    pc.conj = {k: t for k, t in ((k, normal(t)) for k, t in pc.conj.items()) if t}
    images[:] = [normal(im) for im in images]
    keep = list(range(cs)) + [cs + c for c in kept]
    pc.orders = pc.orders[:cs] + [pivot.get(c) for c in kept]
    pc.weights = [pc.weights[g] for g in keep]
    pc.abelian_image = [pc.abelian_image[g] for g in keep]
    pc.definitions = [pc.definitions[g] for g in keep]
    pc.clear_caches()


class Cover:
    """The one-class-higher cover of a nilpotent quotient.

    Generators below base_ngens are the lifted quotient generators; the
    rest form the central block spanning the section N/[N, F] over the
    quotient F/N, truncated at the cover's class.
    """

    def __init__(
        self,
        pres: LPresentation,
        pc: PcPresentation,
        lift_images: list[dict[int, int]],
        base_ngens: int,
    ):
        self.pres = pres
        self.pc = pc
        self.lift_images = lift_images
        self.base_ngens = base_ngens

    @property
    def central_dim(self) -> int:
        return self.pc.ngens - self.base_ngens

    def central_vector(self, nf: dict[int, int]) -> list[int]:
        vec = [0] * self.central_dim
        for g, e in nf.items():
            if g < self.base_ngens:
                raise ValueError("element does not lie in the central block")
            vec[g - self.base_ngens] = e
        return vec

    def torsion_rows(self) -> list[list[int]]:
        """Relation vectors presenting the central section."""
        return self.pc.relation_rows(self.base_ngens, self.pc.ngens)

    def mu_rows(self) -> list[list[int]]:
        """Abelianized images of the central generators in Z^nfree."""
        return [
            list(self.pc.abelian_image[self.base_ngens + t]) for t in range(self.central_dim)
        ]

    def multiplier_invariants(self) -> AbelianInvariants:
        """Schur multiplier of the quotient: kernel of the section's abelianization."""
        kernel = left_kernel(self.mu_rows())
        return subgroup_invariants(kernel, self.torsion_rows(), self.central_dim)

    def relator_rows(self, words: Iterable[Word]) -> list[list[int]]:
        return [self.central_vector(self.pc.evaluate(self.lift_images, w)) for w in words]

    def endomorphism_matrices(self) -> list[list[list[int]]]:
        """Action of each declared endomorphism on the central section.

        Raises ValueError when an image leaves the central block, which
        happens exactly when the presentation is not invariant.
        """
        mats = []
        for name, endo in self.pres.endomorphisms:
            ims = lift_through_definitions(self.pc, self.lift_images, endo)
            rows = []
            for t in range(self.central_dim):
                im = ims[self.base_ngens + t]
                if any(h < self.base_ngens for h in im):
                    raise ValueError(
                        "ill-defined image detected: endomorphism %r does not map "
                        "the relation subgroup into itself" % name
                    )
                rows.append(self.central_vector(im))
            mats.append(rows)
        return mats

    @cached_property
    def relator_lattice(self) -> HNFBasis:
        """The lattice the next quotient imposes: the closure of the
        iterated relator values and the torsion of the section under the
        lifted endomorphisms, plus the fixed relator values.  The lifted
        matrices map the torsion into itself, so spinning it with the
        iterated values closes them modulo the torsion.  The lattice
        contains the torsion, so imposing it replaces the cover's orders
        on the central block.  A relator listed twice is evaluated once."""
        spun = spin_closure(
            self.relator_rows(dict.fromkeys(self.pres.iterated)) + self.torsion_rows(),
            self.endomorphism_matrices(),
            ncols=self.central_dim,
        )
        fixed = self.relator_rows(dict.fromkeys(self.pres.fixed))
        return hnf(list(spun.rows) + fixed, self.central_dim)

    def image_rows(self) -> list[list[int]]:
        """Rows spanning the image of the group's multiplier: the relator
        lattice met with the kernel of mu_rows (see multiplier.py)."""
        rows = self.relator_lattice.rows
        kernel = left_kernel(matrix_product(rows, self.mu_rows()))
        return matrix_product(kernel, rows)


def build_cover(system: QuotientSystem) -> Cover:
    """Extend a class-c quotient to a consistent presentation of its cover."""
    pres = system.pres
    pc = system.pc.copy()
    images = [dict(im) for im in system.images]
    cs = pc.ngens
    cover_class = pc.nclass + 1

    defined = set(pc.definitions)

    def fresh(definition: tuple, lhs_ab: list[int], tail: dict[int, int]) -> dict[int, int]:
        """Add a central generator g for a relation lhs = tail, with the
        abelian image of lhs minus the tail's, and return tail * g."""
        ab = [x - y for x, y in zip(lhs_ab, _ab_of_nf(pc, tail))]
        g = pc.add_generator(None, cover_class, definition, ab)
        return {**tail, g: 1}

    # the fresh generators are created in this order, which fixes the
    # columns of the central section and so its HNF: one fresh central
    # generator per non-defining power relation,
    for i in range(cs):
        o = pc.orders[i]
        if o is not None and ("pow", i) not in defined:
            ab = [o * x for x in pc.abelian_image[i]]
            pc.set_power_tail(i, fresh(("pow", i), ab, pc.power_tails.get(i, {})))

    # ... per non-defining conjugation relation within the class bound,
    for i in range(cs):
        for j in range(i + 1, cs):
            if ("conj", i, j) not in defined and pc.weights[i] + pc.weights[j] <= cover_class:
                ab = [0] * pc.nfree
                pc.set_conj_tail(i, j, fresh(("conj", i, j), ab, pc.conj.get((i, j), {})))

    # ... and per free generator that defines no quotient generator.
    for s in range(pc.nfree):
        if ("freetail", s) not in defined:
            ab = [int(t == s) for t in range(pc.nfree)]
            images[s] = fresh(("freetail", s), ab, images[s])

    # overlap checks become relations between the central generators,
    # collected first so that the echelon can insert them right to left.
    # A row is read off the central keys of lhs, then of rhs; every other
    # key must agree on both sides.  Each row must vanish in the cover's
    # abelianization, as it does when it meets no central generator of
    # nonzero abelian image
    abelian = {k for k, v in enumerate(pc.abelian_image[cs:]) if any(v)}
    rows = []
    for kind, idx, lhs, rhs in pc.overlap_checks(prune=True):
        row, clash = {}, False
        for k, v in lhs.items():
            if k >= cs:
                row[k - cs] = v
            elif rhs.get(k) != v:
                clash = True
        for k, v in rhs.items():
            if k >= cs:
                k -= cs
                d = row.get(k, 0) - v
                if d:
                    row[k] = d
                else:
                    del row[k]
            elif k not in lhs:
                clash = True
        if clash:
            raise AssertionError(
                "inconsistent cover: %s overlap %r differs outside the center" % (kind, idx)
            )
        if not row:
            continue
        if not abelian.isdisjoint(row) and any(_ab_of_nf(pc, {cs + k: d for k, d in row.items()})):
            raise AssertionError("consistency relation with nonzero abelianization")
        rows.append(row)

    _apply_central_rows(pc, images, cs, rows)
    return Cover(pres, pc, images, cs)


def impose_relators(cover: Cover) -> QuotientSystem:
    """Quotient the cover by its relator lattice: the next tower step.

    The lattice contains the cover's torsion, so the orders it puts on
    the central block replace the cover's."""
    pc = cover.pc.copy()
    images = list(cover.lift_images)
    rows = [dict(enumerate(r)) for r in cover.relator_lattice.rows]
    _apply_central_rows(pc, images, cover.base_ngens, rows)
    return QuotientSystem(cover.pres, pc, images)
