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
from typing import Optional, Sequence

from .lattices import (
    AbelianInvariants,
    HNFBasis,
    hnf,
    hnf_sparse,
    left_kernel,
    matrix_product,
    spin_closure,
    subgroup_invariants,
)
from .pcgroups import PcPresentation
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


def _assert_defining(tail: dict[int, int], g: int):
    if not tail or max(tail) != g or tail[g] != 1:
        raise AssertionError("defining relation lost its generator")


def lift_through_definitions(
    pc: PcPresentation, images: list[dict[int, int]], endo: FreeEndomorphism
) -> list[dict[int, int]]:
    """Images of every pc generator under the induced endomorphism.

    Each generator is resolved through its defining relation, in index
    order, so only images of earlier generators and of the free
    generators' images are ever needed.
    """
    ims: list[dict[int, int]] = []
    for g in range(pc.ngens):
        d = pc.definitions[g]
        # each definition reads prefix * g = value, with prefix the tail minus g
        if d[0] == "freetail":
            tail, value = images[d[1]], pc.substitute(images, endo.images[d[1]].syllables)
        elif d[0] == "conj":
            tail, value = pc.conj[(d[1], d[2])], pc.comm_nf(ims[d[2]], ims[d[1]])
        elif d[0] == "pow":
            tail, value = pc.power_tails.get(d[1], {}), pc.pow_nf(ims[d[1]], pc.orders[d[1]])
        else:
            raise AssertionError("unknown definition %r" % (d,))
        _assert_defining(tail, g)
        prefix = sorted((h, e) for h, e in tail.items() if h != g)
        ims.append(pc.mul(pc.inv(pc.substitute(ims, prefix)), value))
    return ims


def _apply_central_rows(pc: PcPresentation, images: list[dict[int, int]], basis: HNFBasis):
    """Impose HNF relations on the central block, then renumber.

    A pivot of 1 eliminates its generator (substituting everywhere), a
    pivot d > 1 becomes a relative order with the rest of the row as
    power tail.  Rows are processed by descending pivot column so each
    tail is canonicalized against already-final later generators.
    """
    cs = pc.ngens - basis.ncols
    elim: dict[int, dict[int, int]] = {}
    for row, p in reversed(list(zip(basis.rows, basis.pivots))):
        g = cs + p
        d = row[p]
        raw = {cs + l: -row[l] for l in range(p + 1, basis.ncols) if row[l]}
        if d == 1:
            elim[g] = pc.mul({}, raw)
        else:
            pc.orders[g] = d
            pc.set_power_tail(g, pc.mul({}, raw))

    if elim:

        def fix(nf: dict[int, int]) -> dict[int, int]:
            hits = [g for g in nf if g in elim]
            if not hits:
                return nf
            out = {g: e for g, e in nf.items() if g not in elim}
            for g in hits:
                e = nf[g]
                out = pc.mul(out, {l: e * f for l, f in elim[g].items()})
            return out

        for i in list(pc.power_tails):
            pc.power_tails[i] = fix(pc.power_tails[i])
            if not pc.power_tails[i]:
                del pc.power_tails[i]
        for key in list(pc.conj):
            pc.conj[key] = fix(pc.conj[key])
            if not pc.conj[key]:
                del pc.conj[key]
        for s in range(len(images)):
            images[s] = fix(images[s])

    # renumber compactly
    keep = [g for g in range(pc.ngens) if g not in elim]
    remap = {old: new for new, old in enumerate(keep)}

    def remap_nf(nf: dict[int, int]) -> dict[int, int]:
        return {remap[g]: e for g, e in nf.items()}

    pc.orders = [pc.orders[g] for g in keep]
    pc.weights = [pc.weights[g] for g in keep]
    pc.abelian_image = [pc.abelian_image[g] for g in keep]
    pc.power_tails = {remap[i]: remap_nf(t) for i, t in pc.power_tails.items() if i in remap}
    pc.conj = {(remap[i], remap[j]): remap_nf(t) for (i, j), t in pc.conj.items()}
    defs = []
    for g in keep:
        d = pc.definitions[g]
        if d[0] == "conj":
            defs.append(("conj", remap[d[1]], remap[d[2]]))
        elif d[0] == "pow":
            defs.append(("pow", remap[d[1]]))
        else:
            defs.append(d)
    pc.definitions = defs
    for s in range(len(images)):
        images[s] = remap_nf(images[s])
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

    def relator_rows(self, words: Sequence[Word]) -> list[list[int]]:
        return [
            self.central_vector(self.pc.substitute(self.lift_images, w.syllables)) for w in words
        ]

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
        iterated values closes them modulo the torsion."""
        spun = spin_closure(
            self.relator_rows(self.pres.iterated) + self.torsion_rows(),
            self.endomorphism_matrices(),
            ncols=self.central_dim,
        )
        return hnf(list(spun.rows) + self.relator_rows(self.pres.fixed), self.central_dim)

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

    defined_pow = {d[1] for d in pc.definitions if d[0] == "pow"}
    defined_conj = {(d[1], d[2]) for d in pc.definitions if d[0] == "conj"}
    defined_free = {d[1] for d in pc.definitions if d[0] == "freetail"}

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
        if o is not None and i not in defined_pow:
            ab = [o * x for x in pc.abelian_image[i]]
            pc.set_power_tail(i, fresh(("pow", i), ab, pc.power_tails.get(i, {})))

    # ... per non-defining conjugation relation within the class bound,
    for i in range(cs):
        for j in range(i + 1, cs):
            if (i, j) not in defined_conj and pc.weights[i] + pc.weights[j] <= cover_class:
                ab = [0] * pc.nfree
                pc.set_conj_tail(i, j, fresh(("conj", i, j), ab, pc.conj.get((i, j), {})))

    # ... and per free generator that defines no quotient generator.
    for s in range(pc.nfree):
        if s not in defined_free:
            ab = [int(t == s) for t in range(pc.nfree)]
            images[s] = fresh(("freetail", s), ab, images[s])

    # overlap checks become relations between the central generators,
    # collected first so that hnf_sparse can insert them right to left
    rows = []
    for kind, idx, lhs, rhs in pc.overlap_checks(prune=True):
        if lhs == rhs:
            continue
        row = {}
        for k in lhs.keys() | rhs.keys():
            d = lhs.get(k, 0) - rhs.get(k, 0)
            if d:
                if k < cs:
                    raise AssertionError(
                        "inconsistent cover: %s overlap %r differs outside the center"
                        % (kind, idx)
                    )
                row[k - cs] = d
        rows.append(row)
    basis = hnf_sparse(rows, pc.ngens - cs)

    # every enforced row must be invisible in the cover's abelianization
    if any(any(v) for v in matrix_product(basis.rows, pc.abelian_image[cs:])):
        raise AssertionError("consistency relation with nonzero abelianization")

    _apply_central_rows(pc, images, basis)
    return Cover(pres, pc, images, cs)


def impose_relators(cover: Cover) -> QuotientSystem:
    """Quotient the cover by the spun relator values: the next tower step."""
    lattice = cover.relator_lattice
    pc = cover.pc.copy()
    images = [dict(im) for im in cover.lift_images]
    for t in range(cover.central_dim):
        g = cover.base_ngens + t
        pc.orders[g] = None
        pc.power_tails.pop(g, None)
    pc.clear_caches()
    _apply_central_rows(pc, images, lattice)
    return QuotientSystem(cover.pres, pc, images)
