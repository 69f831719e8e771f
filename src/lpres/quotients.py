"""Nilpotent quotients of L-presented groups.

The class-c quotient G/gamma_{c+1}(G) is computed as a weighted pc
presentation by climbing a tower: the cover of the class-(c-1) quotient
is built one class higher, the values of all relators (with the
iterated ones closed under the lifted endomorphisms) are imposed on its
central section, and whatever survives is the next quotient.  Each
surviving central generator carries the weight of its layer, so the
lower central series can be read off the presentation directly.
"""

from __future__ import annotations

from typing import Iterator

from .covers import (
    Cover,
    QuotientSystem,
    build_cover,
    impose_relators,
    lift_through_definitions,
    trivial_system,
)
from .lattices import AbelianInvariants, smith_invariants, spin_closure
from .presentations import LPresentation
from .words import FreeEndomorphism


def abelian_quotient(pres: LPresentation) -> AbelianInvariants:
    """Abelianization of the presented group.

    The iterated relator vectors are closed under the endomorphisms
    acting on Z^n by their abelianized matrices, and the fixed ones are
    added to that closure.
    """
    n = len(pres.alphabet)
    spun = spin_closure(
        [list(w.exponent_vector()) for w in pres.iterated],
        [endo.matrix() for _, endo in pres.endomorphisms],
        ncols=n,
    )
    return smith_invariants([*spun.rows, *(w.exponent_vector() for w in pres.fixed)], n)


def tower(pres: LPresentation) -> Iterator[tuple[Cover, QuotientSystem]]:
    """Yield (cover, system) for c = 1, 2, ...: the cover of the
    class-(c-1) quotient, and the class-c quotient imposed on it.

    The one class loop: quotient_tower, nilpotent_quotient and
    dwyer_range all consume it.  It never stops on its own; once the
    lower central series has stabilized, system.nclass stays below c.

    The original relators are imposed, not the adjusted consequences:
    when an ``invariant: true`` claim is false those can present another
    group (a^2 with the swap a <-> b adjusts to a^2 and b^2), and no
    later cover then detects the ill-defined image.
    """
    system = trivial_system(pres)
    while True:
        cover = build_cover(system)
        system = impose_relators(cover)
        yield cover, system


def nilpotent_quotient(pres: LPresentation, nclass: int) -> QuotientSystem:
    """The quotient by the (nclass+1)-st term of the lower central series."""
    if nclass < 0:
        raise ValueError("class must be non-negative")
    system = trivial_system(pres)
    for _, system in quotient_tower(pres, nclass):
        pass
    return system


def quotient_tower(pres: LPresentation, max_class: int):
    """Yield (class, QuotientSystem) for class = 1 .. max_class.

    Stops early when the lower central series stabilizes.  The systems
    share nothing mutable, so callers may keep or modify them freely.
    """
    for c, (_, system) in zip(range(1, max_class + 1), tower(pres)):
        if system.nclass < c:
            return
        yield c, system


def induce_endomorphism(system: QuotientSystem, endo: FreeEndomorphism) -> list[dict[int, int]]:
    """Images of the pc generators under the induced endomorphism.

    The images always exist as normal forms; every power and
    conjugation relation is checked to map to a consequence, so a
    presentation that is not actually invariant is rejected with a
    ValueError instead of silently producing a non-homomorphism.
    """
    pc = system.pc
    ims = lift_through_definitions(pc, system.images, endo)
    for i in range(pc.ngens):
        o = pc.orders[i]
        if o is not None:
            lhs = pc.pow_nf(ims[i], o)
            rhs = pc.substitute(ims, sorted(pc.power_tails.get(i, {}).items()))
            if lhs != rhs:
                raise ValueError(
                    "ill-defined image detected: power relation of generator "
                    "%d is not preserved" % i
                )
    for (i, j), tail in sorted(pc.conj.items()):
        lhs = pc.comm_nf(ims[j], ims[i])
        rhs = pc.substitute(ims, sorted(tail.items()))
        if lhs != rhs:
            raise ValueError(
                "ill-defined image detected: conjugation relation (%d, %d) "
                "is not preserved" % (i, j)
            )
    # commuting pairs carry no stored relation but still constrain
    for i in range(pc.ngens):
        for j in range(i + 1, pc.ngens):
            if (i, j) not in pc.conj:
                if pc.comm_nf(ims[j], ims[i]):
                    raise ValueError(
                        "ill-defined image detected: generators %d and %d "
                        "commute but their images do not" % (i, j)
                    )
    return ims
