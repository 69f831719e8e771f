"""Multiplier quotients along the nilpotent tower.

For an invariantly L-presented group G = F/R with class-c quotient
H_c = F/N_c, the Schur multiplier M(H_c) = (N_c meet F')/[N_c, F] is the
kernel of the abelianization map on the central section of the cover
of H_c.  The image of M(G) = (R meet F')/[R, F] inside it is the relator
lattice the tower imposes on that section, met with the same kernel:
[N_c, F] lies in F', so R[N_c, F] meet F' = (R meet F')[N_c, F].
The resulting chain of images, one per class, is the group's multiplier
filtration; its terms are computed here together with the data needed
to cross-check them.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .lattices import AbelianInvariants, subgroup_invariants
from .presentations import LPresentation
from .quotients import tower


class DwyerStep(NamedTuple):
    """One class of the multiplier filtration.

    invariants is the image of the full multiplier in M(H_c);
    multiplier is M(H_c) itself; next_layer is the weight-(c+1) section
    of the lower central series, trivial once the tower has stabilized.
    quotient_seconds times the tower steps that build the cover of H_c: two
    for class 1, the covers of the trivial and the class-1 quotient, one for
    every later class.  dwyer_seconds times reading invariants and
    multiplier off that cover.  next_layer is timed in neither.
    """

    nclass: int
    invariants: AbelianInvariants
    multiplier: AbelianInvariants
    next_layer: AbelianInvariants
    quotient_seconds: float
    dwyer_seconds: float


def dwyer_range(pres: LPresentation, max_class: int) -> list[DwyerStep]:
    """Multiplier images for every class from 1 to max_class.

    Class c reads its image off the cover of the class-c quotient, the
    same cover and relator lattice the tower imposes the class-(c+1)
    quotient with.
    """
    if max_class < 1:
        raise ValueError("max_class must be at least 1")
    if not pres.invariant:
        raise ValueError("the multiplier image requires an invariant presentation")
    levels = tower(pres)

    steps: list[DwyerStep] = []
    t1 = time.perf_counter()
    next(levels)
    for c in range(1, max_class + 1):
        cover, system = next(levels)
        t2 = time.perf_counter()
        image = subgroup_invariants(cover.image_rows(), cover.torsion_rows(), cover.central_dim)
        section = cover.multiplier_invariants()
        t3 = time.perf_counter()
        layer = system.pc.lcs_factor(c + 1)
        steps.append(
            DwyerStep(
                nclass=c,
                invariants=image,
                multiplier=section,
                next_layer=layer,
                quotient_seconds=t2 - t1,
                dwyer_seconds=t3 - t2,
            )
        )
        t1 = time.perf_counter()
    return steps

