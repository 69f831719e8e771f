"""Nilpotent quotients and Schur multiplier quotients of L-presented groups."""

from .conjectures import minimum_class, predicted_dwyer
from .covers import Cover, QuotientSystem, build_cover, impose_relators, trivial_system
from .lattices import (
    AbelianInvariants,
    HNFBasis,
    hnf,
    left_kernel,
    membership,
    smith_invariants,
    spin_closure,
    subgroup_invariants,
)
from .multiplier import DwyerStep, dwyer_range
from .pcgroups import PcPresentation
from .presentations import (
    AdjustedLPresentation,
    LPresentation,
    ParseError,
    adjust,
    catalog_names,
    load_catalog,
    parse,
    parse_one,
    serialize,
)
from .quotients import (
    abelian_quotient,
    induce_endomorphism,
    nilpotent_quotient,
    quotient_tower,
)
from .words import Alphabet, FreeEndomorphism, Word, commutator

__all__ = [
    "AbelianInvariants",
    "AdjustedLPresentation",
    "Alphabet",
    "Cover",
    "DwyerStep",
    "FreeEndomorphism",
    "HNFBasis",
    "LPresentation",
    "ParseError",
    "PcPresentation",
    "QuotientSystem",
    "Word",
    "abelian_quotient",
    "adjust",
    "build_cover",
    "catalog_names",
    "commutator",
    "dwyer_range",
    "hnf",
    "impose_relators",
    "induce_endomorphism",
    "left_kernel",
    "load_catalog",
    "membership",
    "minimum_class",
    "nilpotent_quotient",
    "parse",
    "parse_one",
    "predicted_dwyer",
    "quotient_tower",
    "serialize",
    "smith_invariants",
    "spin_closure",
    "subgroup_invariants",
    "trivial_system",
]

__version__ = "0.1.0"
