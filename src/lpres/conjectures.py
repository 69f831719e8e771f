"""Closed forms for the multiplier filtration of the catalog groups.

Each catalog group's computed filtration follows a periodic pattern in
the class c, with ranks growing along dyadic windows.  The formulas
here package those patterns so computed tables can be checked against
them from the command line and in tests.  They are conjectural beyond
the classes anyone has computed, which is exactly what makes the
comparison worth automating.
"""

from __future__ import annotations

from .lattices import AbelianInvariants

_GRIGORCHUK_SMALL = {1: 1, 2: 2}
_TWISTED_SMALL = {1: 2, 2: 5, 3: 7}
_SUPERGROUP_SMALL = {1: 3, 2: 6, 3: 7}


def minimum_class(name: str) -> int:
    """Smallest class the closed form covers."""
    if name in ("grigorchuk", "twisted_twin", "grigorchuk_supergroup"):
        return 1
    if name in ("basilica", "bsv"):
        return 2
    raise ValueError("no conjectured formula for %r" % name)


def _grigorchuk_rank(c: int) -> int:
    if c in _GRIGORCHUK_SMALL:
        return _GRIGORCHUK_SMALL[c]
    m = 0
    while 3 * 2 ** (m + 1) <= c:
        m += 1
    return 2 * m + 3


def _twisted_twin_rank(c: int) -> int:
    if c in _TWISTED_SMALL:
        return _TWISTED_SMALL[c]
    m = 0
    while 2 ** (m + 3) <= c:
        m += 1
    if c < 2 ** (m + 2) + 2 ** (m + 1):
        return 4 * (m + 1) + 4
    return 4 * (m + 1) + 7


def _supergroup_rank(c: int) -> int:
    if c in _SUPERGROUP_SMALL:
        return _SUPERGROUP_SMALL[c]
    m = 0
    while 2 * 2 ** (m + 1) <= c:
        m += 1
    if c < 3 * 2 ** m:
        return 4 * m + 5
    return 4 * m + 7


def _basilica_torsion(c: int) -> list[int]:
    parts = []
    if c >= 6:
        m = (c - 6) // 2
        parts.append(2 ** (2 * (m + 1)))
    level = 1
    while 3 * 2 ** (level + 1) <= c:
        base = 2 ** (level + 1)
        m = c // base - 3
        if m >= 0:
            if c - (3 + m) * base < 2 ** (level - 1):
                parts.append(2 ** (2 * m + 1))
            else:
                parts.append(2 ** (2 * m + 2))
        level += 1
    return parts


def _bsv_windows(c: int, first: int, exponents: tuple[int, ...]):
    """2^(4m + exponents[r]) for k = c // 2^(l-1) = first + 8m + r, at
    each level l >= 1 with first * 2^(l-1) <= c."""
    scale = 1
    while first * scale <= c:
        m, r = divmod(c // scale - first, 8)
        yield 2 ** (4 * m + exponents[r])
        scale *= 2


def _bsv_torsion(c: int) -> list[int]:
    parts = []
    if c >= 4:
        m = (c - 4) // 2
        parts.append(2 ** (2 * m + 1))
    parts.extend(_bsv_windows(c, 5, (1, 2, 2, 2, 2, 4, 4, 4)))
    parts.extend(_bsv_windows(c, 9, (1, 1, 1, 2, 2, 3, 3, 4)))
    return parts


def predicted_dwyer(name: str, nclass: int) -> AbelianInvariants:
    """Conjectured multiplier image at the given class.

    Raises ValueError for groups without a formula or classes below the
    formula's range.
    """
    if nclass < minimum_class(name):
        raise ValueError(
            "the %s formula covers classes from %d on" % (name, minimum_class(name))
        )
    if name == "grigorchuk":
        return AbelianInvariants(0, (2,) * _grigorchuk_rank(nclass))
    if name == "twisted_twin":
        return AbelianInvariants(0, (2,) * _twisted_twin_rank(nclass))
    if name == "grigorchuk_supergroup":
        return AbelianInvariants(0, (2,) * _supergroup_rank(nclass))
    if name == "basilica":
        return AbelianInvariants(2, tuple(sorted(_basilica_torsion(nclass))))
    # bsv: minimum_class has rejected every other name
    return AbelianInvariants(2, tuple(sorted(_bsv_torsion(nclass))))
