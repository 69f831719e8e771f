"""Exact integer lattice arithmetic.

Everything here takes integer row vectors with arbitrary-precision
arithmetic: dense lists of ints, or sparse dicts {column: entry}.  The
one echelon behind them works on sparse rows and keeps them in canonical
HNF after every insert, so reading its result off only makes the rows
dense, and reducing a vector against it gives the vector's canonical
remainder modulo the lattice, which is zero exactly for members.  The
central objects are row-style Hermite normal forms, used as canonical
bases of subgroups of Z^n, and Smith invariants, used to name finitely
generated abelian groups.  Both come from the echelon: Smith invariants
alternate row and column HNF until the matrix is diagonal, and the
invariants of a subgroup of a quotient of Z^n are read off a left
kernel.

Sparse rows enter an echelon in one place, `echelon`, which inserts them
by decreasing leading column; `echelon(rows, ncols).canonical(ncols)` is
their HNF.  An insert copies its row once, reduces it once, and tells
whether the lattice grew, so spin_closure spins exactly the images that
enlarge it.  Storing a new pivot reduces its column in every row with a
smaller pivot; fed right to left, a stored row finds few such rows, so
the back-reduction that keeps the echelon canonical stays small.  The
canonical HNF is unique, so the order changes no result.  Most pivots of
a cover's consistency rows are 1, and a canonical row is zero at every
unit pivot column but its own, so subtracting a multiple of it from a
row never creates an entry at a unit pivot column: a row is cleared at
its unit pivot columns in one sweep, in any order, and only the few
pivots d > 1, recorded as they are stored, are taken in column order.

Conventions for the Hermite normal form: rows are ordered by strictly
increasing pivot column, pivots are positive, and every entry above a
pivot lies in [0, pivot).  Two generating sets span the same lattice
exactly when they produce identical HNF rows.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def row_times_matrix(vec: Sequence[int], matrix: Sequence[Sequence[int]]) -> list[int]:
    """Right action of a matrix on a row vector: (v * M)_j = sum_i v_i M[i][j]."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    out = [0] * ncols
    for vi, row in zip(vec, matrix):
        if vi:
            for j, mij in enumerate(row):
                if mij:
                    out[j] += vi * mij
    return out


def matrix_product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    return [row_times_matrix(row, b) for row in a]


class HNFBasis(NamedTuple):
    """Canonical basis of a sublattice of Z^ncols: the HNF rows, dense,
    and the pivot column of each."""

    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]
    ncols: int

    @property
    def rank(self) -> int:
        return len(self.rows)


def _combine(a: dict[int, int], ca: int, b: dict[int, int], cb: int) -> dict[int, int]:
    """The sparse row ca*a + cb*b."""
    out = {}
    for k in a.keys() | b.keys():
        v = ca * a.get(k, 0) + cb * b.get(k, 0)
        if v:
            out[k] = v
    return out


class _SparseEchelon:
    """Row echelon over Z on sparse rows {column: entry}, kept in canonical HNF.

    `rows` maps each pivot column to its row, and `nonunit` holds the
    pivot columns whose pivot exceeds 1, updated as each pivot is
    stored.  After every insert the rows form the canonical HNF of the
    lattice inserted so far: each pivot is the leftmost column of its
    row and positive, and every entry at another row's pivot column lies
    in [0, pivot), so a unit pivot column is clear in every other row.
    Keeping the entries reduced also stops the coefficient growth of
    unreduced integer elimination.  This is the one echelon behind hnf,
    left_kernel, spin_closure, smith_invariants and subgroup_invariants,
    and the one the central block of a cover is reduced against;
    `echelon` builds it from rows, and spin_closure alone inserts into
    it afterwards, one image at a time.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}
        self.nonunit: set[int] = set()

    def _reduce(self, r: dict[int, int], lo: int) -> None:
        """Reduce r in place into [0, pivot) at every pivot column >= lo
        where it is nonzero; r must already lie in [0, pivot) at the pivot
        columns before lo.

        Every row is zero at each unit pivot column but its own, so
        subtracting r[k] times the row of a unit pivot k clears r at k and
        leaves it unchanged at every other unit pivot column: the unit
        pivots are swept once, in any order, and no step ever creates an
        entry at a unit pivot column.  The non-unit pivots go on a heap
        and are taken in increasing order; reducing at column k changes r
        only at columns >= k, and a non-unit pivot column it makes
        nonzero is pushed.
        """
        rows, nonunit = self.rows, self.nonunit
        heap = []
        for k in [k for k in r if k >= lo and k in rows]:
            if k in nonunit:
                heap.append(k)
                continue
            q = r[k]
            for j, c in rows[k].items():
                w = r.get(j)
                if w is None:
                    r[j] = -q * c
                    if j in nonunit:
                        heap.append(j)
                else:
                    w -= q * c
                    if w:
                        r[j] = w
                    else:
                        del r[j]
        heapify(heap)
        while heap:
            k = heappop(heap)
            v = r.get(k)
            if v is None:
                continue
            piv = rows[k]
            q = v // piv[k]
            if not q:
                continue
            for j, c in piv.items():
                w = r.get(j)
                if w is None:
                    r[j] = -q * c
                    if j in nonunit:
                        heappush(heap, j)
                else:
                    w -= q * c
                    if w:
                        r[j] = w
                    else:
                        del r[j]

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """The canonical remainder of row modulo the lattice: empty when
        the row lies in it."""
        r = {k: v for k, v in row.items() if v}
        self._reduce(r, 0)
        return r

    def _store(self, lead: int, r: dict[int, int]) -> None:
        """Make r, reduced at the other pivot columns, the row of pivot
        lead, and reduce column lead of every row with a smaller pivot."""
        rows = self.rows
        rows[lead] = r
        d = r[lead]
        if d == 1:
            self.nonunit.discard(lead)
        else:
            self.nonunit.add(lead)
        for p, row in rows.items():
            if p < lead and not 0 <= row.get(lead, 0) < d:
                self._reduce(row, lead)

    def insert(self, row: dict[int, int]) -> bool:
        """Add row to the lattice, keeping the rows in canonical HNF, and
        return whether the lattice grew: whether row was not a member."""
        rows = self.rows
        pending = [{k: v for k, v in row.items() if v}]
        grew = False
        while pending:
            r = pending.pop()
            self._reduce(r, 0)
            if not r:
                continue
            grew = True
            lead = min(r)
            cur = rows.get(lead)
            if cur is None:
                if r[lead] < 0:
                    # a remainder is zero at every unit pivot column
                    r = {k: -v for k, v in r.items()}
                    self._reduce(r, 0)
                self._store(lead, r)
                continue
            # r[lead] lies in (0, pivot): replace the pivot by their gcd
            d, a = cur[lead], r[lead]
            g, x, y = xgcd(d, a)
            new = _combine(cur, x, r, y)
            pending.append(_combine(cur, 1, new, -(d // g)))
            pending.append(_combine(r, 1, new, -(a // g)))
            self._reduce(new, lead + 1)
            self._store(lead, new)
        return grew

    def canonical(self, ncols: int) -> HNFBasis:
        """The rows, already canonical, as a dense HNFBasis."""
        pivots = sorted(self.rows)
        dense = []
        for p in pivots:
            row = [0] * ncols
            for k, v in self.rows[p].items():
                row[k] = v
            dense.append(tuple(row))
        return HNFBasis(tuple(dense), tuple(pivots), ncols)


def echelon(rows: Iterable[dict[int, int]], ncols: int) -> _SparseEchelon:
    """An echelon holding the lattice spanned by sparse rows in Z^ncols,
    inserted by decreasing leading column.  Zero entries and empty rows
    span nothing and are dropped."""
    keyed = []
    for row in rows:
        cols = [k for k, v in row.items() if v]
        if cols:
            lead = min(cols)
            if lead < 0 or max(cols) >= ncols:
                raise ValueError("row column outside [0, %d)" % ncols)
            keyed.append((lead, row))
    keyed.sort(key=itemgetter(0), reverse=True)
    lattice = _SparseEchelon()
    for _, row in keyed:
        lattice.insert(row)
    return lattice


def _sparse(rows: Iterable[Sequence[int]], ncols: int) -> list[dict[int, int]]:
    """Dense rows of length ncols as sparse rows."""
    out = []
    for r in rows:
        if len(r) != ncols:
            raise ValueError("rows of unequal length")
        out.append({j: x for j, x in enumerate(r) if x})
    return out


def hnf(rows: Iterable[Sequence[int]], ncols: Optional[int] = None) -> HNFBasis:
    """Canonical Hermite normal form of the lattice spanned by the rows."""
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("ncols is required for an empty generating set")
        ncols = len(rows[0])
    return echelon(_sparse(rows, ncols), ncols).canonical(ncols)


def membership(basis: HNFBasis, vector: Sequence[int]) -> Optional[list[int]]:
    """Coefficients of `vector` over the basis rows, or None when outside.

    When the result is coeffs, sum(coeffs[i] * rows[i]) == vector exactly.
    """
    if len(vector) != basis.ncols:
        raise ValueError("vector length does not match the lattice ambient rank")
    v = list(vector)
    coeffs = []
    for row, p in zip(basis.rows, basis.pivots):
        q, r = divmod(v[p], row[p])
        if r:
            return None
        coeffs.append(q)
        if q:
            for j in range(p, basis.ncols):
                v[j] -= q * row[j]
    if any(v):
        return None
    return coeffs


def left_kernel(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of {x : x * matrix = 0}, as canonical HNF rows."""
    rows = list(matrix)
    if not rows:
        return []
    ncols = len(rows[0])
    # The lattice of [M | I] is {(xM, x)}; the rows of its HNF that are
    # zero on the M block span its meet with {(0, x)}, the kernel, and
    # their entries past column ncols already form a canonical HNF.
    sparse = _sparse(rows, ncols)
    for i, row in enumerate(sparse):
        row[ncols + i] = 1
    width = ncols + len(rows)
    basis = echelon(sparse, width).canonical(width)
    return [list(r[ncols:]) for r, p in zip(basis.rows, basis.pivots) if p >= ncols]


class AbelianInvariants(NamedTuple):
    """A finitely generated abelian group: Z^free_rank + cyclic torsion chain.

    The torsion entries form a dividing chain d1 | d2 | ... with every
    entry > 1, as produced by the Smith normal form.
    """

    free_rank: int
    torsion: tuple[int, ...]

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> Optional[int]:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def rank(self) -> int:
        """Minimal number of generators."""
        return self.free_rank + len(self.torsion)

    def elementary_exponent(self) -> Optional[int]:
        """p when the group is (Z_p)^k for some prime power p, else None."""
        if self.free_rank or not self.torsion:
            return None
        first = self.torsion[0]
        if all(d == first for d in self.torsion):
            return first
        return None

    def is_quotient_of(self, other: "AbelianInvariants") -> bool:
        """Whether a surjection other -> self can exist.

        Free factors of `other` may cover free or torsion factors of
        self, so other's chain is padded with zeros (read: infinity)
        for its surplus free rank before the entrywise divisibility
        test on right-aligned chains.
        """
        if self.free_rank > other.free_rank:
            return False
        surplus = other.free_rank - self.free_rank
        chain_other = list(other.torsion) + [0] * surplus
        chain_self = list(self.torsion)
        if len(chain_self) > len(chain_other):
            return False
        chain_self = [1] * (len(chain_other) - len(chain_self)) + chain_self
        for a, b in zip(chain_self, chain_other):
            if b == 0:
                continue
            if b % a:
                return False
        return True

    def render(self) -> str:
        """Readable name, e.g. 'Z^2 x Z_4' or '(Z_2)^5' or '1'."""
        p = self.elementary_exponent()
        if p is not None and len(self.torsion) >= 2:
            return "(Z_%d)^%d" % (p, len(self.torsion))
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z_%d" % d for d in self.torsion)
        if not parts:
            return "1"
        return " x ".join(parts)

    def __str__(self) -> str:
        return self.render()


def smith_invariants(rows: Iterable[Sequence[int]], ambient_rank: int) -> AbelianInvariants:
    """Invariants of Z^ambient_rank modulo the lattice spanned by the rows.

    Row and column HNF alternate until the matrix is diagonal: each
    round shrinks the leading entry or leaves it dividing its row and
    column, and the echelon keeps the entries reduced.  Pairwise
    gcd/lcm then turns the diagonal into a divisor chain.
    """
    m = hnf(rows, ambient_rank).rows
    while any(x for i, row in enumerate(m) for j, x in enumerate(row) if i != j):
        m = hnf(zip(*hnf(zip(*m)).rows)).rows
    diag = [row[i] for i, row in enumerate(m)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return AbelianInvariants(ambient_rank - len(diag), tuple(d for d in diag if d > 1))


def subgroup_invariants(
    gens: Iterable[Sequence[int]],
    relations: Iterable[Sequence[int]],
    ncols: int,
) -> AbelianInvariants:
    """Invariants of (V + T) / T for V = span(gens), T = span(relations).

    This names the subgroup generated by the images of `gens` inside
    the quotient Z^ncols / T: it is Z^k, k = len(gens), modulo the
    lattice {x : x * gens in T}, which is the first k coordinates of
    the left kernel of gens stacked on relations.
    """
    gens = [list(g) for g in gens]
    rows = gens + [list(r) for r in relations]
    if any(len(r) != ncols for r in rows):
        raise ValueError("rows must have length ncols")
    k = len(gens)
    return smith_invariants([x[:k] for x in left_kernel(rows)], k)


def spin_closure(
    seed_rows: Iterable[Sequence[int]],
    matrices: Sequence[Sequence[Sequence[int]]],
    ncols: Optional[int] = None,
) -> HNFBasis:
    """Smallest lattice containing the seeds and closed under the matrices.

    One echelon holds the running lattice, spanned by the seeds and the
    images inserted so far, and every one of those vectors is spun: an
    image whose remainder modulo the lattice is zero is a member, so
    its own images are combinations of images already queued, and a
    nonzero remainder is inserted and the image queued.  Processing is
    breadth-first and deterministic.  Every matrix must be ncols x ncols.
    """
    seeds = [list(r) for r in seed_rows]
    if ncols is None:
        if not seeds:
            raise ValueError("ncols is required for an empty seed set")
        ncols = len(seeds[0])
    if any(len(mat) != ncols or any(len(row) != ncols for row in mat) for mat in matrices):
        raise ValueError("every matrix must be ncols x ncols")
    lattice = echelon(_sparse(seeds, ncols), ncols)
    queue = seeds
    for vec in queue:
        for mat in matrices:
            img = row_times_matrix(vec, mat)
            if lattice.insert(dict(enumerate(img))):
                queue.append(img)
    return lattice.canonical(ncols)
