"""hnf and smith_invariants against sympy's normal forms.

sympy's Hermite normal form follows another convention (column style,
other sign and range rules), so lattices are compared by rank and by
membership both ways, not row by row.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

from lpres.lattices import hnf, membership, smith_invariants


def random_rows(rng, m, n):
    bound = rng.choice([1, 5, 10**6])
    density = rng.choice([1.0, 0.4])
    rows = [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]
    if m >= 2 and rng.randrange(3) == 0:
        rows[0] = [a + 2 * b for a, b in zip(rows[1], rows[-1])]
    return rows


def in_row_lattice(basis, vec):
    """Whether vec is an integer combination of the independent rows of basis."""
    if basis.rows == 0:
        return not any(vec)
    try:
        sol, params = basis.T.gauss_jordan_solve(sympy.Matrix(vec))
    except ValueError:
        return False
    assert params.rows == 0
    return all(x.is_integer for x in sol)


def test_hnf_spans_the_lattice_of_sympy_hnf():
    rng = random.Random(3)
    for _ in range(80):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_rows(rng, m, n)
        ours = hnf(rows, n)
        theirs = hermite_normal_form(sympy.Matrix(rows).T).T
        assert ours.rank == theirs.rows
        for i in range(theirs.rows):
            assert membership(ours, [int(x) for x in theirs.row(i)]) is not None
        for row in ours.rows:
            assert in_row_lattice(theirs, row)


def test_smith_invariants_match_sympy():
    rng = random.Random(4)
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = random_rows(rng, m, n)
        factors = [int(abs(d)) for d in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]
        rank = sum(1 for d in factors if d)
        inv = smith_invariants(rows, n)
        assert inv.free_rank == n - rank
        assert inv.torsion == tuple(d for d in factors if d > 1)
