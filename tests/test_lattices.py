"""Integer lattice arithmetic: HNF, Smith invariants, kernels, spinning."""

import itertools
import random

import pytest
from echelon_oracle import (
    reference_hnf,
    reference_left_kernel,
    reference_smith_invariants,
    reference_spin_closure,
    reference_subgroup_invariants,
)

from lpres.lattices import (
    AbelianInvariants,
    _SparseEchelon,
    hnf,
    hnf_sparse,
    left_kernel,
    matrix_product,
    membership,
    row_times_matrix,
    smith_invariants,
    spin_closure,
    subgroup_invariants,
    xgcd,
)


def random_unimodular(rng, n, steps=12, bound=3):
    """Product of elementary row operations, so determinant is +-1."""
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n < 2:
            if rng.randrange(2):
                mat[0] = [-x for x in mat[0]]
            continue
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            mat[i], mat[j] = mat[j], mat[i]
        elif kind == 1:
            mat[i] = [-x for x in mat[i]]
        else:
            q = rng.randint(-bound, bound)
            mat[i] = [a + q * b for a, b in zip(mat[i], mat[j])]
    return mat


def test_xgcd():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_hnf_canonical_shape():
    basis = hnf([[4, 2, 0], [2, 2, 2]])
    for row, p in zip(basis.rows, basis.pivots):
        assert row[p] > 0
        assert all(x == 0 for x in row[:p])
    assert list(basis.pivots) == sorted(basis.pivots)
    # entries above each pivot are reduced
    for k, p in enumerate(basis.pivots):
        for i in range(k):
            assert 0 <= basis.rows[i][p] < basis.rows[k][p]


def random_rows(rng, m, n, bound, density=1.0):
    return [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]


def test_hnf_invariant_under_unimodular_mixes():
    rng = random.Random(77)
    for _ in range(60):
        rows = random_rows(rng, 4, 4, 20)
        reference = hnf(rows)
        mix = random_unimodular(rng, 4)
        mixed = matrix_product(mix, rows)
        assert hnf(mixed) == reference
    # non-square, rank-deficient, sparse, and with entries up to 10^12
    for _ in range(120):
        m, n = rng.randint(2, 7), rng.randint(1, 7)
        kind = rng.randrange(3)
        if kind == 0:
            rows = random_rows(rng, m, n, 10**12)
        elif kind == 1:
            # m rows in the span of k < m rows
            k = rng.randint(1, m - 1)
            rows = matrix_product(random_rows(rng, m, k, 10**6), random_rows(rng, k, n, 10**6))
        else:
            rows = random_rows(rng, m, n, 10**12, density=0.2)
        reference = hnf(rows, n)
        if kind == 1:
            assert reference.rank <= k
        mixed = matrix_product(random_unimodular(rng, m), rows)
        assert hnf(mixed, n) == reference


def oracle_input(rng):
    """0-9 rows of 1-9 columns: dense or sparse, small or up to 10^12,
    rank-deficient or with duplicated rows."""
    m, n = rng.randint(0, 9), rng.randint(1, 9)
    bound = rng.choice([1, 2, 9, 10**6, 10**12])
    density = rng.choice([1.0, 0.5, 0.2])
    kind = rng.randrange(3)
    if kind == 1 and m >= 2:
        k = rng.randint(1, m - 1)
        return matrix_product(random_rows(rng, m, k, 3), random_rows(rng, k, n, bound, density)), n
    rows = random_rows(rng, m, n, bound, density)
    if kind == 2 and m >= 2:
        for _ in range(rng.randint(1, m - 1)):
            rows[rng.randrange(m)] = list(rows[rng.randrange(m)])
    return rows, n


def test_lattice_functions_match_the_reference_echelon():
    rng = random.Random(2011)
    gens_rng = random.Random(2013)
    for _ in range(2000):
        rows, n = oracle_input(rng)
        assert hnf(rows, n).rows == reference_hnf(rows, n)
        if rows:
            assert left_kernel(rows) == reference_left_kernel(rows)
        assert smith_invariants(rows, n) == reference_smith_invariants(rows, n)
        bound = gens_rng.choice([1, 3, 10**6])
        gens = random_rows(gens_rng, gens_rng.randint(0, 5), n, bound, gens_rng.choice([1.0, 0.3]))
        got = subgroup_invariants(gens, rows, n)
        assert got == reference_subgroup_invariants(gens, rows, n)
        if n <= 5:
            mats = [random_rows(rng, n, n, 2) for _ in range(rng.randint(0, 2))]
            seeds, base = rows[:2], rows[2:4]
            got = spin_closure(seeds + base, mats, ncols=n).rows
            assert got == reference_spin_closure(seeds + base, mats, [], n)


def test_hnf_sparse_matches_the_reference_in_every_order():
    rng = random.Random(2014)
    for _ in range(600):
        rows, n = oracle_input(rng)
        rows += [[0] * n for _ in range(rng.randint(0, 2))]
        expected = reference_hnf(rows, n)
        # sparse rows, with an explicit zero entry in some of them
        sparse = [{k: v for k, v in enumerate(row) if v or rng.random() < 0.1} for row in rows]
        shuffled = list(sparse)
        rng.shuffle(shuffled)
        for order in (sparse, sparse[::-1], shuffled):
            assert hnf_sparse(order, n).rows == expected


def test_hnf_sparse_rejects_columns_outside_the_ambient_rank():
    for row in ({3: 1}, {0: 1, 7: -2}, {-1: 4}):
        with pytest.raises(ValueError):
            hnf_sparse([{0: 2}, row], 3)
    assert hnf_sparse([{0: 2}, {5: 0}, {}], 3).rows == ((2, 0, 0),)


def assert_canonical_echelon(echelon):
    rows = echelon.rows
    for p, row in rows.items():
        assert min(row) == p and row[p] > 0
        assert all(v for v in row.values())
        for p2, row2 in rows.items():
            if p2 != p:
                assert 0 <= row2.get(p, 0) < row[p]
    assert echelon.nonunit == {p for p, row in rows.items() if row[p] > 1}


def test_echelon_is_canonical_after_every_insert():
    rng = random.Random(2012)
    for _ in range(300):
        n = rng.randint(1, 12)
        # small entries make many unit pivots; large ones the gcd branch
        bound = rng.choice([1, 2, 6, 10**9])
        density = rng.choice([1.0, 0.4, 0.15])
        rows = random_rows(rng, rng.randint(1, 14), n, bound, density)
        echelon = _SparseEchelon()
        for row in rows:
            echelon.insert({k: v for k, v in enumerate(row) if v})
            assert_canonical_echelon(echelon)
        assert echelon.canonical(n).rows == reference_hnf(rows, n)


def test_echelon_records_its_non_unit_pivots_through_gcd_steps():
    """`nonunit` agrees with the rows after every insert, also when a gcd
    step turns a pivot d > 1 into 1 or into another d > 1."""
    steps = [
        ({0: 2}, {0: 2}),
        ({0: 3}, {0: 1}),  # gcd(2, 3): the non-unit pivot becomes a unit
        ({1: 4, 2: 1}, {0: 1, 1: 4}),
        ({1: 6}, {0: 1, 1: 2, 2: 3}),  # gcd(4, 6): 4 is replaced by 2
        ({2: 1}, {0: 1, 1: 2, 2: 1}),  # the unit at 2 clears column 2 above it
        ({1: 3, 3: -5}, {0: 1, 1: 1, 2: 1, 3: 10}),
    ]
    echelon = _SparseEchelon()
    inserted = []
    for row, pivots in steps:
        echelon.insert(row)
        inserted.append([row.get(j, 0) for j in range(4)])
        assert {p: r[p] for p, r in echelon.rows.items()} == pivots
        assert_canonical_echelon(echelon)
        assert echelon.canonical(4).rows == reference_hnf(inserted, 4)


def test_hnf_empty_and_zero():
    basis = hnf([], ncols=3)
    assert basis.rank == 0
    basis = hnf([[0, 0, 0]], ncols=3)
    assert basis.rank == 0
    with pytest.raises(ValueError):
        hnf([])


def test_membership_roundtrip():
    rng = random.Random(78)
    for _ in range(60):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(3)]
        basis = hnf(rows)
        coeffs = [rng.randint(-4, 4) for _ in basis.rows]
        vec = [0] * 5
        for c, row in zip(coeffs, basis.rows):
            vec = [a + c * b for a, b in zip(vec, row)]
        found = membership(basis, vec)
        assert found is not None
        rebuilt = [0] * 5
        for c, row in zip(found, basis.rows):
            rebuilt = [a + c * b for a, b in zip(rebuilt, row)]
        assert rebuilt == vec


def test_membership_against_enumeration():
    """Brute force a small lattice and compare both directions."""
    rng = random.Random(79)
    for _ in range(25):
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
        basis = hnf(rows)
        span = set()
        bound = 4
        for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(basis.rows)):
            vec = [0, 0, 0]
            for c, row in zip(coeffs, basis.rows):
                vec = [a + c * b for a, b in zip(vec, row)]
            if all(abs(x) <= 3 for x in vec):
                span.add(tuple(vec))
        for probe in itertools.product(range(-3, 4), repeat=3):
            got = membership(basis, list(probe))
            if probe in span:
                assert got is not None
            if got is not None:
                rebuilt = [0, 0, 0]
                for c, row in zip(got, basis.rows):
                    rebuilt = [a + c * b for a, b in zip(rebuilt, row)]
                assert rebuilt == list(probe)


def test_left_kernel():
    rng = random.Random(80)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        kernel = left_kernel(mat)
        for row in kernel:
            assert all(x == 0 for x in row_times_matrix(row, mat))
        rank = hnf(mat, n).rank
        assert len(kernel) == m - rank
        # saturated: Z^m / kernel has no torsion
        assert smith_invariants(kernel, m).torsion == ()


def test_left_kernel_rejects_ragged_rows():
    with pytest.raises(ValueError):
        left_kernel([[1, 2], [3, 4, 5]])




def test_smith_known_values():
    assert smith_invariants([[2, 0], [0, 2]], 2) == AbelianInvariants(0, (2, 2))
    assert smith_invariants([[2, 4], [0, 4]], 2) == AbelianInvariants(0, (2, 4))
    assert smith_invariants([[0, 0]], 2) == AbelianInvariants(2, ())
    assert smith_invariants([[3]], 1) == AbelianInvariants(0, (3,))
    assert smith_invariants([[1]], 1) == AbelianInvariants(0, ())
    assert smith_invariants([], 3) == AbelianInvariants(3, ())
    # full-rank: torsion order equals |det|
    assert smith_invariants([[2, 1], [0, 6]], 2).order() == 12
    # needs two rounds of row and column HNF to become diagonal
    assert smith_invariants([[2, 1, 1], [0, 2, 0], [0, 0, 3]], 3) == AbelianInvariants(0, (12,))
    with pytest.raises(ValueError):
        smith_invariants([[1, 2]], 3)


def test_smith_chain_divides_and_unimodular_invariance():
    rng = random.Random(81)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(m)]
        inv = smith_invariants(rows, n)
        for a, b in zip(inv.torsion, inv.torsion[1:]):
            assert b % a == 0
        u = random_unimodular(rng, m)
        v = random_unimodular(rng, n)
        mixed = matrix_product(matrix_product(u, rows), v)
        assert smith_invariants(mixed, n) == inv


def test_subgroup_invariants():
    # <(2,0)> inside Z^2 / <(4,0),(0,2)> is cyclic of order 2
    inv = subgroup_invariants([[2, 0]], [[4, 0], [0, 2]], 2)
    assert inv == AbelianInvariants(0, (2,))
    # the full group
    inv = subgroup_invariants([[1, 0], [0, 1]], [[4, 0], [0, 2]], 2)
    assert inv == AbelianInvariants(0, (2, 4))
    # a free image
    inv = subgroup_invariants([[1, 0]], [[0, 5]], 2)
    assert inv == AbelianInvariants(1, ())
    # trivial subgroup
    inv = subgroup_invariants([], [[2, 0]], 2)
    assert inv.is_trivial()
    # rows of the wrong length, uniform or ragged
    with pytest.raises(ValueError):
        subgroup_invariants([[1, 0, 0]], [[2, 0, 0]], 2)
    with pytest.raises(ValueError):
        subgroup_invariants([[1, 0]], [[2, 0, 0]], 2)


def test_spin_closure_swap():
    swap = [[0, 1], [1, 0]]
    lattice = spin_closure([[1, 0]], [swap])
    assert lattice.rows == ((1, 0), (0, 1))
    doubler = [[2, 0], [0, 2]]
    lattice = spin_closure([[1, 0]], [doubler])
    assert lattice.rows == ((1, 0),)


def test_spin_closure_rejects_matrices_of_the_wrong_shape():
    # a 1 x 2 matrix would drop coordinate 1 of every vector it spins
    with pytest.raises(ValueError):
        spin_closure([[0, 1]], [[[1, 0]]], ncols=2)
    with pytest.raises(ValueError):
        spin_closure([[0, 1]], [[[1, 0], [0, 1], [0, 0]]], ncols=2)
    with pytest.raises(ValueError):
        spin_closure([[0, 1]], [[[1, 0], [0, 1, 0]]], ncols=2)
    with pytest.raises(ValueError):
        spin_closure([[1, 0]], [[[0, 1], [1, 0]], [[1, 0, 0], [0, 1, 0]]])


def test_spin_closure_respects_base():
    # seeds spin into new directions; a seed the matrix kills adds only itself
    mat = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    lattice = spin_closure([[1, 0, 0], [0, 0, 4]], [mat])
    assert lattice.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    lattice = spin_closure([[2, 0, 0], [0, 0, 4]], [mat])
    assert lattice.rows == ((2, 0, 0), (0, 2, 0), (0, 0, 2))


def test_spin_closure_is_invariant():
    rng = random.Random(83)
    for _ in range(20):
        n = 3
        mats = [
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            for _ in range(2)
        ]
        seeds = [[rng.randint(-3, 3) for _ in range(n)]]
        lattice = spin_closure(seeds, mats)
        for row in lattice.rows:
            for mat in mats:
                assert membership(lattice, row_times_matrix(row, mat)) is not None


def test_invariants_render():
    assert AbelianInvariants(0, ()).render() == "1"
    assert AbelianInvariants(1, ()).render() == "Z"
    assert AbelianInvariants(2, ()).render() == "Z^2"
    assert AbelianInvariants(0, (2, 2, 2)).render() == "(Z_2)^3"
    assert AbelianInvariants(0, (4,)).render() == "Z_4"
    assert AbelianInvariants(2, (4,)).render() == "Z^2 x Z_4"
    assert AbelianInvariants(0, (2, 4)).render() == "Z_2 x Z_4"


def test_invariants_quotient_order():
    z = AbelianInvariants(1, ())
    z2 = AbelianInvariants(0, (2,))
    z4 = AbelianInvariants(0, (4,))
    z22 = AbelianInvariants(0, (2, 2))
    assert z2.is_quotient_of(z4)
    assert not z4.is_quotient_of(z2)
    assert z4.is_quotient_of(z)
    assert not z22.is_quotient_of(z4)
    assert z22.is_quotient_of(AbelianInvariants(0, (2, 4)))
    assert not z.is_quotient_of(z4)
    assert AbelianInvariants(0, ()).is_quotient_of(z22)
    assert z4.order() == 4
    assert z.order() is None
    assert AbelianInvariants(0, (2, 4)).order() == 8


def test_records_are_immutable_and_compare_by_value():
    inv = AbelianInvariants(1, (2, 4))
    with pytest.raises(AttributeError):
        inv.free_rank = 0
    assert hash(inv) == hash(AbelianInvariants(1, tuple([2, 4])))
    basis = hnf_sparse([{0: 2, 1: 1}], 2)
    with pytest.raises(AttributeError):
        basis.rows = ()
    assert basis != hnf_sparse([{0: 2}], 2)
    assert basis != hnf_sparse([{0: 2, 1: 1}], 3)
    assert hash(basis) == hash(hnf_sparse([{0: 2, 1: 1}, {0: 4, 1: 2}], 2))
