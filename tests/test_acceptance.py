"""Acceptance suite: one test per advertised result.

Criteria 1-5 pin the computed multiplier tables for the five catalog
groups, 6-7 pin the adjustment and abelianization golden values, and
8-12 are the property checks (order identity, filtration, lattice
arithmetic, lattice invariance under the lifted maps, and the
independent permutation oracle).
"""

import itertools
import json
import pathlib
import random
import time

from lpres.cli import main
from lpres.covers import build_cover, impose_relators, trivial_system
from lpres.lattices import (
    AbelianInvariants,
    hnf,
    matrix_product,
    membership,
    row_times_matrix,
    smith_invariants,
    spin_closure,
)
from lpres.presentations import adjust, load_catalog, parse_one
from lpres.quotients import nilpotent_quotient

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def ranks(steps):
    return [s.invariants.rank() for s in steps]


def renders(steps):
    return [s.invariants.render() for s in steps]


# ------------------------------------------------------------ tables 1-5


def test_criterion_01_grigorchuk_dwyer_table(dwyer_tables, capsys):
    steps, seconds = dwyer_tables["grigorchuk"]
    assert ranks(steps) == [1, 2, 3, 3, 3, 5, 5, 5, 5, 5, 5]
    assert all(s.invariants.elementary_exponent() == 2 for s in steps)
    assert seconds < 600.0
    # the advertised invocation, end to end
    start = time.perf_counter()
    code = main(["dwyer", "--group", "grigorchuk", "--max-class", "11"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "c=1: Z_2"
    assert out[5] == "c=6: (Z_2)^5"
    assert out[10] == "c=11: (Z_2)^5"
    assert elapsed < 600.0


def test_criterion_02_twisted_twin_table(dwyer_tables):
    steps, _ = dwyer_tables["twisted_twin"]
    assert ranks(steps) == [2, 5, 7, 8, 8, 11, 11]
    assert all(s.invariants.elementary_exponent() == 2 for s in steps)


def test_criterion_03_supergroup_table(dwyer_tables):
    steps, _ = dwyer_tables["grigorchuk_supergroup"]
    assert ranks(steps) == [3, 6, 7, 9, 9]
    assert all(s.invariants.elementary_exponent() == 2 for s in steps)


def test_criterion_04_basilica_table(dwyer_tables):
    steps, _ = dwyer_tables["basilica"]
    assert renders(steps)[1:] == [
        "Z^2",
        "Z^2",
        "Z^2",
        "Z^2",
        "Z^2 x Z_4",
        "Z^2 x Z_4",
    ]


def test_criterion_05_bsv_table(dwyer_tables):
    steps, _ = dwyer_tables["bsv"]
    assert renders(steps)[1:] == ["Z^2", "Z^2", "Z^2 x Z_2", "Z^2 x Z_2 x Z_2"]


# ------------------------------------------------------------ golden 6-7


def test_criterion_06_adjustment_golden():
    grig = load_catalog("grigorchuk")
    a, b, c, d = (grig.alphabet.word(x) for x in "abcd")
    adj = adjust(grig)
    assert set(adj.basis_words) == {a**2, c**2, d**2, b * c * d}
    assert set(adj.fixed_consequences) == {b**2 * (b * c * d) ** -2 * c**2 * d**2}
    assert set(adj.iterated_consequences) == {
        (a * d) ** 4 * a**-4 * d**-4,
        (a * d * a * c * a * c) ** 4 * a**-12 * c**-8 * d**-4,
    }
    # and the CLI emits a presentation carrying exactly that relator set
    import io
    from contextlib import redirect_stdout
    from lpres.presentations import parse_one

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(["adjust", "--group", "grigorchuk"]) == 0
    emitted = parse_one(buffer.getvalue())
    assert set(emitted.fixed) == set(adj.fixed_consequences) | set(adj.basis_words)
    assert set(emitted.iterated) == set(adj.iterated_consequences)


def test_criterion_07_abelianizations():
    assert adjust(load_catalog("grigorchuk")).abelianization() == AbelianInvariants(0, (2, 2, 2))
    assert adjust(load_catalog("basilica")).abelianization() == AbelianInvariants(2, ())
    assert adjust(load_catalog("bsv")).abelianization() == AbelianInvariants(2, ())


# ------------------------------------------------------------ properties 8-11


def test_criterion_08_order_identity(dwyer_tables):
    checked = 0
    for name, (steps, _) in dwyer_tables.items():
        for step in steps:
            full = step.multiplier.order()
            if full is None:
                continue
            image = step.invariants.order()
            layer = step.next_layer.order()
            assert image is not None and layer is not None
            assert full == image * layer, (name, step.nclass)
            checked += 1
    assert checked >= 23  # every class of the three torsion groups


def test_criterion_09_filtration(dwyer_tables):
    def torsion_order(inv):
        total = 1
        for d in inv.torsion:
            total *= d
        return total

    for name, (steps, _) in dwyer_tables.items():
        for prev, curr in zip(steps, steps[1:]):
            a, b = prev.invariants, curr.invariants
            assert a.is_quotient_of(b), (name, curr.nclass)
            assert a.free_rank <= b.free_rank
            assert torsion_order(b) % torsion_order(a) == 0
            if a.free_rank == 0 and b.free_rank == 0:
                padded = (1,) * (len(b.torsion) - len(a.torsion)) + a.torsion
                assert all(x % y == 0 for x, y in zip(b.torsion, padded))


def random_unimodular(rng, n, steps=12, bound=3):
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
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


def test_criterion_10_lattice_arithmetic():
    rng = random.Random(20240911)
    # canonical form survives unimodular row mixes
    for _ in range(1000):
        rows = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(4)]
        mixed = matrix_product(random_unimodular(rng, 4), rows)
        assert hnf(mixed) == hnf(rows)
    # divisor chains divide
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        torsion = smith_invariants(rows, n).torsion
        for x, y in zip(torsion, torsion[1:]):
            assert y % x == 0
    # membership agrees with brute-force enumeration, both directions
    for _ in range(40):
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        basis = hnf(rows)
        span = set()
        for coeffs in itertools.product(range(-4, 5), repeat=len(basis.rows)):
            vec = [0, 0, 0]
            for coeff, row in zip(coeffs, basis.rows):
                vec = [a + coeff * b for a, b in zip(vec, row)]
            if all(abs(x) <= 3 for x in vec):
                span.add(tuple(vec))
        for probe in itertools.product(range(-3, 4), repeat=3):
            got = membership(basis, list(probe))
            if probe in span:
                assert got is not None
            if got is not None:
                rebuilt = [0, 0, 0]
                for coeff, row in zip(got, basis.rows):
                    rebuilt = [a + coeff * b for a, b in zip(rebuilt, row)]
                assert rebuilt == list(probe)


def test_criterion_11_spun_lattice_is_invariant():
    from conftest import ACCEPTANCE_CLASSES

    cases = [(load_catalog(name), cmax) for name, cmax in ACCEPTANCE_CLASSES.items()]
    cases += [
        (parse_one("group dih8 { generators: a, b; fixed: a^2, b^2, (a*b)^4; }"), 4),
        (parse_one("group quat8 { generators: a, b; fixed: a^4, b^2*a^-2, a^b*a; }"), 4),
        (parse_one("group klein { generators: a, b; fixed: a^2, b^2, (a*b)^2; }"), 4),
    ]
    for pres, cmax in cases:
        name = pres.name
        adj = adjust(pres)
        system = impose_relators(build_cover(trivial_system(pres)))
        for c in range(1, cmax + 1):
            cover = build_cover(system)
            matrices = cover.endomorphism_matrices()
            torsion = cover.torsion_rows()
            spun = spin_closure(
                cover.relator_rows(adj.iterated_consequences) + torsion,
                matrices,
                ncols=cover.central_dim,
            )
            lattice = hnf(
                list(spun.rows) + cover.relator_rows(adj.fixed_consequences), cover.central_dim
            )
            for matrix in matrices:
                for row in lattice.rows:
                    image = row_times_matrix(list(row), matrix)
                    assert membership(lattice, image) is not None, (name, c)
                for row in cover.relator_lattice.rows:
                    image = row_times_matrix(list(row), matrix)
                    assert membership(cover.relator_lattice, image) is not None, (name, c)
            # the image read off the imposed lattice is the span of the
            # adjusted consequences, modulo the torsion of the section
            assert hnf(cover.image_rows() + torsion, cover.central_dim) == hnf(
                list(lattice.rows) + torsion, cover.central_dim
            ), (name, c)
            system = impose_relators(cover)


# ------------------------------------------------------------ oracle 12


def test_criterion_12_grigorchuk_lcs_matches_tree_oracle():
    payload = json.loads((FIXTURES / "grigorchuk_lcs_depth7.json").read_text())
    assert payload["depth"] == 7
    expected = [
        AbelianInvariants(0, (2,) * k) for k in payload["layer_exponents"][:6]
    ]
    system = nilpotent_quotient(load_catalog("grigorchuk"), 6)
    assert system.lcs_factors() == expected
