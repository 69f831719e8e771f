"""Multiplier filtration: exact identities, finite-group baselines and
families with a known multiplier."""

import math

import pytest

from lpres.lattices import (
    AbelianInvariants,
    left_kernel,
    membership,
    row_times_matrix,
    subgroup_invariants,
)
from lpres.multiplier import dwyer_range
from lpres.presentations import load_catalog, parse_one
from lpres.quotients import nilpotent_quotient, tower

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # the known-multiplier properties are left out without it
    given = None


def test_finite_nilpotent_groups_stabilize_at_full_multiplier():
    """Once the tower reaches the group itself, the image is all of M(G)."""
    dih = parse_one("group dih8 { generators: a, b; fixed: a^2, b^2, (a*b)^4; }")
    steps = dwyer_range(dih, 3)
    assert steps[1].invariants == AbelianInvariants(0, (2,))
    assert steps[2].invariants == AbelianInvariants(0, (2,))
    assert steps[2].multiplier == AbelianInvariants(0, (2,))

    quat = parse_one("group quat8 { generators: a, b; fixed: a^4, b^2*a^-2, a^b*a; }")
    for step in dwyer_range(quat, 3)[1:]:
        assert step.invariants.is_trivial()

    klein = parse_one("group klein { generators: a, b; fixed: a^2, b^2, (a*b)^2; }")
    steps = dwyer_range(klein, 2)
    assert steps[0].invariants == AbelianInvariants(0, (2,))
    assert steps[1].invariants == AbelianInvariants(0, (2,))


def test_dwyer_step_is_immutable():
    step = dwyer_range(load_catalog("grigorchuk"), 1)[0]
    with pytest.raises(AttributeError):
        step.nclass = 2


def test_dwyer_layers_match_the_quotient_tower():
    """dwyer_range and nilpotent_quotient read one tower, also past stabilization."""
    klein = parse_one("group klein { generators: a, b; fixed: a^2, b^2, (a*b)^2; }")
    cases = [
        (load_catalog("grigorchuk"), 5),
        (load_catalog("basilica"), 4),
        (load_catalog("bsv"), 4),
        (klein, 3),
    ]
    for pres, cmax in cases:
        layers = nilpotent_quotient(pres, cmax + 1).lcs_factors()
        layers += [AbelianInvariants(0, ())] * (cmax + 1 - len(layers))
        assert [s.next_layer for s in dwyer_range(pres, cmax)] == layers[1:], pres.name


def test_order_identity_with_next_layer():
    """|M(H_c)| equals |image| times |layer_{c+1}| when everything is finite."""
    for name, cmax in [("grigorchuk", 4), ("twisted_twin", 3), ("grigorchuk_supergroup", 3)]:
        pres = load_catalog(name)
        for step in dwyer_range(pres, cmax):
            lhs = step.multiplier.order()
            rhs = step.invariants.order() * step.next_layer.order()
            assert lhs == rhs, (name, step.nclass, lhs, rhs)


@pytest.mark.parametrize(
    "name, cmax",
    [("grigorchuk", 7), ("twisted_twin", 5), ("grigorchuk_supergroup", 5), ("basilica", 8), ("bsv", 6)],
)
def test_dwyer_certificate(name, cmax):
    """M(H_c) / image(M(G)) is the next lower central layer (Dwyer 1975),
    including its free part, and trivial once the series stabilizes."""
    levels = tower(load_catalog(name))
    next(levels)
    for c in range(1, cmax + 1):
        cover, system = next(levels)
        quotient = subgroup_invariants(
            left_kernel(cover.mu_rows()),
            cover.image_rows() + cover.torsion_rows(),
            cover.central_dim,
        )
        if system.nclass == c + 1:
            layer = system.lcs_factors()[c]
        else:
            layer = AbelianInvariants(0, ())
        assert quotient == layer, (name, c, quotient, layer)


def test_filtration_is_a_chain_of_quotients():
    """Each term maps onto the previous one."""
    for name in ["grigorchuk", "basilica", "bsv"]:
        pres = load_catalog(name)
        steps = dwyer_range(pres, 5)
        for prev, curr in zip(steps, steps[1:]):
            assert prev.invariants.is_quotient_of(curr.invariants), (
                name,
                curr.nclass,
                prev.invariants,
                curr.invariants,
            )


def test_image_sits_inside_the_multiplier():
    for name in ["grigorchuk", "twisted_twin", "basilica"]:
        pres = load_catalog(name)
        for step in dwyer_range(pres, 4):
            assert step.invariants.rank() <= step.multiplier.rank()
            if step.multiplier.order() is not None:
                assert step.multiplier.order() % step.invariants.order() == 0


def test_spun_lattice_is_invariant_under_matrices():
    from lpres.covers import build_cover, trivial_system, impose_relators
    from lpres.lattices import hnf, spin_closure
    from lpres.presentations import adjust

    pres = load_catalog("grigorchuk")
    adj = adjust(pres)
    system = impose_relators(build_cover(trivial_system(pres)))
    for _ in range(3):
        cover = build_cover(system)
        mats = cover.endomorphism_matrices()
        spun = spin_closure(
            cover.relator_rows(adj.iterated_consequences) + cover.torsion_rows(),
            mats,
            ncols=cover.central_dim,
        )
        lattice = hnf(
            list(spun.rows) + cover.relator_rows(adj.fixed_consequences), cover.central_dim
        )
        for row in lattice.rows:
            for mat in mats:
                assert membership(lattice, row_times_matrix(row, mat)) is not None
        system = impose_relators(cover)


def test_dwyer_quotient_is_the_last_step():
    # the class-c quotient does not depend on how far the run goes
    pres = load_catalog("twisted_twin")
    steps = dwyer_range(pres, 3)
    assert [s.nclass for s in steps] == [1, 2, 3]
    assert dwyer_range(pres, 2)[-1].invariants == steps[1].invariants


def test_timings_are_nonnegative():
    pres = load_catalog("basilica")
    for step in dwyer_range(pres, 3):
        assert step.quotient_seconds >= 0.0
        assert step.dwyer_seconds >= 0.0


def test_max_class_must_be_positive():
    pres = load_catalog("basilica")
    with pytest.raises(ValueError):
        dwyer_range(pres, 0)


# --------------------------------------------------- known multipliers
#
# For a nilpotent group G of class k, the class-c quotient is G itself
# for every c >= k, so M(H_c) is M(G) and the image of M(G) in it is
# all of M(G).  These families have M(G) in closed form.


def _names(k):
    return ["x%d" % i for i in range(k)]


def _commutators(names):
    return ["[%s, %s]" % (a, b) for i, a in enumerate(names) for b in names[i + 1 :]]


def _group(names, relators):
    fixed = " fixed: %s;" % ", ".join(relators) if relators else ""
    return parse_one("group g { generators: %s;%s }" % (", ".join(names), fixed))


def _cyclic(d):
    """Z_d, with Z_0 = Z."""
    if d == 0:
        return AbelianInvariants(1, ())
    return AbelianInvariants(0, (d,) if d > 1 else ())


def _assert_multiplier(pres, nclass, expected):
    """M(H_c) and the image of M(G) are both expected at classes nclass
    and nclass + 1."""
    for step in dwyer_range(pres, nclass + 1)[nclass - 1 :]:
        assert step.multiplier == expected, (step.nclass, step.multiplier)
        assert step.invariants == expected, (step.nclass, step.invariants)


if given is not None:

    @given(m=st.integers(0, 30), n=st.integers(0, 30))
    def test_two_cyclic_factors_have_the_gcd_as_multiplier(m, n):
        # Z_m x Z_n, with Z_0 = Z, has multiplier Z_gcd(m, n)
        names = _names(2)
        powers = ["%s^%d" % (a, d) for a, d in zip(names, (m, n)) if d]
        pres = _group(names, powers + _commutators(names))
        _assert_multiplier(pres, 1, _cyclic(math.gcd(m, n)))

    @given(p=st.sampled_from([2, 3, 5, 7, 11]), k=st.integers(1, 4))
    def test_elementary_abelian_groups(p, k):
        # (Z_p)^k has multiplier (Z_p)^(k(k-1)/2)
        names = _names(k)
        pres = _group(names, ["%s^%d" % (a, p) for a in names] + _commutators(names))
        _assert_multiplier(pres, 1, AbelianInvariants(0, (p,) * (k * (k - 1) // 2)))

    @given(k=st.integers(1, 4))
    def test_free_abelian_groups(k):
        # Z^k has multiplier Z^(k(k-1)/2)
        names = _names(k)
        pres = _group(names, _commutators(names))
        _assert_multiplier(pres, 1, AbelianInvariants(k * (k - 1) // 2, ()))


def test_heisenberg_group_has_multiplier_z_squared():
    heis = parse_one("group heis { generators: a, b; fixed: [[a, b], a], [[a, b], b]; }")
    _assert_multiplier(heis, 2, AbelianInvariants(2, ()))


@pytest.mark.parametrize("k", range(2, 7))
def test_dihedral_2_groups_have_multiplier_z2(k):
    # the dihedral group of order 2^k has class k - 1 and M(G) = Z_2
    dih = _group(["a", "b"], ["a^2", "b^2", "(a*b)^%d" % 2 ** (k - 1)])
    _assert_multiplier(dih, k - 1, AbelianInvariants(0, (2,)))


@pytest.mark.parametrize("k", range(3, 6))
def test_generalized_quaternion_groups_have_trivial_multiplier(k):
    # the quaternion group of order 2^k has class k - 1 and M(G) = 1
    quat = _group(["a", "b"], ["a^%d" % 2 ** (k - 1), "b^2*a^-%d" % 2 ** (k - 2), "a^b*a"])
    _assert_multiplier(quat, k - 1, AbelianInvariants(0, ()))


@pytest.mark.parametrize("n", [2, 3])
def test_higher_heisenberg_groups(n):
    # H_(2n+1) = <x_i, y_i, z | [x_i, y_i] = z central, other pairs
    # commute> has M(G) = Z^(2n^2 - n - 1) for n >= 2
    xs, ys = ["x%d" % i for i in range(n)], ["y%d" % i for i in range(n)]
    defining = ["[%s, %s]" % pair for pair in zip(xs, ys)]
    relators = [r + "*z^-1" for r in defining] + ["[z, %s]" % g for g in xs + ys]
    relators += [r for r in _commutators(xs + ys) if r not in defining]
    heis = _group(xs + ys + ["z"], relators)
    _assert_multiplier(heis, 2, AbelianInvariants(2 * n * n - n - 1, ()))
