"""Multiplier filtration: exact identities and finite-group baselines."""

import pytest

from lpres.lattices import AbelianInvariants, membership, row_times_matrix
from lpres.multiplier import dwyer_range
from lpres.presentations import load_catalog, parse_one
from lpres.quotients import nilpotent_quotient


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
    from lpres.lattices import spin_closure
    from lpres.presentations import adjust

    pres = load_catalog("grigorchuk")
    adj = adjust(pres)
    system = impose_relators(build_cover(trivial_system(pres)))
    for _ in range(3):
        cover = build_cover(system)
        mats = cover.endomorphism_matrices()
        lattice = spin_closure(
            cover.relator_rows(adj.iterated_consequences),
            mats,
            base_rows=cover.torsion_rows() + cover.relator_rows(adj.fixed_consequences),
            ncols=cover.central_dim,
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
