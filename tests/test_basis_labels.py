"""Every builder labels its basis: the labels are unique, index inverts them,
and each label names the element its display name (built separately, from
the arrow and basis names) describes."""

from itertools import product

import pytest

from sectional.actions import validate_preaction
from sectional.algebras import AlgebraPresentation
from sectional.bundles import (
    coefficient_bundle,
    lscript_presentation,
    naive_crossed_product,
    sectional_algebra,
    semigroupoid_algebra,
    trivial_bundle,
    validate_bundle,
)
from sectional.rings import RationalRing
from sectional.semigroupoids import identity_homomorphism, validate_homomorphism
from sectional.standard import cyclic2, pair_groupoid, semilattice2, unit_groupoid
from sectional.theorems import (
    induced_theta,
    smash_product,
    tensor_product_algebra,
    validate_bundle_action,
)
from sectional.validation import must

from structures import semilattice_on_points_action

Q = RationalRing()
# the group algebra of Z/2: rank-2 commutative coefficients, so fibers of rank 2
GROUP_ALGEBRA = semigroupoid_algebra(Q, cyclic2().base)


def assert_indexed(alg: AlgebraPresentation) -> None:
    assert len(alg.labels) == alg.rank
    assert len(set(alg.labels)) == alg.rank
    for i, label in enumerate(alg.labels):
        assert alg.index[label] == i


def mixed_bundle():
    """Rank 2 over 1x (pointwise product), rank 1 over 1y."""
    space = unit_groupoid(("x", "y")).base
    return must(validate_bundle(
        {"ranks": {"1x": 2}, "mode": "sc",
         "constants": {"1x,1x": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}},
        Q, space,
    ))


def semilattice_action():
    theta = must(validate_preaction(semilattice_on_points_action(), semilattice2(),
                                    unit_groupoid(("x", "y")).base))
    return induced_theta(must(validate_bundle_action(theta, mixed_bundle(), None)))


def pair_action():
    """The pair groupoid moving the two points of a space, rank-2 fibers."""
    space = unit_groupoid(("x1", "x2")).base
    theta = must(validate_preaction({
        "(1,1)": {"dom": ["1x1"], "img": ["1x1"]},
        "(1,2)": {"dom": ["1x2"], "img": ["1x1"]},
        "(2,1)": {"dom": ["1x1"], "img": ["1x2"]},
        "(2,2)": {"dom": ["1x2"], "img": ["1x2"]},
    }, pair_groupoid(), space))
    bundle = coefficient_bundle(GROUP_ALGEBRA, space)
    return induced_theta(must(validate_bundle_action(theta, bundle, None)))


def section_bundles():
    p2 = pair_groupoid().base
    return [trivial_bundle(Q, p2), coefficient_bundle(GROUP_ALGEBRA, p2), mixed_bundle()]


@pytest.mark.parametrize("bundle", section_bundles())
def test_sectional_labels_are_arrow_and_fiber_index(bundle):
    alg = sectional_algebra(bundle)
    assert_indexed(alg)
    expected = {(g, i) for g in bundle.base.arrows() for i in range(bundle.ranks[g])}
    assert set(alg.labels) == expected
    for (g, i), name in zip(alg.labels, alg.basis):
        arrow = bundle.base.arrow_names[g]
        assert name == (f"{arrow}#{i}" if bundle.ranks[g] > 1 else arrow)


@pytest.mark.parametrize("coefficients", [Q, GROUP_ALGEBRA])
def test_semigroupoid_algebra_labels(coefficients):
    p2 = pair_groupoid().base
    alg = semigroupoid_algebra(coefficients, p2)
    assert_indexed(alg)
    rank = 1 if coefficients is Q else coefficients.rank
    assert set(alg.labels) == set(product(p2.arrows(), range(rank)))
    for (g, i), name in zip(alg.labels, alg.basis):
        assert name == (f"{p2.arrow_names[g]}#{i}" if rank > 1 else p2.arrow_names[g])


def test_tensor_labels_pair_the_factor_labels():
    a = sectional_algebra(mixed_bundle())
    b = GROUP_ALGEBRA
    t = tensor_product_algebra(a, b)
    assert_indexed(t)
    assert set(t.labels) == set(product(a.labels, b.labels))
    for (x, y), name in zip(t.labels, t.basis):
        assert name == f"{a.basis[a.index[x]]}(x){b.basis[b.index[y]]}"


@pytest.mark.parametrize("make_action", [semilattice_action, pair_action])
def test_crossed_labels_are_arrow_and_domain_element(make_action):
    action = make_action()
    crossed = naive_crossed_product(action)
    assert_indexed(crossed)
    base, inner = action.actor.base, action.algebra
    assert set(crossed.labels) == {(s, d) for s in base.arrows() for d in action.rows[s]}
    for (s, d), name in zip(crossed.labels, crossed.basis):
        assert name == f"d_{base.arrow_names[s]}.{inner.basis[d]}"


@pytest.mark.parametrize("make_action", [semilattice_action, pair_action])
def test_range_side_labels_take_the_inverse_domain(make_action):
    action = make_action()
    ranged = lscript_presentation(action)
    assert_indexed(ranged)
    base, inv, inner = action.actor.base, action.actor.inv, action.algebra
    assert set(ranged.labels) == {
        (s, d) for s in base.arrows() for d in action.rows[inv[s]]
    }
    for (s, d), name in zip(ranged.labels, ranged.basis):
        assert name == f"L_{base.arrow_names[s]}.{inner.basis[d]}"


def smash_inputs():
    p2, z2 = pair_groupoid().base, cyclic2().base
    parity = must(validate_homomorphism(
        {"(1,1)": "u", "(2,2)": "u", "(1,2)": "g", "(2,1)": "g"}, p2, z2))
    return [
        sectional_algebra(trivial_bundle(Q, p2), identity_homomorphism(p2)),
        sectional_algebra(coefficient_bundle(GROUP_ALGEBRA, p2), parity),
    ]


@pytest.mark.parametrize("graded", smash_inputs())
def test_smash_labels_are_position_and_grading_arrow(graded):
    smash = smash_product(graded)
    assert_indexed(smash)
    g = graded.grading
    assert set(smash.labels) == {
        (u, h) for u in range(graded.rank) for h in g.arrows()
        if g.src[graded.degrees[u]] == g.rng[h]
    }
    for (u, h), name in zip(smash.labels, smash.basis):
        assert name == f"{graded.basis[u]}.d{g.arrow_names[h]}"


class TestHandBuiltPresentation:
    def test_labels_default_to_the_names(self):
        alg = AlgebraPresentation(Q, ("a", "b"), {(0, 1): {1: 1}})
        assert alg.labels == ("a", "b")
        assert alg.index == {"a": 0, "b": 1}

    def test_repeated_labels_are_refused(self):
        with pytest.raises(ValueError, match="unique"):
            AlgebraPresentation(Q, ("a", "b"), labels=((0, 0), (0, 0)))
        with pytest.raises(ValueError, match="unique"):
            AlgebraPresentation(Q, ("a", "a"))

    def test_one_label_per_basis_element(self):
        with pytest.raises(ValueError, match="one label"):
            AlgebraPresentation(Q, ("a", "b"), labels=((0, 0),))
