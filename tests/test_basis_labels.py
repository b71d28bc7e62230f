"""Every builder labels its basis, and every product semigroupoid its arrows:
the labels are unique, index inverts them, and each label names the element
its display name (built separately, from the arrow and basis names)
describes."""

from itertools import product

import pytest

from sectional.actions import semidirect_product, validate_preaction
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
from sectional.semigroupoids import (
    FiniteSemigroupoid,
    direct_product,
    identity_homomorphism,
    validate_homomorphism,
    validate_semigroupoid,
)
from sectional.theorems import (
    induced_theta,
    skew_product,
    smash_product,
    tensor_product_algebra,
    validate_bundle_action,
)

from structures import (
    built,
    cyclic2_raw,
    pair_groupoid_raw,
    semilattice_on_points_action,
    semilattice_raw,
    unit_groupoid_raw,
)

Q = RationalRing()
# the group algebra of Z/2: rank-2 commutative coefficients, so fibers of rank 2
GROUP_ALGEBRA = semigroupoid_algebra(Q, built(cyclic2_raw()).base)


def assert_indexed(alg: AlgebraPresentation) -> None:
    assert len(alg.labels) == alg.rank
    assert len(set(alg.labels)) == alg.rank
    for i, label in enumerate(alg.labels):
        assert alg.index[label] == i


def mixed_bundle():
    """Rank 2 over 1x (pointwise product), rank 1 over 1y."""
    space = built(unit_groupoid_raw(("x", "y"))).base
    return validate_bundle(
        {"ranks": {"1x": 2}, "mode": "sc",
         "constants": {"1x,1x": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}},
        Q, space,
    )


def semilattice_action():
    theta = validate_preaction(semilattice_on_points_action(), built(semilattice_raw()),
                               built(unit_groupoid_raw(("x", "y"))).base)
    return induced_theta(validate_bundle_action(theta, mixed_bundle(), None))


def pair_action():
    """The pair groupoid moving the two points of a space, rank-2 fibers."""
    space = built(unit_groupoid_raw(("x1", "x2"))).base
    theta = validate_preaction({
        "(1,1)": {"dom": ["1x1"], "img": ["1x1"]},
        "(1,2)": {"dom": ["1x2"], "img": ["1x1"]},
        "(2,1)": {"dom": ["1x1"], "img": ["1x2"]},
        "(2,2)": {"dom": ["1x2"], "img": ["1x2"]},
    }, built(pair_groupoid_raw()), space)
    bundle = coefficient_bundle(GROUP_ALGEBRA, space)
    return induced_theta(validate_bundle_action(theta, bundle, None))


def section_bundles():
    p2 = built(pair_groupoid_raw()).base
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
    p2 = built(pair_groupoid_raw()).base
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
    p2, z2 = built(pair_groupoid_raw()).base, built(cyclic2_raw()).base
    parity = validate_homomorphism(
        {"(1,1)": "u", "(2,2)": "u", "(1,2)": "g", "(2,1)": "g"}, p2, z2)
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
        alg = AlgebraPresentation.from_table(Q, ("a", "b"), {(0, 1): {1: 1}})
        assert alg.labels == ("a", "b")
        assert alg.index == {"a": 0, "b": 1}

    def test_repeated_labels_are_refused(self):
        with pytest.raises(ValueError, match="unique"):
            AlgebraPresentation.from_table(Q, ("a", "b"), labels=((0, 0), (0, 0)))
        with pytest.raises(ValueError, match="unique"):
            AlgebraPresentation.from_table(Q, ("a", "a"))

    def test_one_label_per_basis_element(self):
        with pytest.raises(ValueError, match="one label"):
            AlgebraPresentation.from_table(Q, ("a", "b"), labels=((0, 0),))

    def test_index_that_is_not_an_int_is_refused(self):
        for table in ({(0, 1): {"x": 1}}, {(0, "x"): {1: 1}}, {(0, 1): {2: 1}}):
            with pytest.raises(ValueError, match="indexes outside the basis"):
                AlgebraPresentation.from_table(Q, ("a", "b"), table)


def test_one_label_per_arrow():
    loop = (("v",), ("a",), (0,), (0,), ({0: 0},))
    assert FiniteSemigroupoid(*loop).labels == ("a",)
    with pytest.raises(ValueError, match="one label per arrow"):
        FiniteSemigroupoid(*loop, labels=("a", "b"))


P2 = built(pair_groupoid_raw()).base
P3 = built(pair_groupoid_raw(("1", "2", "3"))).base
Z2 = built(cyclic2_raw()).base
PARITY = validate_homomorphism(
    {"(1,1)": "u", "(2,2)": "u", "(1,2)": "g", "(2,1)": "g"}, P2, Z2)


def direct_case(a, b):
    return (direct_product(a, b), {(x, y) for x in a.arrows() for y in b.arrows()},
            a.arrow_names, b.arrow_names)


def semidirect_case(actor, space_points, maps):
    space = built(unit_groupoid_raw(space_points)).base
    theta = validate_preaction(maps, actor, space)
    expected = {(s, a) for s in actor.base.arrows() for a in theta.maps[s]}
    return semidirect_product(theta), expected, actor.base.arrow_names, space.arrow_names


def skew_case(d):
    base, g = d.source, d.target
    expected = {(x, h) for x in base.arrows() for h in g.arrows()
                if g.src[d.map[x]] == g.rng[h]}
    return skew_product(base, d).semigroupoid, expected, base.arrow_names, g.arrow_names


def product_cases():
    # P_3 moves the points of its unit groupoid: (i,j) carries 1j to 1i
    moves = {f"({i},{j})": {"dom": [f"1{j}"], "img": [f"1{i}"]}
             for i in "123" for j in "123"}
    return {
        "direct P2xP3": direct_case(P2, P3),
        "direct P3xZ2": direct_case(P3, Z2),
        "semidirect chain": semidirect_case(built(semilattice_raw()), ("x", "y"),
                                            semilattice_on_points_action()),
        "semidirect P3 moves": semidirect_case(built(pair_groupoid_raw(("1", "2", "3"))),
                                               ("1", "2", "3"), moves),
        "skew P2 by parity": skew_case(PARITY),
        "skew Z2 by itself": skew_case(identity_homomorphism(Z2)),
    }


@pytest.mark.parametrize("case", product_cases().values(), ids=list(product_cases()))
def test_product_arrows_are_labeled_by_their_pairs(case):
    sgpd, expected, left, right = case
    assert len(sgpd.labels) == sgpd.n_arrows
    assert len(set(sgpd.labels)) == sgpd.n_arrows
    assert set(sgpd.labels) == expected
    for i, (x, y) in enumerate(sgpd.labels):
        assert sgpd.index[(x, y)] == i
        assert sgpd.arrow_names[i] == f"({left[x]},{right[y]})"


def test_a_validated_stanza_is_labeled_by_its_arrow_names():
    sgpd = validate_semigroupoid(pair_groupoid_raw())
    assert sgpd.labels == sgpd.arrow_names
    assert sgpd.index == {name: i for i, name in enumerate(sgpd.arrow_names)}
