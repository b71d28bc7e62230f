"""Every validator returns the object it validated or raises StructureError.

Each of the ten validators is called once on a valid input, which must come
back as the validated object, and once on an invalid one, which must raise
StructureError whose report's first failure has the expected kind.
`germ_quotient` is held to the same contract: it returns a GermQuotient and
refuses a space that is not a groupoid as `space-not-groupoid` (and an action
that is not associative). On a validated action its germ relation is always
a congruence, so it refuses nothing else.

Over a non-commutative ring a fiber map or transport is a bimodule map of
the fiber R, so it must be central: one off the centre of UT2(F2) is refused
as `non-central-fiber-map` by `validate_bundle_action` and as
`non-central-transport` by `validate_bundle_congruence`, witnessed by the
pair (s, g) or the arrow g.

The refusals of library calls that no structure file makes (a `maps` that is
not an object, `trivial_action` on a many-vertex actor, `bundle_from_graded`
and `coefficient_bundle` on inputs they cannot take) raise their own errors.
"""

import pytest

from sectional.actions import (
    GermQuotient,
    LandPreaction,
    RigidCongruence,
    germ_quotient,
    trivial_action,
    validate_preaction,
    validate_rigid_congruence,
)
from sectional.algebras import AlgebraPresentation
from sectional.bundles import (
    Bundle,
    bundle_from_graded,
    coefficient_bundle,
    semigroupoid_algebra,
    trivial_bundle,
    validate_bundle,
)
from sectional.rings import RationalRing, ZModRing, validate_ring
from sectional.semigroupoids import (
    FiniteInverseSemigroupoid,
    FiniteSemigroupoid,
    Homomorphism,
    validate_homomorphism,
    validate_inverse_semigroupoid,
    validate_semigroupoid,
)
from sectional.theorems import (
    BundleAction,
    BundleCongruence,
    validate_bundle_action,
    validate_bundle_congruence,
)
from sectional.validation import CapabilityError, StructureError, ValidationReport

from structures import (
    built,
    cyclic2_raw,
    pair_groupoid_raw,
    semilattice_on_points_action,
    semilattice_raw,
    trivial_monoid_raw,
    unit_groupoid_raw,
    upper_triangular_f2_ring_spec,
    without_product_entry,
)

Q = RationalRing()


def z2():
    return built(cyclic2_raw()).base


def points():
    return built(unit_groupoid_raw(("x", "y"))).base


def germ_action():
    return validate_preaction(semilattice_on_points_action(), built(semilattice_raw()), points())


def z2_congruence(transports):
    base = z2()
    return validate_bundle_congruence(trivial_bundle(Q, base),
                                      validate_rigid_congruence([["u", "g"]], base), transports)


# validator: (valid call, the type it returns, invalid call, first failure kind)
CASES = {
    "validate_semigroupoid": (
        lambda: validate_semigroupoid(cyclic2_raw()), FiniteSemigroupoid,
        lambda: validate_semigroupoid(without_product_entry(trivial_monoid_raw(), "a", "a")),
        "undefined-product"),
    "validate_inverse_semigroupoid": (
        lambda: validate_inverse_semigroupoid(z2(), {"u": "u", "g": "g"}),
        FiniteInverseSemigroupoid,
        lambda: validate_inverse_semigroupoid(z2(), {"u": "u", "g": "u"}),
        "inverse-condition"),
    "validate_homomorphism": (
        lambda: validate_homomorphism({"u": "u", "g": "g"}, z2(), z2()), Homomorphism,
        lambda: validate_homomorphism({"u": "g", "g": "g"}, z2(), z2()),
        "multiplicativity"),
    "validate_preaction": (
        germ_action, LandPreaction,
        lambda: validate_preaction({"1": {"dom": ["1x", "1y"], "img": ["1x", "1y"]},
                                    "e": {"dom": ["1x"], "img": ["1y"]}},
                                   built(semilattice_raw()), points()),
        "inverse-compatibility"),
    "validate_rigid_congruence": (
        lambda: validate_rigid_congruence([["u", "g"]], z2()), RigidCongruence,
        lambda: validate_rigid_congruence([["u"]], z2()),
        "structural"),
    "validate_ring": (
        lambda: validate_ring({"kind": "zmod", "n": 6}), ZModRing,
        lambda: validate_ring({"kind": "zmod", "n": 1}),
        "structural"),
    "validate_bundle": (
        lambda: validate_bundle({"mode": "sc"}, Q, z2()), Bundle,
        lambda: validate_bundle({"ranks": {"u": -1}}, Q, z2()),
        "structural"),
    "validate_bundle_action": (
        lambda: validate_bundle_action(germ_action(), trivial_bundle(Q, points()), None),
        BundleAction,
        lambda: validate_bundle_action(germ_action(), trivial_bundle(Q, z2()), None),
        "structural"),
    "validate_bundle_congruence": (
        lambda: z2_congruence(None), BundleCongruence,
        lambda: z2_congruence({"g": [[0]]}),
        "non-invertible-transport"),
    "germ_quotient": (
        lambda: germ_quotient(germ_action()), GermQuotient,
        lambda: germ_quotient(trivial_action(built(semilattice_raw()),
                                             built(semilattice_raw()).base)),
        "space-not-groupoid"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_validator_returns_the_object_or_raises(name):
    valid, kind_of_object, invalid, failure_kind = CASES[name]
    assert isinstance(valid(), kind_of_object)
    with pytest.raises(StructureError) as refused:
        invalid()
    assert refused.value.report.first().kind == failure_kind


def test_every_validator_has_a_case():
    import sectional

    validators = {name for name in dir(sectional) if name.startswith("validate_")}
    assert validators | {"germ_quotient"} == set(CASES)


def _ut2_algebra(basis, **graded):
    """An algebra over the non-commutative UT2(F2) with no products."""
    ring = validate_ring(upper_triangular_f2_ring_spec())
    return AlgebraPresentation.from_table(ring, basis, **graded)


# a library call no file makes: (call, the error it raises, words of the refusal)
LIBRARY_REFUSALS = {
    "maps-not-an-object": (lambda: validate_preaction([], built(cyclic2_raw()), points()),
                           StructureError, "maps must be an object keyed by actor arrows"),
    "trivial-action-on-many-vertices": (
        lambda: trivial_action(built(pair_groupoid_raw()), points()),
        StructureError, "the identity-on-everything action needs a one-vertex actor"),
    "bundle-of-ungraded-algebra": (lambda: bundle_from_graded(semigroupoid_algebra(Q, z2())),
                                   StructureError, "the algebra carries no grading"),
    "non-commutative-rank-2-component": (
        lambda: bundle_from_graded(_ut2_algebra(("p", "q"), grading=built(trivial_monoid_raw()).base,
                                                degrees=(0, 0))),
        CapabilityError, "non-commutative coefficients need rank-1 homogeneous components"),
    "non-commutative-algebra-coefficients": (
        lambda: coefficient_bundle(_ut2_algebra(("p",)), z2()),
        CapabilityError, "algebra coefficients need a commutative ring"),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_REFUSALS))
def test_a_library_refusal_raises_its_error(name):
    call, error, words = LIBRARY_REFUSALS[name]
    with pytest.raises(error, match=words):
        call()


def test_a_passing_report_has_no_first_failure():
    report = ValidationReport("x")
    assert (report.ok, report.first(), report.summary()) == (True, None, "x: ok")


def swap_action():
    return validate_preaction({"u": {"dom": ["1x", "1y"], "img": ["1x", "1y"]},
                               "g": {"dom": ["1x", "1y"], "img": ["1y", "1x"]}},
                              built(cyclic2_raw()), points())


# validator: (a call over the given ring with one matrix 111, the kind and witness)
NON_CENTRAL = {
    "validate_bundle_action": (
        lambda ring: validate_bundle_action(
            swap_action(), trivial_bundle(ring, points()),
            {(1, 0): [[ring.coerce("111")]], (1, 1): [[ring.unit_inverse(ring.coerce("111"))]]}),
        ("non-central-fiber-map", ("g", "1x"))),
    "validate_bundle_congruence": (
        lambda ring: validate_bundle_congruence(
            trivial_bundle(ring, z2()), validate_rigid_congruence([["u", "g"]], z2()),
            {"g": [[ring.coerce("111")]]}),
        ("non-central-transport", ("g",))),
}


@pytest.mark.parametrize("name", sorted(NON_CENTRAL))
def test_a_map_off_the_centre_is_refused_with_its_own_kind(name):
    call, (kind, witness) = NON_CENTRAL[name]
    ring = validate_ring(upper_triangular_f2_ring_spec())
    assert not ring.is_central(ring.coerce("111"))
    with pytest.raises(StructureError) as refused:
        call(ring)
    assert (refused.value.report.first().kind, refused.value.report.first().witness) == (
        kind, witness)
