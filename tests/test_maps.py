"""The certificate machinery itself: it must catch bad maps, not just bless good ones."""

import pytest

from sectional.bundles import semigroupoid_algebra
from sectional.maps import LinearMapOnBasis, basis_bijection, certify_linear_iso
from sectional.rings import RationalRing

from structures import built, cyclic2_raw, unit_groupoid_raw

Q = RationalRing()


def _group_algebra():
    return semigroupoid_algebra(Q, built(cyclic2_raw()).base)


def _pointwise_algebra():
    return semigroupoid_algebra(Q, built(unit_groupoid_raw(("x", "y"))).base)


class TestLinearMapOnBasis:
    def test_apply_is_linear(self):
        a = _group_algebra()
        tmap = basis_bijection(a, a, {0: 1, 1: 0})
        vec = ((0, Q.coerce(2)), (1, Q.coerce(3)))
        assert tmap.apply_rows(vec) == {0: Q.coerce(3), 1: Q.coerce(2)}

    def test_rows_are_stored_canonically(self):
        a = _group_algebra()
        tmap = LinearMapOnBasis(a, a, ({1: Q.one, 0: Q.zero}, ((1, Q.coerce(2)), (0, Q.one))))
        assert tmap.rows == (((1, Q.one),), ((0, Q.one), (1, Q.coerce(2))))
        with pytest.raises(ValueError):
            LinearMapOnBasis(a, a, (((2, Q.one),), ()))
        with pytest.raises(ValueError):
            LinearMapOnBasis(a, a, ((),))


class TestCertificates:
    def test_non_multiplicative_map_caught_with_witness(self):
        # swapping u and g in the group algebra sends 1 to the non-identity,
        # which cannot be multiplicative
        a = _group_algebra()
        tmap = basis_bijection(a, a, {0: 1, 1: 0})
        cert = certify_linear_iso(tmap, "bad swap")
        assert not cert.passed
        failure = next(c for c in cert.checks if not c.ok)
        assert failure.name == "multiplicative"
        assert failure.witness

    def test_group_to_pointwise_is_not_an_isomorphism_of_algebras(self):
        # Q[Z/2] and Q^2 are abstractly isomorphic but not via this basis map
        a = _group_algebra()
        b = _pointwise_algebra()
        cert = certify_linear_iso(basis_bijection(a, b, {0: 0, 1: 1}), "wrong basis")
        assert not cert.passed

    def test_missing_inverse_reported(self):
        a = _group_algebra()
        tmap = LinearMapOnBasis(a, a, (((0, Q.one),), ((1, Q.one),)))
        cert = certify_linear_iso(tmap, "no inverse")
        names = {c.name: c.ok for c in cert.checks}
        assert names["multiplicative"]
        assert not names["two-sided-inverse"]

    def test_singular_map_fails_linear_route(self):
        a = _group_algebra()
        collapse = LinearMapOnBasis(a, a, (((0, Q.one),), ((0, Q.one),)))
        cert = certify_linear_iso(collapse, "collapse")
        names = {c.name: c.ok for c in cert.checks}
        assert not names["kernel-trivial"]
        assert not names["surjective"]

    def test_wrong_inverse_caught(self):
        a = _group_algebra()
        ident = (((0, Q.one),), ((1, Q.one),))
        wrong = LinearMapOnBasis(a, a, (((1, Q.one),), ((0, Q.one),)))
        tmap = LinearMapOnBasis(a, a, ident, inverse=wrong)
        cert = certify_linear_iso(tmap, "wrong inverse")
        names = {c.name: c.ok for c in cert.checks}
        assert not names["two-sided-inverse"]

    def test_degree_violation_caught(self):
        from sectional.semigroupoids import identity_homomorphism

        z2 = built(cyclic2_raw()).base
        a = semigroupoid_algebra(Q, z2, identity_homomorphism(z2))
        tmap = basis_bijection(a, a, {0: 1, 1: 0})
        cert = certify_linear_iso(tmap, "degree swap", graded=True)
        names = {c.name: c.ok for c in cert.checks}
        assert not names["degree-preserving"]

