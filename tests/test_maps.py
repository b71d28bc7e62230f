"""The certificate machinery itself: it must catch bad maps, not just bless good ones."""

import pytest

from sectional import maps
from sectional.bundles import semigroupoid_algebra
from sectional.maps import LinearMapOnBasis, basis_bijection, certify_linear_iso
from sectional.rings import RationalRing, ZModRing, solve_linear

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
        for image in ((2, Q.one),), {"x": Q.one}, {0: Q.one, "x": Q.one}:
            with pytest.raises(ValueError, match="indexes outside the target basis"):
                LinearMapOnBasis(a, a, (image, ()))
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

    def test_degrees_of_an_ungraded_side_or_another_grading_are_refused(self):
        from sectional.semigroupoids import identity_homomorphism

        z2, xy = built(cyclic2_raw()).base, built(unit_groupoid_raw(("x", "y"))).base
        a = semigroupoid_algebra(Q, z2, identity_homomorphism(z2))
        ungraded = semigroupoid_algebra(Q, z2)
        assert ungraded.check_graded_closure() is None
        other = semigroupoid_algebra(Q, xy, identity_homomorphism(xy))
        for b, note in ((ungraded, "both sides must be graded"),
                        (other, "gradings live over different semigroupoids")):
            cert = certify_linear_iso(basis_bijection(a, b, {0: 0, 1: 1}), "regraded", graded=True)
            (check,) = [c for c in cert.checks if c.name == "degree-preserving"]
            assert (check.ok, check.note) == (False, note)



@pytest.mark.parametrize("ring", [Q, ZModRing(6)], ids=["Q", "Z6"])
def test_failed_inverse_is_explained_by_elimination(ring, monkeypatch):
    """A passing two-sided inverse proves bijectivity and runs no
    elimination; a failed one is explained by solve_linear, once per
    certificate. A singular map whose declared inverse is the identity fails
    kernel-trivial with elimination's first kernel vector as the witness;
    over Z/6, diag(2, 1) keeps matrix rank 2 (its invariant factors are 2 and
    1) yet has the kernel vector (3, 0); a bijection with a corrupted inverse
    passes both checks."""
    calls = []

    def spy(*args):
        calls.append(args)
        return solve_linear(*args)

    monkeypatch.setattr(maps, "solve_linear", spy)
    a = semigroupoid_algebra(ring, built(cyclic2_raw()).base)
    one, two = ring.one, ring.coerce(2)
    ident = LinearMapOnBasis(a, a, (((0, one),), ((1, one),)))
    swap = LinearMapOnBasis(a, a, (((1, one),), ((0, one),)))
    expected = [
        (LinearMapOnBasis(a, a, ident.rows, inverse=ident), (True, True, True, ()), 2, 0),
        (LinearMapOnBasis(a, a, (((0, one),), ((0, one),)), inverse=ident),
         (False, False, False, (f"({ring.coerce(-1)}, 1)",)), 1, 1),
        (LinearMapOnBasis(a, a, ident.rows, inverse=swap), (False, True, True, ()), 2, 1),
    ]
    if ring.kind == "zmod":
        expected.append((LinearMapOnBasis(a, a, (((0, two),), ((1, one),)), inverse=ident),
                         (False, False, False, ("(3, 0)",)), 2, 1))
    for tmap, verdicts, rank, runs in expected:
        calls.clear()
        cert = certify_linear_iso(tmap, "map")
        checks = {c.name: c.to_json() for c in cert.checks}
        assert (checks["two-sided-inverse"]["ok"], checks["kernel-trivial"]["ok"],
                checks["surjective"]["ok"],
                tuple(checks["kernel-trivial"].get("witness", ()))) == verdicts
        assert cert.data["linear_route"] == "ran" and cert.data["matrix_rank"] == rank
        assert len(calls) == runs
