"""The four isomorphism pipelines on the worked instances."""

import itertools
import os

import pytest

from sectional.actions import validate_preaction, validate_rigid_congruence
from sectional.bundles import (
    semigroupoid_algebra,
    sectional_algebra,
    trivial_bundle,
    validate_bundle,
)
from sectional.rings import EchelonBasis, RationalRing, ZModRing, dense, spans_equal
from sectional.semigroupoids import (
    identity_homomorphism,
    validate_homomorphism,
    validate_semigroupoid,
)
from sectional.theorems import (
    bundle_semidirect,
    crossed_theorem,
    germ_corollary,
    induced_theta,
    quotient_bundle,
    quotient_map_and_kernel,
    skew_product,
    smash_product,
    smash_theorem,
    tensor_product_algebra,
    tensor_theorem,
    validate_bundle_action,
    validate_bundle_congruence,
)
from sectional.validation import (
    CapabilityError,
    StructureError,
    ValidationReport,
    must,
)
from sectional.workspace import Builder, parse_workspace

from structures import (
    SKEW_Z2_TO_PAIR,
    built,
    components_semidirect_action,
    cyclic2_raw,
    is_isomorphism,
    pair_groupoid_raw,
    parallel_arrows_raw,
    preaction,
    semilattice_on_points_action,
    semilattice_raw,
    trivial_monoid_raw,
    unit_groupoid_raw,
)

Q = RationalRing()
Z5 = ZModRing(5)
FIXTURES = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "fixtures"))


def matrix_unit_bundle(ring):
    base = built(trivial_monoid_raw()).base
    arrow = base.arrow_names[0]
    units = {}
    for p in range(4):
        for q in range(4):
            i, j = divmod(p, 2)
            k, l = divmod(q, 2)
            vec = [0, 0, 0, 0]
            if j == k:
                vec[i * 2 + l] = 1
            units[(p, q)] = vec
    return must(validate_bundle(
        {"ranks": {arrow: 4}, "mode": "sc",
         "constants": {f"{arrow},{arrow}": [[units[(p, q)] for q in range(4)]
                                            for p in range(4)]}},
        ring, base,
    ))


def semilattice_bundle_action(ring=Q):
    actor = built(semilattice_raw())
    space = built(unit_groupoid_raw(("x", "y")))
    theta = must(validate_preaction(semilattice_on_points_action(), actor, space.base))
    bundle = trivial_bundle(ring, space.base)
    return must(validate_bundle_action(theta, bundle, None))


def swap_bundle_action(ring=Q):
    """Z/2 on a rank-2 pointwise fiber over one arrow, swapping coordinates."""
    z2 = built(cyclic2_raw())
    base = built(trivial_monoid_raw()).base
    arrow = base.arrow_names[0]
    bundle = must(validate_bundle(
        {"ranks": {arrow: 2}, "mode": "sc",
         "constants": {f"{arrow},{arrow}": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}},
        ring, base,
    ))
    theta = must(validate_preaction(
        {"u": {"dom": [arrow], "img": [arrow]},
         "g": {"dom": [arrow], "img": [arrow]}},
        z2, base,
    ))
    return must(validate_bundle_action(
        theta, bundle, {(1, 0): [[0, 1], [1, 0]], (0, 0): [[1, 0], [0, 1]]}
    ))


def _dense_product(alg, i, j):
    """e_i e_j as a dense coordinate tuple."""
    return dense(alg.table.get((i, j), ()), alg.rank, alg.ring)


class TestTensorProductAlgebra:
    def test_tensoring_with_the_ring_is_identity_like(self):
        a = semigroupoid_algebra(Q, built(cyclic2_raw()).base)
        r = semigroupoid_algebra(Q, built(trivial_monoid_raw()).base)
        t = tensor_product_algebra(a, r)
        assert t.rank == a.rank
        for i in range(a.rank):
            for j in range(a.rank):
                assert t.table.get((i, j)) == a.table.get((i, j))

    def test_group_algebra_square_has_rank_four(self):
        a = semigroupoid_algebra(Q, built(cyclic2_raw()).base)
        t = tensor_product_algebra(a, a)
        assert t.rank == 4
        assert t.check_associativity() is None

    def test_constants_are_pairwise(self):
        # rank 2 x rank 3 gives rank 6 with entrywise products
        a = semigroupoid_algebra(Q, built(cyclic2_raw()).base)
        b = semigroupoid_algebra(Q, built(unit_groupoid_raw(("x", "y", "z"))).base)
        t = tensor_product_algebra(a, b)
        assert t.rank == 6
        for i1 in range(2):
            for j1 in range(3):
                for i2 in range(2):
                    for j2 in range(3):
                        got = _dense_product(t, i1 * 3 + j1, i2 * 3 + j2)
                        pa = _dense_product(a, i1, i2)
                        pb = _dense_product(b, j1, j2)
                        expected = [Q.zero] * 6
                        for k, x in enumerate(pa):
                            for l, y in enumerate(pb):
                                expected[k * 3 + l] = Q.mul(x, y)
                        assert got == tuple(expected)

    def test_noncommutative_refuses(self):
        from sectional.rings import validate_ring
        from structures import upper_triangular_f2_ring_spec

        ring = validate_ring(upper_triangular_f2_ring_spec())
        a = semigroupoid_algebra(ring, built(cyclic2_raw()).base)
        with pytest.raises(CapabilityError):
            tensor_product_algebra(a, a)


class TestTensorTheorem:
    def test_unit_base_instance(self):
        res = tensor_theorem(trivial_bundle(Q, built(trivial_monoid_raw()).base),
                             built(pair_groupoid_raw()).base)
        assert res.certificate.passed
        assert res.product_algebra.rank == 4

    def test_pair_groupoid_times_group(self):
        p2, z2 = built(pair_groupoid_raw()).base, built(cyclic2_raw()).base
        res = tensor_theorem(trivial_bundle(Q, p2), z2)
        assert res.certificate.passed
        assert (res.section_algebra.rank, res.factor_algebra.rank,
                res.product_algebra.rank) == (4, 2, 8)

    def test_matrix_units_times_two_points(self):
        res = tensor_theorem(matrix_unit_bundle(Q), built(unit_groupoid_raw(("x", "y"))).base)
        assert res.certificate.passed
        assert res.product_algebra.rank == 8
        # block structure: the product algebra is two commuting copies of M2
        alg = res.product_algebra
        for i in range(4):
            for j in range(4):
                assert (i, 4 + j) not in alg.table
                assert (4 + i, j) not in alg.table

    def test_rank_identity_reported(self):
        p2, z2 = built(pair_groupoid_raw()).base, built(cyclic2_raw()).base
        res = tensor_theorem(trivial_bundle(Q, p2), z2)
        assert res.certificate.data["rank_identity"] is True


class TestBundleSemidirect:
    def test_identity_fibers_over_trivial_bundle(self):
        ba = semilattice_bundle_action()
        out = bundle_semidirect(ba)
        assert out.base.arrow_names == ("(1,1x)", "(1,1y)", "(e,1x)")
        assert out.ranks == (1, 1, 1)

    def test_swap_fibers_give_rank_four_sectional_algebra(self):
        out = bundle_semidirect(swap_bundle_action())
        alg = sectional_algebra(out)
        assert alg.rank == 4
        assert alg.check_associativity() is None

    def test_intertwining_violation_rejected(self):
        z2 = built(cyclic2_raw())
        base = built(trivial_monoid_raw()).base
        arrow = base.arrow_names[0]
        bundle = must(validate_bundle(
            {"ranks": {arrow: 2}, "mode": "sc",
             "constants": {f"{arrow},{arrow}": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}},
            Q, base,
        ))
        theta = must(validate_preaction(
            {"u": {"dom": [arrow], "img": [arrow]},
             "g": {"dom": [arrow], "img": [arrow]}},
            z2, base,
        ))
        # an involution, so the inverse check passes, but not an automorphism
        # of the pointwise fiber algebra
        report = validate_bundle_action(
            theta, bundle,
            {(0, 0): [[1, 0], [0, 1]], (1, 0): [[1, 1], [0, -1]]},
        )
        assert isinstance(report, ValidationReport)
        assert report.kinds() == ["intertwining"]
        assert report.first().witness == ("g", "a", "a")

    def test_extension_law_violation_rejected(self):
        # on the dual numbers e1 e1 = 0, diag(1, -1) is an automorphism and
        # its own inverse, but the identity arrow u must act as the identity
        z2 = built(cyclic2_raw())
        base = built(trivial_monoid_raw()).base
        bundle = must(validate_bundle(
            {"ranks": {"a": 2}, "mode": "sc",
             "constants": {"a,a": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}},
            Q, base,
        ))
        theta = must(validate_preaction(
            {"u": {"dom": ["a"], "img": ["a"]}, "g": {"dom": ["a"], "img": ["a"]}},
            z2, base,
        ))
        report = validate_bundle_action(
            theta, bundle, {(0, 0): [[1, 0], [0, -1]], (1, 0): [[1, 0], [0, 1]]},
        )
        assert isinstance(report, ValidationReport)
        assert report.kinds() == ["extension-law"]
        assert report.first().witness == ("u", "u", "a")

    def test_noninvertible_fiber_map_rejected(self):
        ba = semilattice_bundle_action()
        report = validate_bundle_action(
            ba.base_action, ba.bundle,
            {(0, 0): [[1]], (0, 1): [[1]], (1, 0): [[0]]},
        )
        assert isinstance(report, ValidationReport)
        assert report.has("non-invertible-fiber-map")

    def test_fiber_map_outside_the_domains_is_structural(self):
        # e acts on 1x only, so (e, 1y) lies outside the action domains
        ba = semilattice_bundle_action()
        report = validate_bundle_action(ba.base_action, ba.bundle, {(1, 1): [[1]]})
        assert isinstance(report, ValidationReport)
        assert report.kinds() == ["structural"]
        assert report.first().witness == ("e", "1y")


class TestInducedTheta:
    def test_trivial_action_induces_trivial_action(self):
        theta_bundle = semilattice_bundle_action()
        induced = induced_theta(theta_bundle)
        # dom(Theta_e) is the span of the basis section at 1x only
        labels = [induced.algebra.basis[i] for i in induced.domains[1]]
        assert labels == ["1x"]
        ident = induced.rows[0]
        assert all(ident[i] == ((i, Q.one),) for i in ident)

    def test_swap_is_transcribed_to_the_matrix(self):
        induced = induced_theta(swap_bundle_action())
        alg = induced.algebra
        swap = induced.rows[1]
        assert swap[0] == ((1, alg.ring.one),)
        assert swap[1] == ((0, alg.ring.one),)


class TestCrossedTheorem:
    def test_trivial_one_vertex_action_over_pair_groupoid(self):
        from sectional.actions import trivial_action

        theta = trivial_action(built(trivial_monoid_raw()), built(pair_groupoid_raw()).base)
        ba = must(validate_bundle_action(
            theta, trivial_bundle(Q, built(pair_groupoid_raw()).base), None
        ))
        res = crossed_theorem(ba)
        assert res.certificate.passed and res.lscript_certificate.passed
        assert res.section_of_semidirect.rank == 4
        assert res.crossed.rank == 4

    def test_semilattice_instance_rank_three(self):
        res = crossed_theorem(semilattice_bundle_action())
        assert res.certificate.passed and res.lscript_certificate.passed
        assert res.section_of_semidirect.rank == 3
        assert res.crossed.rank == 3

    def test_swap_instance_rank_four(self):
        res = crossed_theorem(swap_bundle_action())
        assert res.certificate.passed and res.lscript_certificate.passed
        assert res.crossed.rank == 4

    def test_naive_crossed_product_is_built_once(self, monkeypatch):
        # the comparison map and the range-side certificate share one build
        from sectional import bundles, theorems

        calls = []
        build = bundles.naive_crossed_product

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(bundles, "naive_crossed_product", counting)
        monkeypatch.setattr(theorems, "naive_crossed_product", counting)
        res = crossed_theorem(swap_bundle_action())
        assert res.certificate.passed and res.lscript_certificate.passed
        assert len(calls) == 1

    def test_composites_are_identities(self):
        res = crossed_theorem(semilattice_bundle_action())
        phi, psi = res.phi, res.psi
        for i in range(phi.source.rank):
            assert psi.apply_rows(phi.rows[i]) == {i: Q.one}
        for j in range(psi.source.rank):
            assert phi.apply_rows(psi.rows[j]) == {j: Q.one}


class TestSmashProduct:
    def test_group_algebra_smash_rank_four_with_zero_product(self):
        z2 = built(cyclic2_raw()).base
        alg = semigroupoid_algebra(Q, z2, identity_homomorphism(z2))
        smash = smash_product(alg)
        assert smash.rank == 4
        # (delta_u d_u)(delta_u d_g) = 0 because the degree projection misses
        p = smash.basis.index("u.du")
        q = smash.basis.index("u.dg")
        assert (p, q) not in smash.table

    def test_trivial_group_smash_is_identity(self):
        tm = built(trivial_monoid_raw()).base
        alg = semigroupoid_algebra(Q, built(cyclic2_raw()).base)
        graded = type(alg)(
            ring=alg.ring, basis=alg.basis, table=alg.table,
            grading=tm, degrees=(0, 0), provenance=alg.provenance,
        )
        smash = smash_product(graded)
        assert smash.rank == graded.rank
        for i in range(smash.rank):
            for j in range(smash.rank):
                assert smash.table.get((i, j)) == graded.table.get((i, j))

    def test_matrix_units_smash_has_eight_elements(self):
        p2 = built(pair_groupoid_raw()).base
        alg = semigroupoid_algebra(Q, p2, identity_homomorphism(p2))
        smash = smash_product(alg)
        # oracle: count pairs (u, h) with src(deg u) = rng(h): each of the 4
        # basis elements pairs with the 2 arrows ranging at its source vertex
        assert smash.rank == 8
        assert smash.check_associativity() is None
        assert smash.check_graded_closure() is None

    def test_ungraded_refuses(self):
        alg = semigroupoid_algebra(Q, built(cyclic2_raw()).base)
        with pytest.raises(StructureError):
            smash_product(alg)

    def test_non_groupoid_grading_refuses(self):
        e2 = built(semilattice_raw()).base
        alg = semigroupoid_algebra(Q, e2, identity_homomorphism(e2))
        with pytest.raises(StructureError) as err:
            smash_product(alg)
        assert err.value.report.has("grading-not-groupoid")


class TestSkewProduct:
    def test_group_skew_is_pair_groupoid(self):
        z2 = built(cyclic2_raw()).base
        skew = skew_product(z2, identity_homomorphism(z2))
        assert skew.semigroupoid.n_arrows == 4
        p2 = built(pair_groupoid_raw()).base
        assert is_isomorphism(SKEW_Z2_TO_PAIR, skew.semigroupoid, p2)
        swapped = {**SKEW_Z2_TO_PAIR, "(u,u)": "(2,2)", "(u,g)": "(1,1)"}
        assert not is_isomorphism(swapped, skew.semigroupoid, built(pair_groupoid_raw()).base)

    def test_constant_grading_reproduces_base(self):
        p2 = built(pair_groupoid_raw()).base
        tm = built(trivial_monoid_raw()).base
        d = must(validate_homomorphism({a: "a" for a in p2.arrow_names}, p2, tm))
        skew = skew_product(p2, d)
        assert is_isomorphism({f"({x},a)": x for x in p2.arrow_names}, skew.semigroupoid, p2)

    def test_grading_homomorphism_returned(self):
        z2 = built(cyclic2_raw()).base
        skew = skew_product(z2, identity_homomorphism(z2))
        for i, (x, _h) in enumerate(skew.semigroupoid.labels):
            assert skew.grading.map[i] == x


class TestSmashTheorem:
    def test_group_instance(self):
        z2 = built(cyclic2_raw()).base
        res = smash_theorem(trivial_bundle(Q, z2), identity_homomorphism(z2))
        assert res.certificate.passed
        assert res.smash.rank == 4 and res.skew_algebra.rank == 4
        p2 = built(pair_groupoid_raw()).base
        assert is_isomorphism(SKEW_Z2_TO_PAIR, res.skew.semigroupoid, p2)

    def test_trivial_group_instance(self):
        p2 = built(pair_groupoid_raw()).base
        tm = built(trivial_monoid_raw()).base
        d = must(validate_homomorphism({a: "a" for a in p2.arrow_names}, p2, tm))
        res = smash_theorem(trivial_bundle(Q, p2), d)
        assert res.certificate.passed
        assert res.smash.rank == 4

    def test_parity_grading_of_pair_groupoid(self):
        p2 = built(pair_groupoid_raw()).base
        z2 = built(cyclic2_raw()).base
        parity = {"(1,1)": "u", "(2,2)": "u", "(1,2)": "g", "(2,1)": "g"}
        d = must(validate_homomorphism(parity, p2, z2))
        res = smash_theorem(trivial_bundle(Q, p2), d)
        assert res.certificate.passed
        assert res.smash.rank == res.skew_algebra.rank == 8
        cert_names = [c.name for c in res.certificate.checks]
        assert "degree-preserving" in cert_names


@pytest.fixture
def sign_congruence():
    """Total congruence on Z/2 with rank-1 fibers and transport -1."""
    z2 = built(cyclic2_raw()).base
    cong = must(validate_rigid_congruence([["u", "g"]], z2))
    bundle = trivial_bundle(Q, z2)
    return must(validate_bundle_congruence(bundle, cong, {"g": [[-1]]}))


class TestBundleCongruence:
    def test_sign_congruence_validates(self, sign_congruence):
        assert sign_congruence.transports[(0, 1)] == (((0, Q.coerce(-1)),),)
        assert sign_congruence.transports[(1, 0)] == (((0, Q.coerce(-1)),),)

    def test_rank_mismatch_rejected(self):
        base = built(parallel_arrows_raw())
        cong = must(validate_rigid_congruence([["a", "b"]], base))
        bundle = must(validate_bundle(
            {"ranks": {"a": 1, "b": 2}, "mode": "sc"}, Q, base
        ))
        report = validate_bundle_congruence(bundle, cong, None)
        assert isinstance(report, ValidationReport)
        assert report.has("structural")

    def test_non_intertwining_transport_rejected(self):
        z2 = built(cyclic2_raw()).base
        cong = must(validate_rigid_congruence([["u", "g"]], z2))
        bundle = trivial_bundle(Q, z2)
        report = validate_bundle_congruence(bundle, cong, {"g": [[2]]})
        assert isinstance(report, ValidationReport)
        assert report.has("intertwining")

    def test_singular_transport_rejected(self):
        z2 = built(cyclic2_raw()).base
        cong = must(validate_rigid_congruence([["u", "g"]], z2))
        bundle = trivial_bundle(Q, z2)
        report = validate_bundle_congruence(bundle, cong, {"g": [[0]]})
        assert isinstance(report, ValidationReport)
        assert report.has("non-invertible-transport")

    def test_wrong_inverse_fails_on_the_diagonal(self, monkeypatch):
        # from_b = to_b when mat_inverse returns its input, so b -> b is
        # [[1,2],[0,1]]: the diagonal check names b before any triple could
        base = must(validate_semigroupoid({
            "id": "parallel3", "vertices": ["v", "w"],
            "arrows": [{"id": x, "src": "v", "rng": "w"} for x in "abc"], "prod": [],
        }))
        cong = must(validate_rigid_congruence([["a", "b", "c"]], base))
        bundle = must(validate_bundle({"ranks": {x: 2 for x in "abc"}}, Q, base))
        monkeypatch.setattr("sectional.theorems.mat_inverse", lambda mat, ring: mat)
        report = validate_bundle_congruence(bundle, cong, {"b": [[1, 1], [0, 1]]})
        assert isinstance(report, ValidationReport)
        assert [(f.kind, f.witness) for f in report.failures] == [("cocycle", ("b",))]

    def test_congruence_on_another_base_rejected(self):
        # quotient.json's bundle bZ2 lives on Z2, its congruence collapse on
        # the parallel arrows: the pair is refused, not certified or failed
        with open(os.path.join(FIXTURES, "quotient.json"), encoding="utf-8") as fh:
            builder = Builder(parse_workspace(fh.read()), Q)
        report = validate_bundle_congruence(builder.bundle("bZ2"),
                                            builder.congruence("collapse"), None)
        assert isinstance(report, ValidationReport)
        assert [(f.kind, f.message) for f in report.failures] == [
            ("structural", "the congruence must live on the bundle base")]


class TestQuotientBundle:
    def test_identity_congruence_reproduces_bundle(self):
        z2 = built(cyclic2_raw()).base
        cong = must(validate_rigid_congruence([["u"], ["g"]], z2))
        bundle = trivial_bundle(Q, z2)
        bc = must(validate_bundle_congruence(bundle, cong, None))
        out = quotient_bundle(bc)
        assert out.bundle.ranks == bundle.ranks
        assert is_isomorphism({"[u]": "u", "[g]": "g"}, out.base_quotient, z2)

    def test_germ_congruence_gives_two_point_unit_bundle(self):
        ba = semilattice_bundle_action()
        sp = bundle_semidirect(ba)
        cong = must(validate_rigid_congruence(
            [["(1,1x)", "(e,1x)"], ["(1,1y)"]], sp.base
        ))
        bc = must(validate_bundle_congruence(sp, cong, None))
        out = quotient_bundle(bc)
        assert out.bundle.ranks == (1, 1)
        assert is_isomorphism({"[(1,1x)]": "1x", "[(1,1y)]": "1y"},
                              out.base_quotient, built(unit_groupoid_raw(("x", "y"))).base)

    def test_sign_congruence_quotient_constants(self, sign_congruence):
        out = quotient_bundle(sign_congruence)
        assert out.base_quotient.n_arrows == 1
        # representative fiber keeps the representative's constants
        assert out.bundle.fiber_mul(0, 0, ((0, Q.one),), ((0, Q.one),)) == {0: Q.one}


class TestQuotientMapAndKernel:
    @pytest.mark.parametrize("ring", [Q, Z5])
    def test_identity_congruence_has_zero_kernel(self, ring):
        z2 = built(cyclic2_raw()).base
        cong = must(validate_rigid_congruence([["u"], ["g"]], z2))
        bc = must(validate_bundle_congruence(trivial_bundle(ring, z2), cong, None))
        res = quotient_map_and_kernel(bc)
        assert res.certificate.passed
        assert res.kernel_basis == [] and res.generators == []

    @pytest.mark.parametrize("ring", [Q, Z5])
    def test_germ_congruence_kernel_generated_by_difference(self, ring):
        ba = semilattice_bundle_action(ring)
        sp = bundle_semidirect(ba)
        cong = must(validate_rigid_congruence(
            [["(1,1x)", "(e,1x)"], ["(1,1y)"]], sp.base
        ))
        bc = must(validate_bundle_congruence(sp, cong, None))
        res = quotient_map_and_kernel(bc)
        assert res.certificate.passed
        names = res.source.basis
        delta = [ring.zero] * len(names)
        delta[names.index("(1,1x)")] = ring.one
        delta[names.index("(e,1x)")] = ring.neg(ring.one)
        assert spans_equal(res.kernel_basis, [dict(enumerate(delta))], ring)

    @pytest.mark.parametrize("ring", [Q, Z5])
    def test_parallel_arrows_transport_one(self, ring):
        base = built(parallel_arrows_raw())
        cong = must(validate_rigid_congruence([["a", "b"]], base))
        bc = must(validate_bundle_congruence(trivial_bundle(ring, base), cong, None))
        res = quotient_map_and_kernel(bc)
        assert res.certificate.passed
        assert spans_equal(res.kernel_basis, [{0: ring.one, 1: ring.neg(ring.one)}], ring)

    @pytest.mark.parametrize("ring", [Q, Z5])
    def test_sign_congruence_kernel(self, ring):
        z2 = built(cyclic2_raw()).base
        cong = must(validate_rigid_congruence([["u", "g"]], z2))
        bc = must(validate_bundle_congruence(
            trivial_bundle(ring, z2), cong, {"g": [[-1]]}
        ))
        res = quotient_map_and_kernel(bc)
        assert res.certificate.passed
        assert spans_equal(res.kernel_basis, [{0: ring.one, 1: ring.one}], ring)

    def test_integer_ring_refuses(self):
        from sectional.rings import IntegerRing

        z2 = built(cyclic2_raw()).base
        cong = must(validate_rigid_congruence([["u"], ["g"]], z2))
        bc = must(validate_bundle_congruence(
            trivial_bundle(IntegerRing(), z2), cong, None
        ))
        with pytest.raises(CapabilityError):
            quotient_map_and_kernel(bc)


class TestGermCorollary:
    def _running_theta(self):
        actor = built(semilattice_raw())
        space = built(unit_groupoid_raw(("x", "y")))
        return must(validate_preaction(
            semilattice_on_points_action(), actor, space.base
        ))

    def test_running_example_ranks_three_one_two(self):
        res = germ_corollary(self._running_theta(), Q)
        assert res.certificate.passed
        data = res.certificate.data
        assert (data["crossed_rank"], data["ideal_rank"], data["quotient_rank"]) == (3, 1, 2)

    def test_group_action_has_zero_ideal(self):
        theta = must(validate_preaction(
            {"u": {"dom": ["10", "11"], "img": ["10", "11"]},
             "g": {"dom": ["10", "11"], "img": ["11", "10"]}},
            built(cyclic2_raw()), built(unit_groupoid_raw(("0", "1"))).base,
        ))
        res = germ_corollary(theta, Q)
        assert res.certificate.passed
        assert res.certificate.data["ideal_rank"] == 0
        assert res.crossed.rank == res.germ_algebra.rank == 4

    def test_empty_idempotent_domain_keeps_everything(self):
        actor = built(semilattice_raw())
        space = built(unit_groupoid_raw(("x", "y")))
        theta = must(validate_preaction(
            {"1": {"dom": ["1x", "1y"], "img": ["1x", "1y"]},
             "e": {"dom": [], "img": []}},
            actor, space.base,
        ))
        res = germ_corollary(theta, Q)
        assert res.certificate.passed
        assert res.certificate.data["ideal_rank"] == 0
        assert res.crossed.rank == res.germ_algebra.rank == 2

    def test_algebra_coefficients(self):
        coeff = semigroupoid_algebra(Q, built(cyclic2_raw()).base)
        res = germ_corollary(self._running_theta(), coeff)
        assert res.certificate.passed
        data = res.certificate.data
        assert (data["crossed_rank"], data["ideal_rank"], data["quotient_rank"]) == (6, 2, 4)

    def test_rank_identity_on_corpus(self):
        for theta, coeff in [
            (self._running_theta(), Q),
            (self._running_theta(), ZModRing(5)),
        ]:
            res = germ_corollary(theta, coeff)
            assert res.certificate.passed
            data = res.certificate.data
            assert data["crossed_rank"] - data["ideal_rank"] == data["quotient_rank"]


class TestGermOnPairGroupoidCopies:
    """E ⋊ Γ acting on k disjoint copies of P_m: a non-commutative actor with
    a non-trivial order on a space with non-identity arrows. From the
    combinatorics alone: crossed rank |Γ|·|G|·2^(k-1), since each arrow of
    G = kP_m lies in the domain of (U, γ) for half the U; quotient rank
    |Γ|·|G|, the transformation groupoid Γ ⋉ G; the ideal is the
    difference."""

    @pytest.mark.parametrize("ring", [Q, ZModRing(6)], ids=["Q", "Z6"])
    @pytest.mark.parametrize("k, m, group, ranks", [
        (2, 2, [(0, 1), (1, 0)], (32, 16, 16)),
        (3, 1, list(itertools.permutations(range(3))), (72, 18, 54)),
    ], ids=["k2-m2-Z2", "k3-m1-S3"])
    def test_ranks(self, k, m, group, ranks, ring):
        theta = preaction(*components_semidirect_action(k, m, group))
        assert theta.is_partial and theta.is_global and theta.is_associative
        res = germ_corollary(theta, ring)
        assert res.certificate.passed
        data = res.certificate.data
        assert (data["crossed_rank"], data["quotient_rank"]) == (ranks[0], ranks[1])
        # over Z/6 the ideal is free: its Howell form has one unit pivot per rank
        rows = EchelonBasis(ring, res.ideal_basis).pivot_rows()
        assert len(rows) == ranks[2]
        assert all(row[min(row)] == ring.one for row in rows)
        if ring.is_field:
            assert data["ideal_rank"] == ranks[2]


class TestCertificationRoutes:
    def test_tensor_over_integers_skips_linear_route(self):
        # the explicit-inverse route still certifies; the kernel/image
        # cross-check is recorded as skipped for unsupported rings
        from sectional.rings import IntegerRing

        res = tensor_theorem(
            trivial_bundle(IntegerRing(), built(cyclic2_raw()).base), built(cyclic2_raw()).base
        )
        assert res.certificate.passed
        assert res.certificate.data["linear_route"].startswith("skipped")

    def test_tensor_over_z4_runs_linear_route(self):
        res = tensor_theorem(
            trivial_bundle(ZModRing(4), built(cyclic2_raw()).base), built(cyclic2_raw()).base
        )
        assert res.certificate.passed
        assert res.certificate.data["linear_route"] == "ran"


class TestStageTagging:
    def test_germ_corollary_tags_the_refusing_stage(self):
        from sectional.actions import trivial_action
        from sectional.validation import StageError

        # the space is a semilattice, not a groupoid, so the pipeline must
        # refuse in its first stage
        theta = trivial_action(built(cyclic2_raw()), built(semilattice_raw()).base)
        with pytest.raises(StageError) as err:
            germ_corollary(theta, Q)
        assert err.value.stage == "germ-quotient"

    def test_germ_corollary_capability_refusal_tagged(self):
        from sectional.rings import IntegerRing
        from sectional.validation import CapabilityError, StageError

        actor = built(semilattice_raw())
        space = built(unit_groupoid_raw(("x", "y")))
        theta = must(validate_preaction(
            semilattice_on_points_action(), actor, space.base
        ))
        with pytest.raises(StageError) as err:
            germ_corollary(theta, IntegerRing())
        assert err.value.stage == "ideal"
        assert isinstance(err.value.cause, CapabilityError)


class TestMultiVertexActor:
    """The pair groupoid acting on a two-point space: every vertex-indexed
    ideal and domain check must engage nontrivially."""

    def _theta(self, ring=Q):
        p2 = built(pair_groupoid_raw())
        space = built(unit_groupoid_raw(("x1", "x2")))
        maps = {
            "(1,1)": {"dom": ["1x1"], "img": ["1x1"]},
            "(1,2)": {"dom": ["1x2"], "img": ["1x1"]},
            "(2,1)": {"dom": ["1x1"], "img": ["1x2"]},
            "(2,2)": {"dom": ["1x2"], "img": ["1x2"]},
        }
        return must(validate_preaction(maps, p2, space.base))

    def test_action_is_global_and_associative(self):
        theta = self._theta()
        assert theta.is_global and theta.is_partial and theta.is_associative

    def test_crossed_theorem_rank_four(self):
        theta = self._theta()
        bundle = trivial_bundle(Q, theta.space)
        ba = must(validate_bundle_action(theta, bundle, None))
        res = crossed_theorem(ba)
        assert res.certificate.passed and res.lscript_certificate.passed
        assert res.crossed.rank == 4

    def test_germ_corollary_trivial_order_keeps_rank(self):
        res = germ_corollary(self._theta(), Q)
        assert res.certificate.passed
        data = res.certificate.data
        assert (data["crossed_rank"], data["ideal_rank"], data["quotient_rank"]) == (4, 0, 4)
        assert is_isomorphism({"[((1,1),1x1)]": "(1,1)", "[((1,2),1x2)]": "(1,2)",
                               "[((2,1),1x1)]": "(2,1)", "[((2,2),1x2)]": "(2,2)"},
                              res.germ.quotient, built(pair_groupoid_raw()).base)


class TestChainSemilattice:
    """A three-level order 1 > f > e with nested domains; expected ranks were
    derived by hand: classes {(1,x),(f,x),(e,x)}, {(1,y),(f,y)}, {(1,z)}, so
    the crossed product has rank 3+2+1 = 6 collapsing onto 3 germ classes."""

    def _theta(self):
        from sectional.semigroupoids import (
            validate_inverse_semigroupoid,
            validate_semigroupoid,
        )

        raw = {
            "id": "E3",
            "vertices": ["*"],
            "arrows": [{"id": x, "src": "*", "rng": "*"} for x in ("1", "f", "e")],
            "prod": [
                ["1", "1", "1"], ["1", "f", "f"], ["1", "e", "e"],
                ["f", "1", "f"], ["f", "f", "f"], ["f", "e", "e"],
                ["e", "1", "e"], ["e", "f", "e"], ["e", "e", "e"],
            ],
        }
        sg = must(validate_semigroupoid(raw))
        inv = must(validate_inverse_semigroupoid(sg, {x: x for x in ("1", "f", "e")}))
        names = inv.base.arrow_names
        assert (names.index("e"), names.index("f")) in inv.leq
        assert (names.index("f"), names.index("1")) in inv.leq
        space = built(unit_groupoid_raw(("x", "y", "z")))
        return must(validate_preaction({
            "1": {"dom": ["1x", "1y", "1z"], "img": ["1x", "1y", "1z"]},
            "f": {"dom": ["1x", "1y"], "img": ["1x", "1y"]},
            "e": {"dom": ["1x"], "img": ["1x"]},
        }, inv, space.base))

    def test_germ_corollary_six_three_three(self):
        res = germ_corollary(self._theta(), Q)
        assert res.certificate.passed
        data = res.certificate.data
        assert (data["crossed_rank"], data["ideal_rank"], data["quotient_rank"]) == (6, 3, 3)
        assert is_isomorphism({f"[(1,1{x})]": f"1{x}" for x in "xyz"},
                              res.germ.quotient, built(unit_groupoid_raw(("x", "y", "z"))).base)

    def test_crossed_theorem_rank_six(self):
        theta = self._theta()
        ba = must(validate_bundle_action(theta, trivial_bundle(Q, theta.space), None))
        res = crossed_theorem(ba)
        assert res.certificate.passed and res.lscript_certificate.passed
        assert res.crossed.rank == 6


class TestSmashOverPairGroupoid:
    def test_identity_grading_of_pair_groupoid(self):
        p2 = built(pair_groupoid_raw()).base
        res = smash_theorem(trivial_bundle(Q, p2), identity_homomorphism(p2))
        assert res.certificate.passed
        # oracle: pairs ((i,j), h) with rng(h) = src(deg) = j: two arrows
        # range at each vertex, so 4 basis elements each pair with 2
        assert res.smash.rank == res.skew_algebra.rank == 8
