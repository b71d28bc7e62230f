"""Bundles, convolution, sectional algebras, graded round trips, crossed products."""

import dataclasses
import random

import pytest

from sectional.bundles import (
    Bundle,
    Section,
    algebra_action_associativity,
    bundle_from_graded,
    convolve,
    delta_section,
    fiber_rows,
    graded_roundtrip_iso,
    lscript_iso,
    naive_crossed_product,
    sectional_algebra,
    semigroupoid_algebra,
    trivial_bundle,
    validate_bundle,
    zero_section,
)
from sectional.maps import certify_linear_iso
from sectional.rings import IntegerRing, RationalRing, TableRing, ZModRing
from sectional.semigroupoids import identity_homomorphism
from sectional.validation import CapabilityError, StructureError

from structures import (
    built,
    cyclic2_raw,
    pair_groupoid_raw,
    semilattice_raw,
    trivial_algebra_action,
    trivial_monoid_raw,
    unit_groupoid_raw,
    validate_algebra_action,
)

Q = RationalRing()
Z4 = ZModRing(4)


def _unit(alg, i):
    """Basis vector i of alg as a sparse row, the form action images take."""
    return ((i, alg.ring.one),)


def matrix_unit_bundle(ring):
    """Rank-4 fiber over the one-arrow base with 2x2 matrix-unit constants."""
    base = built(trivial_monoid_raw()).base
    units = {}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    vec = [0, 0, 0, 0]
                    if j == k:
                        vec[i * 2 + l] = 1
                    units[(i * 2 + j, k * 2 + l)] = vec
    constants = {
        "m,m" if base.arrow_names[0] == "m" else f"{base.arrow_names[0]},{base.arrow_names[0]}":
            [[units[(p, q)] for q in range(4)] for p in range(4)]
    }
    return validate_bundle(
        {"ranks": {base.arrow_names[0]: 4}, "constants": constants, "mode": "sc"},
        ring, base,
    )


class TestValidateBundle:
    def test_trivial_bundle_over_pair_groupoid(self):
        bundle = trivial_bundle(Q, built(pair_groupoid_raw()).base)
        assert bundle.ranks == (1, 1, 1, 1)

    def test_broken_constant_has_associativity_witness(self):
        base = built(pair_groupoid_raw()).base
        with pytest.raises(StructureError) as refused:
            validate_bundle(
                {"mode": "sc", "constants": {"(1,2),(2,1)": [[[0]]], "(2,1),(1,2)": [[[1]]]}},
                Z4, base,
            )
        report = refused.value.report
        failure = report.first("associativity")
        assert failure.witness[:3] == ("(1,2)", "(2,1)", "(1,2)")

    def test_matrix_unit_constants_are_associative(self):
        # oracle: e_ij e_kl = [j = k] e_il is associative by direct identity
        bundle = matrix_unit_bundle(Q)
        assert bundle.ranks == (4,)

    def test_rank_mismatch_reported(self):
        base = built(trivial_monoid_raw()).base
        with pytest.raises(StructureError) as refused:
            validate_bundle(
                {"ranks": {"a": 2}, "constants": {"a,a": [[[1]]]}, "mode": "sc"},
                Q, base,
            )
        report = refused.value.report
        assert report.has("rank-mismatch")

    def test_sc_mode_needs_commutative_ring(self):
        from sectional.rings import validate_ring
        from structures import upper_triangular_f2_ring_spec

        ring = validate_ring(upper_triangular_f2_ring_spec())
        assert isinstance(ring, TableRing) and not ring.commutative
        with pytest.raises(CapabilityError):
            validate_bundle({"mode": "sc"}, ring, built(trivial_monoid_raw()).base)

    def test_ringfiber_mode_over_noncommutative_table_ring(self):
        from sectional.rings import validate_ring
        from structures import upper_triangular_f2_ring_spec

        ring = validate_ring(upper_triangular_f2_ring_spec())
        bundle = validate_bundle({"mode": "ringfiber"}, ring, built(cyclic2_raw()).base)
        alg = sectional_algebra(bundle)
        assert alg.rank == 2 and alg.check_associativity() is None

    def test_noncentral_twist_rejected(self):
        from sectional.rings import validate_ring
        from structures import upper_triangular_f2_ring_spec

        ring = validate_ring(upper_triangular_f2_ring_spec())
        # "010" is the strictly upper triangular unit, which is not central
        assert not ring.is_central(ring.coerce("010"))
        with pytest.raises(StructureError) as refused:
            validate_bundle(
                {"mode": "ringfiber", "twist": {"u,u": "010"}}, ring, built(cyclic2_raw()).base
            )
        report = refused.value.report
        assert report.has("structural")


    def test_row_built_bundle_over_noncommutative_ring(self):
        from sectional.rings import validate_ring
        from structures import upper_triangular_f2_ring_spec

        ring = validate_ring(upper_triangular_f2_ring_spec())
        base = built(trivial_monoid_raw()).base
        name = base.arrow_names[0]

        def report_for(rank, table):
            bundle = Bundle(ring, base, (rank,), {(0, 0): fiber_rows(table, ring)})
            return validate_bundle(bundle, ring, base)

        # the same rows as a ringfiber stanza with a central twist pass
        assert isinstance(report_for(1, (((ring.one,),),)), Bundle)
        with pytest.raises(StructureError) as refused:
            report_for(1, (((ring.coerce("010"),),),))
        noncentral = refused.value.report
        assert noncentral.kinds() == ["structural"]
        assert noncentral.first().witness == (name, name)
        # e_i e_j = [i = j] e_i is associative, but rank 2 needs a commutative ring
        one, zero = ring.one, ring.zero
        idempotents = (((one, zero), (zero, zero)), ((zero, zero), (zero, one)))
        with pytest.raises(StructureError) as refused:
            report_for(2, idempotents)
        rank_two = refused.value.report
        assert rank_two.kinds() == ["structural"]


class TestConvolution:
    def test_single_factorization(self):
        bundle = trivial_bundle(Q, built(pair_groupoid_raw()).base)
        base = bundle.base
        a12 = delta_section(bundle, base.arrow_index("(1,2)"))
        a21 = delta_section(bundle, base.arrow_index("(2,1)"))
        out = convolve(a12, a21)
        assert out == delta_section(bundle, base.arrow_index("(1,1)"))

    def test_unit_groupoid_convolution_is_pointwise(self):
        bundle = trivial_bundle(Q, built(unit_groupoid_raw(("x", "y", "z"))).base)
        rnd = random.Random("pointwise")
        for _ in range(20):
            a = _random_section(bundle, rnd)
            b = _random_section(bundle, rnd)
            out = convolve(a, b)
            for arrow in bundle.base.arrows():
                x, y = a.at(arrow).get(0, Q.zero), b.at(arrow).get(0, Q.zero)
                assert out.at(arrow).get(0, Q.zero) == Q.mul(x, y)

    def test_zero_absorbs(self):
        bundle = trivial_bundle(Q, built(pair_groupoid_raw()).base)
        z = zero_section(bundle)
        rnd = random.Random("zero")
        a = _random_section(bundle, rnd)
        assert convolve(z, a) == z
        assert convolve(a, z) == z
        assert convolve(z, z) == z

    @pytest.mark.parametrize("ring", [Z4, Q])
    def test_seeded_associativity_200_triples(self, ring):
        bundle = trivial_bundle(ring, built(pair_groupoid_raw()).base)
        rnd = random.Random(f"conv:{ring.describe()}")
        for _ in range(200):
            a = _random_section(bundle, rnd)
            b = _random_section(bundle, rnd)
            c = _random_section(bundle, rnd)
            assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))

    def test_matrix_unit_bundle_associativity_sampled(self):
        bundle = matrix_unit_bundle(Q)
        rnd = random.Random("mu")
        for _ in range(200):
            a = _random_section(bundle, rnd)
            b = _random_section(bundle, rnd)
            c = _random_section(bundle, rnd)
            assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))

    def test_unit_supported_section_acts_one_sided(self):
        bundle = trivial_bundle(Q, built(pair_groupoid_raw()).base)
        base = bundle.base
        unit1 = delta_section(bundle, base.arrow_index("(1,1)"))
        # sections supported where the source is vertex 1
        supported = Section(bundle, {
            base.arrow_index("(1,1)"): {0: Q.coerce(3)},
            base.arrow_index("(2,1)"): {0: Q.coerce(5)},
        })
        assert convolve(supported, unit1) == supported
        other = delta_section(bundle, base.arrow_index("(1,2)"))
        assert convolve(other, unit1) == zero_section(bundle)


def _random_section(bundle, rnd):
    return Section(bundle, {
        arrow: dict(enumerate(bundle.ring.sample(rnd) for _ in range(bundle.ranks[arrow])))
        for arrow in bundle.base.arrows()
    })


class TestSectionalAlgebra:
    def test_basis_and_structure_constants(self):
        bundle = trivial_bundle(Q, built(pair_groupoid_raw()).base)
        alg = sectional_algebra(bundle)
        assert alg.rank == 4
        assert alg.check_associativity() is None

    def test_unit_groupoid_gives_product_of_fibers(self):
        alg = sectional_algebra(trivial_bundle(Q, built(unit_groupoid_raw(("x", "y"))).base))
        for i in range(2):
            for j in range(2):
                expected = ((i, Q.one),) if i == j else ()
                assert alg.table.get((i, j), ()) == expected

    def test_grading_and_homogeneous_membership(self):
        # homogeneous-component lemma, both directions, over every 0/1
        # combination of basis sections: membership in the degree-g component
        # coincides with vanishing off the preimage of g
        import itertools

        base = built(pair_groupoid_raw()).base
        alg = sectional_algebra(trivial_bundle(Q, base), identity_homomorphism(base))
        assert alg.check_graded_closure() is None
        for bits in itertools.product((0, 1), repeat=alg.rank):
            vec = {i: Q.one for i, b in enumerate(bits) if b}
            support_degrees = {alg.degrees[i] for i in vec}
            for g in base.arrows():
                in_component = set(vec) <= set(alg.homogeneous_indices(g))
                vanishes = all(alg.degrees[i] == g for i in vec)
                assert in_component == vanishes
                if support_degrees and support_degrees != {g}:
                    assert not vanishes

    def test_structure_constants_agree_with_convolution(self):
        # dual route: multiply coordinate vectors through the presentation and
        # compare with literal convolution of the reassembled sections
        bundle = trivial_bundle(Q, built(pair_groupoid_raw()).base)
        alg = sectional_algebra(bundle)

        def section_of(v):
            values = {}
            for idx, x in v.items():
                arrow, i = alg.labels[idx]
                values.setdefault(arrow, {})[i] = x
            return Section(bundle, values)

        rnd = random.Random("dualroute")
        for _ in range(25):
            u = dict(enumerate(Q.sample(rnd) for _ in range(alg.rank)))
            v = dict(enumerate(Q.sample(rnd) for _ in range(alg.rank)))
            via_algebra = section_of(alg.mul(u.items(), v.items()))
            via_convolution = convolve(section_of(u), section_of(v))
            assert via_algebra == via_convolution


def oracle_graded_closure(alg):
    """The first pair over all rank^2 basis pairs whose product leaves the
    degree deg(u)deg(v), or is nonzero on non-composable degrees."""
    g = alg.grading
    for i in range(alg.rank):
        for j in range(alg.rank):
            prod = alg.table.get((i, j), ())
            di, dj = alg.degrees[i], alg.degrees[j]
            if g.is_composable(di, dj):
                if any(alg.degrees[k] != g.prod[di][dj] for k, _ in prod):
                    return (alg.basis[i], alg.basis[j])
            elif prod:
                return (alg.basis[i], alg.basis[j])
    return None


# matrix units of P_2, basis (1,1), (1,2), (2,1), (2,2): extra products on
# non-composable degrees ((1,1)(2,1), (2,2)(1,1)) and products that leave
# their degree ((1,2)(2,1) gains e_(1,2), (2,1)(1,1) gains e_(2,2))
GRADING_BREAKS = {
    "non-composable": ({(0, 2): ((0, 1),)}, ("(1,1)", "(2,1)")),
    "leaves-degree": ({(1, 2): ((0, 1), (1, 1))}, ("(1,2)", "(2,1)")),
    "both": ({(0, 2): ((0, 1),), (1, 2): ((0, 1), (1, 1))}, ("(1,1)", "(2,1)")),
    "later-first": ({(3, 0): ((3, 1),), (2, 0): ((2, 1), (3, 1))}, ("(2,1)", "(1,1)")),
}


class TestGradedRoundTrip:
    @pytest.mark.parametrize("case", sorted(GRADING_BREAKS))
    def test_graded_closure_names_the_first_failing_pair(self, case):
        changes, witness = GRADING_BREAKS[case]
        p2 = built(pair_groupoid_raw()).base
        alg = semigroupoid_algebra(Q, p2, identity_homomorphism(p2))
        assert alg.check_graded_closure() is None and oracle_graded_closure(alg) is None
        # stored in descending order, so the witness cannot lean on insertion order
        table = dict(sorted({**alg.table, **changes}.items(), reverse=True))
        broken = dataclasses.replace(alg, table=table)
        assert broken.check_graded_closure() == witness == oracle_graded_closure(broken)
        with pytest.raises(StructureError) as err:
            bundle_from_graded(broken)
        assert [(f.kind, f.witness) for f in err.value.report.failures] == [
            ("graded-closure", witness)]

    def test_group_algebra_round_trip_is_identity(self):
        z2 = built(cyclic2_raw()).base
        alg = semigroupoid_algebra(Q, z2, identity_homomorphism(z2))
        iso = graded_roundtrip_iso(alg)
        cert = certify_linear_iso(iso, "round trip", graded=True)
        assert cert.passed
        for i in range(alg.rank):
            assert iso.apply_rows(iso.inverse.rows[i]) == {i: Q.one}

    def test_matrix_units_graded_by_pair_groupoid(self):
        p2 = built(pair_groupoid_raw()).base
        alg = semigroupoid_algebra(Q, p2, identity_homomorphism(p2))
        bundle = bundle_from_graded(alg)
        assert bundle.ranks == (1, 1, 1, 1)
        assert all(
            bundle.fiber_mul(a, b, ((0, Q.one),), ((0, Q.one),)) == {0: Q.one}
            for a, b in bundle.base.composable
        )
        cert = certify_linear_iso(graded_roundtrip_iso(alg), "round trip", graded=True)
        assert cert.passed

    def test_trivially_graded_algebra_gives_single_fiber(self):
        tm = built(trivial_monoid_raw()).base
        alg = semigroupoid_algebra(Q, built(cyclic2_raw()).base)
        graded = type(alg)(
            ring=alg.ring, basis=alg.basis, table=alg.table,
            grading=tm, degrees=(0, 0), provenance=alg.provenance,
        )
        bundle = bundle_from_graded(graded)
        assert bundle.ranks == (2,)

    def test_sectional_round_trip_composes_to_identity(self):
        base = built(pair_groupoid_raw()).base
        alg = sectional_algebra(trivial_bundle(Q, base), identity_homomorphism(base))
        iso = graded_roundtrip_iso(alg)
        for i in range(alg.rank):
            assert iso.inverse.apply_rows(iso.rows[i]) == {i: Q.one}


class TestSemigroupoidAlgebra:
    def test_group_algebra_rank_two(self):
        alg = semigroupoid_algebra(Q, built(cyclic2_raw()).base)
        assert alg.rank == 2
        # delta_g * delta_g = delta_u
        assert alg.table[(1, 1)] == ((0, Q.one),)

    def test_unit_groupoid_gives_pointwise_functions(self):
        alg = semigroupoid_algebra(Q, built(unit_groupoid_raw(("a", "b", "c"))).base)
        assert alg.rank == 3
        for i in range(3):
            for j in range(3):
                assert alg.table.get((i, j), ()) == (((i, Q.one),) if i == j else ())

    def test_algebra_coefficients_tensor_the_base(self):
        coeff = semigroupoid_algebra(Q, built(cyclic2_raw()).base)   # rank 2 algebra
        alg = semigroupoid_algebra(coeff, built(pair_groupoid_raw()).base)
        assert alg.rank == 8
        assert alg.check_associativity() is None

    def test_integer_coefficients_work_for_construction(self):
        alg = semigroupoid_algebra(IntegerRing(), built(pair_groupoid_raw()).base)
        assert alg.rank == 4
        assert alg.check_associativity() is None


@pytest.fixture
def swap_action():
    """Z/2 swapping the two coordinates of Q^2 (pointwise product)."""
    z2 = built(cyclic2_raw())
    qq = semigroupoid_algebra(Q, built(unit_groupoid_raw(("p", "q"))).base)
    swap = {0: _unit(qq, 1), 1: _unit(qq, 0)}
    ident = {0: _unit(qq, 0), 1: _unit(qq, 1)}
    return validate_algebra_action(
        z2, qq, [(0, 1), (0, 1)], [ident, swap]
    )


class TestAlgebraActions:
    def test_domain_not_ideal_witness(self):
        # group algebra: only ideal is 0 or all
        qq = semigroupoid_algebra(Q, built(cyclic2_raw()).base)
        z2 = built(cyclic2_raw())
        with pytest.raises(StructureError) as refused:
            validate_algebra_action(
                z2, qq,
                [(0, 1), (0,)],
                [{0: _unit(qq, 0), 1: _unit(qq, 1)}, {0: _unit(qq, 0)}],
            )
        report = refused.value.report
        assert report.has("ideal-property")

    def test_inverse_mismatch_witness(self, swap_action):
        qq = swap_action.algebra
        z2 = swap_action.actor
        with pytest.raises(StructureError) as refused:
            validate_algebra_action(
                z2, qq, [(0, 1), (0, 1)],
                [{0: _unit(qq, 0), 1: _unit(qq, 1)},
                 {0: _unit(qq, 1), 1: _unit(qq, 1)}],
            )
        bad = refused.value.report
        assert bad.has("structural") or bad.has("inverse-compatibility")

    def test_image_outside_the_basis_is_structural(self, swap_action):
        qq, z2 = swap_action.algebra, swap_action.actor
        for image in ({2: Q.one}, ((0, Q.one), (-1, Q.one)), {0: Q.one, "x": Q.one}):
            with pytest.raises(StructureError) as refused:
                validate_algebra_action(
                    z2, qq, [(0, 1), (0, 1)],
                    [{0: _unit(qq, 0), 1: _unit(qq, 1)}, {0: _unit(qq, 1), 1: image}],
                )
            assert [(f.kind, f.witness, f.message) for f in refused.value.report.failures] == [
                ("structural", ("g", "1q"), "image vector indexes outside the basis")]

    def test_domain_index_outside_the_basis_is_structural(self, swap_action):
        qq, z2 = swap_action.algebra, swap_action.actor
        ident, swap = swap_action.rows
        for index in (2, -1, "x"):
            with pytest.raises(StructureError) as refused:
                validate_algebra_action(z2, qq, [(0, 1), (0, index)], [ident, swap])
            assert [(f.kind, f.witness, f.message) for f in refused.value.report.failures] == [
                ("structural", ("g",), "domain indexes outside the basis")]

    def test_images_are_stored_as_sorted_sparse_rows(self, swap_action):
        qq, z2 = swap_action.algebra, swap_action.actor
        action = validate_algebra_action(
            z2, qq, [(0, 1), (0, 1)],
            [{0: {1: Q.zero, 0: Q.one}, 1: _unit(qq, 1)}, {0: {1: Q.one}, 1: ((0, Q.one),)}],
        )
        assert action.rows == swap_action.rows

    def test_swap_action_is_associative(self, swap_action):
        assert algebra_action_associativity(swap_action) is None


class TestNaiveCrossedProduct:
    def test_trivial_action_matches_semigroupoid_algebra(self):
        s = built(semilattice_raw())
        coeff = semigroupoid_algebra(Q, built(unit_groupoid_raw(("x", "y"))).base)
        crossed = naive_crossed_product(trivial_algebra_action(s, coeff))
        direct = semigroupoid_algebra(coeff, s.base)
        assert crossed.rank == direct.rank
        assert crossed.table == direct.table

    def test_semilattice_example_has_rank_three(self):
        s = built(semilattice_raw())
        qx = semigroupoid_algebra(Q, built(unit_groupoid_raw(("x", "y"))).base)
        action = validate_algebra_action(
            s, qx, [(0, 1), (0,)],
            [{0: _unit(qx, 0), 1: _unit(qx, 1)},
             {0: _unit(qx, 0)}],
        )
        crossed = naive_crossed_product(action)
        assert crossed.rank == 3
        assert crossed.check_associativity() is None
        assert crossed.check_graded_closure() is None

    def test_swap_crossed_product_is_two_by_two_matrices(self, swap_action):
        crossed = naive_crossed_product(swap_action)
        assert crossed.rank == 4
        # oracle: explicit matrix-unit identification derived by hand from the
        # twisted product: e11 = d_u.1p, e22 = d_u.1q, e12 = d_g.1q, e21 = d_g.1p
        mu = semigroupoid_algebra(Q, built(pair_groupoid_raw()).base)
        pos = {name: i for i, name in enumerate(crossed.basis)}
        assignment = {
            mu.basis.index("(1,1)"): pos["d_u.1p"],
            mu.basis.index("(2,2)"): pos["d_u.1q"],
            mu.basis.index("(1,2)"): pos["d_g.1q"],
            mu.basis.index("(2,1)"): pos["d_g.1p"],
        }
        from sectional.maps import basis_bijection
        iso = basis_bijection(mu, crossed, assignment)
        cert = certify_linear_iso(iso, "matrix units vs swap crossed product")
        assert cert.passed


class TestLscript:
    def test_trivial_action_gives_identity(self):
        s = built(semilattice_raw())
        coeff = semigroupoid_algebra(Q, built(unit_groupoid_raw(("x", "y"))).base)
        action = trivial_algebra_action(s, coeff)
        iso = lscript_iso(action)
        assert iso.rows == tuple(((i, Q.one),) for i in range(iso.target.rank))
        assert certify_linear_iso(iso, "trivial lscript").passed

    def test_semilattice_example_fixes_e_generator(self):
        s = built(semilattice_raw())
        qx = semigroupoid_algebra(Q, built(unit_groupoid_raw(("x", "y"))).base)
        action = validate_algebra_action(
            s, qx, [(0, 1), (0,)],
            [{0: _unit(qx, 0), 1: _unit(qx, 1)},
             {0: _unit(qx, 0)}],
        )
        iso = lscript_iso(action)
        assert certify_linear_iso(iso, "semilattice lscript").passed
        src_pos = iso.source.basis.index("d_e.1x")
        tgt_pos = iso.target.basis.index("L_e.1x")
        assert iso.rows[src_pos] == ((tgt_pos, Q.one),)

    def test_swap_round_trip(self, swap_action):
        iso = lscript_iso(swap_action)
        cert = certify_linear_iso(iso, "swap lscript")
        assert cert.passed
        for i in range(iso.source.rank):
            assert iso.inverse.apply_rows(iso.rows[i]) == {i: Q.one}


class TestCorpusConvolutionInvariant:
    def _corpus(self):
        from sectional.actions import validate_preaction
        from sectional.theorems import _semidirect_bundle, validate_bundle_action
        from structures import semilattice_on_points_action

        out = [
            ("trivial/P2/Z4", trivial_bundle(Z4, built(pair_groupoid_raw()).base)),
            ("trivial/P2/Q", trivial_bundle(Q, built(pair_groupoid_raw()).base)),
            ("matrix-unit/Q", matrix_unit_bundle(Q)),
        ]
        actor = built(semilattice_raw())
        space = built(unit_groupoid_raw(("x", "y")))
        theta = validate_preaction(
            semilattice_on_points_action(), actor, space.base
        )
        ba = validate_bundle_action(theta, trivial_bundle(Q, space.base), None)
        semidirect = _semidirect_bundle(ba)
        assert validate_bundle(semidirect, Q, semidirect.base) is semidirect
        out.append(("semidirect/Q", semidirect))
        return out

    def test_two_hundred_seeded_triples_per_bundle(self):
        for name, bundle in self._corpus():
            rnd = random.Random(f"corpus:{name}")
            for _ in range(200):
                a = _random_section(bundle, rnd)
                b = _random_section(bundle, rnd)
                c = _random_section(bundle, rnd)
                assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c)), name


from hypothesis import given, settings
from hypothesis import strategies as st

_Z4_BUNDLE = trivial_bundle(Z4, built(pair_groupoid_raw()).base)


@st.composite
def _z4_sections(draw):
    values = {
        arrow: {0: draw(st.integers(0, 3))} for arrow in _Z4_BUNDLE.base.arrows()
    }
    return Section(_Z4_BUNDLE, values)


@given(_z4_sections(), _z4_sections(), _z4_sections())
@settings(max_examples=50, deadline=None)
def test_convolution_is_bilinear_over_z4(a, b, c):
    left = convolve(a, b.add(c))
    right = convolve(a, b).add(convolve(a, c))
    assert left == right
    left2 = convolve(b.add(c), a)
    right2 = convolve(b, a).add(convolve(c, a))
    assert left2 == right2
