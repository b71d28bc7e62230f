"""Ring validation and the exact linear algebra backend."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectional.rings import (
    EchelonBasis,
    IntegerRing,
    RationalRing,
    TableRing,
    ZModRing,
    _is_prime,
    combine,
    dense,
    smith_normal_form,
    solve_linear,
    validate_ring,
    vector_in_span,
)
from sectional.cli import main
from sectional.validation import CapabilityError, StructureError

from structures import columns_of, ideal_closure, sample, span_rank, spans_equal

Q = RationalRing()
Z4 = ZModRing(4)
Z5 = ZModRing(5)


BOOLEAN_RING = {
    "kind": "table",
    "elements": ["0", "1"],
    "add": [[0, 1], [1, 0]],
    "mul": [[0, 0], [0, 1]],
    "zero": 0,
    "one": 1,
}


class TestValidateRing:
    def test_builtin_zmod_is_valid(self):
        ring = validate_ring({"kind": "zmod", "n": 4})
        assert isinstance(ring, ZModRing)
        assert ring.n == 4 and not ring.is_field

    def test_unit_law_violation_reported_with_witness(self):
        bad = dict(BOOLEAN_RING, mul=[[0, 0], [0, 0]])
        with pytest.raises(StructureError) as refused:
            validate_ring(bad)
        report = refused.value.report
        assert report.first("unit-law").witness == ("1",)

    def test_boolean_table_ring_valid_and_commutative(self):
        # oracle: every axiom triple over {0,1} checked by hand enumeration here
        add = BOOLEAN_RING["add"]
        mul = BOOLEAN_RING["mul"]
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    assert add[add[a][b]][c] == add[a][add[b][c]]
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        ring = validate_ring(BOOLEAN_RING)
        assert isinstance(ring, TableRing)
        assert ring.commutative

    def test_structural_error_distinct_from_axiom_failure(self):
        bad = dict(BOOLEAN_RING, mul=[[0, 0]])
        with pytest.raises(StructureError) as refused:
            validate_ring(bad)
        report = refused.value.report
        assert report.kinds() == ["structural"]

    def test_unknown_element_is_structural(self):
        bad = dict(BOOLEAN_RING, add=[[0, "two"], [1, 0]])
        with pytest.raises(StructureError) as refused:
            validate_ring(bad)
        report = refused.value.report
        assert report.has("structural")

    def test_noncommutative_table_ring_accepted(self):
        from structures import upper_triangular_f2_ring_spec

        ring = validate_ring(upper_triangular_f2_ring_spec())
        assert isinstance(ring, TableRing)
        assert not ring.commutative

    def test_declared_commutative_flag_checked(self):
        # the upper triangular ring is valid but not commutative, so a
        # wrongly declared flag must be the only reported failure
        from structures import upper_triangular_f2_ring_spec

        spec = dict(upper_triangular_f2_ring_spec(), commutative=True)
        with pytest.raises(StructureError) as refused:
            validate_ring(spec)
        report = refused.value.report
        assert report.kinds() == ["mul-commutativity"]


class TestRationalCoerce:
    @pytest.mark.parametrize("literal, value", [
        (3, Fraction(3)), ("-4", Fraction(-4)), ("0.25", Fraction(1, 4)),
        ("-1/2", Fraction(-1, 2)), (" 7/14 ", Fraction(1, 2)),
    ])
    def test_integers_decimals_and_quotients_are_accepted(self, literal, value):
        assert Q.coerce(literal) == value

    @pytest.mark.parametrize("literal", ["1/0", "0/0", "-3/0", "1e-8000000", "1E5", "2.5e3",
                                         True, 1.5])
    def test_zero_denominators_and_exponents_are_refused(self, literal):
        with pytest.raises(ValueError, match="not a rational literal"):
            Q.coerce(literal)


class TestRationalElements:
    """A rational is an int when integral and a Fraction only otherwise; an
    integral Fraction that arithmetic produces is an equally valid element."""

    @pytest.mark.parametrize("literal", [2, "4/2", Fraction(6, 3), "-0", " -12 "])
    def test_integral_literals_coerce_to_int(self, literal):
        assert type(Q.coerce(literal)) is int

    def test_non_integral_literal_coerces_to_fraction(self):
        assert Q.coerce("1/2") == Fraction(1, 2)
        assert type(Q.coerce("1/2")) is Fraction

    @pytest.mark.parametrize("unit", [1, -1, Fraction(1), Fraction(-1)])
    def test_inverse_of_a_sign_is_an_int(self, unit):
        assert type(Q.unit_inverse(unit)) is int and Q.unit_inverse(unit) == unit

    def test_inverse_of_a_non_integral_rational(self):
        assert Q.unit_inverse(Fraction(2, 3)) == Fraction(3, 2)
        assert type(Q.unit_inverse(Fraction(1, 3))) is int and Q.unit_inverse(Fraction(1, 3)) == 3
        assert Q.unit_inverse(0) is None
        # an integral Fraction that arithmetic produces prints as its int
        assert str(Q.mul(Fraction(2, 3), Fraction(3, 2))) == str(1)

    def test_sample_draws_the_old_stream(self):
        """The test-side sampler draws what each ring's own sample method
        drew, bit for bit, and a rational is an int when it is integral."""
        table = validate_ring(BOOLEAN_RING)
        old_draws = {Q: lambda rnd: Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)),
                     IntegerRing(): lambda rnd: rnd.randint(-9, 9),
                     Z5: lambda rnd: rnd.randrange(5),
                     table: lambda rnd: rnd.randrange(len(table.names))}
        for ring, old_draw in old_draws.items():
            new, old = random.Random(11), random.Random(11)
            for _ in range(1000):
                x, expected = sample(ring, new), old_draw(old)
                assert x == expected
                assert type(x) is (Fraction if Fraction(expected).denominator > 1 else int)
            assert new.random() == old.random()

    def test_zero_and_one_are_ints(self):
        assert type(Q.zero) is int and type(Q.one) is int
        assert Q.is_zero(Fraction(0)) and not Q.is_zero(Fraction(1, 2))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_combine_and_echelon_agree_on_mixed_inputs(self, data):
        """The same values given as ints, as integral Fractions or mixed
        give equal combine sums and equal echelon rows."""
        values = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 1, 2]))
        rows = data.draw(st.lists(st.dictionaries(st.integers(0, 3), values, max_size=4),
                                  max_size=4))
        coeffs = data.draw(st.lists(values, min_size=len(rows), max_size=len(rows)))

        def spelled(x):
            canonical = Q.coerce(x)
            return data.draw(st.sampled_from([canonical, Fraction(canonical)]))

        mixed_rows = [{k: spelled(x) for k, x in row.items()} for row in rows]
        mixed_coeffs = [spelled(c) for c in coeffs]
        as_fractions = combine(zip(coeffs, (r.items() for r in rows)), Q)
        mixed = combine(zip(mixed_coeffs, (r.items() for r in mixed_rows)), Q)
        assert mixed == as_fractions
        assert EchelonBasis(Q, mixed_rows).rows == EchelonBasis(Q, rows).rows
        probe = {k: spelled(x) for k, x in data.draw(
            st.dictionaries(st.integers(0, 3), values, max_size=4)).items()}
        assert EchelonBasis(Q, mixed_rows).contains(probe) == \
            EchelonBasis(Q, rows).contains(probe)


def oracle_is_prime(n):
    """Trial division: exact, but exponential in the bit length of n."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


QUOTIENT_FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "quotient.json")


class TestPrimality:
    def test_agrees_with_trial_division_below_20000(self):
        assert [n for n in range(20000) if _is_prime(n) != oracle_is_prime(n)] == []

    @pytest.mark.parametrize("n", [2047, 3215031751, 3825123056546413051,
                                   318665857834031151167461])
    def test_strong_pseudoprimes_are_composite(self, n):
        # each is a strong pseudoprime to every prime base up to 2, 7, 23 or 37
        assert _is_prime(n) is False
        assert not ZModRing(n).is_field

    def test_mersenne_prime_2_61_is_a_field(self):
        assert _is_prime(2 ** 61 - 1) is True
        assert ZModRing(2 ** 61 - 1).is_field

    def test_huge_composite_modulus_builds_as_non_field(self):
        ring = validate_ring({"kind": "zmod", "n": 10 ** 30})
        assert isinstance(ring, ZModRing) and not ring.is_field

    def test_undecided_modulus_is_refused_as_structural(self):
        # a prime above the exact bound passes every base; it is not assumed prime
        n = 2 ** 89 - 1
        assert _is_prime(n) is None
        with pytest.raises(StructureError) as refused:
            validate_ring({"kind": "zmod", "n": n})
        report = refused.value.report
        assert report.kinds() == ["structural"]
        assert main(["validate", QUOTIENT_FIXTURE, "--ring", f"zmod{n}"]) == 2

    def test_cli_with_a_61_bit_prime_modulus_returns_promptly(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sectional.cli", "validate", QUOTIENT_FIXTURE,
             "--ring", f"zmod{2 ** 61 - 1}"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0
        assert f"Z/{2 ** 61 - 1}" in proc.stdout


class TestSmithNormalForm:
    def test_unimodular_factorization_random(self):
        rnd = random.Random(12)
        for _ in range(300):
            m = rnd.randint(1, 4)
            n = rnd.randint(1, 4)
            a = [[rnd.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            d, u, v = smith_normal_form(a)
            ua = [[sum(u[i][k] * a[k][j] for k in range(m)) for j in range(n)]
                  for i in range(m)]
            uav = [[sum(ua[i][k] * v[k][j] for k in range(n)) for j in range(n)]
                   for i in range(m)]
            assert uav == d
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert d[i][j] == 0


class TestSolveLinear:
    def test_identity_over_q(self):
        sol = solve_linear([{0: 1}, {1: 1}, {2: 1}], 3, Q)
        assert sol.rank == 3
        assert sol.kernel_basis == []
        assert len(sol.image_basis) == 3

    def test_two_mod_four(self):
        # oracle: enumerate all four inputs of x -> 2x mod 4
        kernel_points = {x for x in range(4) if (2 * x) % 4 == 0}
        image_points = {(2 * x) % 4 for x in range(4)}
        assert kernel_points == {0, 2} and image_points == {0, 2}

        sol = solve_linear([{0: 2}], 1, Z4)
        assert sol.rank == 1
        assert spans_equal(sol.kernel_basis, [{0: 2}], Z4)
        assert vector_in_span({0: 2}, sol.image_basis, Z4)
        assert not vector_in_span({0: 1}, sol.image_basis, Z4)
        assert not vector_in_span({0: 3}, sol.image_basis, Z4)

    def test_rank_one_over_z5(self):
        # oracle: row reduction by hand gives pivot (0,0), kernel span {(1,-1)}
        sol = solve_linear([((0, 1), (1, 1)), ((0, 1), (1, 1))], 2, Z5)
        assert sol.rank == 1
        assert spans_equal(sol.kernel_basis, [{0: 1, 1: 4}], Z5)

    def test_unsupported_rings_refuse(self):
        with pytest.raises(CapabilityError):
            solve_linear([{0: 1}], 1, IntegerRing())
        table = validate_ring(BOOLEAN_RING)
        with pytest.raises(CapabilityError):
            solve_linear([{0: 1}], 1, table)

    @pytest.mark.parametrize("ring", [Q, Z5, ZModRing(6), Z4])
    def test_kernel_and_image_postconditions(self, ring):
        rnd = random.Random(f"post:{ring.describe()}")
        for _ in range(40):
            rows = rnd.randint(1, 4)
            cols = rnd.randint(1, 4)
            entries = [[sample(ring, rnd) for _ in range(cols)] for _ in range(rows)]
            sol = solve_linear(columns_of(entries, cols), rows, ring)
            for k in sol.kernel_basis:
                image = [_dot(ring, row, dense(k.items(), cols, ring)) for row in entries]
                assert all(x == ring.zero for x in image)
            for column in columns_of(entries, cols):
                # explicit zero entries are allowed in a span test's input
                assert vector_in_span(column, sol.image_basis, ring)

    def test_zmod_composite_kernel_is_complete(self):
        # brute force oracle: enumerate the full kernel of a fixed map over Z/6
        ring = ZModRing(6)
        sol = solve_linear(columns_of([[2, 3], [0, 3]], 2), 2, ring)
        kernel_points = [
            (x, y)
            for x in range(6) for y in range(6)
            if (2 * x + 3 * y) % 6 == 0 and (3 * y) % 6 == 0
        ]
        for point in kernel_points:
            assert vector_in_span(dict(enumerate(point)), sol.kernel_basis, ring), point
        for gen in sol.kernel_basis:
            assert dense(gen.items(), 2, ring) in set(kernel_points)


def _dot(ring, row, vec):
    acc = ring.zero
    for a, x in zip(row, vec):
        acc = ring.add(acc, ring.mul(a, x))
    return acc


@given(st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate_over_z5(rows):
    rows = [[Z5.coerce(x) for x in row] for row in rows]
    sol = solve_linear(columns_of(rows, 2), 2, Z5)
    for k in sol.kernel_basis:
        for row in rows:
            assert _dot(Z5, row, dense(k.items(), 2, Z5)) == 0


class TestIdealClosure:
    """structures.ideal_closure, the full saturation that the germ
    certificate's generator span is checked against."""

    def _group_algebra_z2(self, ring):
        from sectional.bundles import semigroupoid_algebra
        from structures import built, cyclic2_raw

        return semigroupoid_algebra(ring, built(cyclic2_raw()).base)

    def test_empty_generators_give_zero_ideal(self):
        algebra = self._group_algebra_z2(Q)
        assert ideal_closure([], algebra) == []

    def test_unit_generates_everything(self):
        algebra = self._group_algebra_z2(Q)
        unit = {0: Q.one}  # delta_u is the unit of Q[Z/2]
        closure = ideal_closure([unit], algebra)
        assert span_rank(closure, Q) == algebra.rank

    def test_germ_example_ideal_has_rank_one(self):
        # the 3-dimensional crossed product of the running germ example; the
        # difference of the two order-related generators closes up in rank 1
        from sectional.bundles import naive_crossed_product, semigroupoid_algebra
        from structures import (built, semilattice_raw, unit_groupoid_raw,
                                validate_algebra_action)

        s = built(semilattice_raw())
        x = built(unit_groupoid_raw(("x", "y")))
        qx = semigroupoid_algebra(Q, x.base)
        action = validate_algebra_action(
            s, qx,
            [(0, 1), (0,)],
            [{0: {0: Q.one}, 1: {1: Q.one}},
             {0: {0: Q.one}}],
        )
        crossed = naive_crossed_product(action)
        assert crossed.basis == ("d_1.1x", "d_1.1y", "d_e.1x")
        generator = {0: Q.one, 2: Q.neg(Q.one)}
        # oracle: multiplying the generator by each of the three basis
        # elements on both sides returns 0 or +-generator, so rank stays 1
        for i in range(3):
            e = ((i, Q.one),)
            for prod in (crossed.mul(e, generator.items()), crossed.mul(generator.items(), e)):
                assert prod in ({}, generator, {k: Q.neg(c) for k, c in generator.items()})
        closure = ideal_closure([generator], crossed)
        assert span_rank(closure, Q) == 1

    def test_closure_is_multiplication_stable(self):
        algebra = self._group_algebra_z2(Z5)
        closure = ideal_closure([{1: Z5.one}], algebra)
        for i in range(algebra.rank):
            e = ((i, Z5.one),)
            for v in closure:
                assert vector_in_span(algebra.mul(e, v.items()), closure, Z5)
                assert vector_in_span(algebra.mul(v.items(), e), closure, Z5)

    def test_unsupported_ring_refuses(self):
        algebra = self._group_algebra_z2(IntegerRing())
        with pytest.raises(CapabilityError):
            ideal_closure([{0: 1}], algebra)
