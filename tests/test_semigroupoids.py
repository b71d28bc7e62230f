"""Semigroupoid, inverse-structure, and homomorphism validators."""

import itertools

import pytest

from sectional.semigroupoids import (
    direct_product,
    is_groupoid,
    identity_homomorphism,
    semigroupoid_to_raw,
    validate_homomorphism,
    validate_inverse_semigroupoid,
    validate_semigroupoid,
)
from sectional.validation import StructureError, ValidationReport

from structures import (
    built,
    components_semidirect_action,
    cyclic2_raw,
    is_isomorphism,
    klein_four_raw,
    one_vertex_tables,
    pair_groupoid_raw,
    semilattice_raw,
    trivial_monoid_raw,
    unit_groupoid_raw,
    with_product_entry,
    without_product_entry,
)


def _unique_inverses(sgpd, inv):
    """Brute force: inv[s] is a generalized inverse of s, and no other arrow is."""
    prod = sgpd.prod

    def inverse(s, t):
        st, ts = prod[s].get(t), prod[t].get(s)
        return None not in (st, ts) and prod[st].get(s) == s and prod[ts].get(t) == t

    return all(inverse(s, t) == (t == inv[s]) for s in sgpd.arrows() for t in sgpd.arrows())


def _inverse_laws(sgpd, inv):
    """(s*)* = s, (ab)* = b* a* and ef = fe for idempotents e, f."""
    prod = sgpd.prod
    idempotents = [e for e in sgpd.arrows() if prod[e].get(e) == e]
    return (all(inv[inv[s]] == s for s in sgpd.arrows())
            and all(inv[prod[a][b]] == prod[inv[b]].get(inv[a]) for a, b in sgpd.composable)
            and all(prod[e].get(f) == prod[f].get(e) for e in idempotents for f in idempotents))


class TestValidateSemigroupoid:
    def test_pair_groupoid_accepts_with_eight_composable_pairs(self):
        sgpd = validate_semigroupoid(pair_groupoid_raw())
        # oracle: count pairs with src(a) = rng(b) directly from the raw table
        raw = pair_groupoid_raw()
        src = {e["id"]: e["src"] for e in raw["arrows"]}
        rng = {e["id"]: e["rng"] for e in raw["arrows"]}
        count = sum(
            1
            for a in src for b in src
            if src[a] == rng[b]
        )
        assert count == 8
        assert len(sgpd.composable) == 8
        assert all(b in sgpd.prod[a] for a, b in sgpd.composable)

    def test_range_compatibility_witness(self):
        bad = with_product_entry(pair_groupoid_raw(), "(1,2)", "(2,1)", "(2,2)")
        with pytest.raises(StructureError) as refused:
            validate_semigroupoid(bad)
        report = refused.value.report
        failure = report.first("range-compatibility")
        assert failure.witness == ("(1,2)", "(2,1)")

    def test_trivial_monoid_accepts(self):
        sgpd = validate_semigroupoid(trivial_monoid_raw())
        assert sgpd.n_arrows == 1 and sgpd.prod[0][0] == 0

    def test_missing_product_on_composable_pair(self):
        bad = without_product_entry(trivial_monoid_raw(), "a", "a")
        with pytest.raises(StructureError) as refused:
            validate_semigroupoid(bad)
        report = refused.value.report
        assert report.first("undefined-product").witness == ("a", "a")

    def test_product_on_noncomposable_pair(self):
        bad = dict(pair_groupoid_raw())
        bad["prod"] = bad["prod"] + [["(1,2)", "(1,2)", "(1,1)"]]
        with pytest.raises(StructureError) as refused:
            validate_semigroupoid(bad)
        report = refused.value.report
        assert report.first("product-on-noncomposable").witness == ("(1,2)", "(1,2)")

    def test_associativity_witness_is_smallest(self):
        bad = with_product_entry(klein_four_raw(), "a", "b", "a")
        with pytest.raises(StructureError) as refused:
            validate_semigroupoid(bad)
        report = refused.value.report
        failure = report.first("associativity")
        assert failure is not None
        # re-evaluate the witness on the perturbed table
        a, b, c = failure.witness
        table = {(e[0], e[1]): e[2] for e in bad["prod"]}
        assert table[(table[(a, b)], c)] != table[(a, table[(b, c)])]

    def test_structural_unknown_vertex(self):
        bad = trivial_monoid_raw()
        bad["arrows"][0]["src"] = "nowhere"
        with pytest.raises(StructureError) as refused:
            validate_semigroupoid(bad)
        report = refused.value.report
        assert report.kinds() == ["structural"]


class TestInverseSemigroupoids:
    def test_semilattice_idempotents_and_order(self):
        inv = built(semilattice_raw())
        names = inv.base.arrow_names
        assert {names[e] for e in inv.idempotents} == {"1", "e"}
        assert (names.index("e"), names.index("1")) in inv.leq
        assert (names.index("1"), names.index("e")) not in inv.leq

    def test_group_order_is_equality(self):
        inv = built(cyclic2_raw())
        assert inv.leq == frozenset({(0, 0), (1, 1)})
        assert {inv.base.arrow_names[e] for e in inv.idempotents} == {"u"}

    def test_pair_groupoid_order_is_equality(self):
        inv = built(pair_groupoid_raw())
        n = inv.base.n_arrows
        # oracle: s <= t iff s = t e for an idempotent e, checked directly
        expected = set()
        for s in range(n):
            for t in range(n):
                for e in inv.idempotents:
                    if inv.base.is_composable(t, e) and inv.base.prod[t][e] == s:
                        expected.add((s, t))
        assert expected == {(s, s) for s in range(n)}
        assert inv.leq == frozenset(expected)

    def test_nonunique_inverse_rejected(self):
        # left-zero band: xy = x, so every element is a generalized inverse
        # of every other and uniqueness fails
        raw = {
            "id": "band",
            "vertices": ["*"],
            "arrows": [
                {"id": "p", "src": "*", "rng": "*"},
                {"id": "q", "src": "*", "rng": "*"},
            ],
            "prod": [["p", "p", "p"], ["p", "q", "p"],
                     ["q", "p", "q"], ["q", "q", "q"]],
        }
        sgpd = validate_semigroupoid(raw)
        with pytest.raises(StructureError) as refused:
            validate_inverse_semigroupoid(sgpd, {"p": "p", "q": "q"})
        report = refused.value.report
        assert report.has("non-unique-inverse")

    def test_broken_inverse_condition(self):
        sgpd = validate_semigroupoid(cyclic2_raw())
        with pytest.raises(StructureError) as refused:
            validate_inverse_semigroupoid(sgpd, {"u": "u", "g": "u"})
        report = refused.value.report
        assert report.first("inverse-condition").witness == ("g",)

    def test_involution_and_antihomomorphism_properties(self):
        actors = [components_semidirect_action(2, 1, [(0, 1), (1, 0)])[0],
                  components_semidirect_action(3, 1, list(itertools.permutations(range(3))))[0]]
        raws = [pair_groupoid_raw(tuple(map(str, range(n)))) for n in (1, 2, 3)]
        for raw in raws + actors + [semilattice_raw(), klein_four_raw()]:
            inv = built(raw)
            assert _unique_inverses(inv.base, inv.inv) and _inverse_laws(inv.base, inv.inv)

    def test_unique_inverses_give_the_inverse_laws_on_every_small_table(self):
        """Every associative table on 1-3 arrows at one vertex, with every
        inverse assignment: the validator accepts exactly the unique-inverse
        ones, and each of them keeps the laws it does not walk."""
        tables = accepted = 0
        for n in (1, 2, 3):
            for raw in one_vertex_tables(n):
                sgpd, tables = validate_semigroupoid(raw), tables + 1
                for inv in itertools.product(range(n), repeat=n):
                    names = sgpd.arrow_names
                    try:
                        validate_inverse_semigroupoid(sgpd, {names[s]: names[t] for s, t in enumerate(inv)})
                    except StructureError:
                        ok = False
                    else:
                        ok = True
                    unique = _unique_inverses(sgpd, inv)
                    assert ok == unique
                    # so the laws the validator no longer walks would refuse nothing more
                    assert not unique or _inverse_laws(sgpd, inv)
                    accepted += ok
        assert (tables, accepted) == (122, 29)

    def test_order_is_product_monotone(self):
        # s1 <= t1 and s2 <= t2 with s1 s2 defined forces s1 s2 <= t1 t2
        for inv in (built(semilattice_raw()), built(pair_groupoid_raw()), built(cyclic2_raw())):
            base = inv.base
            for (s1, t1) in inv.leq:
                for (s2, t2) in inv.leq:
                    if base.is_composable(s1, s2):
                        assert base.is_composable(t1, t2)
                        assert (base.prod[s1][s2], base.prod[t1][t2]) in inv.leq

    def test_order_respects_inversion(self):
        for inv in (built(semilattice_raw()), built(pair_groupoid_raw())):
            for (s, t) in inv.leq:
                assert (inv.inv[s], inv.inv[t]) in inv.leq


class TestHomomorphisms:
    def test_identity_is_rigid(self):
        p2 = built(pair_groupoid_raw()).base
        hom = identity_homomorphism(p2)
        assert hom.rigid
        revalidated = validate_homomorphism(
            {a: a for a in p2.arrow_names}, p2, p2
        )
        assert revalidated.rigid

    def test_collapse_map_is_homomorphism_but_not_rigid(self):
        p2 = built(pair_groupoid_raw()).base
        tm = built(trivial_monoid_raw()).base
        hom = validate_homomorphism(
            {a: "a" for a in p2.arrow_names}, p2, tm
        )
        # ((1,2),(1,2)) is non-composable upstairs but lands on a composable pair
        assert not hom.rigid

    def test_grading_identity_on_group_is_rigid(self):
        z2 = built(cyclic2_raw()).base
        hom = validate_homomorphism({"u": "u", "g": "g"}, z2, z2)
        assert hom.rigid

    def test_multiplicativity_witness(self):
        z2 = built(cyclic2_raw()).base
        # collapsing g onto u is a homomorphism; sending u to g is not
        assert not isinstance(validate_homomorphism({"u": "u", "g": "u"}, z2, z2),
                              ValidationReport)
        with pytest.raises(StructureError) as refused:
            validate_homomorphism({"u": "g", "g": "g"}, z2, z2)
        report = refused.value.report
        assert report.has("multiplicativity")

    def test_rigid_image_closed_under_products(self):
        # for rigid maps the image is a subsemigroupoid
        z2 = built(cyclic2_raw()).base
        p2 = built(pair_groupoid_raw()).base
        hom = validate_homomorphism(
            {"u": "(1,1)", "g": "(1,1)"}, z2, p2
        )
        assert hom.rigid
        image = sorted(set(hom.map))
        for x in image:
            for y in image:
                if p2.is_composable(x, y):
                    assert p2.prod[x][y] in image


class TestDirectProduct:
    def test_unit_factor_is_identity(self):
        p2 = built(pair_groupoid_raw()).base
        prod = direct_product(built(trivial_monoid_raw()).base, p2)
        assert prod.n_arrows == 4
        assert is_isomorphism({f"(a,{x})": x for x in p2.arrow_names}, prod, p2)

    def test_klein_four_from_two_cyclics(self):
        z2 = built(cyclic2_raw()).base
        assert is_isomorphism({"(u,u)": "e", "(u,g)": "a", "(g,u)": "b", "(g,g)": "c"},
                              direct_product(z2, z2), built(klein_four_raw()).base)

    def test_pair_squared_counts(self):
        p2 = built(pair_groupoid_raw()).base
        prod = direct_product(p2, p2)
        assert prod.n_arrows == 16
        # oracle: composability is componentwise, 8 pairs in each factor
        assert len(prod.composable) == 64
        assert all(b in prod.prod[a] for a, b in prod.composable)

    def test_associative_up_to_canonical_relabeling(self):
        a = built(cyclic2_raw()).base
        b = built(semilattice_raw()).base
        c = built(trivial_monoid_raw()).base
        left = direct_product(direct_product(a, b), c)
        right = direct_product(a, direct_product(b, c))
        # the canonical arrow bijection is the identity on indices
        assert left.src == right.src
        assert left.rng == right.rng
        assert left.prod == right.prod

    def test_repeated_product_names_are_structural(self):
        # (a,(b,c)) and ((a,b),c) get one name, as arrows and as vertices
        def left_zero(arrows):
            return validate_semigroupoid({
                "vertices": ["v"],
                "arrows": [{"id": x, "src": "v", "rng": "v"} for x in arrows],
                "prod": [[x, y, x] for x in arrows for y in arrows],
            })
        cases = [
            (left_zero(["a", "a,b"]), left_zero(["b,c", "c"]),
             ("(a,b,c)",), "duplicate arrow id '(a,b,c)'"),
            (built(unit_groupoid_raw(("a", "a,b"))).base,
             built(unit_groupoid_raw(("b,c", "c"))).base, (), "duplicate vertex ids"),
        ]
        for left, right, witness, message in cases:
            with pytest.raises(StructureError) as exc:
                direct_product(left, right)
            failure = exc.value.report.first()
            assert (failure.kind, failure.witness, failure.message) == (
                "structural", witness, message)


class TestIsGroupoid:
    def test_pair_groupoid_true(self):
        check = is_groupoid(built(pair_groupoid_raw()).base)
        assert check.ok
        assert len(check.units) == 2 and len(check.inverses) == 4

    def test_semilattice_false(self):
        check = is_groupoid(built(semilattice_raw()).base)
        assert not check.ok
        assert check.witness  # carries the vertex or arrow that fails

    def test_cyclic2_true(self):
        check = is_groupoid(built(cyclic2_raw()).base)
        assert check.ok
        assert check.inverses == {0: 0, 1: 1}

    def test_unit_groupoid_of_many_loops(self):
        # each vertex's identity is tested against the arrows leaving it only;
        # testing against every arrow took 0.44 s here
        n = 3000
        loops = validate_semigroupoid(unit_groupoid_raw([f"p{i}" for i in range(n)]))
        check = is_groupoid(loops)
        assert check.ok
        assert check.units == {v: v for v in range(n)}
        assert check.inverses == {a: a for a in range(n)}


class TestSerialization:
    def test_round_trip_preserves_structure(self):
        for inv in (built(pair_groupoid_raw()), built(semilattice_raw()), built(klein_four_raw())):
            raw = semigroupoid_to_raw(inv.base, inv)
            rebuilt = validate_semigroupoid(raw)
            assert rebuilt == inv.base
            rebuilt_inv = validate_inverse_semigroupoid(rebuilt, raw["inv"])
            assert rebuilt_inv.inv == inv.inv


class TestAssociativityProperty:
    @pytest.mark.parametrize("builder", [
        trivial_monoid_raw, cyclic2_raw, semilattice_raw, pair_groupoid_raw, klein_four_raw,
    ])
    def test_every_accepted_structure_is_associative(self, builder):
        base = built(builder()).base
        for a, b, c in base.composable_triples():
            assert base.prod[base.prod[a][b]][c] == base.prod[a][base.prod[b][c]]
