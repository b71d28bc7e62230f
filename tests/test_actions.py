"""Wedge-preactions, semidirect products, rigid congruences, germ quotients."""

import pytest

from sectional.actions import (
    germ_quotient,
    quotient_semigroupoid,
    semidirect_product,
    trivial_action,
    validate_preaction,
    validate_rigid_congruence,
)
from sectional.semigroupoids import direct_product, is_groupoid
from sectional.validation import StructureError

from structures import (
    built,
    cyclic2_raw,
    is_global_action,
    is_isomorphism,
    is_partial_action,
    pair_groupoid_raw,
    semilattice_on_points_action,
    semilattice_raw,
    trivial_monoid_raw,
    unit_groupoid_raw,
)


@pytest.fixture
def germ_example():
    actor = built(semilattice_raw())
    space = built(unit_groupoid_raw(("x", "y")))
    theta = validate_preaction(semilattice_on_points_action(), actor, space.base)
    return actor, space, theta


class TestValidatePreaction:
    def test_running_example_classification(self, germ_example):
        _actor, _space, theta = germ_example
        assert is_partial_action(theta) and is_global_action(theta) and theta.is_associative

    def test_broken_inverse_bookkeeping(self):
        actor = built(semilattice_raw())
        space = built(unit_groupoid_raw(("x", "y")))
        with pytest.raises(StructureError) as refused:
            validate_preaction(
                {"1": {"dom": ["1x", "1y"], "img": ["1x", "1y"]},
                 "e": {"dom": ["1x"], "img": ["1y"]}},
                actor, space.base,
            )
        report = refused.value.report
        assert report.has("inverse-compatibility")

    def test_trivial_action_is_global(self):
        theta = trivial_action(built(semilattice_raw()), built(pair_groupoid_raw()).base)
        assert is_global_action(theta) and is_partial_action(theta) and theta.is_associative

    def test_global_implies_partial_on_corpus(self, germ_example):
        _actor, _space, theta = germ_example
        translations = validate_preaction(
            {"u": {"dom": ["10", "11"], "img": ["10", "11"]},
             "g": {"dom": ["10", "11"], "img": ["11", "10"]}},
            built(cyclic2_raw()), built(unit_groupoid_raw(("0", "1"))).base,
        )
        for action in (theta, translations):
            if is_global_action(action):
                assert is_partial_action(action)

    def test_extension_property_enumerated(self, germ_example):
        # theta_s(theta_t(x)) = theta_st(x) whenever the left side is defined
        _actor, _space, theta = germ_example
        base = theta.actor.base
        for s, t in base.composable:
            st = base.prod[s][t]
            for x in theta.dom(t):
                tx = theta.apply(t, x)
                if tx in theta.maps[s]:
                    assert theta.apply(st, x) == theta.apply(s, tx)

    def test_ideal_property_witness(self):
        # dom(theta) misses the absorbing element of a two-element null piece
        raw = {
            "id": "N",
            "vertices": ["*"],
            "arrows": [
                {"id": "z", "src": "*", "rng": "*"},
                {"id": "n", "src": "*", "rng": "*"},
            ],
            "prod": [["z", "z", "z"], ["z", "n", "z"],
                     ["n", "z", "z"], ["n", "n", "z"]],
        }
        from sectional.semigroupoids import validate_semigroupoid
        space = validate_semigroupoid(raw)
        with pytest.raises(StructureError) as refused:
            validate_preaction(
                {"1": {"dom": ["n"], "img": ["n"]}, "e": {"dom": [], "img": []}},
                built(semilattice_raw()), space,
            )
        report = refused.value.report
        assert report.has("ideal-property")


class TestSemidirectProduct:
    def test_running_example_table(self, germ_example):
        _actor, _space, theta = germ_example
        sp = semidirect_product(theta)
        assert sp.arrow_names == ("(1,1x)", "(1,1y)", "(e,1x)")
        i_1x = sp.index[(0, 0)]
        i_ex = sp.index[(1, 0)]
        assert sp.prod[i_1x][i_ex] == i_ex

    def test_translation_action_gives_action_groupoid(self):
        theta = validate_preaction(
            {"u": {"dom": ["10", "11"], "img": ["10", "11"]},
             "g": {"dom": ["10", "11"], "img": ["11", "10"]}},
            built(cyclic2_raw()), built(unit_groupoid_raw(("0", "1"))).base,
        )
        sp = semidirect_product(theta)
        sgpd = sp
        assert sgpd.n_arrows == 4
        assert is_groupoid(sgpd).ok
        # oracle: evaluate the defining formula directly on all pairs
        for i, (s, a) in enumerate(sp.labels):
            for j, (t, b) in enumerate(sp.labels):
                tb = theta.apply(t, b)
                composable = (
                    theta.actor.base.is_composable(s, t)
                    and theta.space.src[a] == theta.space.rng[tb]
                )
                if not composable:
                    assert sgpd.compose(i, j) is None
                    continue
                st = theta.actor.base.prod[s][t]
                value = theta.apply(
                    theta.actor.inv[t], theta.space.prod[a][tb]
                )
                assert sp.labels[sgpd.prod[i][j]] == (st, value)

    def test_trivial_action_gives_direct_product(self):
        space = built(pair_groupoid_raw()).base
        theta = trivial_action(built(cyclic2_raw()), space)
        sp = semidirect_product(theta)
        product = direct_product(built(cyclic2_raw()).base, space)
        assert is_isomorphism({x: x for x in product.arrow_names}, sp, product)

    def test_src_rng_formulas(self, germ_example):
        _actor, _space, theta = germ_example
        sp = semidirect_product(theta)
        sgpd = sp
        base = theta.actor.base
        space = theta.space
        for i, (s, a) in enumerate(sp.labels):
            src_name = f"({base.vertex_names[base.src[s]]},{space.vertex_names[space.src[a]]})"
            image = theta.apply(s, a)
            rng_name = f"({base.vertex_names[base.rng[s]]},{space.vertex_names[space.rng[image]]})"
            assert sgpd.vertex_names[sgpd.src[i]] == src_name
            assert sgpd.vertex_names[sgpd.rng[i]] == rng_name


class TestRigidCongruence:
    def test_identity_partition_accepts(self, germ_example):
        _actor, _space, theta = germ_example
        sp = semidirect_product(theta)
        cong = validate_rigid_congruence(
            [[a] for a in sp.arrow_names], sp
        )
        quotient, projection = quotient_semigroupoid(cong)
        names = sp.arrow_names
        assert is_isomorphism({f"[{x}]": x for x in names}, quotient, sp)
        assert projection.rigid

    def test_germ_partition_accepts(self, germ_example):
        _actor, _space, theta = germ_example
        sp = semidirect_product(theta)
        cong = validate_rigid_congruence(
            [["(1,1x)", "(e,1x)"], ["(1,1y)"]], sp
        )
        quotient, _ = quotient_semigroupoid(cong)
        assert is_isomorphism({"[(1,1x)]": "1x", "[(1,1y)]": "1y"},
                              quotient, built(unit_groupoid_raw(("x", "y"))).base)

    def test_source_mismatch_rejected(self, germ_example):
        _actor, _space, theta = germ_example
        sp = semidirect_product(theta)
        with pytest.raises(StructureError) as refused:
            validate_rigid_congruence(
                [["(1,1x)", "(1,1y)"], ["(e,1x)"]], sp
            )
        report = refused.value.report
        assert report.has("source-range-mismatch")

    def test_total_congruence_on_group(self):
        z2 = built(cyclic2_raw()).base
        cong = validate_rigid_congruence([["u", "g"]], z2)
        quotient, _ = quotient_semigroupoid(cong)
        assert is_isomorphism({"[u]": "a"}, quotient, built(trivial_monoid_raw()).base)

    def test_product_incompatibility_witness(self):
        # a three-element monoid where identifying 1 with a is not compatible
        raw = {
            "id": "M",
            "vertices": ["*"],
            "arrows": [
                {"id": "1", "src": "*", "rng": "*"},
                {"id": "a", "src": "*", "rng": "*"},
                {"id": "z", "src": "*", "rng": "*"},
            ],
            "prod": [
                ["1", "1", "1"], ["1", "a", "a"], ["1", "z", "z"],
                ["a", "1", "a"], ["a", "a", "z"], ["a", "z", "z"],
                ["z", "1", "z"], ["z", "a", "z"], ["z", "z", "z"],
            ],
        }
        from sectional.semigroupoids import validate_semigroupoid
        m = validate_semigroupoid(raw)
        with pytest.raises(StructureError) as refused:
            validate_rigid_congruence([["1", "a"], ["z"]], m)
        report = refused.value.report
        assert report.has("product-incompatibility")

    def test_partition_must_cover(self):
        z2 = built(cyclic2_raw()).base
        with pytest.raises(StructureError) as refused:
            validate_rigid_congruence([["u"]], z2)
        assert refused.value.report.has("structural")

    @pytest.mark.parametrize("member", [2, -1, True])
    def test_member_outside_the_arrow_ids_is_structural(self, member):
        z2 = built(cyclic2_raw()).base
        with pytest.raises(StructureError) as refused:
            validate_rigid_congruence([["u", "g", member]], z2)
        report = refused.value.report
        assert report.first().kind == "structural"


class TestGermQuotient:
    def test_running_example_collapses_to_two_points(self, germ_example):
        _actor, _space, theta = germ_example
        germ = germ_quotient(theta)
        assert germ.quotient.n_arrows == 2
        assert is_groupoid(germ.quotient).ok
        assert is_isomorphism({"[(1,1x)]": "1x", "[(1,1y)]": "1y"},
                              germ.quotient, built(unit_groupoid_raw(("x", "y"))).base)

    def test_group_action_has_trivial_germ_relation(self):
        theta = validate_preaction(
            {"u": {"dom": ["10", "11"], "img": ["10", "11"]},
             "g": {"dom": ["10", "11"], "img": ["11", "10"]}},
            built(cyclic2_raw()), built(unit_groupoid_raw(("0", "1"))).base,
        )
        germ = germ_quotient(theta)
        sp = semidirect_product(theta)
        assert germ.quotient.n_arrows == sp.n_arrows
        assert is_isomorphism({f"[{x}]": x for x in sp.arrow_names}, germ.quotient, sp)

    def test_empty_domain_means_no_collapse(self):
        actor = built(semilattice_raw())
        space = built(unit_groupoid_raw(("x", "y")))
        theta = validate_preaction(
            {"1": {"dom": ["1x", "1y"], "img": ["1x", "1y"]},
             "e": {"dom": [], "img": []}},
            actor, space.base,
        )
        germ = germ_quotient(theta)
        assert germ.quotient.n_arrows == semidirect_product(theta).n_arrows

    def test_non_groupoid_space_refused(self, germ_example):
        actor, _space, _theta = germ_example
        theta = trivial_action(actor, built(semilattice_raw()).base)
        with pytest.raises(StructureError) as refused:
            germ_quotient(theta)
        out = refused.value.report
        assert out.has("space-not-groupoid")

    def test_partial_action_on_groupoid_gives_groupoid(self, germ_example):
        _actor, _space, theta = germ_example
        assert is_partial_action(theta)
        germ = germ_quotient(theta)
        assert is_groupoid(germ.quotient).ok


class TestSemidirectRefusal:
    def test_idempotent_acting_by_swap_breaks_extension_law(self):
        # theta_1 swapping x and y under the idempotent 1 contradicts
        # theta_11 = theta_1 theta_1
        actor = built(semilattice_raw())
        space = built(unit_groupoid_raw(("x", "y"))).base
        with pytest.raises(StructureError) as refused:
            validate_preaction(
                {"1": {"dom": ["1x", "1y"], "img": ["1y", "1x"]},
                 "e": {"dom": [], "img": []}},
                actor, space,
            )
        candidate = refused.value.report
        assert candidate.has("extension-law")

    def test_nonassociative_flag_refuses_with_witness(self, germ_example):
        _actor, _space, theta = germ_example
        theta.is_associative = False
        theta.associativity_witness = ("1", "1", "1", "1x", "1x", "1x")
        with pytest.raises(StructureError) as err:
            semidirect_product(theta)
        assert err.value.report.has("not-associative")
        assert err.value.report.first().witness == ("1", "1", "1", "1x", "1x", "1x")
