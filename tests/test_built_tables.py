"""Built algebras arrive in normal form.

`AlgebraPresentation` takes its table as it is: every row a tuple of (index,
nonzero value) pairs sorted by index (`rings.normal_row`), zero products
absent. Only a hand-written table is cleaned, by `AlgebraPresentation.from_table`,
which range-checks, prunes and sorts it as the constructor itself once did
for every table. So the package's five builders (`sectional_algebra`,
`tensor_product_algebra`, `smash_product`, `naive_crossed_product` and
`lscript_presentation`) must hand over tables that cleaning leaves as they
are: the same `table`, insertion order included, and the same support index
`after` and `before`.

The inputs are drawn with Hypothesis, derandomized, over Q, Z/6 and the
non-commutative UT2(F2) (the tensor product only over the commutative two):
random bundles over P_2, graded by parity or not, for the sectional algebra
and the tensor product; trivial and diagonal-fiber bundles, which are
associative, for the smash product; and the actions `coefficient_action`
induces from the germ families and the four-term conjugation of M_2 for the
crossed products. Over Z/6 some drawn tensor product must lose a term to
2 * 3 = 0, and the planted product of 2 and 3 must leave no row, so a tensor
product that skips its prune fails here. The scaled inputs of
`tests/data/scaled/` are checked the same way, through the theorems that
build on them.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectional.algebras import AlgebraPresentation
from sectional.bundles import (
    lscript_presentation,
    naive_crossed_product,
    sectional_algebra,
    trivial_bundle,
)
from sectional.semigroupoids import identity_homomorphism
from sectional.theorems import (
    coefficient_action,
    crossed_theorem,
    induced_theta,
    smash_product,
    smash_theorem,
    tensor_product_algebra,
    tensor_theorem,
)
from sectional.workspace import Builder, parse_workspace, workspace_ring

from test_fiber_maps import FIBERS, _fiber_bundle
from test_inherited_axioms import FACTORS, PARITY
from test_sparse_kernel import RINGS, _random_bundle
from test_sparse_vectors import GERM_INSTANCES, conjugation_action

from structures import preaction

HERE = os.path.dirname(os.path.abspath(__file__))
SCALED = os.path.join(HERE, "data", "scaled")
NORMAL_RINGS = ("Q", "Z6", "UT2-F2")


def assert_normal(alg):
    """alg's table and support index are those cleaning its rows gives."""
    cleaned = AlgebraPresentation.from_table(alg.ring, alg.basis, alg.table, labels=alg.labels)
    assert list(alg.table.items()) == list(cleaned.table.items())
    assert (alg.after, alg.before) == (cleaned.after, cleaned.before)


def _sectional(data, ring):
    modes = ["ringfiber"] if not ring.commutative else ["sc", "ringfiber"]
    bundle, _dense = _random_bundle(data, ring, data.draw(st.sampled_from(modes)))
    return sectional_algebra(bundle, data.draw(st.sampled_from([None, PARITY])))


def _graded(data, ring):
    """An associative, graded-closed algebra graded by a groupoid."""
    name = data.draw(st.sampled_from(["P2", "P3", "Z2"]))
    base = FACTORS[name]
    gradings = [identity_homomorphism(base)] + ([PARITY] if name == "P2" else [])
    if ring.commutative and data.draw(st.booleans()):
        bundle = _fiber_bundle(ring, base, base.arrow_names,
                               data.draw(st.sampled_from(sorted(FIBERS))))
    else:
        bundle = trivial_bundle(ring, base)
    return sectional_algebra(bundle, data.draw(st.sampled_from(gradings)))


def _induced(data, ring):
    if ring.commutative and data.draw(st.booleans()):
        return conjugation_action(ring, data.draw(st.integers(-3, 3)))
    theta = preaction(*GERM_INSTANCES[data.draw(st.sampled_from(sorted(GERM_INSTANCES)))]())
    return induced_theta(coefficient_action(theta, ring))


def test_the_builders_hand_over_normal_tables():
    seen, pruned = set(), set()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        name = data.draw(st.sampled_from(NORMAL_RINGS))
        ring = RINGS[name]
        families = ["sectional", "smash", "crossed"] + (["tensor"] if ring.commutative else [])
        family = data.draw(st.sampled_from(families))
        if family == "sectional":
            built = [_sectional(data, ring)]
        elif family == "tensor":
            a, b = _sectional(data, ring), _sectional(data, ring)
            built = [a, b, tensor_product_algebra(a, b)]
            terms = sum(len(x) * len(y) for x in a.table.values() for y in b.table.values())
            if terms > sum(map(len, built[2].table.values())):
                pruned.add(name)
        elif family == "smash":
            graded = _graded(data, ring)
            built = [graded, smash_product(graded)]
        else:
            induced = _induced(data, ring)
            built = [naive_crossed_product(induced), lscript_presentation(induced)]
        for alg in built:
            assert_normal(alg)
        seen.add((name, family))

    check()
    assert seen == {(name, family) for name in NORMAL_RINGS
                    for family in ("sectional", "tensor", "smash", "crossed")
                    if family != "tensor" or name != "UT2-F2"}
    assert "Z6" in pruned


def test_a_zero_tensor_product_leaves_no_row():
    z6 = RINGS["Z6"]
    two = AlgebraPresentation.from_table(z6, ("x",), {(0, 0): {0: 2}})
    three = AlgebraPresentation.from_table(z6, ("y",), {(0, 0): {0: 3}})
    tensor = tensor_product_algebra(two, three)
    assert tensor.table == {}
    assert tensor.after == tensor.before == (frozenset(),)
    assert_normal(tensor)


def _scaled(name, ring):
    with open(os.path.join(SCALED, f"{name}.json"), encoding="utf-8") as fh:
        ws = parse_workspace(fh.read())
    override = None if ring == "q" else RINGS["Z6"]
    (task,) = ws.tasks
    return Builder(ws, workspace_ring(ws, override)), task.params


@pytest.mark.parametrize("ring", ["q", "zmod6"])
def test_scaled_theorems_build_normal_tables(ring):
    builder, params = _scaled("tensor-p6r2", ring)
    res = tensor_theorem(builder.bundle(params["bundle"]), builder.semigroupoid(params["factor"]))
    built = [res.section_algebra, res.factor_algebra, res.tensor, res.product_algebra]
    builder, params = _scaled("smash-p6r1", ring)
    res = smash_theorem(builder.bundle(params["bundle"]), builder.homomorphism(params["grading"]))
    built += [res.smash, res.skew_algebra]
    builder, params = _scaled("crossed-p4r2", ring)
    res = crossed_theorem(builder.bundle_action(params["action"]))
    built += [res.section_of_semidirect, res.crossed, lscript_presentation(res.induced_action)]
    for alg in built:
        assert_normal(alg)
