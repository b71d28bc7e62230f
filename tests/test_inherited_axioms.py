"""Constructions that inherit their axioms from checked inputs.

direct_product validates its factors, pullback_bundle checks that its map is
a homomorphism and trivial_bundle validates its base; none of them re-walks
the triples of what it builds. The full validators are the oracle here: every
product, pullback and trivial bundle built below must pass validate_semigroupoid
or validate_bundle, and a pullback must have its parent's verdict. The must-fail
cases are a map that is not multiplicative and a factor with a corrupted product.

The semidirect and skew products check only their names and pair axioms, the
quotient by a rigid congruence nothing, and the smash product the graded
closure and associativity of its input instead of its own. On valid inputs
(the families of tests/structures.py and tests/test_fiber_maps.py, random
actions, gradings and partitions, and the bench generators at their own small
sizes) every semidirect, skew and quotient output must pass validate_semigroupoid
with its projection a rigid homomorphism, every semidirect bundle validate_bundle,
and every smash product check_associativity. Must-fail: a smash input that is
not associative, or not graded-closed, is refused with its own witness; an
action whose semidirect product leaves a source is refused by the pair pass
that stays for it.

The semidirect bundle is not walked either: crossed_theorem runs induced_theta
first, whose twisted associativity decides the bundle's. On the semilattice
family with idempotent twists and an involutive fiber map, over Q, Z/5 and
Z/6, the walk's verdict on the built bundle must be induced_theta's, and both
crossed certificates must pass where neither refuses; the one such action
pinned below is refused by crossed_theorem and `verify crossed` with the
induced action's witness. Must-fail: a semidirect bundle built without its
fiber map back along t* still fails the crossed fixture and scaled file.

induced_theta builds the action on a sectional algebra from a checked bundle
action, and coefficient_action the identity bundle action of the germ path,
without re-proving what the preaction and bundle action decided. The full
validator (tests/structures.validate_algebra_action) is the oracle: every action
induced_theta builds, recorded as it is made, must pass it with the same
domains and rows (over a non-commutative ring the bundle action refuses
fiber maps off the centre, so the order in which the induced rows apply them
does not matter), and coefficient_action must hand over the fiber maps
validate_bundle_action gives the identity. Must-fail: doubling every
induced image still fails the germ and crossed fixtures and scaled files.
"""

import itertools
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectional import theorems
from sectional.actions import (
    germ_quotient,
    quotient_semigroupoid,
    semidirect_product,
    validate_preaction,
    validate_rigid_congruence,
)
from sectional.algebras import AlgebraPresentation
from sectional.bundles import (
    AlgebraAction,
    bundle_from_product,
    pullback_bundle,
    sectional_algebra,
    semigroupoid_algebra,
    trivial_bundle,
    validate_bundle,
)
from sectional.cli import main
from sectional.rings import RationalRing, ZModRing, validate_ring
from sectional.semigroupoids import (
    FiniteSemigroupoid,
    direct_product,
    identity_homomorphism,
    is_groupoid,
    validate_homomorphism,
    validate_semigroupoid,
)
from sectional.theorems import (
    _semidirect_bundle,
    coefficient_action,
    crossed_theorem,
    induced_theta,
    product_bundle,
    skew_product,
    smash_product,
    validate_bundle_action,
)
from sectional.validation import StructureError
from sectional.workspace import Builder, parse_workspace, workspace_ring

from test_action_associativity import ACTORS, IDEAL_SPACES, VALID, inverse_closed_injections
from test_complexity import _workloads
from test_fiber_maps import FIBERS, _action_instance, _corrupt, _fiber_bundle
from test_germ_relation import FIXED, chain_actions, z2_actions
from test_sparse_kernel import RINGS, _random_bundle

from structures import (
    built,
    components_semidirect_action,
    cyclic2_raw,
    f2_matrix_ring_spec,
    gl2_f2_raw,
    klein_four_raw,
    nested_chain_action,
    pair_groupoid_raw,
    parallel_arrows_raw,
    preaction,
    refusal,
    semilattice_raw,
    trivial_monoid_raw,
    unit_groupoid_raw,
    validate_algebra_action,
)

SCALED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "scaled")
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "fixtures")
P2 = built(pair_groupoid_raw()).base
Z2 = built(cyclic2_raw()).base
FACTORS = {
    "T": built(trivial_monoid_raw()).base, "Z2": Z2, "V4": built(klein_four_raw()).base,
    "S2": built(semilattice_raw()).base, "P2": P2,
    "P3": built(pair_groupoid_raw(("a", "b", "c"))).base, "U2": built(unit_groupoid_raw()).base,
    "par": built(parallel_arrows_raw()),
}
# parity of a pair-groupoid arrow as a grading into Z/2
PARITY = validate_homomorphism({"(1,1)": "u", "(2,2)": "u", "(1,2)": "g", "(2,1)": "g"},
                               P2, Z2)
RANDOM_BUNDLE_RINGS = [("Q", "sc"), ("Q", "ringfiber"), ("Z6", "sc"), ("Z6", "ringfiber"),
                       ("UT2-F2", "ringfiber")]


def _is_homomorphism(along, source, target):
    """Composable pairs go to composable pairs, products to products."""
    return all(
        target.src[along[p]] == target.rng[along[q]]
        and target.prod[along[p]][along[q]] == along[source.prod[p][q]]
        for p, q in source.composable
    )


def _valid(bundle):
    return refusal(validate_bundle, bundle, bundle.ring, bundle.base) is None


@pytest.mark.parametrize("ring_name,mode", RANDOM_BUNDLE_RINGS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_pullback_has_the_parents_verdict(ring_name, mode, data):
    """Each pullback below is onto the parent's composable triples, so the full
    walk over the pullback must accept exactly when it accepts the parent."""
    parent, _dense = _random_bundle(data, RINGS[ring_name], mode)
    factor = FACTORS[data.draw(st.sampled_from(["T", "Z2", "S2", "P2", "U2"]))]
    skew = skew_product(P2, data.draw(st.sampled_from([PARITY, identity_homomorphism(P2)])))
    pullbacks = [
        product_bundle(parent, factor),
        pullback_bundle(parent, skew.semigroupoid, [x for x, _h in skew.semigroupoid.labels]),
        pullback_bundle(parent, P2, list(P2.arrows())),
    ]
    for pullback in pullbacks:
        assert _valid(pullback) == _valid(parent)


@pytest.mark.parametrize("ring_name,mode", RANDOM_BUNDLE_RINGS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_pullback_along_a_random_map(ring_name, mode, data):
    """A map into P_2 is taken exactly when it is a homomorphism, and then the
    pullback of a valid parent passes the full walk."""
    ring = RINGS[ring_name]
    parent = (trivial_bundle(ring, P2) if data.draw(st.booleans())
              else _random_bundle(data, ring, mode)[0])
    source = FACTORS[data.draw(st.sampled_from(["T", "Z2", "S2", "P2", "V4", "U2", "par"]))]
    along = data.draw(st.lists(st.sampled_from(list(P2.arrows())),
                               min_size=source.n_arrows, max_size=source.n_arrows))
    if _is_homomorphism(along, source, P2):
        pullback = pullback_bundle(parent, source, along)
        assert not _valid(parent) or validate_bundle(pullback, ring, source) is pullback
    else:
        with pytest.raises(StructureError) as exc:
            pullback_bundle(parent, source, along)
        assert exc.value.report.first().kind == "multiplicativity"


def test_pullback_refuses_a_map_off_the_parents_base():
    parent = trivial_bundle(RINGS["Q"], P2)
    for along in ([0, 1, 2], [0, 1, 2, 4], [0, 1, 2, -1]):
        with pytest.raises(StructureError) as exc:
            pullback_bundle(parent, P2, along)
        assert exc.value.report.first().kind == "structural"


BASES = [*FACTORS.values(), direct_product(P2, Z2), skew_product(P2, PARITY).semigroupoid]


@pytest.mark.parametrize("ring_name", ["Q", "Z6", "UT2-F2"])
@pytest.mark.parametrize("base", BASES, ids=[b.name or "anon" for b in BASES])
def test_trivial_bundle_passes_the_full_walk(ring_name, base):
    ring = RINGS[ring_name]
    bundle = trivial_bundle(ring, base)
    assert validate_bundle(bundle, ring, base) is bundle


def _corrupted(sgpd, a, b, c):
    """sgpd with ab declared as c, built without validation."""
    prod = [dict(row) for row in sgpd.prod]
    prod[a][b] = c
    return FiniteSemigroupoid(sgpd.vertex_names, sgpd.arrow_names, sgpd.src, sgpd.rng,
                              tuple(prod), name=sgpd.name)


def test_trivial_bundle_refuses_a_corrupted_base():
    bad = _corrupted(P2, 0, 0, 1)
    with pytest.raises(StructureError) as exc:
        trivial_bundle(RINGS["Q"], bad)
    assert exc.value.report.first() == refusal(validate_semigroupoid, bad).first()


@given(left=st.sampled_from(sorted(FACTORS)), right=st.sampled_from(sorted(FACTORS)))
@settings(max_examples=40, deadline=None)
def test_direct_product_passes_the_full_walk(left, right):
    product = direct_product(FACTORS[left], FACTORS[right])
    assert validate_semigroupoid(product) is product
    nested = direct_product(product, FACTORS[right])
    assert validate_semigroupoid(nested) is nested


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_direct_product_refuses_a_corrupted_factor_with_its_witness(data):
    names = sorted(name for name, f in FACTORS.items() if f.composable and f.n_arrows > 1)
    factor = FACTORS[data.draw(st.sampled_from(names))]
    a, b = data.draw(st.sampled_from(factor.composable))
    c = data.draw(st.sampled_from([x for x in factor.arrows() if x != factor.prod[a][b]]))
    bad = _corrupted(factor, a, b, c)
    other = FACTORS[data.draw(st.sampled_from(sorted(FACTORS)))]
    expected = refusal(validate_semigroupoid, bad)
    for left, right in ((bad, other), (other, bad)):
        if expected is None:     # the new product still associates
            product = direct_product(left, right)
            assert validate_semigroupoid(product) is product
            continue
        with pytest.raises(StructureError) as exc:
            direct_product(left, right)
        assert exc.value.report.failures == expected.failures


# ---------------------------------------------------------------------------
# Semidirect, skew, smash, semidirect-bundle and quotient outputs
# ---------------------------------------------------------------------------

PAIR_KINDS = {"undefined-product", "product-on-noncomposable", "source-compatibility",
              "range-compatibility"}
GROUPOIDS = {name: f for name, f in FACTORS.items() if is_groupoid(f).ok}


def _full_quotient_walk(base, quotient, projection):
    """The quotient passes the full walk and its projection is a rigid
    homomorphism with the map the builder gave."""
    assert validate_semigroupoid(quotient) is quotient
    checked = validate_homomorphism(list(projection.map), base, quotient)
    assert checked.rigid and projection.rigid


def _semidirect_verdict(theta):
    """None when the semidirect product (and, over a groupoid space, the germ
    quotient) passes the full walks; else the kind it was refused with."""
    report = refusal(semidirect_product, theta)
    if report is not None:
        return report.first().kind
    sp = semidirect_product(theta)
    assert validate_semigroupoid(sp) is sp
    if is_groupoid(theta.space).ok and refusal(germ_quotient, theta) is None:
        germ = germ_quotient(theta)
        assert validate_semigroupoid(germ.quotient) is germ.quotient
        projection = [germ.class_of[label] for label in sp.labels]
        assert validate_homomorphism(projection, sp, germ.quotient).rigid
    return None


def _random_action(data):
    """A preaction drawn from the families of the action tests; None when the
    draw breaks an axiom."""
    family = data.draw(st.sampled_from(["chain", "z2", "fixed", "valid", "random", "structures"]))
    if family == "chain":
        return data.draw(chain_actions())
    if family == "z2":
        return data.draw(z2_actions())
    if family == "fixed":
        return data.draw(st.sampled_from(FIXED))[0]
    if family == "valid":
        return data.draw(st.sampled_from(VALID))
    if family == "structures":
        if data.draw(st.booleans()):
            return preaction(*nested_chain_action(data.draw(st.integers(1, 5))))
        group = data.draw(st.sampled_from([[(0, 1)], [(0, 1), (1, 0)]]))
        return preaction(*components_semidirect_action(2, data.draw(st.integers(1, 2)), group))
    actor = data.draw(st.sampled_from(ACTORS))
    space = data.draw(st.sampled_from(IDEAL_SPACES))
    maps = data.draw(inverse_closed_injections(actor, space))
    raw = {actor.base.arrow_names[s]: {"dom": [space.arrow_names[g] for g in m],
                                       "img": [space.arrow_names[h] for h in m.values()]}
           for s, m in enumerate(maps)}
    if refusal(validate_preaction, raw, actor, space) is None:
        return validate_preaction(raw, actor, space)
    return None


def test_semidirect_and_germ_outputs_pass_the_full_walk():
    verdicts = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        theta = _random_action(data)
        if theta is None:
            return
        verdict = _semidirect_verdict(theta)
        # over a groupoid space theta_s keeps the vertices of the arrows it
        # moves, so only a space with other arrows can leave a source
        assert verdict is None or verdict in PAIR_KINDS and not is_groupoid(theta.space).ok
        verdicts.append(verdict)

    check()
    assert None in verdicts


def test_semidirect_product_leaving_a_source_is_refused_by_the_pair_pass():
    """An associative action whose theta_t carries b to x and c to y, two
    arrows out of one vertex with a x = y, while b and c leave different
    vertices: (u,a)(g,b) = (g,c) does not start where (g,b) does. No
    preaction axiom ties the vertices, so the pair pass refuses it."""
    space = validate_semigroupoid({
        "id": "X", "vertices": ["P", "w", "p1", "p2", "v"],
        "arrows": [{"id": "x", "src": "P", "rng": "w"}, {"id": "y", "src": "P", "rng": "w"},
                   {"id": "a", "src": "w", "rng": "w"}, {"id": "b", "src": "p1", "rng": "v"},
                   {"id": "c", "src": "p2", "rng": "v"}],
        "prod": [["a", "x", "y"], ["a", "y", "y"], ["a", "a", "a"]]})
    every = ["x", "y", "a", "b", "c"]
    theta = validate_preaction({"u": {"dom": every, "img": every},
                                "g": {"dom": ["b", "c", "x", "y"], "img": ["x", "y", "b", "c"]}},
                               built(cyclic2_raw()), space)
    assert theta.is_associative
    report = refusal(semidirect_product, theta)
    assert [(f.kind, f.witness) for f in report.failures] == [
        ("source-compatibility", ("(u,a)", "(g,b)"))]


def _random_homomorphism(data):
    """A grading into a groupoid: an identity, the parity of P_2, or a random
    map into Z/2, P_2 or V4 that is a homomorphism; None otherwise."""
    kind = data.draw(st.sampled_from(["identity", "parity", "random"]))
    if kind == "identity":
        g = GROUPOIDS[data.draw(st.sampled_from(sorted(GROUPOIDS)))]
        return g, identity_homomorphism(g)
    if kind == "parity":
        return P2, PARITY
    source = FACTORS[data.draw(st.sampled_from(sorted(FACTORS)))]
    target = GROUPOIDS[data.draw(st.sampled_from(["Z2", "P2", "V4"]))]
    along = data.draw(st.lists(st.sampled_from(list(target.arrows())),
                               min_size=source.n_arrows, max_size=source.n_arrows))
    if not _is_homomorphism(along, source, target):
        return None
    return source, validate_homomorphism(along, source, target)


def test_skew_products_pass_the_full_walk():
    seen = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        drawn = _random_homomorphism(data)
        if drawn is None:
            return
        base, d = drawn
        skew = skew_product(base, d)
        assert validate_semigroupoid(skew.semigroupoid) is skew.semigroupoid
        checked = validate_homomorphism(list(skew.grading.map), skew.semigroupoid, d.target)
        assert checked.rigid == skew.grading.rigid
        seen.append(d.source.n_arrows != d.target.n_arrows)

    check()
    assert set(seen) == {True, False}


QUOTIENT_BASES = [*FACTORS.values(), direct_product(P2, Z2), skew_product(P2, PARITY).semigroupoid]


def test_quotients_pass_the_full_walk():
    verdicts = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        base = data.draw(st.sampled_from(QUOTIENT_BASES))
        labels = data.draw(st.lists(st.integers(0, 3), min_size=base.n_arrows,
                                    max_size=base.n_arrows))
        classes = [[base.arrow_names[x] for x in base.arrows() if labels[x] == c]
                   for c in range(4)]
        classes = [block for block in classes if block]
        report = refusal(validate_rigid_congruence, classes, base)
        verdicts.append(report and report.first().kind)
        if report is None:
            cong = validate_rigid_congruence(classes, base)
            _full_quotient_walk(base, *quotient_semigroupoid(cong))

    check()
    assert None in verdicts and "product-incompatibility" in verdicts


def _graded_inputs(data):
    """A graded algebra over a groupoid grading: the semigroupoid algebra of a
    groupoid graded by itself, or the sectional algebra under the parity or
    identity grading of a bundle over P_2, with one fiber algebra of
    tests/test_fiber_maps.py on every pair or random; with the family drawn,
    and None in place of a random bundle that is not valid."""
    kind = data.draw(st.sampled_from(["groupoid", "fibers", "random"]))
    ring = RINGS[data.draw(st.sampled_from(["Q", "Z6"]))]
    if kind == "groupoid":
        g = GROUPOIDS[data.draw(st.sampled_from(sorted(GROUPOIDS)))]
        return kind, semigroupoid_algebra(ring, g, identity_homomorphism(g))
    if kind == "fibers":
        bundle = _fiber_bundle(ring, P2, P2.arrow_names, data.draw(st.sampled_from(sorted(FIBERS))))
    else:
        ring_name, mode = data.draw(st.sampled_from(RANDOM_BUNDLE_RINGS))
        bundle, _dense = _random_bundle(data, RINGS[ring_name], mode)
        if not _valid(bundle):
            return kind, None
    grading = data.draw(st.sampled_from([PARITY, identity_homomorphism(P2)]))
    return kind, sectional_algebra(bundle, grading)


def test_smash_products_pass_the_full_walk():
    families = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        family, algebra = _graded_inputs(data)
        if algebra is None:
            return
        smash = smash_product(algebra)
        assert smash.check_associativity() is None
        assert smash.check_graded_closure() is None
        families.add(family)

    check()
    assert families == {"groupoid", "fibers", "random"}


def _with_constant(algebra, key, row):
    """algebra with table[key] replaced by row, built without checks."""
    table = dict(algebra.table)
    table[key] = row
    return AlgebraPresentation.from_table(ring=algebra.ring, basis=algebra.basis, table=table,
                                          grading=algebra.grading, degrees=algebra.degrees,
                                          labels=algebra.labels)


def test_smash_refuses_a_corrupted_input_with_its_witness():
    """One structure constant of a graded matrix or group algebra is rescaled
    (the product stays in its degree) or moved to another basis element. The
    smash product must refuse the input with its graded-closure witness, else
    its associativity witness, else pass the full walk."""
    Q = RationalRing()
    inputs = [semigroupoid_algebra(Q, g, identity_homomorphism(g))
              for g in (P2, FACTORS["P3"], Z2, FACTORS["V4"])]
    verdicts = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        algebra = data.draw(st.sampled_from(inputs))
        key = data.draw(st.sampled_from(sorted(algebra.table)))
        (k, _x), = algebra.table[key]
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, algebra.rank - 1))
        bad = _with_constant(algebra, key, ((k, data.draw(st.sampled_from([1, 2, -1]))),))
        closure, associativity = bad.check_graded_closure(), bad.check_associativity()
        report = refusal(smash_product, bad)
        if closure is not None:
            assert [(f.kind, f.witness) for f in report.failures] == [("graded-closure", closure)]
        elif associativity is not None:
            assert [(f.kind, f.witness) for f in report.failures] == [
                ("associativity", associativity)]
        else:
            assert report is None
            assert smash_product(bad).check_associativity() is None
        verdicts.append(report and report.first().kind)

    check()
    assert set(verdicts) == {None, "graded-closure", "associativity"}


def test_smash_refuses_the_matrix_units_with_one_product_doubled():
    Q = RationalRing()
    algebra = semigroupoid_algebra(Q, P2, identity_homomorphism(P2))
    e = algebra.index
    # e_(1,2) e_(2,1) = 2 e_(1,1) stays in degree (1,1); the products around it do not double
    bad = _with_constant(algebra, (e[(1, 0)], e[(2, 0)]), ((e[(0, 0)], 2),))
    with pytest.raises(StructureError) as exc:
        smash_product(bad)
    assert exc.value.report.first().kind == "associativity"
    assert exc.value.report.first().witness == bad.check_associativity() is not None
    # e_(1,2) e_(2,1) = e_(2,2) leaves degree (1,1)
    moved = _with_constant(algebra, (e[(1, 0)], e[(2, 0)]), ((e[(3, 0)], 1),))
    with pytest.raises(StructureError) as exc:
        smash_product(moved)
    assert exc.value.report.first().kind == "graded-closure"
    assert exc.value.report.first().witness == moved.check_graded_closure() is not None


def test_semidirect_bundles_pass_the_full_walk():
    built_bundles = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        ring = data.draw(st.sampled_from([RINGS["Q"], RINGS["Z6"]]))
        theta, bundle, maps = _action_instance(data, ring)
        if refusal(validate_bundle_action, theta, bundle, maps) is not None:
            return
        action = validate_bundle_action(theta, bundle, maps)
        out = _semidirect_bundle(action)
        assert validate_bundle(out, ring, out.base) is out
        built_bundles.append(out.base.n_arrows)

    check()
    assert len(built_bundles) > 20


SEMILATTICE_RAW = {
    "id": "S", "vertices": ["*"],
    "arrows": [{"id": "p", "src": "*", "rng": "*"}, {"id": "q", "src": "*", "rng": "*"}],
    "prod": [["p", "p", "p"], ["p", "q", "p"], ["q", "p", "p"], ["q", "q", "q"]]}
SEMILATTICE_FAIL = os.path.join(SCALED, "crossed-fail-semilattice.json")


def _semilattice_action(ring, e, f, m):
    """Z/2 fixing the bottom p of the semilattice p < q and acting on the
    rank-2 fiber over p by m, where e_p e_p = 0 and e_q multiplies that fiber
    by e on the left and by f on the right (matrices on columns). The bundle
    is associative exactly when e and f are commuting idempotents, and an
    involution m passes every bundle-action check."""
    space = validate_semigroupoid(SEMILATTICE_RAW)
    theta = validate_preaction({"u": {"dom": ["p", "q"], "img": ["p", "q"]},
                                "g": {"dom": ["p"], "img": ["p"]}}, built(cyclic2_raw()), space)
    bundle = validate_bundle({"ranks": {"p": 2, "q": 1}, "constants": {
        "p,p": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        "p,q": [[[f[0][i], f[1][i]]] for i in range(2)],
        "q,p": [[[e[0][i], e[1][i]] for i in range(2)]], "q,q": [[[1]]]}}, ring, space)
    return validate_bundle_action(theta, bundle, {(1, 0): m})


def _square_roots(ring):
    """The 2x2 matrices with entries in -1..3 that square to themselves, and
    those that square to the identity."""
    def mul(a, b):
        return tuple(tuple(ring.add(ring.mul(a[i][0], b[0][j]), ring.mul(a[i][1], b[1][j]))
                           for j in range(2)) for i in range(2))

    values = sorted({ring.coerce(x) for x in range(-1, 4)}, key=str)
    mats = {((a, b), (c, d)) for a, b, c, d in itertools.product(values, repeat=4)}
    one = ((ring.one, ring.zero), (ring.zero, ring.one))
    return (sorted((m for m in mats if mul(m, m) == m), key=str),
            sorted((m for m in mats if mul(m, m) == one), key=str))


def test_semilattice_walk_and_induced_action_agree():
    """The semilattice family with idempotent twists and an involutive fiber
    map, over Q, Z/5 and Z/6: the walk over the semidirect bundle, which the
    crossed path no longer runs, refuses exactly the actions whose induced
    action fails twisted associativity, and when neither refuses, both crossed
    certificates pass. Both verdicts occur."""
    rings = {"Q": RINGS["Q"], "Z5": ZModRing(5), "Z6": RINGS["Z6"]}
    matrices = {name: _square_roots(ring) for name, ring in rings.items()}
    verdicts = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(matrices)))
        idempotents, involutions = matrices[name]
        e, f = (data.draw(st.sampled_from(idempotents)) for _ in range(2))
        drawn = (rings[name], e, f, data.draw(st.sampled_from(involutions)))
        report = refusal(_semilattice_action, *drawn)
        if report is not None:      # e and f do not commute
            assert (report.subject, report.first().kind) == ("bundle", "associativity")
            return
        action = _semilattice_action(*drawn)
        out = _semidirect_bundle(action)
        walk = refusal(validate_bundle, out, out.ring, out.base)
        induced = refusal(induced_theta, action)
        assert (walk is None) == (induced is None)
        if induced is None:
            result = crossed_theorem(action)
            assert result.certificate.passed and result.lscript_certificate.passed
        verdicts.append(induced is None)

    check()
    assert set(verdicts) == {True, False}


def test_semidirect_bundle_the_action_checks_accept_is_refused_by_the_induced_action(capsys):
    """Z/2 fixes the bottom p of the semilattice p < q and acts on the rank-2
    fiber over p by an involution M that intertwines its zero product and
    meets the extension law, yet E M E M != M E M E for the idempotent E by
    which e_q multiplies that fiber on either side. Intertwining and the
    extension law do not make the semidirect bundle associative; the induced
    action's twisted associativity refuses it before the bundle is built, and
    the walk, kept here as the oracle, still refuses the bundle."""
    one, zero = RINGS["Q"].one, RINGS["Q"].zero
    e = ((one, zero), (zero, zero))
    action = _semilattice_action(RINGS["Q"], e, e, [[1, 1], [0, -1]])
    out = _semidirect_bundle(action)
    assert [(f.kind, f.witness) for f in refusal(validate_bundle, out, out.ring,
                                                 out.base).failures] == [
        ("associativity", ("(u,q)", "(g,p)", "(u,q)", "0", "1", "0"))]
    expected = [("not-associative", ("u", "g", "u", "q", "p#1", "q"))]
    assert [(f.kind, f.witness) for f in refusal(induced_theta, action).failures] == expected
    assert [(f.kind, f.witness) for f in refusal(crossed_theorem, action).failures] == expected
    assert main(["verify", "crossed", "--input", SEMILATTICE_FAIL, "--format", "json",
                 "--no-timestamp"]) == 1
    (task,) = json.loads(capsys.readouterr().out)["workspaces"][0]["tasks"]
    assert (task["status"], task["witness"]) == ("fail", list(expected[0][1]))
    assert task["message"].startswith("induced action: not-associative")


def _semidirect_bundle_without_drop(action):
    """A planted bug: the semidirect bundle with the fiber map back along t*
    left out of every product."""
    theta, inner = action.base_action, action.bundle
    ring = inner.ring
    base = semidirect_product(theta)
    pairs = base.labels

    def pair_product(p, q, i, j):
        _s, a = pairs[p]
        t, b = pairs[q]
        return inner.fiber_mul(a, theta.apply(t, b), ((i, ring.one),),
                               action.fiber_maps[(t, b)][j])

    return bundle_from_product(ring, base, tuple(inner.ranks[g] for _s, g in pairs),
                               pair_product)


# each crossed task's verdict with the planted bug: the first basis pair at
# which the comparison map is not multiplicative (the fixture's first task
# moves no fiber, so the bug does not touch it)
WITHOUT_DROP = {
    os.path.join(FIXTURES, "crossed.json"): [None, ["d_u.m#0", "d_g.m#1"]],
    os.path.join(SCALED, "crossed-p4r2.json"): [["d_u4375.p6061#0", "d_g4668.p7704#1"]],
}


@pytest.mark.parametrize("ring", ["q", "zmod5", "zmod6"])
@pytest.mark.parametrize("path", sorted(WITHOUT_DROP), ids=os.path.basename)
def test_semidirect_bundle_without_its_drop_map_still_exits_1(path, ring, monkeypatch, capsys):
    """The walk the crossed path no longer runs is not needed to catch a
    semidirect bundle built wrong: the comparison certificate fails it."""
    monkeypatch.setattr(theorems, "_semidirect_bundle", _semidirect_bundle_without_drop)
    assert main(["verify", "crossed", "--input", path, "--ring", ring, "--format", "json",
                 "--no-timestamp"]) == 1
    tasks = json.loads(capsys.readouterr().out)["workspaces"][0]["tasks"]
    assert [t.get("witness") for t in tasks] == WITHOUT_DROP[path]
    assert all(any(c["name"] == "multiplicative" and not c["ok"] for c in t["checks"])
               for t in tasks if t["status"] == "fail")


def _bench_builders():
    """A Builder per file the bench generators write for the structures,
    certify-pair, quotient-zmod and germ-q workloads at their own sizes, with
    the file's tasks."""
    workloads = _workloads()
    rnd = random.Random(3)
    for generate in (workloads.structures, workloads.certify_pair, workloads.quotient_zmod,
                     workloads.germ_q):
        for spec in generate(rnd):
            ws = parse_workspace(json.dumps(spec["doc"]))
            yield Builder(ws, workspace_ring(ws)), ws.tasks


def test_bench_outputs_pass_the_full_walks():
    """Every valid bench file's semidirect, germ, skew, quotient, smash and
    semidirect-bundle outputs pass the full validators; a file whose inputs a
    validator refuses is a must-fail file and is skipped."""
    checked = []
    for builder, tasks in _bench_builders():
        for task in tasks:
            p = task.params
            op = p.get("op") or p.get("theorem")
            try:
                if "action" in p and op in ("semidirect", "germ"):
                    theta = builder.action(p["action"])
                    assert _semidirect_verdict(theta) is None
                elif op == "crossed":
                    out = _semidirect_bundle(builder.bundle_action(p["action"]))
                    assert validate_bundle(out, out.ring, out.base) is out
                elif op == "skew":
                    skew = skew_product(builder.semigroupoid(p["base"]),
                                        builder.homomorphism(p["grading"]))
                    assert validate_semigroupoid(skew.semigroupoid) is skew.semigroupoid
                elif op == "smash":
                    algebra = sectional_algebra(builder.bundle(p["bundle"]),
                                                builder.homomorphism(p["grading"]))
                    assert smash_product(algebra).check_associativity() is None
                elif op == "quotient":
                    cong = builder.congruence(p["congruence"])
                    _full_quotient_walk(cong.base, *quotient_semigroupoid(cong))
                else:
                    continue
            except StructureError:
                continue
            checked.append(op)
    assert set(checked) == {"semidirect", "germ", "crossed", "skew", "smash", "quotient"}


# ---------------------------------------------------------------------------
# Induced and identity actions
# ---------------------------------------------------------------------------

M2F2 = validate_ring(f2_matrix_ring_spec())
GL2 = built(gl2_f2_raw())
# one arrow v -> w: no composable pair, so intertwining holds for any fiber maps
POINT_TO_POINT_RAW = {"id": "X", "vertices": ["v", "w"],
                      "arrows": [{"id": "x", "src": "v", "rng": "w"}], "prod": []}
POINT_TO_POINT = validate_semigroupoid(POINT_TO_POINT_RAW)


@pytest.fixture
def made(monkeypatch):
    """Every AlgebraAction theorems builds while the test runs, in order."""
    out = []

    def record(*args):
        out.append(AlgebraAction(*args))
        return out[-1]

    monkeypatch.setattr(theorems, "AlgebraAction", record)
    return out


def _induced_verdict(action, made):
    """induced_theta on a checked bundle action, against the full validator.

    induced_theta refuses only for twisted associativity, which the validator
    does not check; refused or not, the action it builds must pass
    validate_algebra_action with the same domains and rows."""
    made.clear()
    report = refusal(induced_theta, action)
    (out,) = made
    assert report is None or report.first().kind == "not-associative"
    checked = validate_algebra_action(out.actor, out.algebra, out.domains, out.rows)
    assert (checked.domains, checked.rows) == (out.domains, out.rows)
    return report and report.first().kind


def _identity_action(theta, coefficients):
    """coefficient_action, which must hand over the fiber maps
    validate_bundle_action gives the identity on the same bundle, in order."""
    action = coefficient_action(theta, coefficients)
    checked = validate_bundle_action(theta, action.bundle, None)
    assert list(checked.fiber_maps.items()) == list(action.fiber_maps.items())
    return action


IDENTITY_RINGS = [RINGS["Q"], RINGS["Z6"], RINGS["UT2-F2"]]
GERM_ACTIONS = (
    [(f"C{n}", preaction(*nested_chain_action(n))) for n in range(1, 7)]
    + [(f"k{k}-m{m}-{name}", preaction(*components_semidirect_action(k, m, group)))
       for k, m, name, group in ((2, 1, "Z2", [(0, 1), (1, 0)]), (2, 2, "Z2", [(0, 1), (1, 0)]),
                                 (3, 1, "S3", list(itertools.permutations(range(3)))))]
)


@pytest.mark.parametrize("name, theta", GERM_ACTIONS, ids=[name for name, _ in GERM_ACTIONS])
def test_identity_and_induced_actions_of_the_germ_families(name, theta, made):
    for coefficients in IDENTITY_RINGS + [semigroupoid_algebra(RINGS["Q"], Z2)]:
        assert _induced_verdict(_identity_action(theta, coefficients), made) is None


def _scaled_builders():
    for name in ("crossed-p4r2", "germ-c16"):
        with open(os.path.join(SCALED, f"{name}.json"), encoding="utf-8") as fh:
            ws = parse_workspace(fh.read())
        for ring in (None, RINGS["Z6"]):
            yield Builder(ws, workspace_ring(ws, ring)), ws.tasks


def test_scaled_crossed_and_germ_actions_pass_the_full_validator(made):
    seen = []
    for builder, tasks in _scaled_builders():
        for task in tasks:
            action = builder.bundle_action(task.params["action"])
            if task.params["theorem"] == "germ":
                action = _identity_action(action.base_action, builder.ring)
            assert _induced_verdict(action, made) is None
            seen.append(task.params["theorem"])
    assert sorted(seen) == ["crossed", "crossed", "germ", "germ"]


# the upper triangular 2x2 matrices on the basis e11, e12, e22:
# T2[i][j] is e_i e_j
T2 = [[[1, 0, 0], [0, 1, 0], [0, 0, 0]],
      [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
      [[0, 0, 0], [0, 0, 0], [0, 0, 1]]]


def _conjugation(c, ring):
    """Conjugation of T2 by 1 + c e12, which moves e11 to e11 - c e12 and e22
    to e22 + c e12: an automorphism whose matrix is not monomial."""
    zero, one = ring.zero, ring.one
    return ((one, zero, zero), (ring.neg(c), one, c), (zero, zero, one))


def _t2_swap(data, ring):
    """Z/2 swapping two points whose fibers are T2, by a conjugation and its
    inverse, with one entry sometimes corrupted."""
    points = built(unit_groupoid_raw(("x", "y"))).base
    theta = validate_preaction({"u": {"dom": ["1x", "1y"], "img": ["1x", "1y"]},
                                "g": {"dom": ["1x", "1y"], "img": ["1y", "1x"]}},
                               built(cyclic2_raw()), points)
    bundle = validate_bundle({"ranks": {"1x": 3, "1y": 3},
                              "constants": {"1x,1x": T2, "1y,1y": T2}}, ring, points)
    c = ring.coerce(data.draw(st.integers(-2, 2)))
    maps = {(1, 0): _conjugation(c, ring), (1, 1): _conjugation(ring.neg(c), ring)}
    return theta, bundle, _corrupt(data, ring, maps)


def test_random_bundle_actions_induce_what_the_full_validator_accepts(made):
    """Random checked bundle actions: the fiber-map draws of
    tests/test_fiber_maps.py and the T2 conjugations above that
    validate_bundle_action accepts, over Q and Z/6, and the identity on a
    random preaction over Q, Z/6, UT2(F2) or the group algebra Q[Z/2]."""
    verdicts, families = [], set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        family = data.draw(st.sampled_from(["fibers", "t2", "identity"]))
        if family != "identity":
            draw = _action_instance if family == "fibers" else _t2_swap
            theta, bundle, maps = draw(data, RINGS[data.draw(st.sampled_from(["Q", "Z6"]))])
            if refusal(validate_bundle_action, theta, bundle, maps) is not None:
                return
            action = validate_bundle_action(theta, bundle, maps)
            if any(len(col) > 1 for cols in action.fiber_maps.values() for col in cols):
                families.add("not monomial")
        else:
            theta = _random_action(data)
            if theta is None:
                return
            coefficients = data.draw(st.sampled_from(
                IDENTITY_RINGS + [semigroupoid_algebra(RINGS["Q"], Z2)]))
            action = _identity_action(theta, coefficients)
        verdicts.append(_induced_verdict(action, made))
        families.add(family)

    check()
    assert len(verdicts) > 100 and set(verdicts) <= {None, "not-associative"}
    assert families == {"fibers", "t2", "identity", "not monomial"}


def _gl2_action(rho):
    """GL2(F2) fixing the one arrow of POINT_TO_POINT and acting on its
    rank-1 fiber over M2(F2) by the unit rho(s): a checked bundle action
    whenever rho is a homomorphism into the units."""
    names = GL2.base.arrow_names
    theta = validate_preaction({s: {"dom": ["x"], "img": ["x"]} for s in names}, GL2,
                               POINT_TO_POINT)
    return validate_bundle_action(theta, trivial_bundle(M2F2, POINT_TO_POINT),
                                  {(s, 0): [[rho(names[s])]] for s in GL2.base.arrows()})


def _sign(name):
    """The sign of GL2(F2) = S_3 into the units {1, swap} of M2(F2)."""
    return "1001" if name in ("1001", "0111", "1110") else "0110"


def test_noncommuting_fiber_maps_are_refused_as_non_central(made, tmp_path, capsys):
    """A fiber over M2(F2) is the bimodule M2(F2), so a fiber map must be a
    central unit, and 1 is the only one. The fiber maps s -> s meet
    m_st = m_s m_t but not m_st = m_t m_s, the order in which the induced rows
    apply them; they are refused at their first map off the centre, as is
    the sign into the abelian {1, swap}, and `verify crossed` and `validate`
    exit 1 with that witness. The identity maps pass, and induce an action the
    full validator accepts."""
    assert _induced_verdict(_gl2_action(lambda name: "1001"), made) is None
    for rho in (_sign, lambda name: name):
        report = refusal(_gl2_action, rho)
        assert report.subject == "bundle action"
        assert [(f.kind, f.witness) for f in report.failures] == [
            ("non-central-fiber-map", ("0110", "x"))]
    raw = gl2_f2_raw()
    names = [a["id"] for a in raw["arrows"]]
    doc = {"ring": f2_matrix_ring_spec(),
           "semigroupoids": {"G": raw, "X": POINT_TO_POINT_RAW},
           "actions": {"t": {"actor": "G", "space": "X",
                             "maps": {s: {"dom": ["x"], "img": ["x"]} for s in names}}},
           "bundles": {"b": {"base": "X", "mode": "ringfiber"}},
           "bundle_actions": {"m": {"action": "t", "bundle": "b",
                                    "fibers": {s: {"x": [[s]]} for s in names}}},
           "tasks": [{"kind": "verify", "theorem": "crossed", "action": "m"}]}
    path = tmp_path / "gl2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "crossed", "--input", str(path), "--format", "json",
                 "--no-timestamp"]) == 1
    (task,) = json.loads(capsys.readouterr().out)["workspaces"][0]["tasks"]
    assert (task["status"], task["witness"]) == ("fail", ["0110", "x"])
    assert task["message"].startswith("bundle action: non-central-fiber-map")
    assert main(["validate", str(path), "--format", "json"]) == 1
    capsys.readouterr()


@pytest.fixture
def doubled(monkeypatch):
    """A planted bug: every image induced_theta builds is doubled."""
    def build(actor, algebra, domains, rows):
        add = algebra.ring.add
        return AlgebraAction(actor, algebra, domains, tuple(
            {i: tuple((k, add(x, x)) for k, x in row) for i, row in r.items()} for r in rows))

    monkeypatch.setattr(theorems, "AlgebraAction", build)


# each germ or crossed task's witness when every induced image is doubled:
# the first basis pair at which the comparison map is not multiplicative
DOUBLED_WITNESSES = {
    "germ": [["d_1.1x"] * 2],
    "crossed": [["d_1.1x"] * 2, ["d_u.m#0"] * 2],
    "crossed-p4r2": [["d_u4375.p6061#0"] * 2],
    "germ-c16": [["d_e9709.i1966"] * 2],
}


@pytest.mark.parametrize("ring", ["q", "zmod5"])
@pytest.mark.parametrize("name", sorted(DOUBLED_WITNESSES))
def test_doubled_induced_images_still_exit_1(name, ring, doubled, capsys):
    """Doubled images were refused by the re-proof as inverse-compatibility;
    without it each file still fails, at the certificates' multiplicative
    check."""
    folder = SCALED if "-" in name else FIXTURES
    assert main(["verify", "all", "--input", os.path.join(folder, f"{name}.json"), "--ring", ring,
                 "--seed", "7", "--format", "json", "--no-timestamp"]) == 1
    tasks = [t for w in json.loads(capsys.readouterr().out)["workspaces"] for t in w["tasks"]
             if t["summary"] in ("verify germ", "verify crossed")]
    assert [(t["status"], t["witness"]) for t in tasks] == [
        ("fail", witness) for witness in DOUBLED_WITNESSES[name]]
    assert all(not c["ok"] for t in tasks for c in t["checks"] if c["name"] == "multiplicative")
