"""Constructions that inherit their axioms from checked inputs.

direct_product validates its factors, pullback_bundle checks that its map is
a homomorphism and trivial_bundle validates its base; none of them re-walks
the triples of what it builds. The full validators are the oracle here: every
product, pullback and trivial bundle built below must pass validate_semigroupoid
or validate_bundle, and a pullback must have its parent's verdict. The must-fail
cases are a map that is not multiplicative and a factor with a corrupted product.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectional.bundles import pullback_bundle, trivial_bundle, validate_bundle
from sectional.semigroupoids import (
    FiniteSemigroupoid,
    direct_product,
    identity_homomorphism,
    validate_homomorphism,
    validate_semigroupoid,
)
from sectional.theorems import product_bundle, skew_product
from sectional.validation import StructureError

from test_sparse_kernel import RINGS, _random_bundle

from structures import (
    built,
    cyclic2_raw,
    klein_four_raw,
    pair_groupoid_raw,
    parallel_arrows_raw,
    refusal,
    semilattice_raw,
    trivial_monoid_raw,
    unit_groupoid_raw,
)

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
