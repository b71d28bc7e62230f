"""Convolution walks only composable pairs, and the sampled check over Q.

`bundles.convolve` groups the right section's arrows by range and pairs each
arrow a of the left one only with the group ending at src[a], and
`sectional_algebra` convolves only the label pairs `composable_labels`
yields. The all-pairs loops they replaced are kept here as the oracle:
`oracle_convolve` calls `compose` on every pair of supported arrows, and
`oracle_sectional_algebra` convolves every pair of basis sections with it.
The Hypothesis test compares both over Q (fractional section values and
coboundary-twisted constants), Z/6 and a non-commutative table ring, on bases
with pairs that do not compose (parallel arrows, with and without units, and
P_3 beside a chain), with section keys in drawn, not ascending, order.

The sampled `verify convolution` check scales each Q section to integers.
Its verdict and `triple k` witness must be those of the raw draw, so a
bilinear mutant of `convolve` that drops one factorization is patched into
the workspace and must fail on the triple an oracle over the raw Fraction
sections of `test_bundles._random_section` finds first.
"""

import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sectional.workspace as workspace
from sectional.algebras import AlgebraPresentation
from sectional.bundles import (
    Section,
    bundle_from_product,
    convolve,
    delta_section,
    sectional_algebra,
)
from sectional.cli import main
from sectional.rings import RationalRing, ZModRing, combine, ring_from_spec
from sectional.semigroupoids import identity_homomorphism, label_index, validate_semigroupoid
from sectional.standard import pair_groupoid, parallel_arrows
from sectional.validation import must

from structures import upper_triangular_f2_ring_spec
from test_bundles import _random_section as raw_random_section

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.abspath(os.path.join(HERE, os.pardir, "fixtures", "convolution.json"))

Q = RationalRing()
Z6 = ZModRing(6)
TABLE = ring_from_spec(upper_triangular_f2_ring_spec())


def oracle_convolve(alpha, beta):
    """Convolution as it was: compose every supported pair, keep the defined."""
    bundle = alpha.bundle
    terms = {}
    for a, va in alpha.values.items():
        for b, vb in beta.values.items():
            c = bundle.base.compose(a, b)
            if c is not None:
                terms.setdefault(c, []).extend(
                    bundle._fiber_terms(a, b, va.items(), vb.items()))
    return Section(bundle, {c: combine(t, bundle.ring) for c, t in terms.items()})


def oracle_sectional_algebra(bundle, grading=None):
    """The sectional algebra as it was: every pair of basis sections convolved."""
    base = bundle.base
    labels = tuple((arrow, i) for arrow in base.arrows() for i in range(bundle.ranks[arrow]))
    position = label_index(labels)
    names = tuple(base.arrow_names[arrow] + (f"#{i}" if bundle.ranks[arrow] > 1 else "")
                  for arrow, i in labels)
    table = {}
    for p, (a, i) in enumerate(labels):
        da = delta_section(bundle, a, index=i)
        for q, (b, j) in enumerate(labels):
            product = oracle_convolve(da, delta_section(bundle, b, index=j))
            table[(p, q)] = {position[(c, k)]: x
                             for c, coords in product.values.items() for k, x in coords.items()}
    degrees = None if grading is None else tuple(grading.map[arrow] for arrow, _ in labels)
    return AlgebraPresentation(
        ring=bundle.ring, basis=names, table=table,
        grading=None if grading is None else grading.target, degrees=degrees,
        provenance=f"sectional algebra over {base.name or 'base'}", labels=labels)


def _parallel_with_units():
    """Units at v and w and two arrows v -> w: the arrows never compose with
    each other, only with the units."""
    return must(validate_semigroupoid({
        "id": "parallel-units",
        "vertices": ["v", "w"],
        "arrows": [{"id": "1v", "src": "v", "rng": "v"}, {"id": "1w", "src": "w", "rng": "w"},
                   {"id": "a", "src": "v", "rng": "w"}, {"id": "b", "src": "v", "rng": "w"}],
        "prod": [["1v", "1v", "1v"], ["1w", "1w", "1w"], ["1w", "a", "a"], ["1w", "b", "b"],
                 ["a", "1v", "a"], ["b", "1v", "b"]],
    }))


def _pair_beside_chain():
    """P_3 on points 1, 2, 3 beside the chain c0 >= c1 >= c2 on its own vertex."""
    points = "123"
    chain = ("c0", "c1", "c2")
    return must(validate_semigroupoid({
        "id": "P3+chain",
        "vertices": [*points, "*"],
        "arrows": [{"id": f"({i},{j})", "src": j, "rng": i} for i in points for j in points]
        + [{"id": c, "src": "*", "rng": "*"} for c in chain],
        "prod": [[f"({i},{j})", f"({j},{k})", f"({i},{k})"]
                 for i in points for j in points for k in points]
        + [[x, y, chain[max(i, j)]] for i, x in enumerate(chain) for j, y in enumerate(chain)],
    }))


BASES = {
    "parallel": parallel_arrows(),
    "parallel-units": _parallel_with_units(),
    "P3+chain": _pair_beside_chain(),
    "P2": pair_groupoid().base,
}

# fiber algebras by the basis indices of each product e_i e_j (every
# coefficient 1): the ring itself, its square and the 2x2 matrix units
FIBERS = {
    1: [[{0: 1}]],
    2: [[{0: 1}, {}], [{}, {1: 1}]],
    4: [[{2 * i + l: 1} if j == k else {} for k in range(2) for l in range(2)]
        for i in range(2) for j in range(2)],
}

# the units f(a) may take, so c(a, b) = f(a) f(b) / f(ab) is a coboundary
UNITS = {
    "Q": (Q, (1, -1, 3, Fraction(1, 2), Fraction(-1, 4), Fraction(2, 3))),
    "Z/6": (Z6, (1, 5)),
    "table": (TABLE, (TABLE.one,)),
}


def _values(ring_name):
    if ring_name == "Q":
        return st.fractions(-9, 9, max_denominator=9).map(Q.coerce)
    if ring_name == "Z/6":
        return st.integers(0, 5)
    return st.integers(0, len(TABLE.names) - 1)


@st.composite
def _twisted_bundles(draw):
    """A coboundary-twisted bundle: rank 1 only over the non-commutative table ring."""
    ring_name = draw(st.sampled_from(sorted(UNITS)))
    ring, units = UNITS[ring_name]
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    rank = 1 if ring_name == "table" else draw(st.sampled_from(sorted(FIBERS)))
    f = [draw(st.sampled_from(units)) for _ in base.arrows()]
    fiber = FIBERS[rank]

    def product(p, q, i, j):
        c = ring.mul(ring.mul(f[p], f[q]), ring.unit_inverse(f[base.compose(p, q)]))
        return dict.fromkeys(fiber[i][j], c)

    return ring_name, bundle_from_product(ring, base, (rank,) * base.n_arrows, product)


@st.composite
def _sections(draw, ring_name, bundle):
    """A section on drawn arrows with drawn fiber indices, both in drawn order."""
    arrows = draw(st.lists(st.sampled_from(list(bundle.base.arrows())), unique=True))
    return Section(bundle, {
        a: {i: draw(_values(ring_name)) for i in draw(st.permutations(range(bundle.ranks[a])))}
        for a in arrows})


@st.composite
def _cases(draw):
    ring_name, bundle = draw(_twisted_bundles())
    return (bundle, draw(_sections(ring_name, bundle)), draw(_sections(ring_name, bundle)),
            draw(st.booleans()))


@given(_cases())
@settings(max_examples=60, deadline=None)
def test_convolve_and_sectional_algebra_match_the_all_pairs_oracle(case):
    bundle, alpha, beta, graded = case
    for x, y in ((alpha, beta), (beta, alpha), (alpha, alpha)):
        assert convolve(x, y) == oracle_convolve(x, y)
    grading = identity_homomorphism(bundle.base) if graded else None
    alg = sectional_algebra(bundle, grading)
    want = oracle_sectional_algebra(bundle, grading)
    assert list(alg.table.items()) == list(want.table.items())
    assert (alg.basis, alg.labels, alg.degrees, alg.grading) == (
        want.basis, want.labels, want.degrees, want.grading)
    assert (alg.after, alg.before) == (want.after, want.before)


def test_the_oracle_sees_fractional_constants_and_idle_pairs():
    """The cases above are not vacuous: a Q bundle with a non-integral
    constant, and a base where some supported pairs do not compose."""
    base = BASES["P3+chain"]
    f = [Fraction(1, 2) if a % 2 else 3 for a in base.arrows()]
    bundle = bundle_from_product(Q, base, (1,) * base.n_arrows, lambda p, q, i, j: {
        0: f[p] * f[q] / f[base.compose(p, q)]})
    assert any(isinstance(x, Fraction) for rows in bundle.rows.values()
               for row in rows for entry in row for _, x in entry)
    full = Section(bundle, {a: {0: Fraction(1, a + 2)} for a in reversed(base.arrows())})
    assert any(base.compose(a, b) is None for a in full.values for b in full.values)
    assert convolve(full, full) == oracle_convolve(full, full)
    assert convolve(full, full).values


# ---------------------------------------------------------------------------
# verify convolution on integer-scaled Q sections
# ---------------------------------------------------------------------------

def _fixture_bundle(ring):
    with open(FIXTURE, encoding="utf-8") as fh:
        ws = workspace.parse_workspace(fh.read(), FIXTURE)
    return workspace.Builder(ws, ring).bundle("b")


def _dropping(a0, b0):
    """A bilinear mutant of convolve: the factorization (a0, b0) is left out."""
    def mutant(alpha, beta):
        dropped = convolve(Section(alpha.bundle, {a0: alpha.at(a0)}),
                           Section(beta.bundle, {b0: beta.at(b0)}))
        return convolve(alpha, beta).add(dropped.neg())
    return mutant


def _verify_convolution(ring_name, seed, capsys):
    code = main(["verify", "convolution", "--input", FIXTURE, "--ring", ring_name,
                 "--seed", str(seed), "--no-timestamp", "--format", "json"])
    (task,) = json.loads(capsys.readouterr().out)["workspaces"][0]["tasks"]
    return code, task["status"], task.get("witness")


@pytest.mark.parametrize("ring_name, ring", [("q", Q), ("zmod6", Z6)])
@pytest.mark.parametrize("seed", [7, 11])
def test_dropped_factorization_fails_on_the_oracles_triple(ring_name, ring, seed, capsys,
                                                          monkeypatch):
    bundle = _fixture_bundle(ring)
    a0, b0 = bundle.base.arrow_index("(1,2)"), bundle.base.arrow_index("(2,1)")
    mutant = _dropping(a0, b0)
    rnd = random.Random(f"convolution:{seed}")
    first = None
    for k in range(200):
        a, b, c = (raw_random_section(bundle, rnd) for _ in range(3))
        if mutant(mutant(a, b), c) != mutant(a, mutant(b, c)):
            first = k
            break
    assert first is not None

    assert _verify_convolution(ring_name, seed, capsys) == (0, "pass", None)
    monkeypatch.setattr(workspace, "convolve", mutant)
    assert _verify_convolution(ring_name, seed, capsys) == (1, "fail", [f"triple {first}"])


@pytest.mark.parametrize("seed", range(5))
def test_scaled_q_sections_are_integral_multiples_of_the_raw_draw(seed):
    bundle = _fixture_bundle(Q)
    raw_rnd, rnd = random.Random(f"convolution:{seed}"), random.Random(f"convolution:{seed}")
    saw_fraction = False
    for _ in range(30):
        raw = raw_random_section(bundle, raw_rnd)
        scaled = workspace._random_section(bundle, rnd)
        saw_fraction |= any(isinstance(x, Fraction) for v in raw.values.values() for x in v.values())
        assert all(type(x) is int for v in scaled.values.values() for x in v.values())
        arrow = next(iter(raw.values))
        i, x = next(iter(raw.at(arrow).items()))
        d = Fraction(scaled.at(arrow)[i]) / x
        assert d.denominator == 1 and d > 0
        assert scaled == raw.scale(d.numerator)
    assert raw_rnd.random() == rnd.random()
    assert saw_fraction
