"""Convolution walks only composable pairs, sums in place, and is decided on the basis.

`bundles.convolve` groups the right section's arrows by range, pairs each
arrow a of the left one only with the group ending at src[a], and adds every
fiber product x_i y_j * row straight into one dict per product arrow, which it
prunes once; `sectional_algebra` reads the product of the basis sections
of each label pair `composable_labels` yields off the bundle's fiber row,
with no convolution. Two earlier versions are kept here as oracles:
`oracle_convolve` calls `compose` on every pair of supported arrows, and
`grouped_convolve` is the range-grouped walk that built a term generator per
pair and summed each product arrow with `rings.combine`; their term order is
the one `convolve` must keep, so the key order of the section and of every
fiber vector is compared too. `oracle_sectional_algebra` convolves every pair
of basis sections, so the rows read must be convolve's products. The
Hypothesis test compares them over Q (fractional section values and
coboundary-twisted constants), Z/6 and a non-commutative table ring, on bases
with pairs that do not compose (parallel arrows, with and without units, and
P_3 beside a chain), with section keys in drawn, not ascending, order. Sums that cancel (2 * 3 over Z/6, x + (-x) over Q) must
leave no zero entry and no empty vector, and the table ring's products must
keep their factor order.

`verify convolution` decides on the basis: every section triple associates
exactly when the table of convolve's own products of the basis sections
does, and a failing task names its first failing basis triple, as
`sectional_algebra` names the basis sections. Its `triples` and `seed`
fields are checked and echoed in its data, and nothing else reads them. The
check as it stood before, which convolved the seeded triples, is kept as the
oracle `structures.sampled_convolution`. On the fixtures, the rational twist
and the CI convolution file, each under its own ring, Q and Z/6, on
ringfiber bundles over the non-commutative UT2(F2) (the twisted family of
`test_sparse_kernel`, one constant redrawn in about half the draws), and on
the fixture under each mutant that drops one factorization, a failing seeded
triple implies a failing task, and the task fails exactly when
`_first_failing_basis_triple` finds one, with that triple as its witness.

The oracle draws each section straight into its normal form
(`structures.random_section`, one `structures.sample` per coordinate): over
Q, Z, Z/6 and UT2(F2) the drawn section is the raw one of
`test_bundles._random_section`, key for key, and the stream is left in the
same state. A bilinear mutant of `convolve` that drops one factorization is
patched into the workspace, where `_convolution` reads it for the basis
table, and into `bundles`: some seeded triple fails under it, and the task
fails on the first failing basis triple, also at `"triples": 0`.
"""

import itertools
import json
import os
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sectional.workspace as workspace
from sectional import bundles
from sectional.algebras import AlgebraPresentation
from sectional.bundles import (
    Section,
    bundle_from_product,
    convolve,
    delta_section,
    sectional_algebra,
    trivial_bundle,
    validate_bundle,
)
from sectional.cli import main, parse_ring_override
from sectional.rings import RationalRing, ZModRing, combine, validate_ring
from sectional.semigroupoids import identity_homomorphism, label_index, validate_semigroupoid
from sectional.validation import StructureError

from structures import (
    built,
    pair_groupoid_raw,
    parallel_arrows_raw,
    random_section,
    sample,
    sampled_convolution,
    upper_triangular_f2_ring_spec,
)
from test_bundles import _random_section as raw_random_section
from test_sparse_kernel import SPARSE_RINGS, SPARSE_SETTINGS, _twisted_bundle

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.abspath(os.path.join(HERE, os.pardir, "fixtures", "convolution.json"))

Q = RationalRing()
Z6 = ZModRing(6)
TABLE = validate_ring(upper_triangular_f2_ring_spec())


def fiber_terms(bundle, a, b, x, y):
    """The combine terms of x * y for sparse x in fiber(a), y in fiber(b)."""
    table, mul = bundle.rows[(a, b)], bundle.ring.mul
    return ((mul(xi, yj), row) for i, xi in x for j, yj in y if (row := table[i][j]))


def oracle_convolve(alpha, beta):
    """Convolution as it was first: compose every supported pair, keep the defined."""
    bundle = alpha.bundle
    terms = {}
    for a, va in alpha.values.items():
        for b, vb in beta.values.items():
            c = bundle.base.compose(a, b)
            if c is not None:
                terms.setdefault(c, []).extend(fiber_terms(bundle, a, b, va.items(), vb.items()))
    return Section(bundle, {c: combine(t, bundle.ring) for c, t in terms.items()})


def grouped_convolve(alpha, beta):
    """Convolution as it was next: the range-grouped walk, a term generator per
    pair and one combine per product arrow, normalised again by Section."""
    bundle = alpha.bundle
    base = bundle.base
    ending = {}
    for b, vb in beta.values.items():
        ending.setdefault(base.rng[b], []).append((b, vb.items()))
    terms = {}
    for a, va in alpha.values.items():
        for b, vb in ending.get(base.src[a], ()):
            terms.setdefault(base.prod[a][b], []).extend(
                fiber_terms(bundle, a, b, va.items(), vb))
    return Section(bundle, {c: combine(t, bundle.ring) for c, t in terms.items()})


def layout(section):
    """Every arrow and fiber entry of a section in its stored order."""
    return [(a, list(v.items())) for a, v in section.values.items()]


def assert_normal(section):
    """No empty fiber vector and no zero entry."""
    is_zero = section.bundle.ring.is_zero
    assert all(v and not any(is_zero(x) for x in v.values()) for v in section.values.values())


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
    return AlgebraPresentation.from_table(
        ring=bundle.ring, basis=names, table=table,
        grading=None if grading is None else grading.target, degrees=degrees,
        provenance=f"sectional algebra over {base.name or 'base'}", labels=labels)


def _parallel_with_units():
    """Units at v and w and two arrows v -> w: the arrows never compose with
    each other, only with the units."""
    return validate_semigroupoid({
        "id": "parallel-units",
        "vertices": ["v", "w"],
        "arrows": [{"id": "1v", "src": "v", "rng": "v"}, {"id": "1w", "src": "w", "rng": "w"},
                   {"id": "a", "src": "v", "rng": "w"}, {"id": "b", "src": "v", "rng": "w"}],
        "prod": [["1v", "1v", "1v"], ["1w", "1w", "1w"], ["1w", "a", "a"], ["1w", "b", "b"],
                 ["a", "1v", "a"], ["b", "1v", "b"]],
    })


def _pair_beside_chain():
    """P_3 on points 1, 2, 3 beside the chain c0 >= c1 >= c2 on its own vertex."""
    points = "123"
    chain = ("c0", "c1", "c2")
    return validate_semigroupoid({
        "id": "P3+chain",
        "vertices": [*points, "*"],
        "arrows": [{"id": f"({i},{j})", "src": j, "rng": i} for i in points for j in points]
        + [{"id": c, "src": "*", "rng": "*"} for c in chain],
        "prod": [[f"({i},{j})", f"({j},{k})", f"({i},{k})"]
                 for i in points for j in points for k in points]
        + [[x, y, chain[max(i, j)]] for i, x in enumerate(chain) for j, y in enumerate(chain)],
    })


BASES = {
    "parallel": built(parallel_arrows_raw()),
    "parallel-units": _parallel_with_units(),
    "P3+chain": _pair_beside_chain(),
    "P2": built(pair_groupoid_raw()).base,
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

    # a coboundary twist keeps the fiber algebra associative, which
    # bundle_from_product leaves to its caller
    bundle = bundle_from_product(ring, base, (rank,) * base.n_arrows, product)
    assert validate_bundle(bundle, ring, base) is bundle
    return ring_name, bundle


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
        out, oracle, grouped = convolve(x, y), oracle_convolve(x, y), grouped_convolve(x, y)
        assert out == oracle == grouped
        assert layout(out) == layout(grouped) == layout(oracle)
        assert_normal(out)
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


def test_cancelling_sums_leave_no_zero_entry_and_no_empty_vector():
    """On the fiber R x R (e_i e_j = delta_ij e_i) over P_2: 2 * 3 = 0 over Z/6
    empties the (1,1) vector, x + (-x) = 0 over Q drops one of its entries,
    and a pair whose fiber products all vanish leaves no vector behind."""
    base = built(pair_groupoid_raw()).base
    p11, p12, p21, p22 = (base.arrow_index(f"({i},{j})") for i in "12" for j in "12")

    def square(ring):
        return bundle_from_product(ring, base, (2,) * base.n_arrows,
                                   lambda p, q, i, j: {i: ring.one} if i == j else {})

    z6 = square(Z6)
    alpha = Section(z6, {p11: {0: 2, 1: 1}, p12: {0: 1}})
    beta = Section(z6, {p11: {0: 3}, p22: {0: 1, 1: 1}})
    cases = [(alpha, beta, {p12: {0: 1}})]
    x = Fraction(2, 3)
    q = square(Q)
    alpha = Section(q, {p11: {0: x, 1: 1}, p12: {0: 1}})
    beta = Section(q, {p11: {0: 1, 1: 1}, p21: {0: -x}, p22: {1: 1}})
    cases.append((alpha, beta, {p11: {1: 1}}))
    for alpha, beta, want in cases:
        out = convolve(alpha, beta)
        assert out.values == want
        assert_normal(out)
        assert out == oracle_convolve(alpha, beta)
        assert layout(out) == layout(grouped_convolve(alpha, beta))


def test_table_ring_products_keep_their_factor_order():
    """Over upper-triangular 2x2 matrices over F2 x * y != y * x for some
    values, and convolve must give x * y in the order alpha, beta."""
    bundle = trivial_bundle(TABLE, built(pair_groupoid_raw()).base)
    base = bundle.base
    p11 = base.arrow_index("(1,1)")
    elements = range(len(TABLE.names))
    pairs = [(x, y) for x in elements for y in elements
             if TABLE.mul(x, y) != TABLE.mul(y, x)]
    assert pairs
    for x, y in pairs:
        alpha, beta = delta_section(bundle, p11, {0: x}), delta_section(bundle, p11, {0: y})
        for u, v, want in ((alpha, beta, TABLE.mul(x, y)), (beta, alpha, TABLE.mul(y, x))):
            out = convolve(u, v)
            assert out.at(p11).get(0, TABLE.zero) == want
            assert layout(out) == layout(grouped_convolve(u, v))
            assert_normal(out)


# ---------------------------------------------------------------------------
# verify convolution on the basis, against seeded sections
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


def _verify_convolution(ring_name, seed, capsys, path=FIXTURE):
    code = main(["verify", "convolution", "--input", str(path), "--ring", ring_name,
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
    for module in (workspace, bundles):
        monkeypatch.setattr(module, "convolve", mutant)
    witness = _first_failing_basis_triple(bundle, mutant)
    assert _verify_convolution(ring_name, seed, capsys) == (1, "fail", witness)


@pytest.mark.parametrize("ring_name, ring", [("q", Q), ("zmod6", Z6)])
def test_dropped_factorization_fails_with_no_triples(ring_name, ring, tmp_path, capsys,
                                                     monkeypatch):
    """`triples` is not read: at 0 the failing basis still fails the task."""
    with open(FIXTURE, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["tasks"][0]["triples"] = 0
    path = tmp_path / "no-triples.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    bundle = _fixture_bundle(ring)
    mutant = _dropping(bundle.base.arrow_index("(1,2)"), bundle.base.arrow_index("(2,1)"))
    first = _first_failing_basis_triple(bundle, mutant)
    assert first is not None and _first_failing_basis_triple(bundle) is None

    assert _verify_convolution(ring_name, 7, capsys, path) == (0, "pass", None)
    for module in (workspace, bundles):
        monkeypatch.setattr(module, "convolve", mutant)
    assert _verify_convolution(ring_name, 7, capsys, path) == (1, "fail", first)


ROOT = os.path.dirname(FIXTURE)
ORACLE_FILES = [os.path.join(ROOT, "convolution.json"), os.path.join(ROOT, "tablering.json"),
                os.path.join(HERE, "data", "rational_twist.json"),
                os.path.join(HERE, "data", "scaled", "ci", "convolution-p5r2.json")]


def _first_failing_basis_triple(bundle, convolve=convolve):
    """The names of the first basis sections (x, y, z), in basis order, with
    (xy)z != x(yz) under convolve, or None."""
    alg = sectional_algebra(bundle)
    deltas = [delta_section(bundle, a, index=i) for a, i in alg.labels]
    for x, y, z in itertools.product(range(alg.rank), repeat=3):
        if convolve(convolve(deltas[x], deltas[y]), deltas[z]) != \
                convolve(deltas[x], convolve(deltas[y], deltas[z])):
            return [alg.basis[w] for w in (x, y, z)]
    return None


def _matches_the_oracle(bundle, params, convolve=convolve):
    """workspace._convolution on bundle fails exactly when
    _first_failing_basis_triple finds a triple, with that triple as its
    witness, and it fails whenever a seeded triple of sampled_convolution
    does; returns whether it passed."""
    out = workspace._convolution(SimpleNamespace(bundle=lambda name: bundle), params)
    triples, seed = workspace._convolution_args(params)
    first = _first_failing_basis_triple(bundle, convolve)
    assert out == {"status": "pass" if first is None else "fail",
                   "data": {"triples": triples, "seed": seed}, "witness": first or []}
    if sampled_convolution(bundle, triples, seed, convolve)["status"] == "fail":
        assert first is not None
    return first is None


@pytest.mark.parametrize("ring_text", [None, "q", "zmod6"])
@pytest.mark.parametrize("path", ORACLE_FILES, ids=os.path.basename)
def test_basis_decision_matches_the_sampled_oracle_on_the_files(path, ring_text):
    with open(path, encoding="utf-8") as fh:
        ws = workspace.parse_workspace(fh.read(), path)
    override = None if ring_text is None else parse_ring_override(ring_text)
    builder = workspace.Builder(ws, workspace.workspace_ring(ws, override))
    tasks = [t.params for t in ws.tasks if t.params.get("theorem") == "convolution"]
    assert tasks
    if (os.path.basename(path), ring_text) == ("rational_twist.json", "zmod6"):
        # 1/2 is no residue: the bundle is refused before either check runs
        with pytest.raises(StructureError):
            builder.bundle(tasks[0]["bundle"])
        return
    for seed in (7, 11):
        for task in tasks:
            assert _matches_the_oracle(builder.bundle(task["bundle"]), {"seed": seed, **task})


def test_basis_decision_matches_the_sampled_oracle_over_ut2():
    """Ringfiber bundles over UT2(F2) with central constants, and sections
    with non-central values: both verdicts must occur."""
    ring = SPARSE_RINGS["UT2-F2"]
    verdicts = set()

    @SPARSE_SETTINGS
    @given(data=st.data())
    def check(data):
        bundle = _twisted_bundle(data, "UT2-F2", ring)
        seed = data.draw(st.integers(0, 3))
        verdicts.add(_matches_the_oracle(bundle, {"bundle": "b", "triples": 40, "seed": seed}))

    check()
    assert verdicts == {True, False}


@pytest.mark.parametrize("ring", [Q, Z6], ids=["q", "zmod6"])
def test_basis_decision_matches_the_sampled_oracle_under_each_dropped_factorization(
        ring, monkeypatch):
    bundle = _fixture_bundle(ring)
    verdicts = set()
    for a0, b0 in sorted(bundle.base.composable):
        mutant = _dropping(a0, b0)
        for module in (workspace, bundles):
            monkeypatch.setattr(module, "convolve", mutant)
        for seed in (7, 11):
            params = {"bundle": "b", "triples": 200, "seed": seed}
            verdicts.add(_matches_the_oracle(bundle, params, mutant))
        monkeypatch.undo()
    assert verdicts == {False}


def _assert_zero_draws_absent(section, dense):
    """Each coordinate of the dense draw is in the section exactly when it is
    nonzero; returns whether a zero was drawn."""
    is_zero = section.bundle.ring.is_zero
    for a, coords in enumerate(dense):
        assert list(section.at(a)) == [i for i, x in enumerate(coords) if not is_zero(x)]
    assert_normal(section)
    return any(is_zero(x) for coords in dense for x in coords)


def _dense_draw(bundle, rnd):
    return [[sample(bundle.ring, rnd) for _ in range(bundle.ranks[a])]
            for a in bundle.base.arrows()]


@pytest.mark.parametrize("ring_name", ["q", "z", "zmod6", "table"])
@pytest.mark.parametrize("seed", range(3))
def test_sampled_sections_are_the_raw_draw(ring_name, seed):
    """Over Q (Fraction draws), Z, Z/6 and the non-commutative table ring each
    coordinate of the oracle's section is one sample, kept as drawn, key for
    key, and the stream is left where the raw draw leaves it; a zero draw
    leaves no entry behind."""
    base = _fixture_bundle(Z6).base
    ring = {"q": Q, "z": validate_ring({"kind": "z"}), "zmod6": Z6, "table": TABLE}[ring_name]
    bundle = trivial_bundle(ring, base)
    raw_rnd, rnd, dense_rnd = (random.Random(f"convolution:{seed}") for _ in range(3))
    saw_zero = False
    for _ in range(30):
        raw = raw_random_section(bundle, raw_rnd)
        drawn = random_section(bundle, rnd)
        saw_zero |= _assert_zero_draws_absent(drawn, _dense_draw(bundle, dense_rnd))
        assert drawn == raw and layout(drawn) == layout(raw)
    assert raw_rnd.random() == rnd.random() == dense_rnd.random()
    assert saw_zero
