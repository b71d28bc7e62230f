"""Sparse vectors against the dense coordinate loops they replaced.

A vector is a {index: nonzero value} dict: section values, algebra and fiber
products, span-test inputs and outputs, kernel and image bases. The dense
loops below are the reference, kept here only as an oracle. Over Q, Z/5 and
Z/6, on small derandomized inputs:

  - Section add, neg and scale, convolve and fiber_mul equal the dense
    coordinatewise loops;
  - EchelonBasis.insert and contains, fed dicts and (index, value) pairs
    that carry explicit zero entries, agree with dense membership;
  - the saturation oracle structures.ideal_closure has the dense saturation
    loop's rank over a field and, over Z/6, its accepted sequence, and the
    germ certificate's generator span is that saturation's result;
  - the crossed product's table, which meets only the label pairs the
    support index allows (a keyed join), and the range-side table equal the
    loops over every composable pair, cell for cell and in fill order;
  - solve_linear's kernel is annihilated by the matrix and spans the whole
    kernel, and its image spans the columns;
  - on sparse columns given as dicts or (index, value) pairs, solve_linear
    meets invariants that need no oracle: every kernel vector k has
    sum_j k_j col_j = 0 through combine, rank + nullity = cols over a field,
    and the image basis spans the same module as the columns.

Membership over Z/n enumerates the span (widths stay at most 3); over Q it is
dense Gauss-Jordan elimination. Every property records a yes/no outcome per
example and must see both.
"""

import itertools
import json
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sectional.theorems as theorems
from sectional.algebras import AlgebraPresentation
from sectional.bundles import (
    Bundle,
    Section,
    convolve,
    fiber_rows,
    lscript_presentation,
    naive_crossed_product,
)
from sectional.rings import (
    EchelonBasis,
    RationalRing,
    ZModRing,
    combine,
    dense,
    solve_linear,
    sparse_vector,
)
from sectional.semigroupoids import composable_labels
from sectional.theorems import _unit_map_kernel, germ_corollary, induced_theta
from sectional.validation import InternalConsistencyError, StageError
from sectional.workspace import Builder, parse_workspace
from structures import (
    built,
    columns_of,
    components_semidirect_action,
    elimination_calls,
    germ_generators,
    ideal_closure,
    nested_chain_action,
    pair_groupoid_raw,
    preaction,
    spans_equal,
)

RINGS = [RationalRing(), ZModRing(5), ZModRing(6)]
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# The dense reference loops
# ---------------------------------------------------------------------------

def oracle_span(gens, ring):
    """Membership in the span of dense gens: the enumerated span over Z/n,
    reduction by the reduced row echelon form over Q."""
    if isinstance(ring, ZModRing):
        n = ring.n
        span = {tuple(0 for _ in gens[0])} if gens else set()
        for g in gens:
            span = {tuple((x + c * y) % n for x, y in zip(s, g)) for s in span for c in range(n)}
        return lambda v: not any(v) or tuple(v) in span
    rows = []
    for g in gens:
        r = _reduce(list(g), rows)
        p = next((i for i, x in enumerate(r) if x), None)
        if p is not None:
            r = [x / r[p] for x in r]
            rows = [[x - row[p] * y for x, y in zip(row, r)] for row in rows] + [r]
    return lambda v: not any(_reduce(list(v), rows))


def _reduce(v, rows):
    for row in rows:
        p = next(i for i, x in enumerate(row) if x)
        v = [x - v[p] * y for x, y in zip(v, row)]
    return v


def _dot(ring, u, v):
    acc = ring.zero
    for a, x in zip(u, v):
        acc = ring.add(acc, ring.mul(a, x))
    return acc


def oracle_fiber_mul(bundle, tables, a, b, x, y):
    ring = bundle.ring
    out = [ring.zero] * bundle.ranks[bundle.base.prod[a][b]]
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, c in enumerate(tables[(a, b)][i][j]):
                out[k] = ring.add(out[k], ring.mul(ring.mul(xi, yj), c))
    return out


def oracle_convolve(bundle, tables, alpha, beta):
    ring = bundle.ring
    out = {c: [ring.zero] * r for c, r in enumerate(bundle.ranks)}
    for a, x in alpha.items():
        for b, y in beta.items():
            c = bundle.base.compose(a, b)
            if c is not None:
                prod = oracle_fiber_mul(bundle, tables, a, b, x, y)
                out[c] = [ring.add(u, v) for u, v in zip(out[c], prod)]
    return out


def oracle_mul(algebra, u, v):
    ring = algebra.ring
    out = [ring.zero] * algebra.rank
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            for k, c in algebra.table.get((i, j), ()):
                out[k] = ring.add(out[k], ring.mul(ring.mul(x, y), c))
    return tuple(out)


def oracle_closure(gens, algebra):
    """The saturation loop on dense vectors: the vectors that enlarged the span."""
    ring, rank = algebra.ring, algebra.rank
    accepted = []
    queue = list(gens)
    while queue:
        vec = queue.pop(0)
        if oracle_span(accepted, ring)(vec):
            continue
        accepted.append(vec)
        for i in range(rank):
            e = tuple(ring.one if j == i else ring.zero for j in range(rank))
            queue += [oracle_mul(algebra, e, vec), oracle_mul(algebra, vec, e)]
    return accepted


# ---------------------------------------------------------------------------
# Generated inputs
# ---------------------------------------------------------------------------

def _elements(ring):
    if isinstance(ring, RationalRing):
        nonzero = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        nonzero = st.integers(1, ring.n - 1)
    # zeros often, so vectors come out sparse and spans dependent
    return st.one_of(st.just(ring.zero), nonzero)


def _vector(data, ring, k):
    return tuple(data.draw(st.lists(_elements(ring), min_size=k, max_size=k)))


def _with_zeros(data, v):
    """v as a dict or as (index, value) pairs, zero entries kept."""
    pairs = list(enumerate(v))
    return dict(pairs) if data.draw(st.booleans()) else pairs


def _dense(vec, k, ring):
    return list(dense(vec.items(), k, ring))


def _bundle(data, ring):
    """A bundle over P_2 with ranks 1-2 and random constants; convolution and
    fiber products are bilinear, so they need no associativity."""
    base = built(pair_groupoid_raw()).base
    ranks = tuple(data.draw(st.integers(1, 2)) for _ in base.arrows())
    tables = {(a, b): [[_vector(data, ring, ranks[base.prod[a][b]]) for _ in range(ranks[b])]
                       for _ in range(ranks[a])]
              for a, b in base.composable}
    rows = {pair: fiber_rows(table, ring) for pair, table in tables.items()}
    return Bundle(ring, base, ranks, rows), tables


def _section(data, bundle):
    arrows = data.draw(st.sets(st.sampled_from(list(bundle.base.arrows()))))
    return {a: _vector(data, bundle.ring, bundle.ranks[a]) for a in arrows}


def _values(section, bundle):
    """Every fiber of a Section as a dense list."""
    return {a: _dense(section.at(a), r, bundle.ring) for a, r in enumerate(bundle.ranks)}


def _padded(values, bundle):
    ring = bundle.ring
    return {a: list(values.get(a, [ring.zero] * r)) for a, r in enumerate(bundle.ranks)}


# ---------------------------------------------------------------------------
# Sections and fiber products
# ---------------------------------------------------------------------------

def test_section_arithmetic_matches_dense_oracle():
    outcomes = set()

    @SETTINGS
    @given(st.sampled_from(RINGS), st.data())
    def check(ring, data):
        bundle, _ = _bundle(data, ring)
        x, y = _section(data, bundle), _section(data, bundle)
        r = data.draw(_elements(ring))
        alpha = Section(bundle, {a: _with_zeros(data, v) for a, v in x.items()})
        beta = Section(bundle, {a: _with_zeros(data, v) for a, v in y.items()})
        px, py = _padded(x, bundle), _padded(y, bundle)
        total = alpha.add(beta)
        assert _values(total, bundle) == {
            a: [ring.add(u, v) for u, v in zip(px[a], py[a])] for a in px}
        assert _values(alpha.neg(), bundle) == {a: [ring.neg(u) for u in px[a]] for a in px}
        assert _values(alpha.scale(r), bundle) == {a: [ring.mul(r, u) for u in px[a]] for a in px}
        # stored values are canonical, so equal sections compare equal
        assert all(ring.zero not in v.values()
                   for sec in (alpha, beta, total) for v in sec.values.values())
        # whether some nonzero fiber of alpha cancels against beta's
        outcomes.add(len(total.values) < len(alpha.values.keys() | beta.values.keys()))

    check()
    assert outcomes == {True, False}


def test_convolve_and_fiber_mul_match_dense_oracle():
    outcomes = set()

    @SETTINGS
    @given(st.sampled_from(RINGS), st.data())
    def check(ring, data):
        bundle, tables = _bundle(data, ring)
        x, y = _section(data, bundle), _section(data, bundle)
        alpha = Section(bundle, {a: _with_zeros(data, v) for a, v in x.items()})
        beta = Section(bundle, {a: _with_zeros(data, v) for a, v in y.items()})
        product = convolve(alpha, beta)
        assert _values(product, bundle) == oracle_convolve(bundle, tables, x, y)
        a, b = data.draw(st.sampled_from(list(bundle.base.composable)))
        u = _vector(data, ring, bundle.ranks[a])
        v = _vector(data, ring, bundle.ranks[b])
        fiber = bundle.fiber_mul(a, b, list(enumerate(u)), list(enumerate(v)))
        c = bundle.base.prod[a][b]
        assert _dense(fiber, bundle.ranks[c], ring) == oracle_fiber_mul(bundle, tables, a, b, u, v)
        assert ring.zero not in fiber.values()
        outcomes.add(product == Section(bundle, {}))

    check()
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# Span tests
# ---------------------------------------------------------------------------

def test_insert_and_contains_match_dense_membership():
    outcomes = set()

    @SETTINGS
    @given(st.sampled_from(RINGS), st.integers(1, 3), st.data())
    def check(ring, k, data):
        gens = [_vector(data, ring, k) for _ in range(data.draw(st.integers(0, 4)))]
        basis = EchelonBasis(ring)
        for i, g in enumerate(gens):
            grew = basis.insert(_with_zeros(data, g))
            assert grew == (not oracle_span(gens[:i], ring)(g))
            outcomes.add(("insert", grew))
        for v in [_vector(data, ring, k) for _ in range(3)]:
            inside = basis.contains(_with_zeros(data, v))
            assert inside == oracle_span(gens, ring)(v)
            outcomes.add(("contains", inside))

    check()
    assert outcomes == {(name, verdict) for name in ("insert", "contains")
                        for verdict in (True, False)}


def _algebra(data, ring, rank):
    """Random structure constants; closure needs only bilinearity."""
    table = {(i, j): dict(enumerate(_vector(data, ring, rank)))
             for i in range(rank) for j in range(rank)}
    return AlgebraPresentation.from_table(ring, tuple(f"e{i}" for i in range(rank)), table)


def _sparse_algebra(data, ring, rank):
    """Structure constants on a few products only, so the support index
    leaves most basis elements out of most products."""
    keys = [(i, j) for i in range(rank) for j in range(rank)]
    chosen = data.draw(st.lists(st.sampled_from(keys), max_size=rank + 1, unique=True))
    table = {key: dict(enumerate(_vector(data, ring, rank))) for key in chosen}
    return AlgebraPresentation.from_table(ring, tuple(f"e{i}" for i in range(rank)), table)


def test_ideal_closure_matches_the_dense_saturation_loop():
    """The tests-side full saturation against the dense loop."""
    outcomes = set()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(RINGS), st.integers(1, 3), st.booleans(), st.data())
    def check(ring, rank, sparse, data):
        algebra = (_sparse_algebra if sparse else _algebra)(data, ring, rank)
        gens = [_vector(data, ring, rank) for _ in range(data.draw(st.integers(0, 2)))]
        closure = ideal_closure([_with_zeros(data, g) for g in gens], algebra)
        expected = oracle_closure(gens, algebra)
        dense_closure = [tuple(_dense(v, rank, ring)) for v in closure]
        if ring.is_field:
            assert len(closure) == len(expected)
            assert all(oracle_span(dense_closure, ring)(v) for v in expected)
            assert all(oracle_span(expected, ring)(v) for v in dense_closure)
        else:
            assert dense_closure == expected
        units = [tuple(ring.one if j == i else ring.zero for j in range(rank))
                 for i in range(rank)]
        outcomes.add(all(oracle_span(dense_closure, ring)(e) for e in units))

    check()
    assert outcomes == {True, False}


def eager_closure(generators, algebra):
    """The saturation loop as it stood before the early stop and the support
    index: each accepted vector queues all 2·rank of its products at once, in
    FIFO order, and nothing stops it before the queue runs dry. Returns the
    accepted vectors and the echelon rows."""
    ring = algebra.ring
    basis = EchelonBasis(ring)
    accepted = []
    queue = deque(sparse_vector(dict(g), ring) for g in generators)
    while queue:
        vec = queue.popleft()
        if not basis.insert(vec):
            continue
        accepted.append(vec)
        for i in range(algebra.rank):
            unit = ((i, ring.one),)
            queue.append(algebra.mul(unit, vec.items()))
            queue.append(algebra.mul(vec.items(), unit))
    return accepted, basis.pivot_rows()


GERM_INSTANCES = {
    "C3": lambda: nested_chain_action(3),
    "C6": lambda: nested_chain_action(6),
    "2P2-Z2": lambda: components_semidirect_action(2, 2, [(0, 1), (1, 0)]),
    "3P1-S3": lambda: components_semidirect_action(3, 1, list(itertools.permutations(range(3)))),
}
GERM_RINGS = {"Q": RationalRing(), "Z6": ZModRing(6)}


def _eager_result(generators, algebra):
    accepted, rows = eager_closure(generators, algebra)
    return rows if algebra.ring.is_field else accepted


def assert_full_saturation(res):
    """res's ideal is what the eager loop saturates: from the covering
    generators, which germ_corollary forms, the same accepted list over Z/6
    and the same reduced row echelon form over Q; from every generator s < t
    (structures.germ_generators), the same echelon rows."""
    crossed, ring = res.crossed, res.crossed.ring
    assert res.ideal_basis == _eager_result(germ_generators(res, covering=True), crossed)
    assert EchelonBasis(ring, res.ideal_basis).pivot_rows() == \
        eager_closure(germ_generators(res), crossed)[1]


@pytest.mark.parametrize("ring", GERM_RINGS.values(), ids=GERM_RINGS.keys())
@pytest.mark.parametrize("instance", GERM_INSTANCES.values(), ids=GERM_INSTANCES.keys())
def test_germ_ideal_is_the_full_saturation(instance, ring):
    """The germ pipeline reads its ideal off the generators' span; the eager
    loop saturates fully. The certificate reads only the span's echelon rows,
    so it is the one the full saturation gives."""
    res = germ_corollary(preaction(*instance()), ring)
    assert res.certificate.passed
    assert_full_saturation(res)


class Swapped(theorems.LinearMapOnBasis):
    """The images followed by the swap of target units 0 and 1, which is no
    algebra automorphism: every image is still one target unit and the
    kernel stays, so the map kills every generator, but multiplicativity
    breaks."""

    def __init__(self, source, target, rows, inverse=None):
        swap = {0: 1, 1: 0}
        super().__init__(source, target, tuple({swap.get(k, k): x for k, x in dict(row).items()}
                                               for row in rows), inverse)


class Negated(theorems.LinearMapOnBasis):
    """Every image negated: the kernel stays and multiplicativity breaks
    ((-1)(-1) = 1), but no image is a target unit."""

    def __init__(self, source, target, rows, inverse=None):
        ring = source.ring
        minus = ring.coerce(-1)
        super().__init__(source, target, tuple({k: ring.mul(minus, x) for k, x in dict(row).items()}
                                               for row in rows), inverse)


class Identity(theorems.LinearMapOnBasis):
    """The identity of the source: multiplicative, but it kills no generator."""

    def __init__(self, source, target, rows, inverse=None):
        super().__init__(source, source, tuple({i: source.ring.one} for i in range(source.rank)),
                         inverse)


@pytest.mark.parametrize("ring", GERM_RINGS.values(), ids=GERM_RINGS.keys())
@pytest.mark.parametrize("bent, verdicts",
                         [(Swapped, {"multiplicative": False, "ideal-killed": True,
                                     "kernel-is-ideal": False}),
                          (Identity, {"multiplicative": True, "ideal-killed": False,
                                      "kernel-is-ideal": False})],
                         ids=["non-multiplicative", "kills-no-generator"])
def test_germ_ideal_is_the_span_under_a_bent_map(bent, verdicts, ring, monkeypatch):
    """The kernel of a map is an ideal only when the map is multiplicative.
    The swapped map keeps the kernel, whose rows are the span's, and still
    fails kernel-is-ideal; the identity kills no generator. Under either map
    the span of the generators, which the map does not touch, is the full
    saturation."""
    theta = preaction(*GERM_INSTANCES["2P2-Z2"]())
    monkeypatch.setattr(theorems, "LinearMapOnBasis", bent)
    res = germ_corollary(theta, ring)
    assert_full_saturation(res)
    checks = {c.name: c.ok for c in res.certificate.checks}
    assert {name: checks[name] for name in verdicts} == verdicts
    span_is_kernel = (EchelonBasis(ring, germ_generators(res)).rows
                      == _unit_map_kernel(res.map)[0].rows)
    assert span_is_kernel == (bent is Swapped)


def oracle_crossed_table(action):
    """naive_crossed_product's table as it stood before the support test:
    a Theta_t(b) formed for every composable label pair, empty rows kept."""
    base, alg = action.actor.base, action.algebra
    one = alg.ring.one
    labels = [(s, d) for s in base.arrows() for d in action.domains[s]]
    position = {label: i for i, label in enumerate(labels)}
    table = {}
    for p, q in composable_labels(base, labels):
        (s, a), (t, b) = labels[p], labels[q]
        value = action.apply_rows(action.actor.inv[t],
                                  alg.mul(((a, one),), action.rows[t][b]).items())
        table[(p, q)] = {position[(base.prod[s][t], k)]: x for k, x in value.items()}
    return labels, table


def oracle_lscript_table(action):
    """lscript_presentation's table by the loop over every composable label
    pair: Theta_x(Theta_{x*}(a) b) formed for each, empty rows kept."""
    base, alg, inv = action.actor.base, action.algebra, action.actor.inv
    labels = [(s, d) for s in base.arrows() for d in action.domains[inv[s]]]
    position = {label: i for i, label in enumerate(labels)}
    table = {}
    for p, q in composable_labels(base, labels):
        (x, a), (y, b) = labels[p], labels[q]
        pulled = alg.mul(action.rows[inv[x]][a], ((b, alg.ring.one),))
        value = action.apply_rows(x, pulled.items())
        table[(p, q)] = {position[(base.prod[x][y], k)]: v for k, v in value.items()}
    return labels, table


def assert_tables_match(built, labels, table):
    """built has the oracle's labels and, once the oracle's empty rows are
    dropped, its table, filled in the same order."""
    expected = AlgebraPresentation.from_table(built.ring, built.basis, table)
    assert built.labels == tuple(labels)
    assert list(built.table.items()) == list(expected.table.items())


def conjugation_action(ring, x=1):
    """Z2 acting on M_2 (matrix units e11, e12, e21, e22 over one arrow) by
    conjugation with P = [[1, x], [0, -1]], P^2 = I: for x != 0 the images
    have up to four terms, so a Theta_t(b) can vanish on the first and not on
    a later."""
    units = ["11", "12", "21", "22"]
    p = [[1, x], [0, -1]]
    # column ij is P e_ij P^-1 = P e_ij P, whose kl entry is P_ki P_jl
    conj = [[p[int(k) - 1][int(i) - 1] * p[int(j) - 1][int(l) - 1] for i, j in units]
            for k, l in units]
    z2 = {"vertices": ["*"], "arrows": [{"id": x, "src": "*", "rng": "*"} for x in "ug"],
          "prod": [["u", "u", "u"], ["u", "g", "g"], ["g", "u", "g"], ["g", "g", "u"]],
          "inv": {"u": "u", "g": "g"}}
    point = {"vertices": ["*"], "arrows": [{"id": "m", "src": "*", "rng": "*"}],
             "prod": [["m", "m", "m"]], "inv": {"m": "m"}}
    doc = {
        "semigroupoids": {"Z2": z2, "pt": point},
        "actions": {"fix": {"actor": "Z2", "space": "pt", "maps": {
            x: {"dom": ["m"], "img": ["m"]} for x in "ug"}}},
        "bundles": {"M2": {"base": "pt", "ranks": {"m": 4}, "constants": {"m,m": [
            [[int(x[1] == y[0] and x[0] + y[1] == z) for z in units] for y in units]
            for x in units]}}},
        "bundle_actions": {"conj": {"action": "fix", "bundle": "M2",
                                    "fibers": {"g": {"m": conj}}}},
    }
    return induced_theta(Builder(parse_workspace(json.dumps(doc)), ring).bundle_action("conj"))


CROSSED_ACTIONS = {
    **{name: (lambda ring, make=make: germ_corollary(preaction(*make()), ring).induced_action)
       for name, make in GERM_INSTANCES.items()},
    "M2-conj": conjugation_action,
}


@pytest.mark.parametrize("ring", GERM_RINGS.values(), ids=GERM_RINGS.keys())
@pytest.mark.parametrize("action", CROSSED_ACTIONS.values(), ids=CROSSED_ACTIONS.keys())
def test_crossed_product_skips_only_zero_pairs(action, ring):
    """The crossed product forms a pair only where the support index says
    a Theta_t(b) can be nonzero, and the range-side product only where b is
    after the support of Theta_{x*}(a); each table equals the loop's over
    every composable pair once that loop's empty rows are dropped."""
    induced = action(ring)
    for build, oracle in ((naive_crossed_product, oracle_crossed_table),
                          (lscript_presentation, oracle_lscript_table)):
        built = build(induced)
        labels, table = oracle(induced)
        assert_tables_match(built, labels, table)
        assert len(built.table) < len(table)        # some pairs were zero


def test_crossed_tables_match_the_loops_under_any_conjugation():
    @SETTINGS
    @given(st.sampled_from(list(GERM_RINGS.values())), st.integers(-3, 3))
    def check(ring, x):
        induced = conjugation_action(ring, x)
        assert_tables_match(naive_crossed_product(induced), *oracle_crossed_table(induced))
        assert_tables_match(lscript_presentation(induced), *oracle_lscript_table(induced))

    check()


def test_germ_path_builds_no_kernel_by_elimination(monkeypatch):
    """The germ certificate sets its kernel's echelon rows off the map's rows
    and the ideal's off the generators by union-find: it calls no
    solve_linear, no smith_normal_form and no EchelonBasis.insert or
    _reduce. The instances include E ⋊ Γ, whose space is not a unit groupoid
    as the chains' of tests/test_complexity.py is."""
    for instance in GERM_INSTANCES.values():
        for ring in GERM_RINGS.values():
            results = []
            counts, inserts = elimination_calls(
                monkeypatch, lambda: results.append(germ_corollary(preaction(*instance()), ring)))
            assert results[0].certificate.passed and germ_generators(results[0])
            assert counts["solve_linear"] == counts["smith_normal_form"] == counts["_reduce"] == 0
            assert inserts == []


def test_germ_map_of_another_shape_is_a_program_bug(monkeypatch):
    """A germ map image that is neither 0 nor one target unit with
    coefficient one is an internal error, tagged with the ideal stage."""
    monkeypatch.setattr(theorems, "LinearMapOnBasis", Negated)
    for ring in GERM_RINGS.values():
        with pytest.raises(StageError) as err:
            germ_corollary(preaction(*GERM_INSTANCES["2P2-Z2"]()), ring)
        assert err.value.stage == "ideal"
        assert isinstance(err.value.cause, InternalConsistencyError)


class Zero(theorems.LinearMapOnBasis):
    """Every image zero: multiplicative and kills every generator, but its
    kernel is the whole algebra, larger than the ideal."""

    def __init__(self, source, target, rows, inverse=None):
        super().__init__(source, target, tuple({} for _ in rows), inverse)


@pytest.mark.parametrize("ring", GERM_RINGS.values(), ids=GERM_RINGS.keys())
def test_kernel_larger_than_the_ideal_fails_kernel_is_ideal(ring, monkeypatch):
    """The zero map is multiplicative and kills every generator, but the
    span of the generators, the full saturation, is smaller than its kernel:
    the certificate says the kernel is not the ideal."""
    theta = preaction(*GERM_INSTANCES["2P2-Z2"]())
    monkeypatch.setattr(theorems, "LinearMapOnBasis", Zero)
    res = germ_corollary(theta, ring)
    assert_full_saturation(res)
    checks = {c.name: c.ok for c in res.certificate.checks}
    assert checks["multiplicative"] and checks["ideal-killed"]
    assert not checks["kernel-is-ideal"]


def test_solve_linear_kernel_and_image_match_dense_oracle():
    outcomes = set()

    @SETTINGS
    @given(st.sampled_from(RINGS), st.integers(1, 3), st.integers(1, 3), st.data())
    def check(ring, rows, cols, data):
        entries = [_vector(data, ring, cols) for _ in range(rows)]
        sol = solve_linear(columns_of(entries, cols), rows, ring)
        kernel = [tuple(_dense(v, cols, ring)) for v in sol.kernel_basis]
        image = [tuple(_dense(v, rows, ring)) for v in sol.image_basis]
        for v in kernel:
            assert all(_dot(ring, row, v) == ring.zero for row in entries)
        in_kernel, in_image = oracle_span(kernel, ring), oracle_span(image, ring)
        columns = [tuple(row[j] for row in entries) for j in range(cols)]
        assert all(in_image(col) for col in columns)
        assert all(oracle_span(columns, ring)(v) for v in image)
        if isinstance(ring, ZModRing):
            n = ring.n
            points = [()]
            for _ in range(cols):
                points = [p + (x,) for p in points for x in range(n)]
            for p in points:
                if all(_dot(ring, row, p) == 0 for row in entries):
                    assert in_kernel(p)
        else:
            assert sol.rank + len(kernel) == cols
        outcomes.add(bool(kernel))

    check()
    assert outcomes == {True, False}


def test_solve_linear_on_sparse_columns_meets_its_invariants():
    outcomes = set()

    @SETTINGS
    @given(st.sampled_from(RINGS), st.integers(0, 4), st.integers(0, 4), st.data())
    def check(ring, rows, cols, data):
        nonzero = _elements(ring).filter(lambda x: x != ring.zero)
        columns = [data.draw(st.dictionaries(st.integers(0, rows - 1), nonzero, max_size=rows))
                   if rows else {} for _ in range(cols)]
        given_as = [col if data.draw(st.booleans()) else tuple(col.items()) for col in columns]
        sol = solve_linear(given_as, rows, ring)
        assert (sol.rows, sol.cols) == (rows, cols)
        for k in sol.kernel_basis:
            assert combine(((x, columns[j].items()) for j, x in k.items()), ring) == {}
        if ring.is_field:
            assert sol.rank + len(sol.kernel_basis) == cols
        assert spans_equal(sol.image_basis, columns, ring)
        outcomes.add(bool(sol.kernel_basis))

    check()
    assert outcomes == {True, False}
