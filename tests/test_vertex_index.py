"""The range-vertex index against the full scans it replaced.

`FiniteSemigroupoid.into[v]` lists the arrows with range v, and every walk
over composable pairs or triples goes through it. `validate_rigid_congruence`
tests two generator pairs per composable pair and walks the old
(x1, y1, x2, y2) order only to name a failure. The functions below are the
previous implementations, kept here only as the oracle: enumerations must
match them element for element and in order, and reports must match them
kind for kind and witness for witness. The axiom oracle scans the n x n
table the old code held, with -1 for "no product"; the object under test
holds only the declared products, inserted in a drawn order. The keyed
partner join `composable_labels` must yield what the scan over every label
pair yields once it keeps only the pairs whose key sets meet.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectional.actions import (
    RigidCongruence,
    semidirect_product,
    validate_preaction,
    validate_rigid_congruence,
)
from sectional.semigroupoids import (
    FiniteSemigroupoid,
    _idempotents,
    composable_labels,
    direct_product,
    validate_homomorphism,
    validate_inverse_semigroupoid,
    validate_semigroupoid,
)
from sectional.validation import StructureError, ValidationReport

from structures import (
    built,
    cyclic2_raw,
    klein_four_raw,
    one_vertex_tables,
    pair_groupoid_raw,
    parallel_arrows_raw,
    semilattice_raw,
    unit_groupoid_raw,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
UNDEF = -1   # no product, in the dense tables below


# ---------------------------------------------------------------------------
# The previous implementations
# ---------------------------------------------------------------------------

def oracle_composable(sgpd):
    return tuple(
        (a, b) for a in sgpd.arrows() for b in sgpd.arrows() if sgpd.src[a] == sgpd.rng[b]
    )


def oracle_triples(sgpd):
    for a, b in oracle_composable(sgpd):
        for c in range(sgpd.n_arrows):
            if sgpd.src[b] == sgpd.rng[c]:
                yield a, b, c


def dense(sgpd):
    """The n x n product table, UNDEF off the declared products."""
    return [[sgpd.prod[a].get(b, UNDEF) for b in sgpd.arrows()] for a in sgpd.arrows()]


def oracle_check_axioms(sgpd, report):
    names = sgpd.arrow_names
    prod = dense(sgpd)
    seen = set()

    def fail(kind, witness, message):
        if kind not in seen:
            seen.add(kind)
            report.add(kind, witness, message)

    for a in sgpd.arrows():
        for b in sgpd.arrows():
            c = prod[a][b]
            if sgpd.is_composable(a, b):
                if c == UNDEF:
                    fail("undefined-product", (names[a], names[b]),
                         f"({names[a]},{names[b]}) is composable but has no product")
                else:
                    if sgpd.src[c] != sgpd.src[b]:
                        fail("source-compatibility", (names[a], names[b]),
                             f"src({names[a]}{names[b]}) != src({names[b]})")
                    if sgpd.rng[c] != sgpd.rng[a]:
                        fail("range-compatibility", (names[a], names[b]),
                             f"rng({names[a]}{names[b]}) != rng({names[a]})")
            elif c != UNDEF:
                fail("product-on-noncomposable", (names[a], names[b]),
                     f"product declared on non-composable pair ({names[a]},{names[b]})")

    if seen:
        return
    for a, b, c in oracle_triples(sgpd):
        left = prod[prod[a][b]][c]
        right = prod[a][prod[b][c]]
        if left != right:
            fail("associativity", (names[a], names[b], names[c]),
                 f"({names[a]}{names[b]}){names[c]} != {names[a]}({names[b]}{names[c]})")
            return


def oracle_rigid_congruence(partition, base):
    report = ValidationReport("rigid congruence")
    names = base.arrow_names
    resolved = []
    seen = set()
    for block in partition:
        ids = []
        for x in block:
            if str(x) not in names:
                report.add("structural", (str(x),), f"unknown arrow {x!r}")
                return report
            xi = base.arrow_index(str(x))
            if xi in seen:
                report.add("structural", (names[xi],), f"arrow {names[xi]!r} appears twice")
                return report
            seen.add(xi)
            ids.append(xi)
        if ids:
            resolved.append(sorted(ids))
    if seen != set(base.arrows()):
        missing = sorted(set(base.arrows()) - seen)[0]
        report.add("structural", (names[missing],), f"partition misses arrow {names[missing]!r}")
        return report
    resolved.sort(key=lambda block: block[0])
    class_of = [0] * base.n_arrows
    for ci, block in enumerate(resolved):
        for x in block:
            class_of[x] = ci

    for block in resolved:
        rep = block[0]
        for x in block[1:]:
            if base.src[x] != base.src[rep] or base.rng[x] != base.rng[rep]:
                report.add("source-range-mismatch", (names[rep], names[x]),
                           "equivalent arrows must share source and range")
                break
    if not report.ok:
        return report

    for x1 in base.arrows():
        for y1 in resolved[class_of[x1]]:
            for x2 in base.arrows():
                if not base.is_composable(x1, x2):
                    continue
                for y2 in resolved[class_of[x2]]:
                    left = base.prod[x1][x2]
                    right = base.prod[y1][y2]
                    if class_of[left] != class_of[right]:
                        report.add("product-incompatibility",
                                   (names[x1], names[y1], names[x2], names[y2]),
                                   "x1x2 and y1y2 land in different classes")
                        return report
    return RigidCongruence(base, tuple(tuple(b) for b in resolved), tuple(class_of))


def order_by_characterizations(sgpd, inv, idems):
    """The relation s <= t computed four ways; returns the list of relations.

    Each characterization is an equation s = xy with a composable pair (x, y),
    so each is read off the composable pairs independently: (i) s = t(s*s),
    (ii) s = te, (iii) s = (ss*)t, (iv) s = ft, with e, f idempotent.
    """
    prod = sgpd.prod
    is_idem = [False] * sgpd.n_arrows
    for e in idems:
        is_idem[e] = True
    left_unit = [prod[inv[s]][s] for s in sgpd.arrows()]    # s*s, endo at src(s)
    right_unit = [prod[s][inv[s]] for s in sgpd.arrows()]   # ss*, endo at rng(s)
    rel_i, rel_ii, rel_iii, rel_iv = set(), set(), set(), set()
    for x, y in sgpd.composable:
        s = prod[x][y]
        if y == left_unit[s]:
            rel_i.add((s, x))
        if is_idem[y]:
            rel_ii.add((s, x))
        if x == right_unit[s]:
            rel_iii.add((s, y))
        if is_idem[x]:
            rel_iv.add((s, y))
    return [rel_i, rel_ii, rel_iii, rel_iv]


def oracle_order(sgpd, inv, idems):
    n = sgpd.n_arrows
    rel_i, rel_ii, rel_iii, rel_iv = set(), set(), set(), set()
    for s in range(n):
        for t in range(n):
            ss = sgpd.compose(inv[s], s)
            if ss is not None and sgpd.is_composable(t, ss) and sgpd.prod[t][ss] == s:
                rel_i.add((s, t))
            for e in idems:
                if sgpd.is_composable(t, e) and sgpd.prod[t][e] == s:
                    rel_ii.add((s, t))
                    break
            rr = sgpd.compose(s, inv[s])
            if rr is not None and sgpd.is_composable(rr, t) and sgpd.prod[rr][t] == s:
                rel_iii.add((s, t))
            for f in idems:
                if sgpd.is_composable(f, t) and sgpd.prod[f][t] == s:
                    rel_iv.add((s, t))
                    break
    return [rel_i, rel_ii, rel_iii, rel_iv]


def oracle_rigid(hom):
    source, target, mapping = hom.source, hom.target, hom.map
    return all(
        source.is_composable(a, b)
        for a in source.arrows() for b in source.arrows()
        if target.is_composable(mapping[a], mapping[b])
    )


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def chain(n):
    """The chain semilattice e_0..e_{n-1}, e_i e_j = e_min(i,j), on one vertex."""
    ids = [f"e{i}" for i in range(n)]
    raw = {
        "id": f"C{n}",
        "vertices": ["o"],
        "arrows": [{"id": a, "src": "o", "rng": "o"} for a in ids],
        "prod": [[ids[i], ids[j], ids[min(i, j)]] for i in range(n) for j in range(n)],
    }
    return validate_inverse_semigroupoid(validate_semigroupoid(raw),
                                         {a: a for a in ids})


def nested_chain_semidirect(n):
    """C_n acting on the unit groupoid of n points, e_i fixing points 0..i."""
    points = tuple(f"x{i}" for i in range(n))
    maps = {f"e{i}": {"dom": [f"1x{j}" for j in range(i + 1)],
                      "img": [f"1x{j}" for j in range(i + 1)]} for i in range(n)}
    theta = validate_preaction(maps, chain(n), built(unit_groupoid_raw(points)).base)
    return semidirect_product(theta)


def moves_semidirect(n):
    """P_n acting on the unit groupoid of its points, (i,j) moving 1j to 1i."""
    points = tuple(f"q{i}" for i in range(n))
    maps = {f"({i},{j})": {"dom": [f"1{j}"], "img": [f"1{i}"]} for i in points for j in points}
    space = built(unit_groupoid_raw(points)).base
    theta = validate_preaction(maps, built(pair_groupoid_raw(points)), space)
    return semidirect_product(theta)


def order_semigroupoid(n, below):
    """Arrows (i,j) for j <= i in the order generated by `below`, (i,j)(j,k) = (i,k)."""
    leq = {(i, i) for i in range(n)} | set(below)
    changed = True
    while changed:
        extra = {(i, k) for (i, j) in leq for (j2, k) in leq if j == j2} - leq
        leq |= extra
        changed = bool(extra)
    arrows = sorted(leq)
    name = {p: f"({p[0]},{p[1]})" for p in arrows}
    raw = {
        "id": f"O{n}",
        "vertices": [str(i) for i in range(n)],
        "arrows": [{"id": name[(i, j)], "src": str(j), "rng": str(i)} for i, j in arrows],
        "prod": [[name[(i, j)], name[(j, k)], name[(i, k)]]
                 for (i, j) in arrows for (j2, k) in arrows if j == j2],
    }
    return validate_semigroupoid(raw)


def one_vertex(name, elements, mul):
    raw = {
        "id": name,
        "vertices": ["*"],
        "arrows": [{"id": x, "src": "*", "rng": "*"} for x in elements],
        "prod": [[x, y, mul(x, y)] for x in elements for y in elements],
    }
    return validate_semigroupoid(raw)


# all maps of {0, 1} into itself, named by their images, composed as x after y
T2 = one_vertex("T2", ["01", "10", "00", "11"], lambda x, y: x[int(y[0])] + x[int(y[1])])
# the left-zero semigroup, xy = x
L3 = one_vertex("L3", ["l0", "l1", "l2"], lambda x, y: x)
P2, P3, P4 = (built(pair_groupoid_raw(tuple(str(i) for i in range(n)))) for n in (2, 3, 4))
C2, C3, C5 = chain(2), chain(3), chain(5)
VALID = [
    P2.base, P3.base, P4.base, C3.base, C5.base, built(parallel_arrows_raw()),
    direct_product(P2.base, C3.base), direct_product(C2.base, C3.base),
    direct_product(P3.base, P2.base), direct_product(P2.base, built(parallel_arrows_raw())),
    nested_chain_semidirect(4), moves_semidirect(3),
    order_semigroupoid(4, [(1, 0), (2, 0), (3, 1)]),
    order_semigroupoid(5, [(1, 0), (3, 2), (4, 3), (4, 1)]),
]


def rows(draw, table):
    """The object's rows for a dense table, each row's keys inserted in a drawn
    order, so a scan that followed dict order would name other witnesses."""
    out = tuple({} for _ in table)
    for a, row in enumerate(table):
        for b in draw(st.permutations(range(len(row)))):
            if row[b] != UNDEF:
                out[a][b] = row[b]
    return out


@st.composite
def random_graphs(draw):
    """Any directed graph with any product table, valid or not."""
    v = draw(st.integers(1, 4))
    n = draw(st.integers(0, 12))
    src = draw(st.lists(st.integers(0, v - 1), min_size=n, max_size=n))
    rng = draw(st.lists(st.integers(0, v - 1), min_size=n, max_size=n))
    prod = [draw(st.lists(st.integers(UNDEF, n - 1), min_size=n, max_size=n))
            for _ in range(n)]
    return FiniteSemigroupoid(
        tuple(f"v{i}" for i in range(v)), tuple(f"a{i}" for i in range(n)),
        tuple(src), tuple(rng), rows(draw, prod),
    )


@st.composite
def random_magmas(draw):
    """A random graph whose products each pick some arrow parallel to what
    composition needs (src of the right factor, rng of the left), so the
    structure mostly holds and associativity mostly fails, often many times."""
    v = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    src = draw(st.lists(st.integers(0, v - 1), min_size=n, max_size=n))
    rng = draw(st.lists(st.integers(0, v - 1), min_size=n, max_size=n))
    prod = [[UNDEF] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if src[a] == rng[b]:
                fits = [c for c in range(n) if src[c] == src[b] and rng[c] == rng[a]]
                prod[a][b] = draw(st.sampled_from(fits)) if fits else UNDEF
    return FiniteSemigroupoid(
        tuple(f"v{i}" for i in range(v)), tuple(f"a{i}" for i in range(n)),
        tuple(src), tuple(rng), rows(draw, prod),
    )


@st.composite
def random_orders(draw):
    n = draw(st.integers(1, 6))
    below = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] > p[1]), max_size=6))
    return order_semigroupoid(n, below)


@st.composite
def corrupted(draw):
    """A valid table with one to three cells overwritten: anywhere, or only by
    an arrow parallel to the product, which keeps the structure and so reaches
    the associativity walk."""
    sgpd = draw(st.one_of(st.sampled_from(VALID), random_orders()))
    n = sgpd.n_arrows
    prod = dense(sgpd)
    structural = draw(st.booleans())
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        how = draw(st.sampled_from(["any", "undefined"])) if structural else "parallel"
        if how == "any":
            prod[a][b] = draw(st.integers(UNDEF, n - 1))
        elif how == "undefined":
            prod[a][b] = UNDEF
        elif prod[a][b] != UNDEF:
            c = prod[a][b]
            parallel = [x for x in sgpd.arrows()
                        if sgpd.src[x] == sgpd.src[c] and sgpd.rng[x] == sgpd.rng[c]]
            prod[a][b] = draw(st.sampled_from(parallel))
    return FiniteSemigroupoid(sgpd.vertex_names, sgpd.arrow_names, sgpd.src, sgpd.rng,
                              rows(draw, prod), name=sgpd.name)


# ---------------------------------------------------------------------------
# The index
# ---------------------------------------------------------------------------

def test_into_lists_arrows_by_range_in_ascending_order():
    sgpd = direct_product(P3.base, C2.base)
    for v in range(sgpd.n_vertices):
        assert sgpd.into[v] == tuple(c for c in sgpd.arrows() if sgpd.rng[c] == v)


def test_enumerations_match_full_scans():
    @SETTINGS
    @given(sgpd=st.one_of(random_graphs(), random_magmas(), random_orders(),
                          st.sampled_from(VALID)))
    def check(sgpd):
        assert sgpd.composable == oracle_composable(sgpd)
        assert list(sgpd.composable_triples()) == list(oracle_triples(sgpd))

    check()


def test_keyed_join_matches_the_filtered_scan():
    """composable_labels with key sets on both sides yields the pairs of the
    scan over every label pair with rng t = src s whose key sets meet, each
    once and in ascending order; without keys, every such pair."""
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        sgpd = data.draw(st.one_of(random_graphs(), st.sampled_from(VALID)))
        labels = [(s, x) for s in sgpd.arrows() for x in range(data.draw(st.integers(0, 3)))]
        keys = st.frozensets(st.integers(0, 3), max_size=3)
        left = {label: data.draw(keys) for label in labels}
        right = {label: data.draw(keys) for label in labels}
        pairs = [(p, q) for p, (s, _) in enumerate(labels) for q, (t, _) in enumerate(labels)
                 if sgpd.rng[t] == sgpd.src[s]]
        assert list(composable_labels(sgpd, labels)) == pairs
        keyed = composable_labels(sgpd, labels, lambda s, x: left[s, x],
                                  lambda t, y: right[t, y])
        assert list(keyed) == [(p, q) for p, q in pairs if left[labels[p]] & right[labels[q]]]

    check()


def test_reports_match_old_axiom_check():
    outcomes = []

    @SETTINGS
    @given(sgpd=st.one_of(corrupted(), random_graphs(), random_magmas()))
    def check(sgpd):
        expected = ValidationReport(f"semigroupoid {sgpd.name or '<anonymous>'}")
        oracle_check_axioms(sgpd, expected)
        if expected.ok:
            assert validate_semigroupoid(sgpd) is sgpd
        else:
            with pytest.raises(StructureError) as refused:
                validate_semigroupoid(sgpd)
            assert refused.value.report.failures == expected.failures
        outcomes.extend(expected.kinds() or ["ok"])

    check()
    # every failure kind, the associativity walk and acceptance all ran
    assert {"ok", "associativity", "undefined-product", "product-on-noncomposable",
            "source-compatibility", "range-compatibility"} <= set(outcomes)


# ---------------------------------------------------------------------------
# Rigid congruences
# ---------------------------------------------------------------------------

CONGRUENCE_BASES = [
    P2.base, P3.base, C3.base, C5.base, chain(6).base,
    direct_product(P2.base, C3.base), direct_product(C2.base, C3.base),
    direct_product(P2.base, P2.base), nested_chain_semidirect(4), moves_semidirect(2),
    T2, L3, direct_product(L3, C2.base), direct_product(P2.base, T2),
    direct_product(T2, C2.base),
]


def congruence_closure(base, class_of):
    """The smallest congruence containing the partition; it still respects src/rng."""
    parent = list(class_of)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    changed = True
    while changed:
        changed = False
        for x1, x2 in base.composable:
            for y1 in base.arrows():
                if find(y1) != find(x1):
                    continue
                for y2 in base.arrows():
                    if find(y2) != find(x2):
                        continue
                    p, q = find(base.prod[x1][x2]), find(base.prod[y1][y2])
                    if p != q:
                        parent[max(p, q)] = min(p, q)
                        changed = True
    return [find(x) for x in base.arrows()]


@st.composite
def partitions(draw):
    """A random partition of the arrows inside each (src, rng) group, as names."""
    base = draw(st.sampled_from(CONGRUENCE_BASES))
    label = [0] * base.n_arrows
    groups = {}
    for x in base.arrows():
        groups.setdefault((base.src[x], base.rng[x]), []).append(x)
    for members in groups.values():
        tags = draw(st.lists(st.integers(0, len(members) - 1),
                             min_size=len(members), max_size=len(members)))
        first = {}
        for x, tag in zip(members, tags):
            label[x] = first.setdefault(tag, x)
    if draw(st.booleans()):
        label = congruence_closure(base, label)
    blocks = {}
    for x in base.arrows():
        blocks.setdefault(label[x], []).append(base.arrow_names[x])
    blocks = list(blocks.values())
    blocks = draw(st.permutations(blocks))
    return base, [draw(st.permutations(block)) for block in blocks]


def test_congruence_verdict_and_witness_match_oracle():
    verdicts = []

    @SETTINGS
    @given(case=partitions())
    def check(case):
        base, partition = case
        expected = oracle_rigid_congruence(partition, base)
        if isinstance(expected, ValidationReport):
            with pytest.raises(StructureError) as refused:
                validate_rigid_congruence(partition, base)
            assert refused.value.report.failures == expected.failures
        else:
            result = validate_rigid_congruence(partition, base)
            assert (result.classes, result.class_of) == (expected.classes, expected.class_of)
        verdicts.append(isinstance(expected, RigidCongruence))

    check()
    # both branches ran, the witness walk included
    assert False in verdicts and True in verdicts


# ---------------------------------------------------------------------------
# The other scans moved onto the index
# ---------------------------------------------------------------------------

INVERSE = [P2, P3, C3, C5, *map(built, (cyclic2_raw(), klein_four_raw(), semilattice_raw(),
                                         unit_groupoid_raw()))]


def test_order_characterizations_match_old_scan():
    for inv in INVERSE:
        sgpd = inv.base
        idems = _idempotents(sgpd)
        assert order_by_characterizations(sgpd, inv.inv, idems) == \
            oracle_order(sgpd, inv.inv, idems)


def _accepted_small_tables():
    """Every inverse semigroupoid the validator accepts among the associative
    tables on 1-3 arrows at one vertex, with every inverse assignment."""
    for n in (1, 2, 3):
        for raw in one_vertex_tables(n):
            sgpd = validate_semigroupoid(raw)
            for inv in itertools.product(sgpd.arrow_names, repeat=n):
                try:
                    yield validate_inverse_semigroupoid(sgpd, dict(zip(sgpd.arrow_names, inv)))
                except StructureError:
                    pass


def test_derived_order_is_each_characterization():
    """The validator derives leq once, as s = t(s*s); each of the four
    characterizations gives the same relation on every accepted input."""
    small = list(_accepted_small_tables())
    assert len(small) == 29
    for inv in INVERSE + small:
        relations = order_by_characterizations(inv.base, inv.inv, inv.idempotents)
        assert all(rel == inv.leq for rel in relations)


def test_rigidity_matches_old_scan():
    # the identity, maps onto one-arrow and two-arrow targets, a parity grading
    # and the projections of direct products
    trivial = validate_semigroupoid({
        "vertices": ["*"], "arrows": [{"id": "1", "src": "*", "rng": "*"}],
        "prod": [["1", "1", "1"]]})
    cases = []
    for inv in INVERSE:
        sgpd = inv.base
        cases.append(validate_homomorphism(list(sgpd.arrows()), sgpd, sgpd))
        cases.append(validate_homomorphism([0] * sgpd.n_arrows, sgpd, trivial))
    z2 = built(cyclic2_raw()).base
    color = [0, 1, 1, 0]
    p4 = P4.base
    parity = [1 if color[int(p4.vertex_names[p4.src[x]])] != color[int(p4.vertex_names[p4.rng[x]])]
              else 0 for x in p4.arrows()]
    cases.append(validate_homomorphism(parity, p4, z2))
    for left, right in ((P2.base, C3.base), (C2.base, P3.base), (P2.base, P2.base)):
        prod = direct_product(left, right)
        nr = right.n_arrows
        cases.append(validate_homomorphism([x // nr for x in prod.arrows()], prod, left))
        cases.append(validate_homomorphism([x % nr for x in prod.arrows()], prod, right))
    rigid = [hom.rigid for hom in cases]
    assert rigid == [oracle_rigid(hom) for hom in cases]
    assert True in rigid and False in rigid
