"""The germ relation of `actions.germ_quotient` against the loops it replaced.

`germ_quotient` gives each semidirect arrow (s, g) its germ set, the u <= s
with g in dom theta_u, relates the arrows over one g whose germ sets meet,
and decides transitivity row by row. The oracle below is the previous
implementation, kept here only for comparison: an n x n table whose every
cell runs over all actor arrows, an n^3 transitivity walk, and blocks
collected by an `assigned` sweep. Verdict, witness, quotient arrow names and
class_of must match it exactly.

`semidirect_product` meets only the label pairs (s, a), (t, b) with
src a = rng theta_t(b), through a keyed join; `oracle_semidirect_prod` is the
dense loop over every pair of labels, and the product tables must match it
cell for cell and in fill order.

The actions: chain semilattices acting by identities on random nested
domains, Z/2 acting on points by a random involution of a random domain, the
germ actions of the fixture files, and E x| Gamma on k copies of the pair
groupoid P_m (Gamma permuting the copies, E the subsets of copies). A
validated natural order always makes the relation an equivalence, so the
actor's order is at times corrupted with `dataclasses.replace`, dropping
order pairs: a strict pair u < s can break transitivity, and a reflexive one
can leave an arrow with an empty germ set, in no class.
"""

import dataclasses
import itertools
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from sectional.actions import (
    _twisted,
    germ_quotient,
    quotient_semigroupoid,
    semidirect_product,
    validate_preaction,
    validate_rigid_congruence,
)
from sectional.rings import RationalRing
from sectional.semigroupoids import validate_inverse_semigroupoid, validate_semigroupoid
from sectional.validation import ValidationReport, must
from sectional.workspace import Builder, parse_workspace

from structures import built, cyclic2_raw, pair_groupoid_raw, unit_groupoid_raw

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


# ---------------------------------------------------------------------------
# The dense reference loops
# ---------------------------------------------------------------------------

def oracle_germ_relation(theta, sp):
    """(witness, blocks): the first (i, j, k) with i ~ j ~ k but not i ~ k as
    arrow names, or None and the blocks as lists of arrow indices."""
    actor = theta.actor
    pairs = sp.labels
    n = len(pairs)

    def related(i, j):
        s1, g1 = pairs[i]
        s2, g2 = pairs[j]
        if g1 != g2:
            return False
        return any(
            (u, s1) in actor.leq and (u, s2) in actor.leq and g1 in theta.maps[u]
            for u in actor.base.arrows()
        )

    rel = [[related(i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if not rel[i][j]:
                continue
            for k in range(n):
                if rel[j][k] and not rel[i][k]:
                    names = sp.arrow_names
                    return (names[i], names[j], names[k]), None

    blocks = []
    assigned = [False] * n
    for i in range(n):
        if assigned[i]:
            continue
        block = [j for j in range(n) if rel[i][j]]
        for j in block:
            assigned[j] = True
        blocks.append(block)
    return None, blocks


def oracle_semidirect_prod(theta):
    """(labels, prod): every pair of labels (s, a), (t, b) visited, and the
    product (st, theta_{t*}(a theta_t(b))) kept where (s, t) is composable
    and src a = rng theta_t(b)."""
    actor, space = theta.actor.base, theta.space
    labels = [(s, a) for s in actor.arrows() for a in theta.dom(s)]
    position = {label: i for i, label in enumerate(labels)}
    prod = [{} for _ in labels]
    for i, (s, a) in enumerate(labels):
        for j, (t, b) in enumerate(labels):
            if actor.is_composable(s, t) and space.rng[theta.apply(t, b)] == space.src[a]:
                prod[i][j] = position[(actor.prod[s][t], _twisted(theta, t, a, b))]
    return labels, prod


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

def _inverse(raw, inv):
    return must(validate_inverse_semigroupoid(must(validate_semigroupoid(raw)), inv))


def chain(n):
    """The chain semilattice e0 < ... < e{n-1}, ei ej = e{min(i,j)}."""
    ids = [f"e{i}" for i in range(n)]
    raw = {
        "id": f"C{n}",
        "vertices": ["*"],
        "arrows": [{"id": a, "src": "*", "rng": "*"} for a in ids],
        "prod": [[ids[i], ids[j], ids[min(i, j)]] for i in range(n) for j in range(n)],
    }
    return _inverse(raw, {a: a for a in ids})


def _identity_on(arrows):
    arrows = list(arrows)
    return {"dom": arrows, "img": arrows}


@st.composite
def chain_actions(draw):
    """C_n acting by identities; point p lies in dom theta_ei for i >= entry[p]."""
    n = draw(st.integers(1, 4))
    points = "xyz"[:draw(st.integers(1, 3))]
    entry = {p: draw(st.integers(0, n)) for p in points}
    maps = {f"e{i}": _identity_on(f"1{p}" for p in points if entry[p] <= i)
            for i in range(n)}
    return must(validate_preaction(maps, chain(n), built(unit_groupoid_raw(points)).base))


@st.composite
def z2_actions(draw):
    """Z/2 = {u, g} on points: u the identity and g an involution of one domain."""
    points = "wxyz"[:draw(st.integers(1, 4))]
    dom = [p for p in points if draw(st.booleans())]
    order = draw(st.permutations(dom))
    image = {p: p for p in dom}
    for p, q in zip(order[::2], order[1::2]):
        if draw(st.booleans()):
            image[p], image[q] = q, p
    maps = {"u": _identity_on(f"1{p}" for p in dom),
            "g": {"dom": [f"1{p}" for p in dom], "img": [f"1{image[p]}" for p in dom]}}
    space = built(unit_groupoid_raw(points)).base
    return must(validate_preaction(maps, built(cyclic2_raw()), space))


def _fixture_actions():
    out = []
    for path, name in (("fixtures/germ.json", "theta"),
                       ("tests/data/builds.json", "chain"),
                       ("tests/data/builds.json", "pairs")):
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            out.append(Builder(parse_workspace(fh.read()), RationalRing()).action(name))
    return out


def e_rtimes_gamma(k, m, gamma):
    """E x| Gamma acting on k disjoint copies of P_m; returns (theta, |Gamma|.|G|).

    Gamma is a group of permutations of the copies 0..k-1, and E the subsets
    U of copies. (U, c)(V, d) = (U n cV, cd) and (U, c)* = (c^-1 U, c^-1);
    theta_(U,c) moves the copies c^-1(U) onto U, arrow (x, i, j) of copy x
    going to (c(x), i, j).
    """
    gamma = [tuple(c) for c in gamma]
    subsets = [frozenset(u) for r in range(k + 1) for u in itertools.combinations(range(k), r)]

    def compose(c, d):
        return tuple(c[d[x]] for x in range(k))

    def invert(c):
        return tuple(c.index(x) for x in range(k))

    def push(c, u):
        return frozenset(c[x] for x in u)

    def name(u, c):
        return f"({''.join(map(str, sorted(u)))}|{''.join(map(str, c))})"

    arrows = [(u, c) for u in subsets for c in gamma]
    actor = _inverse(
        {"id": "EG", "vertices": ["*"],
         "arrows": [{"id": name(u, c), "src": "*", "rng": "*"} for u, c in arrows],
         "prod": [[name(u, c), name(v, d), name(u & push(c, v), compose(c, d))]
                  for u, c in arrows for v, d in arrows]},
        {name(u, c): name(push(invert(c), u), invert(c)) for u, c in arrows},
    )
    cells = [(x, i, j) for x in range(k) for i in range(m) for j in range(m)]
    space = must(validate_semigroupoid({
        "id": "G", "vertices": [f"{x}.{i}" for x in range(k) for i in range(m)],
        "arrows": [{"id": f"{x}.{i}{j}", "src": f"{x}.{j}", "rng": f"{x}.{i}"}
                   for x, i, j in cells],
        "prod": [[f"{x}.{i}{j}", f"{x}.{j}{l}", f"{x}.{i}{l}"]
                 for x, i, j in cells for l in range(m)],
    }))
    maps = {name(u, c): {"dom": [f"{x}.{i}{j}" for x, i, j in cells if c[x] in u],
                         "img": [f"{c[x]}.{i}{j}" for x, i, j in cells if c[x] in u]}
            for u, c in arrows}
    return must(validate_preaction(maps, actor, space)), len(gamma) * len(cells)


def pair_moves(points):
    """The pair groupoid on points moving the unit arrow 1j to 1i: an actor
    with several vertices, so src and rng of the actor arrows differ."""
    moves = {f"({i},{j})": {"dom": [f"1{j}"], "img": [f"1{i}"]} for i in points for j in points}
    space = built(unit_groupoid_raw(points)).base
    return must(validate_preaction(moves, built(pair_groupoid_raw(points)), space))


FIXED = [(theta, None) for theta in _fixture_actions()] + [
    e_rtimes_gamma(2, 2, [(0, 1), (1, 0)]),
    e_rtimes_gamma(3, 1, itertools.permutations(range(3))),
    (pair_moves("xy"), None),
]


def drop_order_pairs(theta, dropped):
    """theta with the pairs in `dropped` removed from its actor's order."""
    actor = dataclasses.replace(theta.actor, leq=theta.actor.leq - frozenset(dropped))
    return dataclasses.replace(theta, actor=actor)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def _verdict(theta):
    """Compare germ_quotient with the oracle; return the verdict kind or None."""
    sp = semidirect_product(theta)
    names = sp.arrow_names
    result = germ_quotient(theta)
    witness, blocks = oracle_germ_relation(theta, sp)
    if witness is not None:
        assert isinstance(result, ValidationReport)
        assert [(f.kind, f.witness) for f in result.failures] == [("germ-transitivity", witness)]
        return "germ-transitivity"
    expected = validate_rigid_congruence([[names[j] for j in b] for b in blocks], sp)
    if isinstance(expected, ValidationReport):
        assert isinstance(result, ValidationReport)
        assert result.failures == expected.failures
        return expected.first().kind
    quotient, _projection = quotient_semigroupoid(expected)
    assert result.quotient.arrow_names == quotient.arrow_names
    assert result.congruence.class_of == expected.class_of
    return None


def test_germ_relation_matches_the_dense_oracle():
    verdicts = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        theta, quotient_arrows = data.draw(st.one_of(
            chain_actions().map(lambda t: (t, None)),
            z2_actions().map(lambda t: (t, None)),
            st.sampled_from(range(len(FIXED))).map(FIXED.__getitem__),
        ))
        corrupt = data.draw(st.booleans())
        if corrupt:
            theta = drop_order_pairs(theta, data.draw(
                st.sets(st.sampled_from(sorted(theta.actor.leq)), min_size=1, max_size=3)))
        verdicts.append(_verdict(theta))
        if quotient_arrows is not None and not corrupt:
            assert germ_quotient(theta).quotient.n_arrows == quotient_arrows

    check()
    assert {None, "germ-transitivity"} <= set(verdicts)


def test_dropped_order_pair_breaks_transitivity():
    # C_3 fixing x: without e0 <= e2, (e0,1x) ~ (e1,1x) ~ (e2,1x) through e0
    # and e1, but (e0,1x) and (e2,1x) share no germ
    theta = must(validate_preaction({f"e{i}": _identity_on(["1x"]) for i in range(3)},
                                    chain(3), built(unit_groupoid_raw(("x",))).base))
    broken = drop_order_pairs(theta, [(0, 2)])
    assert _verdict(broken) == "germ-transitivity"
    assert germ_quotient(broken).first().witness == ("(e0,1x)", "(e1,1x)", "(e2,1x)")


def test_semidirect_table_matches_the_dense_loop():
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        theta, _ = data.draw(st.one_of(
            chain_actions().map(lambda t: (t, None)),
            z2_actions().map(lambda t: (t, None)),
            st.sampled_from(range(len(FIXED))).map(FIXED.__getitem__),
        ))
        sp = semidirect_product(theta)
        labels, prod = oracle_semidirect_prod(theta)
        assert sp.labels == tuple(labels)
        assert [list(row.items()) for row in sp.prod] == [list(row.items()) for row in prod]

    check()
