"""`actions.germ_quotient` against the pipeline it replaced.

`germ_quotient` keys each (s, g) by (s eps, g), eps the least idempotent at
src s whose domain holds g, and builds the groupoid of germs from the first
label of each key. The oracle below is the previous pipeline, kept here only
for comparison: the whole semidirect product, an n x n germ relation whose
every cell runs over all actor arrows through the natural order, an n^3
transitivity walk, blocks collected by an `assigned` sweep, the rigid
congruence check and the canonical quotient. Vertex names, arrow names,
products in fill order and the class of every label must match it exactly.

`semidirect_product` meets only the label pairs (s, a), (t, b) with
src a = rng theta_t(b), through a keyed join; `oracle_semidirect_prod` is the
dense loop over every pair of labels, and the product tables must match it
cell for cell and in fill order.

The actions: chain semilattices acting by identities on random nested
domains, Z/2 acting on points by a random involution of a random domain, the
germ actions of the fixture files, E x| Gamma on k copies of the pair
groupoid P_m (Gamma permuting the copies, E the subsets of copies), and the
pair groupoid moving points, whose actor has several vertices. The natural
order is derived from the actor's table, so it cannot be corrupted to break
the relation's transitivity, as it once could be by hand.
"""

import itertools
import os

import pytest
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
from sectional.semigroupoids import (FiniteInverseSemigroupoid, validate_inverse_semigroupoid,
                                     validate_semigroupoid)
from sectional.workspace import Builder, parse_workspace

from structures import (built, chain_actions, chain_semilattice, identity_on, pair_moves,
                        unit_groupoid_raw, z2_actions)

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
    return validate_inverse_semigroupoid(validate_semigroupoid(raw), inv)


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
    space = validate_semigroupoid({
        "id": "G", "vertices": [f"{x}.{i}" for x in range(k) for i in range(m)],
        "arrows": [{"id": f"{x}.{i}{j}", "src": f"{x}.{j}", "rng": f"{x}.{i}"}
                   for x, i, j in cells],
        "prod": [[f"{x}.{i}{j}", f"{x}.{j}{l}", f"{x}.{i}{l}"]
                 for x, i, j in cells for l in range(m)],
    })
    maps = {name(u, c): {"dom": [f"{x}.{i}{j}" for x, i, j in cells if c[x] in u],
                         "img": [f"{c[x]}.{i}{j}" for x, i, j in cells if c[x] in u]}
            for u, c in arrows}
    return validate_preaction(maps, actor, space), len(gamma) * len(cells)


FIXED = [(theta, None) for theta in _fixture_actions()] + [
    e_rtimes_gamma(2, 2, [(0, 1), (1, 0)]),
    e_rtimes_gamma(3, 1, itertools.permutations(range(3))),
    (pair_moves("xy"), None),
]


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def _matches_the_oracle(theta):
    """germ_quotient against the pipeline it replaced; returns the quotient."""
    sp = semidirect_product(theta)
    witness, blocks = oracle_germ_relation(theta, sp)
    assert witness is None
    cong = validate_rigid_congruence([[sp.arrow_names[j] for j in b] for b in blocks], sp)
    expected, _projection = quotient_semigroupoid(cong)
    germ = germ_quotient(theta)
    got = germ.quotient
    assert (got.name, got.vertex_names, got.arrow_names, got.src, got.rng) == (
        expected.name, expected.vertex_names, expected.arrow_names, expected.src, expected.rng)
    assert [list(row.items()) for row in got.prod] == [list(row.items()) for row in expected.prod]
    assert germ.class_of == {label: cong.class_of[i] for i, label in enumerate(sp.labels)}
    return got


def test_germ_relation_matches_the_dense_oracle():
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        theta, quotient_arrows = data.draw(st.one_of(
            chain_actions().map(lambda t: (t, None)),
            z2_actions().map(lambda t: (t, None)),
            st.sampled_from(range(len(FIXED))).map(FIXED.__getitem__),
        ))
        quotient = _matches_the_oracle(theta)
        if quotient_arrows is not None:
            assert quotient.n_arrows == quotient_arrows

    check()


def test_the_order_is_derived_from_the_table():
    # C_3 fixing x: with e0 <= e2 dropped from the order, (e0,1x) ~ (e1,1x) ~
    # (e2,1x) through e0 and e1 while (e0,1x) and (e2,1x) shared no germ. The
    # order can no longer be handed in, and a replaced table re-derives it.
    actor = chain_semilattice(3)
    with pytest.raises(TypeError):
        FiniteInverseSemigroupoid(actor.base, actor.inv, leq=actor.leq - {(0, 2)})
    smaller = chain_semilattice(2)
    replaced = FiniteInverseSemigroupoid(smaller.base, smaller.inv)
    assert (replaced.leq, replaced.idempotents) == (smaller.leq, smaller.idempotents)
    theta = validate_preaction({f"e{i}": identity_on(["1x"]) for i in range(3)},
                               actor, built(unit_groupoid_raw(("x",))).base)
    assert _matches_the_oracle(theta).arrow_names == ("[(e0,1x)]",)


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
