"""Twisted associativity of actions against the ordered loops it replaced.

Both checks (`actions._associativity` on the semigroupoid, and
`bundles.algebra_action_associativity` on the algebra) now test each
(t, a, b, c) of the projection of the (s, t, u, a, b, c) enumeration once,
and name the witness by walking the old order only when something failed.
The loops below are the previous implementations, kept here only as the
oracle: verdict and witness must match them exactly.

Semigroupoid level: random partial injections on validated actors and
spaces, built as `LandPreaction`s directly so that the preaction axioms do
not filter out the failing cases, and one fixed failing input, so that the
witness walk runs without a generated example. Algebra level: valid
preactions lifted to the semigroupoid algebra, with each image a random unit
multiple of the honest one plus, at times, one more basis vector of the same
range, and one corrupted matrix entry.

The ideal and isomorphism steps (i) and (ii) of `validate_preaction` walk,
for each x, only the y that can meet a product with x (or whose image can
meet one with x's image). `oracle_ideal_and_isomorphism` keeps the loops over
every y; on random partial injections that satisfy (iii), so that (i) and
(ii) run, the validator's failures must be the oracle's, in order.

The algebra-level loops (this check, and the ideal and multiplicativity
loops of `validate_algebra_action`) walk only the tuples the algebra's
support index leaves. So honest lifts over Q, Z/6 and a non-commutative
table ring also get one corrupted structure constant; the validator must
then give the dense loops' first failure, and an action it accepts the
oracle's associativity witness.

`algebra_action_associativity` now meets, for each (t, b), only the a before
the support of Theta_t(b) or of some Theta_t(bc). `projection_algebra_associativity`
keeps the walk it replaced, every a of the projection for every b. Random
unvalidated actions on random sparse algebras over Q and Z/6 must give the
verdict and witness of both loops, and their first failures must include a
tuple where only a Theta_t(b) is nonzero, one where only some a Theta_t(bc)
is, and passes.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectional.actions import (
    LandPreaction,
    _associativity,
    _twisted,
    first_twisted_triple,
    twisted_partners,
    validate_preaction,
)
from sectional.algebras import AlgebraPresentation
from sectional.bundles import (
    AlgebraAction,
    algebra_action_associativity,
    semigroupoid_algebra,
)
from sectional.rings import RationalRing, ZModRing, sparse_row, validate_ring
from sectional.semigroupoids import validate_inverse_semigroupoid, validate_semigroupoid
from sectional.validation import StructureError

from structures import (
    built,
    cyclic2_raw,
    pair_groupoid_raw,
    refusal,
    semilattice_on_points_action,
    semilattice_raw,
    unit_groupoid_raw,
    upper_triangular_f2_ring_spec,
    validate_algebra_action,
)


def oracle_associativity(theta):
    """The ordered loop over (s, t, u, a, b, c) as it stood before."""
    base = theta.actor.base
    space = theta.space
    for s, t in base.composable:
        st_ = base.prod[s][t]
        for u in base.arrows():
            if not base.is_composable(st_, u):
                continue
            for a in theta.dom(s):
                for b in theta.dom(t):
                    for c in theta.ran(u):
                        inner = _twisted(theta, t, a, b)
                        left = None if inner is None else space.compose(inner, c)
                        bc = space.compose(b, c)
                        right = None if bc is None else _twisted(theta, t, a, bc)
                        if left != right:
                            return False, (
                                base.arrow_names[s], base.arrow_names[t],
                                base.arrow_names[u], space.arrow_names[a],
                                space.arrow_names[b], space.arrow_names[c],
                            )
    return True, ()


def oracle_algebra_associativity(action):
    """The ordered algebra-level loop as it stood before."""
    base = action.actor.base
    inv = action.actor.inv
    alg = action.algebra
    one = alg.ring.one
    for s, t in base.composable:
        st_ = base.prod[s][t]
        for u in base.arrows():
            if not base.is_composable(st_, u):
                continue
            ran_u = action.domains[inv[u]]
            for a in action.domains[s]:
                va = ((a, one),)
                for b in action.domains[t]:
                    tb = action.rows[t][b]
                    inner = action.apply_rows(inv[t], alg.mul(va, tb).items())
                    for c in ran_u:
                        left = alg.mul(inner.items(), ((c, one),))
                        bc = alg.table.get((b, c), ())
                        t_bc = action.apply_rows(t, bc).items()
                        right = action.apply_rows(inv[t], alg.mul(va, t_bc).items())
                        if left != right:
                            return (
                                base.arrow_names[s], base.arrow_names[t],
                                base.arrow_names[u], alg.basis[a], alg.basis[b],
                                alg.basis[c],
                            )
    return None


def oracle_ideal_and_multiplicative(action):
    """The ideal and multiplicativity loops of validate_algebra_action as
    they stood before: every basis index j, every domain pair. Returns the
    first (kind, witness) or None."""
    base = action.actor.base
    alg = action.algebra
    names, rows, doms = base.arrow_names, action.rows, action.domains

    def in_span(row, span):
        return all(k in span for k, _ in row)

    def big_ideal(v):
        return {i for s in base.arrows() if base.src[s] == v for i in doms[s]}

    for v in range(base.n_vertices):
        big = big_ideal(v)
        for i in sorted(big):
            for j in range(alg.rank):
                for (p, q) in ((i, j), (j, i)):
                    if not in_span(alg.table.get((p, q), ()), big):
                        return "ideal-property", (base.vertex_names[v], alg.basis[p],
                                                  alg.basis[q])
    for s in base.arrows():
        ambient = sorted(big_ideal(base.src[s]))
        for i in doms[s]:
            for j in ambient:
                for (p, q) in ((i, j), (j, i)):
                    if not in_span(alg.table.get((p, q), ()), rows[s]):
                        return "ideal-property", (names[s], alg.basis[p], alg.basis[q])
    for s in base.arrows():
        for i in doms[s]:
            for j in doms[s]:
                lhs = action.apply_rows(s, alg.table.get((i, j), ()))
                if lhs != alg.mul(rows[s][i], rows[s][j]):
                    return "isomorphism", (names[s], alg.basis[i], alg.basis[j])
    return None


def oracle_ideal_and_isomorphism(actor, space, maps):
    """Steps (i) and (ii) of validate_preaction as they stood before, every y
    walked; returns the step that failed and its (kind, witness, message)s,
    or (None, []) when both pass."""
    base, names, anames = actor.base, actor.base.arrow_names, space.arrow_names

    def is_ideal(subset, ambient):
        for x in sorted(subset):
            for y in sorted(ambient):
                for p, q in ((x, y), (y, x)):
                    c = space.compose(p, q)
                    if c is not None and c not in subset:
                        return (anames[p], anames[q])
        return None

    def big(v):
        return {a for s in base.arrows() if base.src[s] == v for a in maps[s]}

    failures = []
    for v in range(base.n_vertices):
        w = is_ideal(big(v), set(space.arrows()))
        if w is not None:
            failures.append(("ideal-property", (base.vertex_names[v],) + w,
                             f"I(theta,{base.vertex_names[v]}) is not an ideal of the space"))
    if failures:
        return "i", failures
    for s in base.arrows():
        f = maps[s]
        w = is_ideal(set(f), big(base.src[s]))
        if w is not None:
            failures.append(("ideal-property", (names[s],) + w,
                             f"dom(theta_{names[s]}) is not an ideal of I(theta,src)"))
            continue
        w = is_ideal(set(f.values()), big(base.rng[s]))
        if w is not None:
            failures.append(("ideal-property", (names[s],) + w,
                             f"ran(theta_{names[s]}) is not an ideal of I(theta,rng)"))
            continue
        for x, y in itertools.product(sorted(f), repeat=2):
            xy, fxy = space.compose(x, y), space.compose(f[x], f[y])
            if (xy is None) != (fxy is None):
                failures.append(("isomorphism", (names[s], anames[x], anames[y]),
                                 f"theta_{names[s]} does not preserve composability"))
                break
            if xy is not None and f.get(xy) != fxy:
                failures.append(("isomorphism", (names[s], anames[x], anames[y]),
                                 f"theta_{names[s]}(xy) != theta_{names[s]}(x)theta_{names[s]}(y)"))
                break
    return ("ii" if failures else None), failures


def unit_vector(k, i, ring):
    return tuple(ring.one if j == i else ring.zero for j in range(k))


def chain(n):
    """The chain semilattice {0..n-1}, i * j = min(i, j), on one vertex."""
    ids = [str(i) for i in range(n)]
    raw = {
        "id": f"C{n}",
        "vertices": ["*"],
        "arrows": [{"id": i, "src": "*", "rng": "*"} for i in ids],
        "prod": [[i, j, str(min(int(i), int(j)))] for i in ids for j in ids],
    }
    return validate_inverse_semigroupoid(validate_semigroupoid(raw),
                                         {i: i for i in ids})


ACTORS = [*map(built, (semilattice_raw(), cyclic2_raw(), pair_groupoid_raw(),
                       pair_groupoid_raw(("1", "2", "3")), unit_groupoid_raw())), chain(3)]
SPACES = [built(raw).base for raw in (unit_groupoid_raw(), unit_groupoid_raw(("x", "y", "z")),
                                      pair_groupoid_raw(), cyclic2_raw())]


@st.composite
def partial_injections(draw, actor, space):
    """One partial injection of the space's arrows per actor arrow."""
    n = space.n_arrows
    maps = []
    for _s in actor.base.arrows():
        dom = [g for g in range(n) if draw(st.booleans())]
        img = dom if draw(st.booleans()) else draw(st.permutations(range(n)))[:len(dom)]
        maps.append(dict(zip(dom, img)))
    return LandPreaction(actor, space, tuple(maps))


def relation_space(name, related):
    """The semigroupoid of a transitive relation: an arrow ij from j to i for
    each related pair (i, j), and ij jk = ik."""
    arrows = sorted(related)
    return validate_semigroupoid({
        "id": name, "vertices": sorted({v for pair in arrows for v in pair}),
        "arrows": [{"id": i + j, "src": j, "rng": i} for i, j in arrows],
        "prod": [[i + j, j + k, i + k] for i, j in arrows for j2, k in arrows if j == j2],
    })


# a chain category u < v < w, whose ideals are not unions of components, and
# pair groupoids on blocks of 2, 1, 1, 2 and 3 points: block {5, 6} has arrow
# ids 6 to 9, so a set of them is not always iterated in ascending order
IDEAL_SPACES = SPACES + [
    relation_space("A3", {(i, j) for i in "uvw" for j in "uvw" if j <= i}),
    relation_space("blocks", {(i, j) for block in ("12", "3", "4", "56", "789")
                              for i in block for j in block}),
]


@st.composite
def inverse_closed_injections(draw, actor, space):
    """Partial injections with theta_{s*} = theta_s^-1, axiom (iii): a
    self-inverse arrow acts by an involution of its domain. A domain is any
    set of arrows or, so that (i) and (ii) can pass, a union of connected
    components with at times one arrow toggled; an image is the domain, a
    permutation of it, or any arrows."""
    component = {v: frozenset([v]) for v in range(space.n_vertices)}
    for g in space.arrows():                # merge the classes of src g and rng g
        merged = component[space.src[g]] | component[space.rng[g]]
        component.update(dict.fromkeys(merged, merged))
    classes = sorted(set(component.values()), key=min)
    maps = [None] * actor.base.n_arrows
    for s in actor.base.arrows():
        if maps[s] is not None:
            continue
        if draw(st.booleans()):
            dom = [g for g in space.arrows() if draw(st.booleans())]
        else:
            chosen = {c for c in classes if draw(st.booleans())}
            dom = {g for g in space.arrows() if component[space.src[g]] in chosen}
            if draw(st.booleans()):
                dom ^= {draw(st.sampled_from(space.arrows()))}
            dom = sorted(dom)
        if actor.inv[s] == s:
            order = draw(st.permutations(dom))
            swaps = [(p, q) for p, q in zip(order[::2], order[1::2]) if draw(st.booleans())]
            maps[s] = {g: g for g in dom} | {p: q for p, q in swaps} | {q: p for p, q in swaps}
        else:
            img = draw(st.sampled_from([dom, draw(st.permutations(dom)),
                                        draw(st.permutations(space.arrows()))[:len(dom)]]))
            maps[s] = dict(zip(dom, img))
            maps[actor.inv[s]] = dict(zip(img, dom))
    return maps


def test_ideal_and_isomorphism_witnesses_match_oracle():
    verdicts = set()

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        actor = data.draw(st.sampled_from(ACTORS))
        space = data.draw(st.sampled_from(IDEAL_SPACES))
        maps = data.draw(inverse_closed_injections(actor, space))
        raw = {actor.base.arrow_names[s]: {"dom": [space.arrow_names[g] for g in m],
                                          "img": [space.arrow_names[g] for g in m.values()]}
               for s, m in enumerate(maps)}
        report = refusal(validate_preaction, raw, actor, space)
        stage, expected = oracle_ideal_and_isomorphism(actor, space, maps)
        got = [] if report is None else [
            (f.kind, f.witness, f.message) for f in report.failures
            if f.kind in ("ideal-property", "isomorphism")]
        assert got == expected
        verdicts.add((stage, expected[0][0] if expected else None))

    check()
    assert verdicts == {("i", "ideal-property"), ("ii", "ideal-property"),
                        ("ii", "isomorphism"), (None, None)}


def test_semigroupoid_witness_matches_oracle():
    verdicts = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        actor = data.draw(st.sampled_from(ACTORS))
        space = data.draw(st.sampled_from(SPACES))
        theta = data.draw(partial_injections(actor, space))
        expected = oracle_associativity(theta)
        assert _associativity(theta) == expected
        verdicts.append(expected[0])

    check()
    # both branches ran, the witness walk included
    assert False in verdicts and True in verdicts


def test_fixed_failing_injections_give_the_oracles_witness():
    """A failing input that needs no generated example: P_2 on its own arrows
    by the partial injections below, taken from a failing derandomized draw
    of the test above. _associativity's failing branch runs, both undefined
    steps of _twisted are met, and first_twisted_triple's walk passes a u
    whose range is not src(st) before it names the oracle's witness."""
    actor = built(pair_groupoid_raw())
    space = actor.base
    maps = {"(1,1)": {"(1,1)": "(1,1)", "(1,2)": "(1,2)", "(2,2)": "(2,2)"},
            "(1,2)": {"(1,1)": "(1,1)"}, "(2,1)": {"(1,1)": "(1,2)", "(2,2)": "(2,1)"},
            "(2,2)": {"(1,2)": "(1,1)", "(2,2)": "(2,2)"}}
    at = space.arrow_index
    theta = LandPreaction(actor, space, tuple(
        {at(g): at(h) for g, h in maps[name].items()} for name in actor.base.arrow_names))
    expected = (False, ("(1,1)", "(1,2)", "(2,1)", "(1,1)", "(1,1)", "(2,1)"))
    assert oracle_associativity(theta) == expected
    assert _associativity(theta) == expected


def _valid_actions():
    """Preactions that pass every axiom, on one- and two-vertex actors."""
    x, y, z = "1x", "1y", "1z"
    swap = {"u": {"dom": [x, y], "img": [x, y]}, "g": {"dom": [x, y], "img": [y, x]}}
    nested = {"0": {"dom": [x], "img": [x]}, "1": {"dom": [x, y], "img": [x, y]},
              "2": {"dom": [x, y, z], "img": [x, y, z]}}
    moves = {f"({i},{j})": {"dom": [f"1{j}"], "img": [f"1{i}"]} for i in "xy" for j in "xy"}
    return [
        validate_preaction(semilattice_on_points_action(), built(semilattice_raw()),
                           built(unit_groupoid_raw()).base),
        validate_preaction(swap, built(cyclic2_raw()), built(unit_groupoid_raw()).base),
        validate_preaction(nested, chain(3), built(unit_groupoid_raw(("x", "y", "z"))).base),
        validate_preaction(moves, built(pair_groupoid_raw(("x", "y"))),
                           built(unit_groupoid_raw()).base),
    ]


VALID = _valid_actions()


def lifted(theta, ring, image=None):
    """Theta on the semigroupoid algebra; e_g goes to image(s, g), by default
    e_{theta_s(g)}, the honest induced action."""
    algebra = semigroupoid_algebra(ring, theta.space)
    assert algebra.basis == theta.space.arrow_names      # basis index = space arrow
    if image is None:
        def image(s, g):
            return unit_vector(algebra.rank, theta.maps[s][g], ring)
    domains = tuple(theta.dom(s) for s in theta.actor.base.arrows())
    rows = tuple({g: sparse_row(image(s, g), ring) for g in theta.maps[s]}
                 for s in theta.actor.base.arrows())
    return AlgebraAction(theta.actor, algebra, domains, rows)


RINGS = [RationalRing(), ZModRing(5)]


def test_algebra_witness_matches_oracle():
    """Each image is u e_{theta_s(g)} + v e_h for a unit u, v in {0, 1} and h in
    ran(theta_s): the images stay inside dom(theta_{s*}), as validation
    guarantees, but v = 1 breaks multiplicativity and so, often, associativity."""
    verdicts = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        theta = data.draw(st.sampled_from(VALID))
        ring = data.draw(st.sampled_from(RINGS))
        rank = theta.space.n_arrows

        def image(s, g):
            u = data.draw(st.sampled_from([ring.one, ring.coerce(2), ring.coerce(-1)]))
            v = data.draw(st.sampled_from([ring.zero, ring.zero, ring.one]))
            h = data.draw(st.sampled_from(theta.ran(s)))
            out = list(ring.mul(u, x) for x in unit_vector(rank, theta.maps[s][g], ring))
            out[h] = ring.add(out[h], v)
            return tuple(out)

        action = lifted(theta, ring, image)
        expected = oracle_algebra_associativity(action)
        assert algebra_action_associativity(action) == expected
        verdicts.append(expected is None)

    check()
    assert False in verdicts and True in verdicts


def test_valid_lifted_actions_are_associative():
    for theta in VALID:
        assert theta.is_associative
        action = lifted(theta, RationalRing())
        assert algebra_action_associativity(action) is None
        assert oracle_algebra_associativity(action) is None


def test_corrupted_matrix_gives_the_oracle_witness():
    theta = VALID[2]                                   # chain C_3 on three points
    action = lifted(theta, RationalRing())
    rows = [dict(m) for m in action.rows]
    rows[1][1] = ((0, Fraction(1)), (1, Fraction(1)))           # 1y -> 1x + 1y
    broken = AlgebraAction(action.actor, action.algebra, action.domains, tuple(rows))
    witness = algebra_action_associativity(broken)
    assert witness is not None
    assert witness == oracle_algebra_associativity(broken)


CORRUPTION_RINGS = [RationalRing(), ZModRing(6), validate_ring(upper_triangular_f2_ring_spec())]


def test_corrupted_constant_gives_the_oracle_verdicts():
    """One structure constant of an honest lift redrawn: the validator's
    first failure is the dense loops' first one (inverse compatibility and
    the extension law never read the table), and an action it accepts has
    the oracle's associativity witness."""
    verdicts = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        theta = data.draw(st.sampled_from(VALID))
        ring = data.draw(st.sampled_from(CORRUPTION_RINGS))
        honest = lifted(theta, ring)
        alg = honest.algebra
        i, j, k = (data.draw(st.integers(0, alg.rank - 1)) for _ in range(3))
        row = dict(alg.table.get((i, j), ()))
        row[k] = data.draw(st.sampled_from([ring.zero, ring.one, ring.coerce(2)]))
        table = {**alg.table, (i, j): row}
        broken = AlgebraPresentation.from_table(ring, alg.basis, table, labels=alg.labels)
        expected = oracle_ideal_and_multiplicative(
            AlgebraAction(theta.actor, broken, honest.domains, honest.rows))
        if expected is not None:
            with pytest.raises(StructureError) as refused:
                validate_algebra_action(theta.actor, broken, honest.domains, honest.rows)
            first = refused.value.report.first()
            assert (first.kind, first.witness) == expected
            verdicts.add(expected[0])
        else:
            result = validate_algebra_action(theta.actor, broken, honest.domains, honest.rows)
            witness = oracle_algebra_associativity(result)
            assert algebra_action_associativity(result) == witness
            verdicts.add(witness is None)

    check()
    assert verdicts == {"ideal-property", "isomorphism", True, False}


def projection_algebra_associativity(action):
    """algebra_action_associativity before its keyed walk: every a of the
    projection is met for every b, and Theta_t(bc) formed once per (t, b, c)."""
    base = action.actor.base
    inv = action.actor.inv
    alg = action.algebra
    one = alg.ring.one
    doms = action.domains
    rans = [doms[inv[u]] for u in base.arrows()]
    failing = set()
    for t, partners in twisted_partners(base, doms, rans).items():
        theta_bc = {}
        for a, cs in partners.items():
            va = ((a, one),)
            for b in doms[t]:
                tb = action.rows[t][b]
                inner = action.apply_rows(inv[t], alg.mul(va, tb).items()).items()
                near = alg.after[b] | alg.after_support(inner)
                for c in cs & near:
                    t_bc = theta_bc.get((b, c))
                    if t_bc is None:
                        bc = alg.table.get((b, c), ())
                        t_bc = theta_bc[b, c] = action.apply_rows(t, bc).items()
                    left = alg.mul(inner, ((c, one),))
                    right = action.apply_rows(inv[t], alg.mul(va, t_bc).items())
                    if left != right:
                        failing.add((t, a, b, c))
    if not failing:
        return None
    s, t, u, a, b, c = first_twisted_triple(base, doms, rans, failing)
    return (
        base.arrow_names[s], base.arrow_names[t], base.arrow_names[u],
        alg.basis[a], alg.basis[b], alg.basis[c],
    )


@st.composite
def sparse_actions(draw, ring):
    """An unvalidated action of a small actor on a random sparse algebra of
    rank 2 to 4: each product is present with probability 1/3, and each
    product and image has one or two terms with coefficients 1, 2, 3 or -1
    (over Z/6, 2 * 3 = 0). Every domain is the whole basis, so every apply
    is defined."""
    actor = draw(st.sampled_from([built(semilattice_raw()), built(cyclic2_raw()), chain(3)]))
    n = draw(st.integers(2, 4))
    coeffs = [ring.coerce(x) for x in (1, 2, 3, -1)]

    def vector():
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
        return sorted((k, draw(st.sampled_from(coeffs))) for k in support)

    table = {(i, j): vector() for i in range(n) for j in range(n)
             if draw(st.integers(0, 2)) == 0}
    alg = AlgebraPresentation.from_table(ring, tuple(f"e{i}" for i in range(n)), table)
    full = tuple(range(n))
    rows = tuple({i: tuple(vector()) for i in full} for _ in actor.base.arrows())
    return AlgebraAction(actor, alg, (full,) * actor.base.n_arrows, rows)


def failing_sides(action, witness):
    """Which of a Theta_t(b) and the a Theta_t(bc) over every c are nonzero
    at the witness's (t, a, b): "left", "right" or "both"."""
    alg, one = action.algebra, action.algebra.ring.one
    t = action.actor.base.arrow_names.index(witness[1])
    a, b = alg.basis.index(witness[3]), alg.basis.index(witness[4])
    left = bool(alg.mul(((a, one),), action.rows[t][b]))
    right = any(alg.mul(((a, one),), action.apply_rows(t, alg.table.get((b, c), ())).items())
                for c in range(alg.rank))
    return {(True, False): "left", (False, True): "right", (True, True): "both"}[left, right]


def test_keyed_algebra_walk_matches_both_oracles():
    """A pair where only a Theta_t(b) is nonzero is lost if the key drops
    before_support(Theta_t(b)); one where only an a Theta_t(bc) is, if it
    drops the Theta_t(bc) side. Each must be some draw's first failure."""
    verdicts = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        ring = data.draw(st.sampled_from([RationalRing(), ZModRing(6)]))
        action = data.draw(sparse_actions(ring))
        expected = oracle_algebra_associativity(action)
        assert projection_algebra_associativity(action) == expected
        assert algebra_action_associativity(action) == expected
        verdicts.add((ring.describe(), None if expected is None else failing_sides(action, expected)))

    check()
    for ring in ("Q", "Z/6"):
        assert {(ring, None), (ring, "left"), (ring, "right")} <= verdicts
