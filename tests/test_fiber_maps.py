"""Fiber maps and transports, held as sparse image columns, against the dense
matrix loops they replaced.

`validate_bundle_action` and `validate_bundle_congruence` check product
intertwining on the columns of their matrices, and `bundle_semidirect` and
`quotient_bundle` read products off those columns. The oracles below are the
previous dense implementations: every fiber basis vector is pushed through
`mat_vec(M, unit_vector(...))` and multiplied by a dense `fiber_mul`, all
three kept below, and the inverse, extension-law and cocycle checks multiply
dense matrices with `mat_mul`. On small bundles over Q, Z/5 and Z/6, with
invertible fiber matrices and transports, sometimes an involutive
automorphism on the unit arrow (it inverts itself and intertwines the
products, but breaks the extension law) and sometimes one corrupted entry,
both validators must return the oracle's verdict and witness, and the built
bundles must carry the oracle's product rows. The validators default what
the input omits to the identity, so the identity fiber maps are sometimes
left out of what `validate_bundle_action` is given (the oracle keeps them),
and the class representative's transport, which must be the identity, is
sometimes declared. Every verdict kind the generators can reach must occur.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from sectional.actions import semidirect_product, validate_preaction, validate_rigid_congruence
from sectional.bundles import fiber_rows, validate_bundle
from sectional.rings import (RationalRing, ZModRing, identity_matrix, mat_inverse, mat_mul,
                             sparse_row)
from sectional.theorems import (bundle_semidirect, quotient_bundle, validate_bundle_action,
                                validate_bundle_congruence)
from sectional.validation import StructureError

from structures import built, cyclic2_raw, trivial_monoid_raw, unit_groupoid_raw

RINGS = [RationalRing(), ZModRing(5), ZModRing(6)]

# fiber algebras as structure constants: constants[i][j] = e_i * e_j
FIBERS = {
    "diagonal-1": [[[1]]],
    "diagonal-2": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    "diagonal-3": [[[1 if i == j == k else 0 for k in range(3)] for j in range(3)]
                   for i in range(3)],
    "dual-numbers": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
}

# an automorphism of each fiber algebra that is its own inverse, the
# identity only where the algebra has no other
SWAPS = {
    "diagonal-1": [[1]],
    "diagonal-2": [[0, 1], [1, 0]],
    "diagonal-3": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    "dual-numbers": [[1, 0], [0, -1]],
}


# ---------------------------------------------------------------------------
# The dense reference loops
# ---------------------------------------------------------------------------

def unit_vector(k, i, ring):
    return tuple(ring.one if j == i else ring.zero for j in range(k))


def mat_vec(mat, vec, ring):
    """mat * vec, each matrix entry on the left."""
    out = []
    for row in mat:
        acc = ring.zero
        for a, x in zip(row, vec):
            acc = ring.add(acc, ring.mul(a, x))
        out.append(acc)
    return tuple(out)


def fiber_mul(bundle, a, b, x, y):
    """x * y in fiber(ab) for dense x, y, summed over the stored product rows."""
    ring = bundle.ring
    table = bundle.rows[(a, b)]
    out = [ring.zero] * bundle.ranks[bundle.base.prod[a][b]]
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, c in table[i][j]:
                out[k] = ring.add(out[k], ring.mul(ring.mul(xi, yj), c))
    return tuple(out)


def oracle_bundle_action(theta, bundle, maps):
    """(kind, witness) of the first failing check after the structural ones,
    or None: inverse arrows, product intertwining, extension law."""
    ring = bundle.ring
    actor = theta.actor
    names = actor.base.arrow_names
    anames = theta.space.arrow_names
    for (s, g), mat in sorted(maps.items()):
        back = maps[(actor.inv[s], theta.apply(s, g))]
        if mat_mul(back, mat, ring) != identity_matrix(bundle.ranks[g], ring):
            return ("non-invertible-fiber-map", (names[s], anames[g]))
    for s in actor.base.arrows():
        dom = set(theta.dom(s))
        for (g1, g2) in theta.space.composable:
            if g1 not in dom or g2 not in dom:
                continue
            g12 = theta.space.prod[g1][g2]
            h1, h2 = theta.apply(s, g1), theta.apply(s, g2)
            for i in range(bundle.ranks[g1]):
                ei = unit_vector(bundle.ranks[g1], i, ring)
                for j in range(bundle.ranks[g2]):
                    ej = unit_vector(bundle.ranks[g2], j, ring)
                    lhs = fiber_mul(bundle, h1, h2, mat_vec(maps[(s, g1)], ei, ring),
                                           mat_vec(maps[(s, g2)], ej, ring))
                    rhs = mat_vec(maps[(s, g12)], fiber_mul(bundle, g1, g2, ei, ej), ring)
                    if lhs != rhs:
                        return ("intertwining", (names[s], anames[g1], anames[g2]))
    for s, t in actor.base.composable:
        st_ = actor.base.prod[s][t]
        for x in theta.dom(t):
            tx = theta.apply(t, x)
            if tx not in set(theta.dom(s)):
                continue
            if maps[(st_, x)] != mat_mul(maps[(s, tx)], maps[(t, x)], ring):
                return ("extension-law", (names[s], names[t], anames[x]))
    return None


def oracle_semidirect_tables(theta, bundle, maps):
    """Dense product tables of the semidirect bundle, per composable pair."""
    ring = bundle.ring
    sp = semidirect_product(theta)
    tables = {}
    for p, q in sp.composable:
        _s, a = sp.labels[p]
        t, b = sp.labels[q]
        tb = theta.apply(t, b)
        lift = maps[(t, b)]
        drop = maps[(theta.actor.inv[t], theta.space.compose(a, tb))]
        ra, rb = bundle.ranks[a], bundle.ranks[b]
        tables[(p, q)] = [
            [mat_vec(drop, fiber_mul(bundle, a, tb, unit_vector(ra, i, ring),
                                            mat_vec(lift, unit_vector(rb, j, ring), ring)),
                     ring)
             for j in range(rb)]
            for i in range(ra)
        ]
    return tables


def oracle_bundle_congruence(bundle, cong, transports):
    """(verdict, full) where verdict is (kind, witness) of the first failing
    check after the structural ones, or None; full holds every transport."""
    ring = bundle.ring
    names = bundle.base.arrow_names
    rep_to = {bundle.base.arrow_index(k): mat for k, mat in transports.items()}
    inverse = {}
    for block in cong.classes:
        for g in block:
            identity = identity_matrix(bundle.ranks[g], ring)
            if g == block[0] and rep_to.get(g, identity) != identity:
                return ("cocycle", (names[g],)), None
            mat = rep_to.setdefault(g, identity)
            inverse[g] = mat_inverse(mat, ring)
            if inverse[g] is None:
                return ("non-invertible-transport", (names[g],)), None
    full = {(g, h): mat_mul(rep_to[h], inverse[g], ring)
            for block in cong.classes for g in block for h in block}
    for block in cong.classes:
        for g in block:
            if full[(g, g)] != identity_matrix(bundle.ranks[g], ring):
                return ("cocycle", (names[g],)), None
            for h in block:
                for k in block:
                    if mat_mul(full[(h, k)], full[(g, h)], ring) != full[(g, k)]:
                        return ("cocycle", (names[g], names[h], names[k])), None
    for (g1, g2) in bundle.base.composable:
        g12 = bundle.base.prod[g1][g2]
        for h1 in cong.classes[cong.class_of[g1]]:
            for h2 in cong.classes[cong.class_of[g2]]:
                h12 = bundle.base.prod[h1][h2]
                for i in range(bundle.ranks[g1]):
                    ei = unit_vector(bundle.ranks[g1], i, ring)
                    for j in range(bundle.ranks[g2]):
                        ej = unit_vector(bundle.ranks[g2], j, ring)
                        lhs = fiber_mul(bundle, h1, h2, mat_vec(full[(g1, h1)], ei, ring),
                                               mat_vec(full[(g2, h2)], ej, ring))
                        rhs = mat_vec(full[(g12, h12)], fiber_mul(bundle, g1, g2, ei, ej), ring)
                        if lhs != rhs:
                            return ("intertwining",
                                    (names[g1], names[g2], names[h1], names[h2])), None
    return None, full


def oracle_quotient_tables(bundle, cong, full, quotient):
    """Dense quotient product tables, read through the class representatives."""
    ring = bundle.ring
    reps = [block[0] for block in cong.classes]
    tables = {}
    for ci, cj in quotient.composable:
        ri, rj = reps[ci], reps[cj]
        rq = reps[quotient.prod[ci][cj]]
        move = full[(bundle.base.prod[ri][rj], rq)]
        tables[(ci, cj)] = [
            [mat_vec(move, fiber_mul(bundle, ri, rj, unit_vector(bundle.ranks[ri], i, ring),
                                            unit_vector(bundle.ranks[rj], j, ring)), ring)
             for j in range(bundle.ranks[rj])]
            for i in range(bundle.ranks[ri])
        ]
    return tables


# ---------------------------------------------------------------------------
# Generated instances
# ---------------------------------------------------------------------------

def _invertible(data, ring, k):
    """A permutation matrix, its columns scaled by units, times a random
    unitriangular matrix when the draw asks for a generic one."""
    units = [u for u in (ring.coerce(x) for x in (1, -1, 2, 3))
             if ring.unit_inverse(u) is not None]
    perm = data.draw(st.permutations(range(k)))
    scales = [data.draw(st.sampled_from(units)) for _ in range(k)]
    mat = [[scales[j] if perm[j] == i else ring.zero for j in range(k)] for i in range(k)]
    if data.draw(st.booleans()):
        upper = [[ring.one if i == j else
                  (data.draw(st.sampled_from(units + [ring.zero])) if i < j else ring.zero)
                  for j in range(k)] for i in range(k)]
        mat = mat_mul(mat, upper, ring)
    return tuple(tuple(row) for row in mat)


def _involution(data, ring, k):
    """P D P^-1 for an invertible P and D = diag(+-1)."""
    p = _invertible(data, ring, k)
    signs = [data.draw(st.sampled_from([ring.one, ring.coerce(-1)])) for _ in range(k)]
    d = tuple(tuple(signs[i] if i == j else ring.zero for j in range(k)) for i in range(k))
    return mat_mul(mat_mul(p, d, ring), mat_inverse(p, ring), ring)


def _corrupt(data, ring, mats: dict) -> dict:
    """Sometimes overwrite one entry of one matrix."""
    if not data.draw(st.booleans()):
        return mats
    key = data.draw(st.sampled_from(sorted(mats)))
    mat = [list(row) for row in mats[key]]
    i = data.draw(st.integers(0, len(mat) - 1))
    j = data.draw(st.integers(0, len(mat) - 1))
    mat[i][j] = ring.coerce(data.draw(st.sampled_from([0, 1, -1, 2])))
    return {**mats, key: tuple(tuple(row) for row in mat)}


def _fiber_bundle(ring, base, arrows, fiber):
    constants = FIBERS[fiber]
    k = len(constants)
    pairs = {f"{base.arrow_names[a]},{base.arrow_names[b]}": constants
             for a, b in base.composable}
    return validate_bundle({"ranks": {x: k for x in arrows}, "mode": "sc",
                            "constants": pairs}, ring, base)


def _action_instance(data, ring):
    """Z/2 fixing one idempotent arrow, or swapping two points, on a bundle
    whose fibers all carry one of FIBERS."""
    z2 = built(cyclic2_raw())
    fiber = data.draw(st.sampled_from(sorted(FIBERS)))
    k = len(FIBERS[fiber])
    identity = identity_matrix(k, ring)
    if data.draw(st.booleans()):
        base = built(trivial_monoid_raw()).base
        theta = validate_preaction({"u": {"dom": ["a"], "img": ["a"]},
                                    "g": {"dom": ["a"], "img": ["a"]}}, z2, base)
        unit = identity
        if data.draw(st.booleans()):
            unit = tuple(tuple(ring.coerce(x) for x in row) for row in SWAPS[fiber])
        maps = {(0, 0): unit, (1, 0): _involution(data, ring, k)}
    else:
        base = built(unit_groupoid_raw(("x", "y"))).base
        theta = validate_preaction({"u": {"dom": ["1x", "1y"], "img": ["1x", "1y"]},
                                    "g": {"dom": ["1x", "1y"], "img": ["1y", "1x"]}},
                                   z2, base)
        p = _invertible(data, ring, k)
        maps = {(0, 0): identity, (0, 1): identity, (1, 0): p, (1, 1): mat_inverse(p, ring)}
    bundle = _fiber_bundle(ring, base, base.arrow_names, fiber)
    return theta, bundle, _corrupt(data, ring, maps)


def _outcome(validator, *args):
    """(the validated object, None), or (None, the first failure's kind and
    witness) when the validator refuses."""
    try:
        return validator(*args), None
    except StructureError as exc:
        failure = exc.report.failures[0]
        return None, (failure.kind, failure.witness)


def _columns(mat, ring):
    return tuple(sparse_row(col, ring) for col in zip(*mat))


def test_intertwining_checks_match_the_dense_oracle():
    action_verdicts, congruence_verdicts = [], []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        ring = data.draw(st.sampled_from(RINGS))

        theta, bundle, maps = _action_instance(data, ring)
        given_maps = maps
        if data.draw(st.booleans()):
            given_maps = {(s, g): m for (s, g), m in maps.items()
                          if m != identity_matrix(bundle.ranks[g], ring)}
        result, verdict = _outcome(validate_bundle_action, theta, bundle, given_maps)
        expected = oracle_bundle_action(theta, bundle, maps)
        assert verdict == expected
        action_verdicts.append(expected and expected[0])
        if expected is None:
            assert result.fiber_maps == {key: _columns(m, ring) for key, m in maps.items()}
            semidirect = bundle_semidirect(result)
            tables = oracle_semidirect_tables(theta, bundle, maps)
            assert semidirect.rows == {key: fiber_rows(t, ring) for key, t in tables.items()}

        z2 = built(cyclic2_raw()).base
        fiber = data.draw(st.sampled_from(sorted(FIBERS)))
        k = len(FIBERS[fiber])
        bundle = _fiber_bundle(ring, z2, z2.arrow_names, fiber)
        cong = validate_rigid_congruence([["u", "g"]], z2)
        transport = {"g": _invertible(data, ring, k)}
        if data.draw(st.booleans()):
            transport["u"] = identity_matrix(k, ring)
        transport = _corrupt(data, ring, transport)
        result, verdict = _outcome(validate_bundle_congruence, bundle, cong, transport)
        expected, full = oracle_bundle_congruence(bundle, cong, transport)
        assert verdict == expected
        congruence_verdicts.append(expected and expected[0])
        if expected is None:
            assert result.transports == {key: _columns(m, ring) for key, m in full.items()}
            out = quotient_bundle(result)
            tables = oracle_quotient_tables(bundle, cong, full, out.base_quotient)
            assert out.bundle.rows == {key: fiber_rows(t, ring) for key, t in tables.items()}

    check()
    assert set(action_verdicts) == {None, "non-invertible-fiber-map", "intertwining",
                                    "extension-law"}
    assert set(congruence_verdicts) == {None, "non-invertible-transport", "intertwining",
                                        "cocycle"}
