"""Fiber maps and transports, held as sparse image columns, against the dense
matrix loops they replaced.

`validate_bundle_action` and `validate_bundle_congruence` check product
intertwining on the columns of their matrices, and `_semidirect_bundle` and
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
sometimes declared. The congruences are the total one on Z/2; on the Klein
four-group the total one and those modulo a subgroup of order 2, so classes
of 2 and 4 compose; on C_4 the total one and the one modulo {a0, a2}; and
random classes of parallel arrows. Besides random transports, some draws
take scalar transports along a grading of the group, which intertwine, so
that over Z/5 on C_4 a passing transport need not be its own inverse.
`validate_bundle_congruence` stores one transport per arrow and decides
intertwining at representative pairs, while the oracle composes every
ordered pair and walks every equivalent pair: the verdict and first witness
must agree, some first witness must not be a representative pair, and each
pair the oracle composes must equal the stored transports composed. Every
verdict kind the generators can reach must occur.

The kernel generators of `quotient_map_and_kernel`, one difference against
the representative per fiber basis vector of each other arrow, must have the
echelon rows of the oracle's differences over every ordered pair, over Q,
Z/5, Z/6 and Z/30.

Over a non-commutative ring a fiber is the bimodule R, so a fiber map or
transport must be central: over M2(F2), whose unit group GL2(F2) is not
abelian, and over the upper triangular UT2(F2) and UT2(F3), a map off the
centre is refused as non-central at the first one, and every other verdict
and witness is the dense oracle's, whose every-pair walk the representative
pairs then decide. Every bundle action of Z/2 on P_2 and every congruence
these validators accept builds its semidirect or quotient bundle, and the
crossed certificates pass; UT2(F3), whose centre holds the unit 2·1, makes
the accepted maps more than the identity.

`quotient_bundle` reads each product through the class representatives
only; by its docstring the intertwining that `validate_bundle_congruence`
decided makes every other choice of members agree. The walk over every
member pair that it used to run is kept below (`representative_walk`) and
must find nothing on each congruence that passes: over Q and Z/6 on
congruences drawn as above, over M2(F2), and over UT2(F2) and UT2(F3), on
derandomized ringfiber congruences of the groups above with unit
transports. Nor does `quotient_bundle` walk the quotient's triples: every
quotient bundle built here, over Q, Z/5, Z/6 and Z/30 and over the
non-commutative rings, goes through `theorems.quotient_bundle`, so
tests/conftest.py walks it after the test, as it walks each semidirect
bundle, which is also compared with the full walk where it is built here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from sectional import theorems
from sectional.actions import semidirect_product, validate_preaction, validate_rigid_congruence
from sectional.bundles import fiber_rows, validate_bundle
from sectional.rings import (EchelonBasis, RationalRing, ZModRing, dense, identity_matrix,
                             mat_inverse, mat_mul, sparse_row, validate_ring)
from sectional.semigroupoids import validate_semigroupoid
from sectional.theorems import (_compose, _semidirect_bundle, crossed_theorem,
                                quotient_map_and_kernel, validate_bundle_action,
                                validate_bundle_congruence)
from sectional.validation import StructureError

from structures import (built, cyclic2_raw, cyclic_raw, f2_matrix_ring_spec, gl2_f2_raw,
                        klein_four_raw, pair_groupoid_raw, trivial_monoid_raw,
                        unit_groupoid_raw, upper_triangular_f2_ring_spec,
                        upper_triangular_f3_ring_spec)

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


def oracle_generators(bundle, cong, full, source):
    """The conjugate-section differences over every ordered pair of distinct
    equivalent arrows: e_i at g minus (transport g -> h of e_i) at h."""
    ring = bundle.ring
    generators = []
    for block in cong.classes:
        for g in block:
            for h in block:
                if g == h:
                    continue
                for i in range(bundle.ranks[g]):
                    image = mat_vec(full[(g, h)], unit_vector(bundle.ranks[g], i, ring), ring)
                    gen = {source.index[(h, k)]: ring.neg(x) for k, x in enumerate(image)
                           if not ring.is_zero(x)}
                    gen[source.index[(g, i)]] = ring.one
                    generators.append(gen)
    return generators


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


def representative_walk(bc, out):
    """The walk `quotient_bundle` ran over every member pair: the first
    (a, b, i, j) at which the product over (a, b) of the transports of e_i and
    e_j, carried back by to_rep, is not the built quotient's product over the
    representatives, or None."""
    bundle, ring = bc.bundle, bc.bundle.ring
    for (ci, cj), rows in sorted(out.bundle.rows.items()):
        for a in bc.base.classes[ci]:
            for b in bc.base.classes[cj]:
                cols = bc.to_rep[bundle.base.prod[a][b]]
                to_rep = tuple(zip(*(dense(col, len(cols), ring) for col in cols)))
                for i, x in enumerate(bc.from_rep[a]):
                    for j, y in enumerate(bc.from_rep[b]):
                        xy = dense(bundle.fiber_mul(a, b, x, y).items(), len(cols), ring)
                        if mat_vec(to_rep, xy, ring) != dense(rows[i][j], len(cols), ring):
                            return a, b, i, j
    return None


# ---------------------------------------------------------------------------
# Generated instances
# ---------------------------------------------------------------------------

def _units(ring):
    return [u for u in (ring.coerce(x) for x in (1, -1, 2, 3)) if ring.unit_inverse(u) is not None]


def _power(u, e, ring):
    """u^e for a unit u and any integer e."""
    out, base = ring.one, u if e >= 0 else ring.unit_inverse(u)
    for _ in range(abs(e)):
        out = ring.mul(out, base)
    return out


def _scalar(c, k, ring):
    return tuple(tuple(c if i == j else ring.zero for j in range(k)) for i in range(k))


def _invertible(data, ring, k):
    """A permutation matrix, its columns scaled by units, times a random
    unitriangular matrix when the draw asks for a generic one."""
    units = _units(ring)
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
    """Sometimes overwrite one entry of one matrix, if there is one."""
    if not mats or not data.draw(st.booleans()):
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


# the congruences drawn, each with a grading deg of its group onto Z/n: the
# total one on Z/2; on the Klein four-group the total one (a class of 4) and
# those modulo a subgroup of order 2 (two classes of 2); on C_4 the total one
# and the one modulo {a0, a2}. Each class composes with each.
KLEIN_DEG = {"a": 1, "c": 1}
C4_DEG = {"a1": 1, "a2": 2, "a3": 3}
CONGRUENCES = {
    "Z2": (cyclic2_raw, [["u", "g"]], 2, {"g": 1}),
    "V4": (klein_four_raw, [["e", "a", "b", "c"]], 2, KLEIN_DEG),
    "V4/a": (klein_four_raw, [["e", "a"], ["b", "c"]], 2, KLEIN_DEG),
    "V4/b": (klein_four_raw, [["e", "b"], ["a", "c"]], 2, KLEIN_DEG),
    "C4": (lambda: cyclic_raw(4), [["a0", "a1", "a2", "a3"]], 4, C4_DEG),
    "C4/a2": (lambda: cyclic_raw(4), [["a0", "a2"], ["a1", "a3"]], 4, C4_DEG),
}


def _parallel_congruence(data):
    """2 to 6 parallel arrows, no composable pairs, in up to three classes."""
    names = [f"a{i}" for i in range(data.draw(st.integers(2, 6)))]
    base = validate_semigroupoid({
        "id": "parallel", "vertices": ["v", "w"], "prod": [],
        "arrows": [{"id": x, "src": "v", "rng": "w"} for x in names]})
    labels = data.draw(st.lists(st.integers(0, 2), min_size=len(names), max_size=len(names)))
    classes = [block for block in ([x for x, c in zip(names, labels) if c == j]
                                   for j in range(3)) if block]
    return base, classes


def _congruence_instance(data, ring):
    """A congruence of CONGRUENCES, or on parallel arrows, on a bundle whose
    fibers all carry one of FIBERS. Either every arrow g gets the scalar
    u^(deg g - deg r) for r its representative and a unit u with u^n = 1, which
    intertwines, or the first arrow that is no representative gets an
    invertible transport, and so does each other one unless the draw leaves it
    out (the identity); a representative's own identity is sometimes declared."""
    choice = data.draw(st.sampled_from(sorted(CONGRUENCES) + ["parallel"]))
    if choice == "parallel":
        (base, classes), n, deg = _parallel_congruence(data), 1, {}
    else:
        raw, classes, n, deg = CONGRUENCES[choice]
        base = built(raw()).base
    fiber = data.draw(st.sampled_from(sorted(FIBERS)))
    k = len(FIBERS[fiber])
    bundle = _fiber_bundle(ring, base, base.arrow_names, fiber)
    members = [(block[0], name) for block in classes for name in block[1:]]
    if data.draw(st.booleans()):
        roots = [u for u in _units(ring) if _power(u, n, ring) == ring.one]
        u = data.draw(st.sampled_from(roots))
        transport = {name: _scalar(_power(u, deg.get(name, 0) - deg.get(rep, 0), ring), k, ring)
                     for rep, name in members}
    else:
        kept = members[:1] + [m for m in members[1:] if data.draw(st.booleans())]
        transport = {name: _invertible(data, ring, k) for _rep, name in kept}
    for block in classes:
        if data.draw(st.booleans()):
            transport[block[0]] = identity_matrix(k, ring)
    cong = validate_rigid_congruence(classes, base)
    return bundle, cong, _corrupt(data, ring, transport)


def test_intertwining_checks_match_the_dense_oracle():
    action_verdicts, congruence_verdicts, witnesses = [], [], []
    largest, seen, involutive = [], set(), []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        ring = data.draw(st.sampled_from(RINGS + [ZModRing(30)]))

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
            semidirect = _semidirect_bundle(result)
            assert validate_bundle(semidirect, ring, semidirect.base) is semidirect
            tables = oracle_semidirect_tables(theta, bundle, maps)
            assert semidirect.rows == {key: fiber_rows(t, ring) for key, t in tables.items()}

        bundle, cong, transport = _congruence_instance(data, ring)
        result, verdict = _outcome(validate_bundle_congruence, bundle, cong, transport)
        expected, full = oracle_bundle_congruence(bundle, cong, transport)
        assert verdict == expected
        congruence_verdicts.append(expected and expected[0])
        if expected and expected[0] == "intertwining":
            g1, g2, h1, h2 = (bundle.base.arrow_index(x) for x in expected[1])
            rep_of = [cong.classes[c][0] for c in cong.class_of]
            witnesses.append((h1, h2) != (rep_of[g1], rep_of[g2]))
        if expected is None:
            # each composed pair, from_rep[h] after to_rep[g], is the oracle's
            for (g, h), m in full.items():
                assert _compose(result.from_rep[h], result.to_rep[g], ring) == _columns(m, ring)
            out = theorems.quotient_bundle(result)
            tables = oracle_quotient_tables(bundle, cong, full, out.base_quotient)
            assert out.bundle.rows == {key: fiber_rows(t, ring) for key, t in tables.items()}
            res = quotient_map_and_kernel(result)
            assert res.certificate.passed
            assert len(res.generators) == sum(bundle.ranks[g] for block in cong.classes
                                              for g in block[1:])
            every_pair = oracle_generators(bundle, cong, full, res.source)
            assert EchelonBasis(ring, res.generators).rows == EchelonBasis(ring, every_pair).rows
            largest.append(max(map(len, cong.classes)))
            seen.add(ring.describe())
            involutive.append(result.to_rep == result.from_rep)

    check()
    assert set(action_verdicts) == {None, "non-invertible-fiber-map", "intertwining",
                                    "extension-law"}
    assert set(congruence_verdicts) == {None, "non-invertible-transport", "intertwining",
                                        "cocycle"}
    # some first witnesses are not the representative pair, which only the
    # walk over every equivalent pair names
    assert any(witnesses)
    # the generators are compared on classes of 4 over every ring, and some
    # congruence that passes carries a transport that is not its own inverse,
    # so moving by to_rep and by from_rep differ
    assert max(largest) >= 4
    assert seen == {"Q", "Z/5", "Z/6", "Z/30"}
    assert not all(involutive)


def _off_centre(bundle, cong, transport):
    """The witness of the first declared transport, in the validator's class
    order, with an entry off the centre, or None."""
    ring, names = bundle.ring, bundle.base.arrow_names
    return next(((names[g],) for block in cong.classes for g in block
                 if not all(ring.is_central(x) for row in transport.get(names[g], ())
                            for x in row)), None)


def test_noncommutative_transports_must_be_central():
    """Over M2(F2), rank-1 ringfiber fibers over its unit group GL2(F2) (which is
    S3) with the total congruence. A transport is a bimodule map of the fiber
    M2(F2), multiplication by a central unit, and the centre's one unit is 1.
    f_g = g^-1 passes at every representative pair, as g -> g is a
    homomorphism, but the oracle's walk over every pair fails it at
    (e, e, h1, h2) for non-commuting h1, h2; f_g = g fails that walk too, and
    transports into the abelian subgroup {1, s} along the sign pass it. The
    validator refuses all three as non-central at the first arrow, and the
    identity transports pass both and build the oracle's quotient."""
    ring = validate_ring(f2_matrix_ring_spec())
    base = built(gl2_f2_raw()).base
    bundle = validate_bundle({"mode": "ringfiber"}, ring, base)
    cong = validate_rigid_congruence([base.arrow_names], base)
    names = base.arrow_names
    e, s = names[0], ring.coerce("0110")
    # each arrow of GL2(F2) is named as its element of M2(F2)
    unit = {g: ring.coerce(g) for g in names[1:]}
    assignments = [
        {g: ((ring.unit_inverse(u),),) for g, u in unit.items()},
        {g: ((u,),) for g, u in unit.items()},
        {g: ((s if ring.mul(u, u) == ring.one else ring.one,),) for g, u in unit.items()},
        {g: ((ring.one,),) for g in unit},
    ]
    walks, verdicts = [], []
    for transport in assignments:
        result, verdict = _outcome(validate_bundle_congruence, bundle, cong, transport)
        expected, full = oracle_bundle_congruence(bundle, cong, transport)
        off = _off_centre(bundle, cong, transport)
        assert verdict == (("non-central-transport", off) if off else expected)
        walks.append(expected and expected[0])
        verdicts.append(verdict)
        if verdict is None:
            out = theorems.quotient_bundle(result)
            tables = oracle_quotient_tables(bundle, cong, full, out.base_quotient)
            assert out.bundle.rows == {key: fiber_rows(t, ring) for key, t in tables.items()}
            assert representative_walk(result, out) is None
    kind, (g1, g2, h1, h2) = oracle_bundle_congruence(bundle, cong, assignments[0])[0]
    assert kind == "intertwining" and (g1, g2) == (e, e) and (h1, h2) != (e, e)
    assert walks == ["intertwining", "intertwining", None, None]
    assert verdicts == [("non-central-transport", (names[1],))] * 3 + [None]


def test_upper_triangular_quotients_agree_at_every_member_pair():
    """Over UT2(F2) and UT2(F3), rank-1 ringfiber fibers over the groups of
    CONGRUENCES, each arrow that is no representative transported by a unit
    drawn from the central units or from all of them. The validator refuses
    the first transport off the centre as non-central and otherwise gives the
    oracle's verdict; each congruence it accepts builds its quotient, whose
    products, read through the representatives, agree with the walk over
    every member pair. Each verdict occurs, and some quotient that is built
    has a transport other than the identity, 2·1 over F3."""
    rings = [validate_ring(spec()) for spec in (upper_triangular_f2_ring_spec,
                                                upper_triangular_f3_ring_spec)]
    verdicts, moved = set(), []

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        ring = data.draw(st.sampled_from(rings))
        units = [u for u in range(len(ring.names)) if ring.unit_inverse(u) is not None]
        pool = data.draw(st.sampled_from([_central_units(ring), units]))
        raw, classes, _n, _deg = CONGRUENCES[data.draw(st.sampled_from(sorted(CONGRUENCES)))]
        base = built(raw()).base
        bundle = validate_bundle({"mode": "ringfiber"}, ring, base)
        cong = validate_rigid_congruence(classes, base)
        transport = {g: ((data.draw(st.sampled_from(pool)),),)
                     for block in classes for g in block[1:]}
        result, verdict = _outcome(validate_bundle_congruence, bundle, cong, transport)
        expected, _full = oracle_bundle_congruence(bundle, cong, transport)
        off = _off_centre(bundle, cong, transport)
        assert verdict == (("non-central-transport", off) if off else expected)
        verdicts.add(verdict and verdict[0])
        if verdict is None:
            assert representative_walk(result, theorems.quotient_bundle(result)) is None
            moved.append(any(m != ((ring.one,),) for m in transport.values()))

    check()
    assert verdicts == {None, "non-central-transport", "intertwining"}
    assert any(moved)


NONCOMMUTATIVE = {"UT2(F3)": upper_triangular_f3_ring_spec, "M2(F2)": f2_matrix_ring_spec,
                  "UT2(F2)": upper_triangular_f2_ring_spec}


def _central_units(ring):
    return [u for u in range(len(ring.names))
            if ring.is_central(u) and ring.unit_inverse(u) is not None]


def _coboundary_bundle(data, ring, base):
    """A ringfiber bundle over base whose twist at (a, b) is c(a) c(b) c(ab)^-1
    for central units c(a), so it is central and associative; and c."""
    mul, names = ring.mul, base.arrow_names
    c = [data.draw(st.sampled_from(_central_units(ring))) for _ in base.arrows()]
    twist = {f"{names[a]},{names[b]}": mul(mul(c[a], c[b]), ring.unit_inverse(c[base.prod[a][b]]))
             for a, b in base.composable}
    return validate_bundle({"mode": "ringfiber", "twist": twist}, ring, base), c


def _p2_action(base, swap):
    """Z/2 acting on P_2, its generator swapping the two points or fixing every arrow."""
    names = list(base.arrow_names)
    image = [x.translate(str.maketrans("12", "21")) for x in names] if swap else names
    return validate_preaction({"u": {"dom": names, "img": names},
                               "g": {"dom": names, "img": image}}, built(cyclic2_raw()), base)


def test_central_fiber_maps_and_transports_build_their_bundles():
    """Over UT2(F3), M2(F2) and UT2(F2), whose centres are the scalars: Z/2
    acting on P_2, its generator swapping the points or fixing every arrow,
    on a ringfiber bundle with coboundary twists, with rank-1 fiber maps drawn
    from the central units, from all units or from the whole ring (those of
    the unit arrow sometimes left the identity), or for the generator a gauge
    of the twists, which the validator must accept. The validator refuses the
    first map off the centre as non-central and otherwise gives the dense
    oracle's verdict; every action it accepts builds its semidirect bundle,
    which passes the full walk, and passes both crossed_theorem certificates.
    Every congruence of CONGRUENCES with transports drawn the same way that
    the validator accepts builds its quotient bundle. Both verdicts occur for
    each ring, and over UT2(F3) an accepted action and an accepted congruence
    move some fiber by 2·1."""
    rings = {name: validate_ring(spec()) for name, spec in NONCOMMUTATIVE.items()}
    base = built(pair_groupoid_raw()).base
    actions = {swap: _p2_action(base, swap) for swap in (False, True)}
    seen, moved = set(), set()

    def pool(data, ring):
        units = [u for u in range(len(ring.names)) if ring.unit_inverse(u) is not None]
        central = _central_units(ring)
        return data.draw(st.sampled_from([central, central, units, list(range(len(ring.names)))]))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(rings)))
        ring = rings[name]
        theta = actions[data.draw(st.booleans())]
        bundle, c = _coboundary_bundle(data, ring, base)
        values = pool(data, ring)
        acts = [1, 0] if data.draw(st.integers(0, 3)) == 0 else [1]
        maps = {(s, g): ((data.draw(st.sampled_from(values)),),)
                for s in acts for g in theta.dom(s)}
        if data.draw(st.integers(0, 3)) == 0:
            # a gauge of the twists, k(a) c(a) c(ga)^-1 with k(a) = phi(rng a) phi(src a)^-1
            # for central units phi, which intertwines the products and inverts itself
            mul, inv = ring.mul, ring.unit_inverse
            phi = [data.draw(st.sampled_from(_central_units(ring))) for _ in base.vertex_names]
            for a in theta.dom(1):
                k = mul(phi[base.rng[a]], inv(phi[base.src[a]]))
                maps[(1, a)] = ((mul(mul(k, c[a]), inv(c[theta.apply(1, a)])),),)
        full = {(s, g): maps.get((s, g), ((ring.one,),)) for s in (0, 1) for g in theta.dom(s)}
        result, verdict = _outcome(validate_bundle_action, theta, bundle, maps)
        off = min((key for key, m in maps.items() if not ring.is_central(m[0][0])), default=None)
        expected = oracle_bundle_action(theta, bundle, full)
        if off is not None:
            expected = ("non-central-fiber-map",
                        (theta.actor.base.arrow_names[off[0]], base.arrow_names[off[1]]))
        assert verdict == expected
        seen.add(("action", name, verdict and verdict[0]))
        if verdict is None:
            semidirect = _semidirect_bundle(result)
            assert validate_bundle(semidirect, ring, semidirect.base) is semidirect
            res = crossed_theorem(result)
            assert res.certificate.passed and res.lscript_certificate.passed
            if any(m != ((ring.one,),) for m in maps.values()):
                moved.add(("action", name))

        raw, classes, _n, _deg = CONGRUENCES[data.draw(st.sampled_from(sorted(CONGRUENCES)))]
        group = built(raw()).base
        fibers, _c = _coboundary_bundle(data, ring, group)
        cong = validate_rigid_congruence(classes, group)
        values = pool(data, ring)
        transport = {g: ((data.draw(st.sampled_from(values)),),)
                     for block in classes for g in block[1:]}
        result, verdict = _outcome(validate_bundle_congruence, fibers, cong, transport)
        if verdict is None:
            theorems.quotient_bundle(result)
            if any(m != ((ring.one,),) for m in transport.values()):
                moved.add(("congruence", name))
        seen.add(("congruence", name, verdict and verdict[0]))

    check()
    for name in rings:
        for kind in ("action", "congruence"):
            assert (kind, name, None) in seen
            assert any(k == kind and n == name and v is not None for k, n, v in seen)
        assert ("action", name, "non-central-fiber-map") in seen
        assert ("congruence", name, "non-central-transport") in seen
    assert moved == {("action", "UT2(F3)"), ("congruence", "UT2(F3)")}


def test_quotient_products_agree_at_every_member_pair():
    """Over Q and Z/6, each congruence drawn as above that the validator
    accepts builds a quotient whose products, read through the
    representatives, agree with the walk over every member pair; classes of
    4 and transports that are not their own inverse occur."""
    largest, involutive = [], []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        ring = data.draw(st.sampled_from([RationalRing(), ZModRing(6)]))
        bundle, cong, transport = _congruence_instance(data, ring)
        result, verdict = _outcome(validate_bundle_congruence, bundle, cong, transport)
        if verdict is None:
            assert representative_walk(result, theorems.quotient_bundle(result)) is None
            largest.append(max(map(len, cong.classes)))
            involutive.append(result.to_rep == result.from_rep)

    check()
    assert max(largest) >= 4
    assert not all(involutive)
