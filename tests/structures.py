"""Raw table builders and checks shared across the test modules.

The builders return plain stanza dicts so tests can perturb single entries and
watch the validators reject them; built(raw) validates a stanza into the
structure the library works on.
"""

import copy
import itertools
import random
import sys
from collections import deque
from fractions import Fraction

from hypothesis import strategies as st

from sectional import maps, rings, theorems
from sectional.actions import big_ideals, validate_preaction
from sectional.algebras import AlgebraPresentation
from sectional.bundles import AlgebraAction, Section, convolve
from sectional.maps import product_pairs, surjective
from sectional.rings import EchelonBasis, solve_linear, sparse_vector
from sectional.semigroupoids import (
    FiniteInverseSemigroupoid,
    validate_homomorphism,
    validate_inverse_semigroupoid,
    validate_semigroupoid,
)
from sectional.validation import StructureError, ValidationReport


def built(raw):
    """The validated structure of a raw stanza: an inverse semigroupoid when the
    stanza carries an inverse table, a semigroupoid otherwise."""
    sgpd = validate_semigroupoid(raw)
    return validate_inverse_semigroupoid(sgpd, raw["inv"]) if "inv" in raw else sgpd


def spans_equal(a, b, ring) -> bool:
    """Whether two sets of sparse vectors span one submodule: their echelon
    forms are unique, so equal spans have equal rows."""
    return EchelonBasis(ring, a).rows == EchelonBasis(ring, b).rows


def elimination_calls(monkeypatch, run):
    """Run run() and return what it did of elimination: a count of
    EchelonBasis._reduce, smith_normal_form, solve_linear and mat_inverse
    calls, wherever the package refers to them, and the caller and result of
    each EchelonBasis.insert call, in order."""
    counts = dict.fromkeys(["_reduce", "smith_normal_form", "solve_linear", "mat_inverse"], 0)
    inserts = []

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    def insert(basis, v, _insert=EchelonBasis.insert):
        accepted = _insert(basis, v)
        # past a comprehension's own frame, which Python 3.12 inlines, so
        # the caller has one name on every version
        frame = sys._getframe(1)
        while frame.f_code.co_name.endswith("comp>"):
            frame = frame.f_back
        inserts.append((frame.f_code.co_name, accepted))
        return accepted

    monkeypatch.setattr(EchelonBasis, "insert", insert)
    monkeypatch.setattr(EchelonBasis, "_reduce", counted("_reduce", EchelonBasis._reduce))
    for name in ("smith_normal_form", "solve_linear", "mat_inverse"):
        fn = getattr(rings, name)
        for module in (rings, maps, theorems):
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    try:
        run()
    finally:
        monkeypatch.undo()
    return counts, inserts


def quotient_elimination(res):
    """Elimination on the map of a quotient_map_and_kernel result: the
    solve_linear solution of its rows, whether it is onto (maps.surjective),
    and whether its kernel has the echelon rows of the generators."""
    ring = res.source.ring
    sol = solve_linear(res.map.rows, res.target.rank, ring)
    return sol, surjective(sol), spans_equal(sol.kernel_basis, res.generators, ring)


def span_rank(generators, ring) -> int:
    """The dimension of the span of sparse vectors over a field."""
    assert ring.is_field
    return len(EchelonBasis(ring, generators).rows)


def ideal_closure(generators, algebra) -> list[dict]:
    """The two-sided ideal the generators generate, by full saturation: the
    oracle for the germ certificate's ideal, which reads it off the
    generators' span. Every vector that enlarges the span is multiplied by
    every basis element on both sides until nothing new appears; the products
    of each accepted vector form one lazy stream, read in order after the
    streams before it. Over a field the ideal's reduced row echelon form,
    over Z/n the vectors that enlarged the span, in the order read."""
    ring = algebra.ring
    basis, span = EchelonBasis(ring), []
    streams = deque([(sparse_vector({k: ring.coerce(x) for k, x in dict(g).items()}, ring)
                      for g in generators)])
    while streams:
        vec = next(streams[0], None)
        if vec is None:
            streams.popleft()
        elif basis.insert(vec):
            span.append(vec)
            streams.append(unit_products(algebra, vec))
    return basis.pivot_rows() if ring.is_field else span


def unit_products(algebra, vec: dict):
    """e_i vec and vec e_i by ascending i, each only where it can be nonzero."""
    one, items = algebra.ring.one, vec.items()
    left, right = algebra.before_support(items), algebra.after_support(items)
    for i in sorted(left | right):
        unit = ((i, one),)
        if i in left:
            yield algebra.mul(unit, items)
        if i in right:
            yield algebra.mul(items, unit)


def refusal(call, *args):
    """The report of the StructureError call(*args) raises, or None when it
    returns."""
    try:
        call(*args)
    except StructureError as exc:
        return exc.report
    return None


# The algebra-action axioms decided in full on given domains and rows: the
# oracle for what theorems.induced_theta inherits, and the constructor of the
# hand-built actions the tests use.

def validate_algebra_action(actor: FiniteInverseSemigroupoid,
                            algebra: AlgebraPresentation,
                            domains, matrices) -> AlgebraAction:
    """Check the wedge-preaction axioms at the algebra level.

    domains: per actor arrow, the basis indices spanning dom(Theta_s);
    matrices: per actor arrow, {basis index: image}, each image a sparse
    vector (a dict or (index, value) pairs). Checks: domains
    are multiplication-closed against the ambient span (ideals), the maps are
    multiplicative bijections, Theta_{s*} inverts Theta_s, and the extension
    law for composable pairs holds on the computable spanning vectors.
    """
    base = actor.base
    report = ValidationReport("algebra action")
    names = base.arrow_names
    doms = [set(d) for d in domains]
    mats = [dict(m) for m in matrices]
    if len(doms) != base.n_arrows or len(mats) != base.n_arrows:
        report.add("structural", (), "need one domain and one matrix per actor arrow")
        raise StructureError(report)
    for s in base.arrows():
        if any(not isinstance(i, int) or not 0 <= i < algebra.rank for i in doms[s]):
            report.add("structural", (names[s],), "domain indexes outside the basis")
            raise StructureError(report)
        if set(mats[s]) != doms[s]:
            report.add("structural", (names[s],),
                       "matrix rows must cover exactly the domain basis")
            raise StructureError(report)
        for i, vec in mats[s].items():
            if any(not isinstance(k, int) or not 0 <= k < algebra.rank for k in dict(vec)):
                report.add("structural", (names[s], algebra.basis[i]),
                           "image vector indexes outside the basis")
                raise StructureError(report)

    rows = tuple({i: tuple(sorted(sparse_vector(vec, algebra.ring).items()))
                  for i, vec in m.items()} for m in mats)
    doms = tuple(tuple(sorted(d)) for d in doms)
    action = AlgebraAction(actor, algebra, doms, rows)

    # rows[s] is keyed by dom(Theta_s), so it serves as that domain's basis set
    def in_span(row, span) -> bool:
        return all(k in span for k, _ in row)

    # images must span the inverse's domain, and the two maps must compose to
    # the identity on basis vectors
    for s in base.arrows():
        t = actor.inv[s]
        for i in doms[s]:
            img = rows[s][i]
            if not in_span(img, rows[t]):
                report.add("inverse-compatibility", (names[s], algebra.basis[i]),
                           "image leaves dom of the inverse arrow")
                raise StructureError(report)
            if action.apply_rows(t, img) != {i: algebra.ring.one}:
                report.add("inverse-compatibility", (names[s], algebra.basis[i]),
                           "Theta_{s*} does not invert Theta_s")
                raise StructureError(report)

    # ideal conditions on coordinate subspaces; e_i e_j and e_j e_i are both
    # zero, so in every span, unless j is after or before i
    def near(i):
        return algebra.after[i] | algebra.before[i]

    bigs = big_ideals(actor, doms)
    for v, big in enumerate(bigs):
        for i in sorted(big):
            for j in sorted(near(i)):
                for (p, q) in ((i, j), (j, i)):
                    if not in_span(algebra.table.get((p, q), ()), big):
                        report.add("ideal-property",
                                   (base.vertex_names[v], algebra.basis[p], algebra.basis[q]),
                                   "I(Theta, v) is not multiplication closed")
                        raise StructureError(report)
    for s in base.arrows():
        ambient = bigs[base.src[s]]
        for i in doms[s]:
            for j in sorted(near(i) & ambient):
                for (p, q) in ((i, j), (j, i)):
                    if not in_span(algebra.table.get((p, q), ()), rows[s]):
                        report.add("ideal-property",
                                   (names[s], algebra.basis[p], algebra.basis[q]),
                                   f"dom(Theta_{names[s]}) is not an ideal: a product leaves the span")
                        raise StructureError(report)

    # multiplicativity on domain basis pairs
    for s in base.arrows():
        images = rows[s]
        for i, j in product_pairs(algebra, algebra, images):
            lhs = action.apply_rows(s, algebra.table.get((i, j), ()))
            if lhs != algebra.mul(images[i], images[j]):
                report.add("isomorphism", (names[s], algebra.basis[i], algebra.basis[j]),
                           "Theta_s is not multiplicative on its domain")
                raise StructureError(report)

    # extension law: Theta_{st} extends Theta_s Theta_t. The preimage of
    # ran(Theta_t) ∩ dom(Theta_s) is spanned by Theta_{t*} images of the basis
    # in that intersection, which keeps everything enumerable.
    for s, t in base.composable:
        st = base.prod[s][t]
        tstar = actor.inv[t]
        for d in doms[tstar]:
            if d not in rows[s]:
                continue
            x = rows[tstar][d]                      # a spanning vector of the preimage
            if not in_span(x, rows[st]):
                report.add("extension-law", (names[s], names[t], algebra.basis[d]),
                           "preimage vector leaves dom(Theta_st)")
                raise StructureError(report)
            lhs = action.apply_rows(st, x)
            rhs = action.apply_rows(s, action.apply_rows(t, x).items())
            if lhs != rhs:
                report.add("extension-law", (names[s], names[t], algebra.basis[d]),
                           "Theta_st differs from Theta_s Theta_t on the common domain")
                raise StructureError(report)

    return action


# One random ring element per kind. The draws are fixed bit for bit, so that
# every seeded test keeps the stream its expectations were written against.
_DRAWS = {
    "z": lambda ring, rnd: rnd.randint(-9, 9),
    "q": lambda ring, rnd: ring.coerce(Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))),
    "zmod": lambda ring, rnd: rnd.randrange(ring.n),
    "table": lambda ring, rnd: rnd.randrange(len(ring.names)),
}


def sample(ring, rnd):
    """A random element of ring drawn from rnd: an integer in [-9, 9] over Z,
    n/m with n in [-9, 9] and m in [1, 9] over Q (an int when integral), any
    residue over Z/n and any element of a table ring."""
    return _DRAWS[ring.kind](ring, rnd)


def random_section(bundle, rnd) -> Section:
    """One sample per coordinate, drawn straight into the section's normal
    form: a zero draw leaves no entry."""
    ring = bundle.ring
    values = {a: v for a in bundle.base.arrows()
              if (v := {i: x for i in range(bundle.ranks[a])
                        if not ring.is_zero(x := sample(ring, rnd))})}
    return Section.normal(bundle, values)


def sampled_convolution(bundle, triples, seed, convolve=convolve):
    """`verify convolution` as it stood before it decided on the basis, kept as
    an oracle: the task's fields after convolving the seeded triples of
    random_section, with convolve, until the first that fails."""
    rnd = random.Random(f"convolution:{seed}")
    witness = []
    for k in range(triples):
        a, b, c = (random_section(bundle, rnd) for _ in range(3))
        if convolve(convolve(a, b), c) != convolve(a, convolve(b, c)):
            witness = [f"triple {k}"]
            break
    return {"status": "fail" if witness else "pass",
            "data": {"triples": triples, "seed": seed}, "witness": witness}


def trivial_algebra_action(actor: FiniteInverseSemigroupoid,
                           algebra: AlgebraPresentation) -> AlgebraAction:
    """Every arrow acts as the identity on the whole algebra."""
    full = tuple(range(algebra.rank))
    identity = {i: ((i, algebra.ring.one),) for i in full}
    return validate_algebra_action(
        actor, algebra, [full] * actor.base.n_arrows, [identity] * actor.base.n_arrows)


def is_isomorphism(mapping, source, target):
    """Whether the arrow map {source name: target name} is an isomorphism: a
    rigid homomorphism, a bijection onto the target's arrows, and as many
    vertices on each side."""
    try:
        hom = validate_homomorphism(mapping, source, target)
    except StructureError:
        return False
    return (hom.rigid and sorted(hom.map) == list(target.arrows())
            and source.n_vertices == target.n_vertices)


# the skew product of Z/2 graded by itself, onto the pair groupoid P_2
SKEW_Z2_TO_PAIR = {"(u,u)": "(1,1)", "(u,g)": "(2,2)", "(g,u)": "(2,1)", "(g,g)": "(1,2)"}


def is_partial_action(theta) -> bool:
    """Whether the domains grow along the natural order: dom theta_s lies in
    dom theta_t whenever s <= t."""
    return all(set(theta.maps[s]) <= set(theta.maps[t]) for s, t in theta.actor.leq)


def is_global_action(theta) -> bool:
    """Whether the extension inclusion is an equality: dom theta_st is exactly
    the x with theta_t(x) in dom theta_s, for every composable (s, t)."""
    base, maps = theta.actor.base, theta.maps
    return all(set(maps[base.prod[s][t]]) == {x for x, tx in maps[t].items() if tx in maps[s]}
               for s, t in base.composable)


def trivial_monoid_raw():
    return {
        "id": "trivial",
        "vertices": ["*"],
        "arrows": [{"id": "a", "src": "*", "rng": "*"}],
        "prod": [["a", "a", "a"]],
        "inv": {"a": "a"},
    }


def cyclic2_raw():
    return {
        "id": "Z2",
        "vertices": ["*"],
        "arrows": [
            {"id": "u", "src": "*", "rng": "*"},
            {"id": "g", "src": "*", "rng": "*"},
        ],
        "prod": [["u", "u", "u"], ["u", "g", "g"], ["g", "u", "g"], ["g", "g", "u"]],
        "inv": {"u": "u", "g": "g"},
    }


def cyclic_raw(n):
    """The cyclic group C_n on arrows a0, ..., a{n-1}, with a_i a_j = a_(i+j mod n)."""
    names = [f"a{i}" for i in range(n)]
    return {
        "id": f"C{n}",
        "vertices": ["*"],
        "arrows": [{"id": x, "src": "*", "rng": "*"} for x in names],
        "prod": [[names[i], names[j], names[(i + j) % n]] for i in range(n) for j in range(n)],
        "inv": {names[i]: names[-i % n] for i in range(n)},
    }


def semilattice_raw():
    return {
        "id": "E2",
        "vertices": ["*"],
        "arrows": [
            {"id": "1", "src": "*", "rng": "*"},
            {"id": "e", "src": "*", "rng": "*"},
        ],
        "prod": [["1", "1", "1"], ["1", "e", "e"], ["e", "1", "e"], ["e", "e", "e"]],
        "inv": {"1": "1", "e": "e"},
    }


def one_vertex_tables(n):
    """Each associative table on the arrows a0..a(n-1), loops at one vertex."""
    names = [f"a{i}" for i in range(n)]
    cells = list(itertools.product(range(n), repeat=2))
    for flat in itertools.product(range(n), repeat=n * n):
        t = dict(zip(cells, flat))
        if all(t[(t[(x, y)], z)] == t[(x, t[(y, z)])] for x, y, z in itertools.product(range(n), repeat=3)):
            yield {"vertices": ["v"], "arrows": [{"id": a, "src": "v", "rng": "v"} for a in names],
                   "prod": [[names[x], names[y], names[t[(x, y)]]] for x, y in cells]}


def pair_groupoid_raw(points=("1", "2")):
    """Arrows (i,j) with source j and range i; (i,j)(j,k) = (i,k)."""
    points = tuple(map(str, points))

    def name(i, j):
        return f"({i},{j})"

    return {
        "id": f"P{len(points)}",
        "vertices": list(points),
        "arrows": [
            {"id": name(i, j), "src": j, "rng": i} for i in points for j in points
        ],
        "prod": [
            [name(i, j), name(j, k), name(i, k)]
            for i in points for j in points for k in points
        ],
        "inv": {name(i, j): name(j, i) for i in points for j in points},
    }


def klein_four_raw():
    table = {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b", ("e", "c"): "c",
        ("a", "e"): "a", ("a", "a"): "e", ("a", "b"): "c", ("a", "c"): "b",
        ("b", "e"): "b", ("b", "a"): "c", ("b", "b"): "e", ("b", "c"): "a",
        ("c", "e"): "c", ("c", "a"): "b", ("c", "b"): "a", ("c", "c"): "e",
    }
    return {
        "id": "V4",
        "vertices": ["*"],
        "arrows": [{"id": x, "src": "*", "rng": "*"} for x in "eabc"],
        "prod": [[x, y, table[(x, y)]] for (x, y) in table],
        "inv": {x: x for x in "eabc"},
    }


def unit_groupoid_raw(labels=("x", "y")):
    """One identity loop per point; the discrete groupoid on the label set."""
    labels = tuple(map(str, labels))
    return {
        "id": f"unit({','.join(labels)})",
        "vertices": list(labels),
        "arrows": [{"id": f"1{x}", "src": x, "rng": x} for x in labels],
        "prod": [[f"1{x}", f"1{x}", f"1{x}"] for x in labels],
        "inv": {f"1{x}": f"1{x}" for x in labels},
    }


def parallel_arrows_raw():
    """Two parallel arrows between distinct vertices; no composable pairs."""
    return {
        "id": "parallel",
        "vertices": ["v", "w"],
        "arrows": [{"id": "a", "src": "v", "rng": "w"}, {"id": "b", "src": "v", "rng": "w"}],
        "prod": [],
    }


def with_product_entry(raw, a, b, value):
    """Copy of the stanza with the (a,b) product entry replaced by value."""
    out = copy.deepcopy(raw)
    out["prod"] = [e for e in out["prod"] if not (e[0] == a and e[1] == b)]
    out["prod"].append([a, b, value])
    return out


def without_product_entry(raw, a, b):
    out = copy.deepcopy(raw)
    out["prod"] = [e for e in out["prod"] if not (e[0] == a and e[1] == b)]
    return out


def with_inverse_entry(raw, s, value):
    out = copy.deepcopy(raw)
    out["inv"] = dict(out["inv"])
    out["inv"][s] = value
    return out


def semilattice_on_points_action():
    """The running example: {1,e} acting on the two-point unit groupoid."""
    return {
        "1": {"dom": ["1x", "1y"], "img": ["1x", "1y"]},
        "e": {"dom": ["1x"], "img": ["1x"]},
    }


def _table_ring_spec(elems, add, mul, zero, one):
    """A finite-table ring literal on the tuples elems, each named by its digits."""
    idx = {e: i for i, e in enumerate(elems)}
    return {
        "kind": "table",
        "elements": ["".join(map(str, e)) for e in elems],
        "add": [[idx[add(x, y)] for y in elems] for x in elems],
        "mul": [[idx[mul(x, y)] for y in elems] for x in elems],
        "zero": idx[zero],
        "one": idx[one],
    }


def _f2_add(x, y):
    return tuple((p + q) % 2 for p, q in zip(x, y))


def _upper_triangular_ring_spec(p):
    """Upper triangular 2x2 matrices [[a, b], [0, c]] over F_p as a finite-table
    literal, each named by its digits abc; the centre is the scalars a = c, b = 0."""
    elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]

    def add(x, y):
        return tuple((u + v) % p for u, v in zip(x, y))

    def mul(x, y):
        a1, b1, c1 = x
        a2, b2, c2 = y
        return ((a1 * a2) % p, (a1 * b2 + b1 * c2) % p, (c1 * c2) % p)

    return _table_ring_spec(elems, add, mul, (0, 0, 0), (1, 0, 1))


def upper_triangular_f2_ring_spec():
    """The 8-element ring of upper triangular 2x2 matrices over F2: the
    smallest non-commutative unital ring, as a finite-table literal. Its one
    central unit is 1."""
    return _upper_triangular_ring_spec(2)


def upper_triangular_f3_ring_spec():
    """The 27-element ring of upper triangular 2x2 matrices over F3, whose
    centre {0, 1, 2·1} holds a central unit other than 1."""
    return _upper_triangular_ring_spec(3)


def f2_matrix_mul(x, y):
    """The product of 2x2 matrices over F2, each given row by row as (a, b, c, d)."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return ((a1 * a2 + b1 * c2) % 2, (a1 * b2 + b1 * d2) % 2,
            (c1 * a2 + d1 * c2) % 2, (c1 * b2 + d1 * d2) % 2)


F2_MATRICES = [(a, b, c, d) for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)]
# GL2(F2), isomorphic to S3, the identity first
GL2_F2 = sorted((m for m in F2_MATRICES if (m[0] * m[3] + m[1] * m[2]) % 2),
                key=lambda m: m != (1, 0, 0, 1))


def f2_matrix_ring_spec():
    """The 16-element ring M2(F2), whose unit group GL2(F2) is not abelian, as
    a finite-table literal; each element is named by its entries row by row."""
    return _table_ring_spec(F2_MATRICES, _f2_add, f2_matrix_mul, (0, 0, 0, 0), (1, 0, 0, 1))


def gl2_f2_raw():
    """GL2(F2) as a one-vertex group, each arrow named as its element of M2(F2)."""
    def label(m):
        return "".join(map(str, m))

    return {
        "id": "GL2(F2)",
        "vertices": ["*"],
        "arrows": [{"id": label(m), "src": "*", "rng": "*"} for m in GL2_F2],
        "prod": [[label(x), label(y), label(f2_matrix_mul(x, y))] for x in GL2_F2 for y in GL2_F2],
        "inv": {label(x): label(y) for x in GL2_F2 for y in GL2_F2
                if f2_matrix_mul(x, y) == (1, 0, 0, 1)},
    }


def columns_of(entries, cols):
    """The columns of a dense row-major matrix, each a {row: entry} dict with
    its zero entries kept: the form rings.solve_linear takes, with the height
    len(entries)."""
    return [{i: row[j] for i, row in enumerate(entries)} for j in range(cols)]


def components_semidirect_action(k, m, group, keep=None):
    """E ⋊ Γ acting on k disjoint copies of the pair groupoid P_m.

    group lists permutations of the k components (tuples, gamma[c] the image
    of c), closed under composition. E is the semilattice of component sets
    under intersection, and the actor's arrows are the pairs (U, gamma) with
    (U, gamma)(V, delta) = (U ∩ gamma V, gamma delta) and
    (U, gamma)* = (gamma⁻¹ U, gamma⁻¹). theta_(U, gamma) moves the copies
    gamma⁻¹(U) onto U, arrow by arrow. keep, when given, lists the sets U
    that E keeps; closed under intersection and the group, they make a
    sub-inverse-semigroup, and without the set of all copies no domain is
    global. Returns (actor, space, maps) as raw stanzas for
    validate_semigroupoid, validate_inverse_semigroupoid and
    validate_preaction.
    """
    sets = [frozenset(c for c in range(k) if mask >> c & 1) for mask in range(1 << k)]
    if keep is not None:
        keep = set(map(frozenset, keep))
        sets = [u for u in sets if u in keep]
    inverse = {g: tuple(g.index(c) for c in range(k)) for g in group}

    def name(u, g):
        return "".join(map(str, sorted(u))) + ":" + "".join(map(str, g))

    def image(g, u):
        return frozenset(g[c] for c in u)

    def compose(g, h):
        return tuple(g[h[c]] for c in range(k))

    arrows = [(u, g) for u in sets for g in group]
    actor = {
        "id": f"E{k}xG",
        "vertices": ["*"],
        "arrows": [{"id": name(u, g), "src": "*", "rng": "*"} for u, g in arrows],
        "prod": [[name(u, g), name(v, h), name(u & image(g, v), compose(g, h))]
                 for u, g in arrows for v, h in arrows],
        "inv": {name(u, g): name(image(inverse[g], u), inverse[g]) for u, g in arrows},
    }

    def arrow(c, i, j):
        return f"{c}({i},{j})"

    points = range(1, m + 1)
    space = {
        "id": f"{k}P{m}",
        "vertices": [f"{c}.{i}" for c in range(k) for i in points],
        "arrows": [{"id": arrow(c, i, j), "src": f"{c}.{j}", "rng": f"{c}.{i}"}
                   for c in range(k) for i in points for j in points],
        "prod": [[arrow(c, i, j), arrow(c, j, l), arrow(c, i, l)]
                 for c in range(k) for i in points for j in points for l in points],
        "inv": {arrow(c, i, j): arrow(c, j, i) for c in range(k) for i in points for j in points},
    }
    maps = {}
    for u, g in arrows:
        moved = [c for c in range(k) if g[c] in u]
        maps[name(u, g)] = {
            "dom": [arrow(c, i, j) for c in moved for i in points for j in points],
            "img": [arrow(g[c], i, j) for c in moved for i in points for j in points],
        }
    return actor, space, maps


def nested_chain_action(n):
    """The chain semilattice C_n = {0..n-1}, i * j = min(i, j), acting by
    identities on nested domains {x0} ⊂ {x0, x1} ⊂ ... of n points: the
    crossed product has rank n(n+1)/2 and the germ algebra rank n."""
    ids = [str(i) for i in range(n)]
    actor = {
        "id": f"C{n}",
        "vertices": ["*"],
        "arrows": [{"id": i, "src": "*", "rng": "*"} for i in ids],
        "prod": [[i, j, str(min(int(i), int(j)))] for i in ids for j in ids],
        "inv": {i: i for i in ids},
    }
    space = {**unit_groupoid_raw(tuple(f"x{i}" for i in range(n))), "id": "X"}
    maps = {}
    for i in range(n):
        dom = [f"1x{p}" for p in range(i + 1)]
        maps[str(i)] = {"dom": dom, "img": dom}
    return actor, space, maps


def preaction(actor, space, maps):
    """The validated preaction of raw actor, space and maps stanzas."""
    return validate_preaction(maps, built(actor), validate_semigroupoid(space))


# Small validated preactions drawn by Hypothesis, shared by the germ oracles

def chain_semilattice(n):
    """The chain semilattice e0 < ... < e{n-1}, ei ej = e{min(i,j)}."""
    ids = [f"e{i}" for i in range(n)]
    return built({
        "id": f"C{n}",
        "vertices": ["*"],
        "arrows": [{"id": a, "src": "*", "rng": "*"} for a in ids],
        "prod": [[ids[i], ids[j], ids[min(i, j)]] for i in range(n) for j in range(n)],
        "inv": {a: a for a in ids},
    })


def identity_on(arrows):
    arrows = list(arrows)
    return {"dom": arrows, "img": arrows}


@st.composite
def chain_actions(draw):
    """C_n acting by identities; point p lies in dom theta_ei for i >= entry[p]."""
    n = draw(st.integers(1, 4))
    points = "xyz"[:draw(st.integers(1, 3))]
    entry = {p: draw(st.integers(0, n)) for p in points}
    maps = {f"e{i}": identity_on(f"1{p}" for p in points if entry[p] <= i)
            for i in range(n)}
    return validate_preaction(maps, chain_semilattice(n),
                              built(unit_groupoid_raw(points)).base)


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
    maps = {"u": identity_on(f"1{p}" for p in dom),
            "g": {"dom": [f"1{p}" for p in dom], "img": [f"1{image[p]}" for p in dom]}}
    return validate_preaction(maps, built(cyclic2_raw()), built(unit_groupoid_raw(points)).base)


def pair_moves(points):
    """The pair groupoid on points moving the unit arrow 1j to 1i: an actor
    with several vertices, so src and rng of the actor arrows differ."""
    moves = {f"({i},{j})": {"dom": [f"1{j}"], "img": [f"1{i}"]} for i in points for j in points}
    space = built(unit_groupoid_raw(points)).base
    return validate_preaction(moves, built(pair_groupoid_raw(points)), space)
