"""Raw table builders and checks shared across the test modules.

The builders return plain stanza dicts so tests can perturb single entries and
watch the validators reject them; built(raw) validates a stanza into the
structure the library works on.
"""

import copy

from sectional.actions import validate_preaction
from sectional.semigroupoids import (
    Homomorphism,
    validate_homomorphism,
    validate_inverse_semigroupoid,
    validate_semigroupoid,
)
from sectional.validation import must


def built(raw):
    """The validated structure of a raw stanza: an inverse semigroupoid when the
    stanza carries an inverse table, a semigroupoid otherwise."""
    sgpd = must(validate_semigroupoid(raw))
    return must(validate_inverse_semigroupoid(sgpd, raw["inv"])) if "inv" in raw else sgpd


def is_isomorphism(mapping, source, target):
    """Whether the arrow map {source name: target name} is an isomorphism: a
    rigid homomorphism, a bijection onto the target's arrows, and as many
    vertices on each side."""
    hom = validate_homomorphism(mapping, source, target)
    return (isinstance(hom, Homomorphism) and hom.rigid
            and sorted(hom.map) == list(target.arrows())
            and source.n_vertices == target.n_vertices)


# the skew product of Z/2 graded by itself, onto the pair groupoid P_2
SKEW_Z2_TO_PAIR = {"(u,u)": "(1,1)", "(u,g)": "(2,2)", "(g,u)": "(2,1)", "(g,g)": "(1,2)"}


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


def upper_triangular_f2_ring_spec():
    """The 8-element ring of upper triangular 2x2 matrices over F2: the
    smallest non-commutative unital ring, as a finite-table literal."""
    elems = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    idx = {e: i for i, e in enumerate(elems)}

    def add(x, y):
        return tuple((p + q) % 2 for p, q in zip(x, y))

    def mul(x, y):
        a1, b1, c1 = x
        a2, b2, c2 = y
        return ((a1 * a2) % 2, (a1 * b2 + b1 * c2) % 2, (c1 * c2) % 2)

    names = ["".join(map(str, e)) for e in elems]
    return {
        "kind": "table",
        "elements": names,
        "add": [[idx[add(x, y)] for y in elems] for x in elems],
        "mul": [[idx[mul(x, y)] for y in elems] for x in elems],
        "zero": idx[(0, 0, 0)],
        "one": idx[(1, 0, 1)],
    }


def columns_of(entries, cols):
    """The columns of a dense row-major matrix, each a {row: entry} dict with
    its zero entries kept: the form rings.solve_linear takes, with the height
    len(entries)."""
    return [{i: row[j] for i, row in enumerate(entries)} for j in range(cols)]


def components_semidirect_action(k, m, group):
    """E ⋊ Γ acting on k disjoint copies of the pair groupoid P_m.

    group lists permutations of the k components (tuples, gamma[c] the image
    of c), closed under composition. E is the semilattice of component sets
    under intersection, and the actor's arrows are the pairs (U, gamma) with
    (U, gamma)(V, delta) = (U ∩ gamma V, gamma delta) and
    (U, gamma)* = (gamma⁻¹ U, gamma⁻¹). theta_(U, gamma) moves the copies
    gamma⁻¹(U) onto U, arrow by arrow. Returns (actor, space, maps) as raw
    stanzas for validate_semigroupoid, validate_inverse_semigroupoid and
    validate_preaction.
    """
    sets = [frozenset(c for c in range(k) if mask >> c & 1) for mask in range(1 << k)]
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
    return must(validate_preaction(maps, built(actor), must(validate_semigroupoid(space))))
