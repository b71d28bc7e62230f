"""Seeded workload generator and oracle for the sectional benchmark.

Every workload is a list of workspace files, each with the CLI command that
runs it and the outcome the command must produce. The expected outcomes come
from the combinatorics of the generated instances (ranks from n, m, k and the
class count; arrow and vertex counts from the construction), never from
`sectional` itself, so a wrong answer from the program shows up as an error.

The seed picks names, the order of every unordered part of a file, the
structure inside each instance (colorings, involutions, transports, class
members) and what a must-fail file corrupts. The sizes come from each
workload's fixed schedule and arrows are listed in structural order (the
germ pipeline's cost moves by up to 40% in ring operations with the arrow
order at C_5), so the work per run does not depend on the seed and runs on
different seeds stay comparable.

This module imports nothing from `sectional`.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("germ-q", "certify-pair", "quotient-zmod", "structures")

# Size guards. Each cap keeps the seed code's cost per file within seconds:
# the cofactor inverse grows as O(k!), the associativity check of an algebra
# of rank r as r^4 to r^5, and the germ pipeline over Q with the crossed rank
# n(n+1)/2 and one full RREF per ideal candidate.
CAPS = {
    "transport_rank_k": (7, "mat_inverse is cofactor expansion, O(k!); k=8 takes 5.5 s per call"),
    "pair_groupoid_n": (4, "smash/crossed on P_5 take about 26 s (associativity check, rank^4-5)"),
    "germ_chain_n": (7, "germ over Q at C_7 takes about 3.4 s; C_8 runs well past 10 s"),
    "quotient_arrows_m": (10, "SNF span tests at m=10, k=4 take about 6 s per file"),
    "chain_action_n": (14, "germ build runs an O(arrows^3) transitivity check"),
    "product_arrows": (256, "direct_product builds and validates an arrows^2 table"),
}

# Per pass: the sizes each workload generates. The seed never changes them.
SCHEDULES = {
    # chain length n of C_n acting on the unit groupoid of n points
    "germ-q": {"chains": (5, 5, 5, 6, 6, 6), "must_fail": 2},
    # (theorem, n of P_n, fiber rank)
    "certify-pair": {
        "instances": (
            ("tensor", 3, 2), ("tensor", 4, 1),
            ("smash", 2, 2), ("smash", 3, 1), ("smash", 3, 1), ("smash", 3, 1),
            ("crossed", 2, 2), ("crossed", 3, 1),
            ("convolution", 4, 2), ("convolution", 3, 1),
        ),
        "must_fail": 2,
    },
    # (n of Z/n, parallel arrows m, class sizes, fiber rank k)
    "quotient-zmod": {
        "instances": (
            (6, 4, (2, 2), 6), (6, 4, (2, 2), 6), (6, 4, (2, 2), 6),
            (6, 4, (2, 2), 6), (6, 4, (2, 2), 6),
            (12, 2, (2,), 7), (12, 2, (2,), 7), (12, 2, (2,), 7),
            (6, 10, (10,), 2), (12, 10, (5, 5), 3),
        ),
        "must_fail": 2,
    },
    "structures": {
        # validate: (pair groupoid n, chain n); builds: (op, size)
        "validate": ((6, 10), (7, 12), (8, 12)),
        "builds": (
            ("semidirect", 14), ("semidirect", 12),
            ("germ", 12), ("germ", 14),
            ("quotient", 24), ("direct_product", (5, 8)), ("direct_product", (5, 8)),
            ("skew", 7), ("skew", 10),
        ),
        "must_fail": 2,
    },
}

VERIFY_FLAGS = ["--no-timestamp", "--format", "json"]


def _check_caps() -> None:
    """Refuse a schedule that exceeds a cap."""
    limit = {k: v[0] for k, v in CAPS.items()}
    sizes = [("germ_chain_n", n) for n in SCHEDULES["germ-q"]["chains"]]
    sizes += [("pair_groupoid_n", n) for _t, n, _r in SCHEDULES["certify-pair"]["instances"]]
    for _mod, m, classes, k in SCHEDULES["quotient-zmod"]["instances"]:
        sizes += [("transport_rank_k", k), ("quotient_arrows_m", m)]
        if sum(classes) != m:
            raise ValueError(f"class sizes {classes} do not cover {m} arrows")
    for op, size in SCHEDULES["structures"]["builds"]:
        if op in ("semidirect", "germ"):
            sizes.append(("chain_action_n", size))
        elif op == "direct_product":
            sizes.append(("product_arrows", size[0] ** 2 * size[1]))
    for cap, size in sizes:
        if size > limit[cap]:
            raise ValueError(f"{cap} = {size} exceeds its cap {limit[cap]}: {CAPS[cap][1]}")


_check_caps()


# ---------------------------------------------------------------------------
# Structure stanzas
# ---------------------------------------------------------------------------

class _Labels:
    """Unique seeded labels, so every file names its arrows differently."""

    def __init__(self, rnd: random.Random):
        self.rnd = rnd
        self.used: set[str] = set()

    def __call__(self, prefix: str) -> str:
        while True:
            name = f"{prefix}{self.rnd.randrange(10000)}"
            if name not in self.used:
                self.used.add(name)
                return name


def _stanza(vertices, arrows, prod, inv=None, rnd=None) -> dict:
    """arrows: [(id, src, rng)] in index order; prod: {(a, b): ab}."""
    out = {
        "vertices": list(vertices),
        "arrows": [{"id": a, "src": s, "rng": r} for a, s, r in arrows],
        "prod": [[a, b, c] for (a, b), c in prod.items()],
    }
    if rnd is not None:
        rnd.shuffle(out["prod"])
    if inv is not None:
        out["inv"] = dict(inv)
    return out


def _shuffled(rnd, items):
    items = list(items)
    rnd.shuffle(items)
    return items


def pair_groupoid(n, label, rnd):
    """P_n: arrow (i,j) from j to i; returns (stanza, arrow id table, vertex ids)."""
    verts = [label("v") for _ in range(n)]
    ids = {(i, j): label("p") for i in range(n) for j in range(n)}
    arrows = [(ids[p], verts[p[1]], verts[p[0]]) for p in ids]
    prod = {
        (ids[(i, j)], ids[(j, k)]): ids[(i, k)]
        for i in range(n) for j in range(n) for k in range(n)
    }
    inv = {ids[(i, j)]: ids[(j, i)] for i in range(n) for j in range(n)}
    return _stanza(verts, arrows, prod, inv, rnd), ids, verts


def chain_semilattice(n, label, rnd):
    """C_n: one vertex, arrows e_0..e_{n-1}, e_i e_j = e_min(i,j)."""
    star = label("o")
    ids = [label("e") for _ in range(n)]
    arrows = [(ids[i], star, star) for i in range(n)]
    prod = {(ids[i], ids[j]): ids[min(i, j)] for i in range(n) for j in range(n)}
    inv = {a: a for a in ids}
    return _stanza([star], arrows, prod, inv, rnd), ids


def unit_groupoid(points, label, rnd):
    """Identity loops on the given points; returns (stanza, loop ids)."""
    ids = {p: label("i") for p in points}
    arrows = [(ids[p], p, p) for p in points]
    prod = {(ids[p], ids[p]): ids[p] for p in points}
    inv = {a: a for a in ids.values()}
    return _stanza(points, arrows, prod, inv, rnd), ids


def z2_group(label):
    star, u, g = label("z"), label("u"), label("g")
    prod = {(u, u): u, (u, g): g, (g, u): g, (g, g): u}
    return _stanza([star], [(u, star, star), (g, star, star)], prod, {u: u, g: g}), u, g


def nested_chain_action(n, label, rnd):
    """C_n acting by identities on nested domains D_0 < ... < D_{n-1}, |D_i| = i+1,
    points listed in the order they enter the chain.

    Returns the actor, space and action stanzas, chain ids, loop ids, points.
    """
    actor, chain = chain_semilattice(n, label, rnd)
    entry = [label("x") for _ in range(n)]
    space, loops = unit_groupoid(entry, label, rnd)
    maps = {}
    for i in _shuffled(rnd, range(n)):
        dom = [loops[p] for p in _shuffled(rnd, entry[: i + 1])]
        maps[chain[i]] = {"dom": dom, "img": list(dom)}
    return actor, space, {"maps": maps}, chain, loops, entry


def _is_associative(table: dict) -> bool:
    for (a, b), ab in table.items():
        for (b2, c), bc in table.items():
            if b2 != b:
                continue
            left = table.get((ab, c))
            right = table.get((a, bc))
            if left != right:
                return False
    return True


def _corrupt_chain_product(actor: dict, rnd) -> None:
    """Redirect one product of a chain semilattice so associativity fails."""
    table = {(a, b): c for a, b, c in actor["prod"]}
    names = sorted({a for a, _b in table})
    while True:
        key = rnd.choice(sorted(table))
        wrong = rnd.choice([x for x in names if x != table[key]])
        trial = dict(table)
        trial[key] = wrong
        if not _is_associative(trial):
            break
    for entry in actor["prod"]:
        if (entry[0], entry[1]) == key:
            entry[2] = wrong


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _spec(name, doc, argv, expect) -> dict:
    return {"name": name, "doc": doc, "argv": argv, "expect": expect}


def _verify(theorem: str) -> list:
    return ["verify", theorem, "--input", "{input}"] + VERIFY_FLAGS


def _task(status, data=None, kind=None) -> dict:
    out = {"status": status, "data": data or {}}
    if kind is not None:
        out["kind"] = kind
    return out


def _germ_doc(actor, space, action) -> dict:
    return {
        "ring": {"kind": "q"},
        "semigroupoids": {"S": actor, "X": space},
        "actions": {"theta": dict(action, actor="S", space="X")},
        "tasks": [{"kind": "verify", "theorem": "germ", "action": "theta"}],
    }


def germ_q(rnd) -> list:
    label = _Labels(rnd)
    specs = []
    for idx, n in enumerate(SCHEDULES["germ-q"]["chains"]):
        actor, space, action, *_ = nested_chain_action(n, label, rnd)
        doc = _germ_doc(actor, space, action)
        crossed = n * (n + 1) // 2
        expect = {"exit": 0, "tasks": [_task("pass", {
            "crossed_rank": crossed, "quotient_rank": n, "ideal_rank": crossed - n,
        })]}
        specs.append(_spec(f"germ-{idx:02d}-c{n}.json", doc, _verify("germ"), expect))

    for idx in range(SCHEDULES["germ-q"]["must_fail"]):
        n = 4
        actor, space, action, chain, loops, entry = nested_chain_action(n, label, rnd)
        if idx % 2 == 0:
            _corrupt_chain_product(actor, rnd)
            kind = "associativity"
        else:
            # theta_e maps one point onto another; e is its own inverse, so
            # dom(theta_e*) != ran(theta_e)
            i = rnd.randrange(n - 1)
            dom = action["maps"][chain[i]]["dom"]
            img = list(dom)
            img[rnd.randrange(len(img))] = loops[rnd.choice(entry[i + 1:])]
            action["maps"][chain[i]]["img"] = img
            kind = "inverse-compatibility"
        doc = _germ_doc(actor, space, action)
        expect = {"exit": 1, "tasks": [_task("fail", kind=kind)]}
        specs.append(_spec(f"germ-fail-{idx:02d}.json", doc, _verify("germ"), expect))
    return specs


def _diag_constants(pairs, r):
    """Fiber algebra Q^r (coordinatewise product) on every composable pair."""
    table = [[[1 if (a == b == c) else 0 for c in range(r)] for b in range(r)]
             for a in range(r)]
    return {f"{x},{y}": table for x, y in pairs}


def _parity_grading(n, ids, verts, u, g, rnd) -> dict:
    """P_n -> Z2, (i,j) -> g exactly when the seeded colors of i and j differ;
    both colors are used, so the grading is never trivial."""
    color = {v: rnd.randrange(2) for v in verts}
    if len(set(color.values())) == 1:
        color[verts[0]] ^= 1
    return {ids[(i, j)]: (g if color[verts[i]] != color[verts[j]] else u)
            for i in range(n) for j in range(n)}


def _pair_bundle(n, r, label, rnd):
    sgpd, ids, verts = pair_groupoid(n, label, rnd)
    bundle = {"base": "P", "mode": "sc"}
    if r > 1:
        bundle["ranks"] = {a: r for a in ids.values()}
        pairs = [(ids[(i, j)], ids[(j, k)])
                 for i in range(n) for j in range(n) for k in range(n)]
        bundle["constants"] = _diag_constants(pairs, r)
    return sgpd, ids, verts, bundle


def certify_pair(rnd) -> list:
    label = _Labels(rnd)
    specs = []
    for idx, (theorem, n, r) in enumerate(SCHEDULES["certify-pair"]["instances"]):
        sgpd, ids, verts, bundle = _pair_bundle(n, r, label, rnd)
        z2, u, g = z2_group(label)
        doc = {"ring": {"kind": "q"}, "semigroupoids": {"P": sgpd, "Z2": z2},
               "bundles": {"b": bundle}}
        rank = n * n * r
        if theorem == "tensor":
            task = {"kind": "verify", "theorem": "tensor", "bundle": "b", "factor": "Z2"}
            data = {"source_rank": 2 * rank, "target_rank": 2 * rank,
                    "matrix_rank": 2 * rank, "rank_identity": True}
        elif theorem == "smash":
            grading = _parity_grading(n, ids, verts, u, g, rnd)
            doc["homomorphisms"] = {"d": {"source": "P", "target": "Z2", "map": grading}}
            task = {"kind": "verify", "theorem": "smash", "bundle": "b", "grading": "d"}
            data = {"source_rank": 2 * rank, "target_rank": 2 * rank,
                    "matrix_rank": 2 * rank}
        elif theorem == "crossed":
            # Z2 relabels the points by a seeded involution
            sigma = list(range(n))
            perm = _shuffled(rnd, range(n))
            for a, b in zip(perm[0::2], perm[1::2]):
                sigma[a], sigma[b] = b, a
            all_arrows = [ids[(i, j)] for i in range(n) for j in range(n)]
            doc["actions"] = {"swap": {"actor": "Z2", "space": "P", "maps": {
                u: {"dom": all_arrows, "img": all_arrows},
                g: {"dom": all_arrows,
                    "img": [ids[(sigma[i], sigma[j])] for i in range(n) for j in range(n)]},
            }}}
            baction = {"action": "swap", "bundle": "b"}
            if r > 1 and rnd.randrange(2):
                flip = [[int(a == r - 1 - b) for b in range(r)] for a in range(r)]
                baction["fibers"] = {g: {a: flip for a in all_arrows}}
            doc["bundle_actions"] = {"ba": baction}
            task = {"kind": "verify", "theorem": "crossed", "action": "ba"}
            data = {"source_rank": 2 * rank, "target_rank": 2 * rank,
                    "matrix_rank": 2 * rank}
        else:
            triples = 120 if r == 1 else 40
            task_seed = rnd.randrange(1 << 30)
            task = {"kind": "verify", "theorem": "convolution", "bundle": "b",
                    "triples": triples, "seed": task_seed}
            data = {"triples": triples, "seed": task_seed}
        doc["tasks"] = [task]
        expect = {"exit": 0, "tasks": [_task("pass", data)]}
        specs.append(_spec(f"pair-{idx:02d}-{theorem}-p{n}r{r}.json", doc,
                           _verify(theorem), expect))

    for idx in range(SCHEDULES["certify-pair"]["must_fail"]):
        n, r = 3, 2
        sgpd, ids, verts, bundle = _pair_bundle(n, r, label, rnd)
        z2, u, g = z2_group(label)
        all_arrows = [ids[(i, j)] for i in range(n) for j in range(n)]
        doc = {"ring": {"kind": "q"}, "semigroupoids": {"P": sgpd, "Z2": z2},
               "bundles": {"b": bundle}}
        if idx % 2 == 0:
            # an involutive fiber map that is not an algebra automorphism
            bad = [[1, 0], [1, -1]]
            doc["actions"] = {"swap": {"actor": "Z2", "space": "P", "maps": {
                u: {"dom": all_arrows, "img": all_arrows},
                g: {"dom": all_arrows, "img": all_arrows},
            }}}
            doc["bundle_actions"] = {"ba": {"action": "swap", "bundle": "b",
                                            "fibers": {g: {a: bad for a in all_arrows}}}}
            doc["tasks"] = [{"kind": "verify", "theorem": "crossed", "action": "ba"}]
            theorem, kind = "crossed", "intertwining"
        else:
            # a grading that sends one arrow to the wrong degree
            gmap = _parity_grading(n, ids, verts, u, g, rnd)
            i, j = rnd.sample(range(n), 2)
            gmap[ids[(i, j)]] = u if gmap[ids[(i, j)]] == g else g
            doc["homomorphisms"] = {"d": {"source": "P", "target": "Z2", "map": gmap}}
            doc["tasks"] = [{"kind": "verify", "theorem": "smash", "bundle": "b",
                             "grading": "d"}]
            theorem, kind = "smash", "multiplicativity"
        expect = {"exit": 1, "tasks": [_task("fail", kind=kind)]}
        specs.append(_spec(f"pair-fail-{idx:02d}-{theorem}.json", doc,
                           _verify(theorem), expect))
    return specs


def _det(mat) -> Fraction:
    """Determinant by exact Gaussian elimination (independent of sectional)."""
    m = [[Fraction(x) for x in row] for row in mat]
    k = len(m)
    det = Fraction(1)
    for c in range(k):
        p = next((i for i in range(c, k) if m[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, k):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def unimodular(k, rnd):
    """Seeded integer matrix with determinant +-1: a product of elementary moves."""
    mat = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(2 * k):
        i, j = rnd.sample(range(k), 2)
        q = rnd.choice((-2, -1, 1, 2))
        mat[i] = [x + q * y for x, y in zip(mat[i], mat[j])]
    rows = _shuffled(rnd, mat)
    assert abs(_det(rows)) == 1
    return rows


def _parallel_congruence(mod, m, sizes, k, label, rnd, bad=False):
    v, w = label("v"), label("w")
    arrows = [label("a") for _ in range(m)]
    sgpd = _stanza([v, w], [(a, v, w) for a in arrows], {})
    members = _shuffled(rnd, arrows)
    classes, start = [], 0
    for size in sizes:
        classes.append(members[start: start + size])
        start += size
    index = {a: i for i, a in enumerate(arrows)}
    transports = {}
    for block in classes:
        rep = min(block, key=index.get)
        for a in block:
            if a != rep:
                transports[a] = [[x % mod for x in row] for row in unimodular(k, rnd)]
    bad_arrow = None
    if bad:
        bad_arrow = rnd.choice(sorted(transports))
        mat = [list(row) for row in transports[bad_arrow]]
        # doubling one row doubles the determinant, a zero divisor mod 6 and 12
        row = rnd.randrange(k)
        mat[row] = [(2 * x) % mod for x in mat[row]]
        transports[bad_arrow] = mat
    doc = {
        "ring": {"kind": "zmod", "n": mod},
        "semigroupoids": {"B": sgpd},
        "bundles": {"b": {"base": "B", "mode": "sc", "ranks": {a: k for a in arrows}}},
        "congruences": {"c": {"base": "B", "classes": [_shuffled(rnd, c) for c in classes],
                              "transports": transports}},
        "tasks": [{"kind": "verify", "theorem": "quotient", "bundle": "b",
                   "congruence": "c"}],
    }
    return doc


def quotient_zmod(rnd) -> list:
    label = _Labels(rnd)
    specs = []
    for idx, (mod, m, sizes, k) in enumerate(SCHEDULES["quotient-zmod"]["instances"]):
        doc = _parallel_congruence(mod, m, sizes, k, label, rnd)
        data = {"source_rank": m * k, "target_rank": len(sizes) * k}
        expect = {"exit": 0, "tasks": [_task("pass", data)]}
        specs.append(_spec(f"quot-{idx:02d}-z{mod}-m{m}k{k}.json", doc,
                           _verify("quotient"), expect))
    for idx in range(SCHEDULES["quotient-zmod"]["must_fail"]):
        mod = (6, 12)[idx % 2]
        doc = _parallel_congruence(mod, 4, (2, 2), 3, label, rnd, bad=True)
        expect = {"exit": 1, "tasks": [_task("fail", kind="non-invertible-transport")]}
        specs.append(_spec(f"quot-fail-{idx:02d}-z{mod}.json", doc,
                           _verify("quotient"), expect))
    return specs


def _build(name, doc, task_id, arrows, vertices) -> dict:
    argv = ["build", task_id, "--input", "{input}", "--out", "{out}"]
    return _spec(name, doc, argv, {"exit": 0, "arrows": arrows, "vertices": vertices})


def structures(rnd) -> list:
    label = _Labels(rnd)
    sched = SCHEDULES["structures"]
    specs = []
    for idx, (pn, cn) in enumerate(sched["validate"]):
        pair, *_ = pair_groupoid(pn, label, rnd)
        actor, space, action, *_ = nested_chain_action(cn, label, rnd)
        z2, u, g = z2_group(label)
        doc = {
            "ring": {"kind": "q"},
            "semigroupoids": {"P": pair, "C": actor, "X": space, "Z2": z2},
            "actions": {"theta": dict(action, actor="C", space="X")},
            "tasks": [{"kind": "validate", "target": "P"}],
        }
        # one entry per semigroupoid and per inverse table, plus the action
        expect = {"exit": 0, "entries": 9, "failed": 0}
        specs.append(_spec(f"struct-{idx:02d}-validate-p{pn}c{cn}.json", doc,
                           ["validate", "{input}", "--format", "json"], expect))

    for idx, (op, size) in enumerate(sched["builds"]):
        name = f"struct-{idx:02d}-build-{op}.json"
        if op in ("semidirect", "germ"):
            actor, space, action, *_ = nested_chain_action(size, label, rnd)
            doc = {"semigroupoids": {"C": actor, "X": space},
                   "actions": {"theta": dict(action, actor="C", space="X")},
                   "tasks": [{"kind": "build", "id": "out", "op": op, "action": "theta"}]}
            # semidirect: one arrow per (e_i, x) with x in D_i; germ: one per point
            arrows = size * (size + 1) // 2 if op == "semidirect" else size
            specs.append(_build(name, doc, "out", arrows, size))
        elif op == "quotient":
            # `size` parallel arrows between two vertices, collapsed in seeded blocks
            v, w = label("v"), label("w")
            par = [label("a") for _ in range(size)]
            base = _stanza([v, w], [(a, v, w) for a in par], {})
            members = _shuffled(rnd, par)
            blocks = [members[i: i + 3] for i in range(0, size, 3)]
            doc = {"semigroupoids": {"B": base},
                   "congruences": {"c": {"base": "B", "classes": blocks}},
                   "tasks": [{"kind": "build", "id": "out", "op": "quotient",
                              "congruence": "c"}]}
            specs.append(_build(name, doc, "out", len(blocks), 2))
        elif op == "direct_product":
            pn, cn = size
            pair, *_ = pair_groupoid(pn, label, rnd)
            actor, _chain = chain_semilattice(cn, label, rnd)
            doc = {"semigroupoids": {"P": pair, "C": actor},
                   "tasks": [{"kind": "build", "id": "out", "op": "direct_product",
                              "left": "P", "right": "C"}]}
            specs.append(_build(name, doc, "out", pn * pn * cn, pn))
        elif op == "skew":
            pair, ids, verts = pair_groupoid(size, label, rnd)
            z2, u, g = z2_group(label)
            grading = _parity_grading(size, ids, verts, u, g, rnd)
            doc = {"semigroupoids": {"P": pair, "Z2": z2},
                   "homomorphisms": {"d": {"source": "P", "target": "Z2", "map": grading}},
                   "tasks": [{"kind": "build", "id": "out", "op": "skew",
                              "base": "P", "grading": "d"}]}
            specs.append(_build(name, doc, "out", 2 * size * size, 2 * size))

    for idx in range(sched["must_fail"]):
        if idx % 2 == 0:
            actor, _chain = chain_semilattice(10, label, rnd)
            _corrupt_chain_product(actor, rnd)
            doc = {"semigroupoids": {"C": actor}, "tasks": []}
            kind = "associativity"
        else:
            n = 6
            pair, ids, _verts = pair_groupoid(n, label, rnd)
            # (i,j)(j,k) := (i,l) with l != k keeps the range, breaks the source
            i, j, k = (rnd.randrange(n) for _ in range(3))
            l = (k + 1 + rnd.randrange(n - 1)) % n
            for entry in pair["prod"]:
                if entry[:2] == [ids[(i, j)], ids[(j, k)]]:
                    entry[2] = ids[(i, l)]
            doc = {"semigroupoids": {"P": pair}, "tasks": []}
            kind = "source-compatibility"
        expect = {"exit": 1, "failed_kind": kind}
        specs.append(_spec(f"struct-fail-{idx:02d}.json", doc,
                           ["validate", "{input}", "--format", "json"], expect))
    return specs


GENERATORS = {
    "germ-q": germ_q,
    "certify-pair": certify_pair,
    "quotient-zmod": quotient_zmod,
    "structures": structures,
}


def generate(workload: str, seed: int) -> list:
    """The workload's file specs for this seed, in a seeded order."""
    rnd = random.Random(f"{workload}:{seed}")
    specs = GENERATORS[workload](rnd)
    rnd.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# Oracle: compare one CLI outcome with the generator's expectation
# ---------------------------------------------------------------------------

def witness_kind(entry: dict) -> str | None:
    """The failure kind of a failed report entry: the first failed check's
    name, else the kind named in the validation summary ("<subject>: <kind> at")."""
    for check in entry.get("checks", []):
        if not check.get("ok"):
            return check["name"]
    message = entry.get("message", "")
    for part in message.split(": "):
        words = part.split(" at ", 1)
        if len(words) == 2 and words[0] and all(c.isalnum() or c == "-" for c in words[0]):
            return words[0]
    return None


def outcome_error(spec: dict, call: dict) -> str | None:
    """None when the call produced the expected outcome, else what differs."""
    expect = spec["expect"]
    if call["rc"] != expect["exit"]:
        detail = call.get("error") or call.get("stderr", "")
        return f"exit {call['rc']} != {expect['exit']} {detail[-300:]}".strip()
    command = spec["argv"][0]
    if command == "build":
        built = json.loads(call["written"])
        got = (len(built["arrows"]), len(built["vertices"]))
        if got != (expect["arrows"], expect["vertices"]):
            return f"built (arrows, vertices) {got} != {(expect['arrows'], expect['vertices'])}"
        if f"({expect['arrows']} arrows)" not in call["stdout"]:
            return "build summary line names another arrow count"
        return None
    report = json.loads(call["stdout"])
    entries = report["workspaces"][0]["tasks"]
    if command == "validate":
        failed = [e for e in entries if e["status"] != "pass"]
        if "entries" in expect and len(entries) != expect["entries"]:
            return f"{len(entries)} validate entries != {expect['entries']}"
        if "failed_kind" in expect:
            kind = witness_kind(failed[0]) if failed else None
            if kind != expect["failed_kind"]:
                return f"witness kind {kind!r} != {expect['failed_kind']!r}"
        elif failed:
            return f"validate entry failed: {failed[0].get('message', '')}"
        return None
    tasks = expect["tasks"]
    if len(entries) != len(tasks):
        return f"{len(entries)} task entries != {len(tasks)}"
    for entry, want in zip(entries, tasks):
        if entry["status"] != want["status"]:
            return f"status {entry['status']} != {want['status']}: {entry.get('message', '')}"
        for key, value in want["data"].items():
            if entry["data"].get(key) != value:
                return f"{key} {entry['data'].get(key)!r} != {value!r}"
        if "kind" in want and witness_kind(entry) != want["kind"]:
            return f"witness kind {witness_kind(entry)!r} != {want['kind']!r}"
        if want["status"] == "pass" and not all(c["ok"] for c in entry.get("checks", [])):
            return "a check failed in a passing task"
    return None
