"""Finite semigroupoids, inverse semigroupoids, and their homomorphisms.

A semigroupoid is a directed graph with an associative partial product defined
exactly on composable arrow pairs (source of the left factor equals range of
the right factor). Arrows and vertices are dense integer ids; names live in
sidecar tables and appear in every witness. Each arrow maps only its declared
products, so a semigroupoid takes memory O(arrows + products).

All validators enumerate exhaustively and return the validated object, or
raise StructureError carrying a report of the lexicographically smallest
failing tuple per violated axiom.
"""

from __future__ import annotations

from typing import Iterator

from .validation import StructureError, ValidationReport


def label_index(labels) -> dict:
    """label -> position; labels must be unique."""
    index = {label: i for i, label in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("labels must be unique")
    return index


class FiniteSemigroupoid:
    """Arrows with source, range and, per arrow a, the map prod[a] from each b
    with a declared product to ab.

    Each arrow has a display name and a label, the coordinates its builder
    writes it in, such as (x, y) for an arrow of a product; labels default to
    the names. index maps each label to its arrow, so only the builder knows
    the arrow order; by_name maps each name to its first arrow.

    into[v] and leaving[v] list the arrows with range and source v, ascending.
    Every walk over composable pairs or triples goes through them, so it costs
    what it yields and meets the tuples in lexicographic order. Equality
    compares the vertex and arrow names, the tables and name, not the labels.
    """

    def __init__(self, vertex_names: tuple[str, ...], arrow_names: tuple[str, ...],
                 src: tuple[int, ...], rng: tuple[int, ...], prod: tuple[dict[int, int], ...],
                 name: str = "", labels: tuple | None = None):
        self.vertex_names, self.arrow_names = vertex_names, arrow_names
        self.src, self.rng, self.prod, self.name = src, rng, prod, name
        self.labels = arrow_names if labels is None else tuple(labels)
        if len(self.labels) != self.n_arrows:
            raise ValueError("one label per arrow required")
        self.index = label_index(self.labels)
        # filled last to first, so a repeated name keeps its first arrow
        self.by_name = dict(zip(reversed(self.arrow_names), range(self.n_arrows - 1, -1, -1)))
        into: list[list[int]] = [[] for _ in self.vertex_names]
        leaving: list[list[int]] = [[] for _ in self.vertex_names]
        for c, v in enumerate(self.rng):
            into[v].append(c)
            leaving[self.src[c]].append(c)
        self.into = tuple(map(tuple, into))
        self.leaving = tuple(map(tuple, leaving))
        self.composable = tuple(
            (a, b) for a, v in enumerate(self.src) for b in self.into[v]
        )

    def __eq__(self, other):
        def key(x):
            return x.vertex_names, x.arrow_names, x.src, x.rng, x.prod, x.name
        return type(other) is type(self) and key(self) == key(other)

    @property
    def n_arrows(self) -> int:
        return len(self.arrow_names)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_names)

    def arrows(self) -> range:
        return range(self.n_arrows)

    def is_composable(self, a: int, b: int) -> bool:
        return self.src[a] == self.rng[b]

    def compose(self, a: int, b: int) -> int | None:
        """ab, or None when no product is declared for (a, b)."""
        return self.prod[a].get(b)

    def composable_triples(self) -> Iterator[tuple[int, int, int]]:
        into, src = self.into, self.src
        for a, b in self.composable:
            for c in into[src[b]]:
                yield a, b, c

    def arrow_index(self, name: str) -> int:
        return self.by_name[name]


def in_arrow_order(raw: dict, position) -> list[tuple]:
    """(key, position(key), value) per member of a JSON object, keys as str, in
    an order its key order cannot change: keys with no position first, the
    smallest string first, then by position (an arrow, or a pair of arrows)."""
    members = [(k, position(k), v) for k, v in ((str(k), v) for k, v in raw.items())]
    return sorted(members, key=lambda m: (0, m[0], ()) if m[1] is None else (1, "", m[1]))


def composable_labels(sgpd: FiniteSemigroupoid, labels, left=None, right=None) -> Iterator[tuple[int, int]]:
    """Index pairs (p, q), ascending, whose labels (s, x) and (t, y) have (s, t)
    composable; labels must be grouped by arrow in ascending arrow order. With
    keys, a pair is met only when the distinct keys left(s, x) yields and those
    right(t, y) yields share one: a hash join on (arrow, key) that costs what it
    yields. The partners a left label finds through several keys are met once
    each, merged into ascending order."""
    at: list[dict] = [{} for _ in sgpd.arrow_names]
    for q, (t, y) in enumerate(labels):
        for key in (None,) if right is None else right(t, y):
            at[t].setdefault(key, []).append(q)
    for p, (s, x) in enumerate(labels):
        keys = (None,) if left is None else left(s, x)
        for t in sgpd.into[sgpd.src[s]]:
            hits = [q for key in keys for q in at[t].get(key, ())]
            for q in sorted(set(hits)) if len(keys) > 1 else hits:
                yield p, q


def semigroupoid_to_raw(sgpd: FiniteSemigroupoid, inv: "FiniteInverseSemigroupoid | None" = None) -> dict:
    """Serialize into the structure-file stanza; parses back to an equal object."""
    base = inv.base if inv is not None else sgpd
    raw = {
        "id": base.name,
        "vertices": list(base.vertex_names),
        "arrows": [
            {"id": base.arrow_names[a],
             "src": base.vertex_names[base.src[a]],
             "rng": base.vertex_names[base.rng[a]]}
            for a in base.arrows()
        ],
        "prod": [
            [base.arrow_names[a], base.arrow_names[b], base.arrow_names[base.prod[a][b]]]
            for a, b in base.composable
        ],
    }
    if inv is not None:
        raw["inv"] = {
            base.arrow_names[s]: base.arrow_names[inv.inv[s]] for s in base.arrows()
        }
    return raw


def validate_semigroupoid(raw) -> FiniteSemigroupoid:
    """Build a semigroupoid from raw tables, checking every axiom by enumeration.

    Accepts the structure-file stanza (dict) or an already built object to
    re-validate. Structural problems (unknown ids, conflicting entries) are
    reported with kind "structural", distinct from axiom failures.
    """
    if isinstance(raw, FiniteSemigroupoid):
        return _checked(raw, _check_axioms)

    name = str(raw.get("id", ""))
    report = ValidationReport(f"semigroupoid {name or '<anonymous>'}")
    vertices = [str(v) for v in raw.get("vertices", [])]
    if len(set(vertices)) != len(vertices):
        report.add("structural", (), "duplicate vertex ids")
        raise StructureError(report)
    vindex = {v: i for i, v in enumerate(vertices)}

    aindex: dict[str, int] = {}
    src: list[int] = []
    rng: list[int] = []
    for entry in raw.get("arrows", []):
        aid = str(entry.get("id"))
        if aid in aindex:
            report.add("structural", (aid,), f"duplicate arrow id {aid!r}")
            raise StructureError(report)
        s, r = str(entry.get("src")), str(entry.get("rng"))
        if s not in vindex or r not in vindex:
            report.add("structural", (aid,), f"arrow {aid!r} references an unknown vertex")
            raise StructureError(report)
        aindex[aid] = len(src)
        src.append(vindex[s])
        rng.append(vindex[r])

    prod: list[dict[int, int]] = [{} for _ in src]
    for entry in raw.get("prod", []):
        if len(entry) != 3:
            report.add("structural", tuple(map(str, entry)), "prod entries must be [a, b, ab]")
            raise StructureError(report)
        a, b, c = (str(x) for x in entry)
        if a not in aindex or b not in aindex or c not in aindex:
            report.add("structural", (a, b, c), "prod entry references an unknown arrow")
            raise StructureError(report)
        ia, ib, ic = aindex[a], aindex[b], aindex[c]
        if prod[ia].get(ib, ic) != ic:
            report.add("structural", (a, b), f"conflicting products declared for ({a},{b})")
            raise StructureError(report)
        prod[ia][ib] = ic

    sgpd = FiniteSemigroupoid(
        tuple(vertices), tuple(aindex), tuple(src), tuple(rng), tuple(prod), name=name,
    )
    _check_axioms(sgpd, report)
    if not report.ok:
        raise StructureError(report)
    return sgpd


def _checked(sgpd: FiniteSemigroupoid, check=lambda sgpd, report: None) -> FiniteSemigroupoid:
    """A built sgpd, once its names and then check(sgpd, report) pass."""
    report = _check_names(sgpd)
    if report.ok:
        check(sgpd, report)
    if not report.ok:
        raise StructureError(report)
    return sgpd


def _check_names(sgpd: FiniteSemigroupoid) -> ValidationReport:
    """A built object's names, held to the file's rules so that it parses back."""
    report = ValidationReport(f"semigroupoid {sgpd.name or '<anonymous>'}")
    names = sgpd.arrow_names
    if len(set(sgpd.vertex_names)) != sgpd.n_vertices:
        report.add("structural", (), "duplicate vertex ids")
    elif len(set(names)) != sgpd.n_arrows:
        repeat = next(a for i, a in enumerate(names) if sgpd.by_name[a] != i)
        report.add("structural", (repeat,), f"duplicate arrow id {repeat!r}")
    return report


def _check_pairs(sgpd: FiniteSemigroupoid, report: ValidationReport) -> None:
    """The axioms one pair decides: a product exactly on the composable pairs,
    each with the right factor's source and the left factor's range; the first
    failing pair per kind is the witness."""
    names = sgpd.arrow_names
    src, rng, into = sgpd.src, sgpd.rng, sgpd.into
    seen: set[str] = set()

    def fail(kind, witness, message):
        if kind not in seen:
            seen.add(kind)
            report.add(kind, witness, message)

    # only declared products and composable pairs can fail; sorting them (a
    # file declares in any order) keeps the witnesses lexicographic
    for a, row in enumerate(sgpd.prod):
        sa, ra = src[a], rng[a]
        for b in sorted(row.keys() | into[sa]):
            c = row.get(b)
            if sa == rng[b]:
                if c is None:
                    fail("undefined-product", (names[a], names[b]),
                         f"({names[a]},{names[b]}) is composable but has no product")
                else:
                    if src[c] != src[b]:
                        fail("source-compatibility", (names[a], names[b]),
                             f"src({names[a]}{names[b]}) != src({names[b]})")
                    if rng[c] != ra:
                        fail("range-compatibility", (names[a], names[b]),
                             f"rng({names[a]}{names[b]}) != rng({names[a]})")
            else:
                fail("product-on-noncomposable", (names[a], names[b]),
                     f"product declared on non-composable pair ({names[a]},{names[b]})")


def _check_axioms(sgpd: FiniteSemigroupoid, report: ValidationReport) -> None:
    """The pair axioms, then associativity over every composable triple."""
    _check_pairs(sgpd, report)
    if not report.ok:
        return
    names, src, prod, into = sgpd.arrow_names, sgpd.src, sgpd.prod, sgpd.into
    for a, b in sgpd.composable:
        row_a, row_b = prod[a], prod[b]
        row_ab = prod[row_a[b]]
        for c in into[src[b]]:
            if row_ab[c] != row_a[row_b[c]]:
                report.add("associativity", (names[a], names[b], names[c]),
                           f"({names[a]}{names[b]}){names[c]} != {names[a]}({names[b]}{names[c]})")
                return


class FiniteInverseSemigroupoid:
    """Semigroupoid where every arrow has a unique generalized inverse.

    Carries the idempotent set and the natural order, leq = {(s, t) : s <= t}
    (s = te for an idempotent e), both derived from the table and never
    passed in: leq as s = t(s*s), with src t = rng(s*s) = src s, which
    validate_inverse_semigroupoid cross-checks four ways.
    """

    def __init__(self, base: FiniteSemigroupoid, inv: tuple[int, ...]):
        self.base, self.inv = base, inv
        self.idempotents = tuple(_idempotents(base))
        self.leq = frozenset((s, t) for s in base.arrows() for t in base.leaving[base.src[s]]
                             if base.prod[t].get(base.prod[inv[s]].get(s)) == s)


def _idempotents(sgpd: FiniteSemigroupoid) -> list[int]:
    return [e for e in sgpd.arrows() if sgpd.compose(e, e) == e]


def validate_inverse_semigroupoid(sgpd: FiniteSemigroupoid, inv_raw: dict) -> FiniteInverseSemigroupoid:
    """Check the definition of an inverse semigroupoid on a validated table:
    each declared s* is a generalized inverse of s (s s* s = s and s* s s* =
    s*), and no other arrow is. Idempotents and order are derived from the table.

    inv_raw maps arrow name -> arrow name. The rest of the inverse structure
    follows from unique inverses (Howie, Fundamentals of Semigroup Theory,
    Thm 5.1.1; Lawson, Inverse Semigroups, ch. 1), so it is not walked:
    - s is an inverse of s*, so (s*)* = s;
    - the inverse of a loop at v is a loop at v, so the loops at v form an
      inverse semigroup and their idempotents commute; idempotents are
      loops, and two at different vertices have no product either way;
    - for composable a, b the idempotents bb* and a*a are loops at src a, so
      they commute and (ab)(b*a*)(ab) = a(a*a)(bb*)b = ab, and likewise
      (b*a*)(ab)(b*a*) = b*a*: b*a* is an inverse of ab, so (ab)* = b*a*.
    The natural order is derived once, as s <= t iff s = t(s*s); on an
    inverse semigroupoid s = te, s = (ss*)t and s = ft (e, f idempotent)
    give the same relation (Lawson, ch. 1).
    """
    report = ValidationReport(f"inverse semigroupoid {sgpd.name or '<anonymous>'}")
    names = sgpd.arrow_names
    n = sgpd.n_arrows
    src, rng, prod = sgpd.src, sgpd.rng, sgpd.prod

    inv: list[int | None] = [None] * n
    ids = sgpd.by_name
    for k, s, val in in_arrow_order(inv_raw, ids.get):
        v = str(val)
        if s is None or v not in ids:
            report.add("structural", (k, v), "inv entry references an unknown arrow")
            raise StructureError(report)
        inv[s] = ids[v]
    if None in inv:
        missing = names[inv.index(None)]
        report.add("structural", (missing,), f"no inverse declared for {missing!r}")
        raise StructureError(report)

    def is_inverse_pair(s: int, t: int) -> bool:
        # src t = rng s and rng t = src s make (s, t), (t, s), (st, s) and
        # (ts, t) composable, and the validated table defines every such product
        return (src[t] == rng[s] and rng[t] == src[s]
                and prod[prod[s][t]][s] == s and prod[prod[t][s]][t] == t)

    for s in range(n):
        if not is_inverse_pair(s, inv[s]):
            report.add("inverse-condition", (names[s],),
                       f"declared inverse of {names[s]} fails s s* s = s or s* s s* = s*")
    if not report.ok:
        raise StructureError(report)

    for s in range(n):
        others = [t for t in sgpd.into[src[s]] if t != inv[s] and is_inverse_pair(s, t)]
        if others:
            report.add("non-unique-inverse", (names[s], names[inv[s]], names[others[0]]),
                       f"{names[s]} admits two generalized inverses")
    if not report.ok:
        raise StructureError(report)

    return FiniteInverseSemigroupoid(sgpd, tuple(inv))


class Homomorphism:
    def __init__(self, source: FiniteSemigroupoid, target: FiniteSemigroupoid,
                 map: tuple[int, ...], rigid: bool = False):
        self.source, self.target, self.map, self.rigid = source, target, map, rigid


def validate_homomorphism(raw_map, source: FiniteSemigroupoid, target: FiniteSemigroupoid) -> Homomorphism:
    """Check multiplicativity on all composable pairs and decide rigidity.

    raw_map maps names to names, or lists a target arrow per source arrow.
    Rigidity is the set equality: a pair maps to a composable pair exactly
    when it is composable. Multiplicativity gives one inclusion; the other is
    decided by counting the pairs with composable images per target vertex.
    """
    report = ValidationReport("homomorphism")
    mapping: list[int | None] = [None] * source.n_arrows
    if isinstance(raw_map, dict):
        for k, a, val in in_arrow_order(raw_map, source.by_name.get):
            v = str(val)
            if a is None or v not in target.by_name:
                report.add("structural", (k, v), "map entry references an unknown arrow")
                raise StructureError(report)
            mapping[a] = target.by_name[v]
    else:
        mapping = list(raw_map)
        if len(mapping) != source.n_arrows or not all(x in range(target.n_arrows) for x in mapping):
            report.add("structural", (), "map must list a target arrow per source arrow")
            raise StructureError(report)
    if None in mapping:
        missing = source.arrow_names[mapping.index(None)]
        report.add("structural", (missing,), f"map does not cover arrow {missing!r}")
        raise StructureError(report)

    for a, b in source.composable:
        fa, fb = mapping[a], mapping[b]
        if not target.is_composable(fa, fb):
            report.add("multiplicativity",
                       (source.arrow_names[a], source.arrow_names[b]),
                       "image of a composable pair is not composable")
            break
        if target.prod[fa][fb] != mapping[source.prod[a][b]]:
            report.add("multiplicativity",
                       (source.arrow_names[a], source.arrow_names[b]),
                       "f(ab) != f(a)f(b)")
            break
    if not report.ok:
        raise StructureError(report)

    # composable pairs map to composable pairs, so the converse holds exactly
    # when there are as many pairs with composable images as composable pairs
    leaving = [0] * target.n_vertices
    entering = [0] * target.n_vertices
    for fa in mapping:
        leaving[target.src[fa]] += 1
        entering[target.rng[fa]] += 1
    image_pairs = sum(out * in_ for out, in_ in zip(leaving, entering))
    rigid = image_pairs == len(source.composable)
    return Homomorphism(source, target, tuple(mapping), rigid)


def identity_homomorphism(sgpd: FiniteSemigroupoid) -> Homomorphism:
    return Homomorphism(sgpd, sgpd, tuple(range(sgpd.n_arrows)), rigid=True)


def pair_semigroupoid(labels, ends, arrow_names, vertex_names, products,
                      name: str) -> FiniteSemigroupoid:
    """The semigroupoid whose arrow i is labeled by the pair labels[i].

    ends[i] is the (source, range) pair of vertex pairs of arrow i; the
    vertices are the pairs some arrow meets, sorted. A pair (x, y) is named
    "(x,y)" from the two name tables of arrow_names or vertex_names.
    products yields (i, j, label of the product) for each composable (i, j).
    The names and pair axioms are checked; each caller states why its inputs
    imply associativity, which is not walked.
    """
    index = label_index(labels)
    touched = sorted({v for end in ends for v in end})
    vid = label_index(touched)
    left, right = vertex_names
    vertices = tuple(f"({left[v]},{right[w]})" for v, w in touched)
    left, right = arrow_names
    arrows = tuple(f"({left[x]},{right[y]})" for x, y in labels)
    prod: list[dict[int, int]] = [{} for _ in labels]
    for i, j, label in products:
        prod[i][j] = index[label]
    return _checked(FiniteSemigroupoid(
        vertices, arrows, tuple(vid[s] for s, _ in ends), tuple(vid[r] for _, r in ends),
        tuple(prod), name=name, labels=labels,
    ), _check_pairs)


def direct_product(a: FiniteSemigroupoid, b: FiniteSemigroupoid) -> FiniteSemigroupoid:
    """Componentwise product over every vertex pair; arrow (x,y) is labeled (x, y).
    Its axioms are pairs of factor axioms: a and b are validated, then its names."""
    validate_semigroupoid(a)
    validate_semigroupoid(b)
    vertices = tuple(
        f"({va},{vb})" for va in a.vertex_names for vb in b.vertex_names
    )
    arrows = tuple(
        f"({xa},{xb})" for xa in a.arrow_names for xb in b.arrow_names
    )
    nb, nvb = b.n_arrows, b.n_vertices
    src = []
    rng = []
    for x in a.arrows():
        for y in b.arrows():
            src.append(a.src[x] * nvb + b.src[y])
            rng.append(a.rng[x] * nvb + b.rng[y])
    prod: list[dict[int, int]] = [{} for _ in arrows]
    for x1, x2 in a.composable:
        x12 = a.prod[x1][x2] * nb
        for y1, y2 in b.composable:
            prod[x1 * nb + y1][x2 * nb + y2] = x12 + b.prod[y1][y2]
    return _checked(FiniteSemigroupoid(
        vertices, arrows, tuple(src), tuple(rng), tuple(prod),
        name=f"{a.name}x{b.name}" if a.name and b.name else "",
        labels=tuple((x, y) for x in a.arrows() for y in b.arrows()),
    ))


class GroupoidCheck:
    def __init__(self, ok: bool, units: dict[int, int], inverses: dict[int, int],
                 witness: tuple = (), message: str = ""):
        self.ok, self.units, self.inverses, self.witness, self.message = (
            ok, units, inverses, witness, message)


def is_groupoid(sgpd: FiniteSemigroupoid) -> GroupoidCheck:
    """Decide whether every vertex has an identity and every arrow an inverse."""
    units: dict[int, int] = {}
    for v in range(sgpd.n_vertices):
        for e in sgpd.into[v]:
            if sgpd.src[e] != v:
                continue
            left_ok = all(sgpd.prod[a][e] == a for a in sgpd.leaving[v])
            right_ok = all(sgpd.prod[e][b] == b for b in sgpd.into[v])
            if left_ok and right_ok:
                units[v] = e
                break
        if v not in units:
            return GroupoidCheck(
                False, {}, {}, (sgpd.vertex_names[v],),
                f"vertex {sgpd.vertex_names[v]} has no identity arrow",
            )
    inverses: dict[int, int] = {}
    for a in sgpd.arrows():
        for x in sgpd.into[sgpd.src[a]]:
            if (
                sgpd.compose(a, x) == units[sgpd.rng[a]]
                and sgpd.compose(x, a) == units[sgpd.src[a]]
            ):
                inverses[a] = x
                break
        if a not in inverses:
            return GroupoidCheck(
                False, units, {}, (sgpd.arrow_names[a],),
                f"arrow {sgpd.arrow_names[a]} has no two-sided inverse",
            )
    return GroupoidCheck(True, units, inverses)

