"""Actions of inverse semigroupoids on semigroupoids, and their quotients.

A wedge-preaction assigns to each arrow s of the acting inverse semigroupoid
a partial isomorphism theta_s of the space, subject to ideal conditions, the
inverse condition theta_{s*} = theta_s^{-1}, and an extension law for
composable pairs. The validator enumerates all of it and classifies the
action (partial, global, associative).

Quotients: rigid congruences with class-wise constant source and range, the
canonical quotient semigroupoid, and the germ quotient of a semidirect
product. Germ transitivity is checked at runtime, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semigroupoids import (
    FiniteInverseSemigroupoid,
    FiniteSemigroupoid,
    GroupoidCheck,
    Homomorphism,
    composable_labels,
    is_groupoid,
    pair_semigroupoid,
    validate_homomorphism,
    validate_semigroupoid,
)
from .validation import (
    InternalConsistencyError,
    StructureError,
    ValidationReport,
    must,
)


@dataclass
class LandPreaction:
    actor: FiniteInverseSemigroupoid
    space: FiniteSemigroupoid
    maps: tuple[dict[int, int], ...]   # per actor arrow: space arrow -> space arrow
    is_partial: bool = False
    is_global: bool = False
    is_associative: bool = False
    associativity_witness: tuple = ()

    def dom(self, s: int) -> tuple[int, ...]:
        return tuple(sorted(self.maps[s]))

    def ran(self, s: int) -> tuple[int, ...]:
        return tuple(sorted(self.maps[s].values()))

    def apply(self, s: int, a: int) -> int | None:
        return self.maps[s].get(a)


def big_ideals(actor: FiniteInverseSemigroupoid, domains) -> list[set[int]]:
    """Per actor vertex v, the union of the domains over arrows with source v;
    domains[s] iterates over the domain of arrow s."""
    out: list[set[int]] = [set() for _ in actor.base.vertex_names]
    for s, v in enumerate(actor.base.src):
        out[v].update(domains[s])
    return out


def _is_ideal(subset: set[int], ambient: set[int], space: FiniteSemigroupoid) -> tuple | None:
    """Check subset absorbs products with ambient inside the space; witness or None.
    In a validated space xy exists only for y into src x, yx for y leaving rng x."""
    for x in sorted(subset):
        near = (*space.into[space.src[x]], *space.leaving[space.rng[x]])
        for y in sorted(ambient.intersection(near)):
            for p, q in ((x, y), (y, x)):
                c = space.compose(p, q)
                if c is not None and c not in subset:
                    return (space.arrow_names[p], space.arrow_names[q])
    return None


def validate_preaction(raw_maps, actor: FiniteInverseSemigroupoid, space: FiniteSemigroupoid) -> LandPreaction | ValidationReport:
    """Check the four wedge-preaction axioms and classify the action.

    raw_maps: {actor arrow name: {"dom": [...], "img": [...]}} with img parallel
    to dom; arrows not mentioned act with empty domain. Classification:
    is_partial (domains grow along the natural order), is_global (the
    extension inclusion is an equality), is_associative (the twisted triple
    products agree, with definedness matched on both sides).
    """
    base = actor.base
    report = ValidationReport("wedge-preaction")
    maps: list[dict[int, int]] = [dict() for _ in base.arrows()]

    if not isinstance(raw_maps, dict):
        report.add("structural", (), "maps must be an object keyed by actor arrows")
        return report
    for key, entry in raw_maps.items():
        k = str(key)
        if k not in base.by_name:
            report.add("structural", (k,), f"unknown actor arrow {k!r}")
            return report
        dom = [str(x) for x in entry.get("dom", [])]
        img = [str(x) for x in entry.get("img", [])]
        if len(dom) != len(img):
            report.add("structural", (k,), "img must be parallel to dom")
            return report
        table: dict[int, int] = {}
        for d, i in zip(dom, img):
            if d not in space.by_name or i not in space.by_name:
                report.add("structural", (k, d, i), "dom/img reference unknown space arrows")
                return report
            di, ii = space.arrow_index(d), space.arrow_index(i)
            if di in table:
                report.add("structural", (k, d), f"duplicate domain entry {d!r}")
                return report
            table[di] = ii
        if len(set(table.values())) != len(table):
            report.add("structural", (k,), f"theta_{k} is not injective")
            return report
        maps[base.arrow_index(k)] = table

    theta = LandPreaction(actor, space, tuple(maps))
    names = base.arrow_names
    anames = space.arrow_names

    # (iii) theta_{s*} = theta_s^{-1}
    for s in base.arrows():
        inv_s = actor.inv[s]
        ran_s = set(maps[s].values())
        if set(maps[inv_s]) != ran_s:
            report.add("inverse-compatibility", (names[s],),
                       f"dom(theta_{names[inv_s]}) differs from ran(theta_{names[s]})")
            continue
        for a, b in maps[s].items():
            if maps[inv_s].get(b) != a:
                report.add("inverse-compatibility", (names[s], anames[a]),
                           f"theta_{names[inv_s]} does not invert theta_{names[s]} at {anames[a]}")
                break
    if not report.ok:
        return report

    # (i) the union of domains at each actor vertex is an ideal of the space
    bigs = big_ideals(theta.actor, theta.maps)
    for v, big in enumerate(bigs):
        w = _is_ideal(big, set(space.arrows()), space)
        if w is not None:
            report.add("ideal-property", (base.vertex_names[v],) + w,
                       f"I(theta,{base.vertex_names[v]}) is not an ideal of the space")
    if not report.ok:
        return report

    # (ii) each domain and range is an ideal of the relevant big ideal, and
    # theta_s is a semigroupoid isomorphism onto its range
    for s in base.arrows():
        dom = set(maps[s])
        ran = set(maps[s].values())
        w = _is_ideal(dom, bigs[base.src[s]], space)
        if w is not None:
            report.add("ideal-property", (names[s],) + w,
                       f"dom(theta_{names[s]}) is not an ideal of I(theta,src)")
            continue
        w = _is_ideal(ran, bigs[base.rng[s]], space)
        if w is not None:
            report.add("ideal-property", (names[s],) + w,
                       f"ran(theta_{names[s]}) is not an ideal of I(theta,rng)")
            continue
        # xy and theta_s(x)theta_s(y) are undefined together unless y is into
        # src x or theta_s(y) into src theta_s(x); theta_{s*} inverts theta_s
        back = maps[actor.inv[s]]
        for x in sorted(dom):
            pulled = map(back.get, space.into[space.src[maps[s][x]]])
            for y in sorted(dom.intersection((*space.into[space.src[x]], *pulled))):
                xy = space.compose(x, y)
                fxy = space.compose(maps[s][x], maps[s][y])
                if (xy is None) != (fxy is None):
                    report.add("isomorphism", (names[s], anames[x], anames[y]),
                               f"theta_{names[s]} does not preserve composability")
                    break
                if xy is not None and maps[s].get(xy) != fxy:
                    report.add("isomorphism", (names[s], anames[x], anames[y]),
                               f"theta_{names[s]}(xy) != theta_{names[s]}(x)theta_{names[s]}(y)")
                    break
            else:
                continue
            break
    if not report.ok:
        return report

    # (iv) extension law on composable actor pairs
    for s, t in base.composable:
        st = base.prod[s][t]
        for x, tx in maps[t].items():
            if tx in maps[s]:
                if x not in maps[st]:
                    report.add("extension-law", (names[s], names[t], anames[x]),
                               f"theta_{names[st]} does not extend theta_{names[s]}theta_{names[t]}")
                    break
                if maps[st][x] != maps[s][tx]:
                    report.add("extension-law", (names[s], names[t], anames[x]),
                               "theta_st(x) != theta_s(theta_t(x))")
                    break
    if not report.ok:
        return report

    # classification
    is_partial = all(
        set(maps[s]) <= set(maps[t])
        for (s, t) in actor.leq
    )
    is_global = all(
        set(maps[base.prod[s][t]]) == {x for x, tx in maps[t].items() if tx in maps[s]}
        for s, t in base.composable
    )
    is_assoc, assoc_witness = _associativity(theta)

    theta.is_partial = is_partial
    theta.is_global = is_global
    theta.is_associative = is_assoc
    theta.associativity_witness = assoc_witness
    return theta


def _twisted(theta: LandPreaction, t: int, a: int, b: int) -> int | None:
    """theta_{t*}(a * theta_t(b)), or None when any step is undefined."""
    tb = theta.apply(t, b)
    if tb is None:
        return None
    prod = theta.space.compose(a, tb)
    if prod is None:
        return None
    return theta.apply(theta.actor.inv[t], prod)


def twisted_partners(base: FiniteSemigroupoid, doms, rans) -> dict[int, dict[int, set[int]]]:
    """Project the twisted triple enumeration onto (t, a, c): t -> a -> every c.

    The triple condition runs over actor triples (s, t, u) with stu defined
    and (a, b, c) in doms[s] x doms[t] x rans[u], but both of its sides read
    only t, a, b and c; s and u only decide which a and c are drawn. (s, t)
    is composable when src(s) = rng(t), and (st, u) when rng(u) = w, the
    source of st. So for each t, a meets c exactly when a lies in the union
    A_{t,w} of doms[s] over such s with src(st) = w, and c in the union R_w of
    rans[u] over rng(u) = w, for one common w; b ranges over doms[t] either
    way. This is the exact projection of the full enumeration and uses no
    preaction axiom, so the check stays exhaustive on any tables.
    """
    ranges_at: dict[int, set[int]] = {}        # w -> R_w
    for u in base.arrows():
        ranges_at.setdefault(base.rng[u], set()).update(rans[u])
    domains_at: dict[tuple[int, int], set[int]] = {}   # (t, w) -> A_{t,w}
    for s, t in base.composable:
        domains_at.setdefault((t, base.src[base.prod[s][t]]), set()).update(doms[s])
    partners: dict[int, dict[int, set[int]]] = {}
    for (t, w), a_set in domains_at.items():
        cs = ranges_at.get(w)
        if cs:
            per_t = partners.setdefault(t, {})
            for a in a_set:
                per_t.setdefault(a, set()).update(cs)
    return partners


def first_twisted_triple(base: FiniteSemigroupoid, doms, rans, failing) -> tuple[int, ...]:
    """The first (s, t, u, a, b, c) of the full enumeration with (t, a, b, c) in failing.

    Walks the order the exhaustive loop has always reported in: composable
    (s, t), then u, then a, b, c in table order. Only membership is tested, so
    it costs one pass of set lookups and runs only when something failed.
    """
    for s, t in base.composable:
        w = base.src[base.prod[s][t]]
        for u in base.arrows():
            if base.rng[u] != w:
                continue
            for a in doms[s]:
                for b in doms[t]:
                    for c in rans[u]:
                        if (t, a, b, c) in failing:
                            return s, t, u, a, b, c
    raise InternalConsistencyError("a failing twisted triple lies outside the enumeration")


def _associativity(theta: LandPreaction) -> tuple[bool, tuple]:
    """Triple condition: theta_{t*}(a theta_t(b)) c = theta_{t*}(a theta_t(bc)).

    Stated over actor triples (s,t,u) with stu defined and (a,b,c) in
    dom(theta_s) x dom(theta_t) x ran(theta_u). Sides must agree as partial
    values: defined together and equal, or undefined together. Both sides
    depend on (t,a,b,c) alone, so each such tuple of the exact projection
    (`twisted_partners`) is checked once, with the inner twisted value once
    per (t,a,b); the witness is the first failure in the (s,t,u,a,b,c) order.
    A product a x is declared only when src a = rng x, so each b is keyed on
    rng theta_t(b) and rng theta_t(bc), for the c some a meets, where each is
    defined; an a whose source is no key has both sides undefined for every c
    and is not met. The rule reads only the tables, no preaction axiom.
    """
    base = theta.actor.base
    space = theta.space
    into, src, rng = space.into, space.src, space.rng
    doms = [theta.dom(s) for s in base.arrows()]
    rans = [theta.ran(u) for u in base.arrows()]
    failing: set[tuple[int, int, int, int]] = set()
    for t, partners in twisted_partners(base, doms, rans).items():
        leaving: dict[int, list[int]] = {}          # v -> the partners a with src a = v
        for a in partners:
            leaving.setdefault(src[a], []).append(a)
        met = set().union(*partners.values())       # every c some a meets
        for b in doms[t]:
            bcs = (space.compose(b, c) for c in met.intersection(into[src[b]]))
            images = (theta.apply(t, x) for x in (b, *bcs) if x is not None)
            for v in {rng[y] for y in images if y is not None}:
                for a in leaving.get(v, ()):
                    inner = _twisted(theta, t, a, b)
                    # both sides are undefined unless c is into src b or src inner
                    near = into[src[b]] if inner is None else (*into[src[b]], *into[src[inner]])
                    for c in partners[a].intersection(near):
                        left = None if inner is None else space.compose(inner, c)
                        bc = space.compose(b, c)
                        right = None if bc is None else _twisted(theta, t, a, bc)
                        if left != right:
                            failing.add((t, a, b, c))
    if not failing:
        return True, ()
    s, t, u, a, b, c = first_twisted_triple(base, doms, rans, failing)
    return False, (
        base.arrow_names[s], base.arrow_names[t], base.arrow_names[u],
        space.arrow_names[a], space.arrow_names[b], space.arrow_names[c],
    )


def trivial_action(actor: FiniteInverseSemigroupoid, space: FiniteSemigroupoid) -> LandPreaction:
    """theta_s = identity on the whole space for every arrow (needs one actor vertex)."""
    if actor.base.n_vertices != 1:
        raise StructureError(ValidationReport.single(
            "trivial action", "structural", (actor.base.name,),
            "the identity-on-everything action needs a one-vertex actor",
        ))
    raw = {
        name: {"dom": list(space.arrow_names), "img": list(space.arrow_names)}
        for name in actor.base.arrow_names
    }
    return must(validate_preaction(raw, actor, space))


def semidirect_product(theta: LandPreaction) -> FiniteSemigroupoid:
    """Arrows (s,a) with a in dom(theta_s), labeled (s, a); product
    (s,a)(t,b) = (st, theta_{t*}(a theta_t(b))).

    Vertex pairs live in actor^(0) x space^(0); only those met by an arrow
    are kept, so groupoid detection sees the operative graph. Refuses
    non-associative actions: the table it would produce could violate
    associativity, so the failing triple is reported instead.
    """
    if not theta.is_associative:
        raise StructureError(ValidationReport.single(
            "semidirect product", "not-associative", theta.associativity_witness,
            "the action fails the twisted associativity condition",
        ))
    actor = theta.actor.base
    space = theta.space
    pairs = [(s, a) for s in actor.arrows() for a in theta.dom(s)]
    ends = [((actor.src[s], space.src[a]), (actor.rng[s], space.rng[theta.apply(s, a)]))
            for s, a in pairs]

    def products():
        # (s, a)(t, b) is defined when src a = rng theta_t(b)
        for i, j in composable_labels(actor, pairs, lambda s, a: (space.src[a],),
                                      lambda t, b: (space.rng[theta.apply(t, b)],)):
            (s, a), (t, b) = pairs[i], pairs[j]
            st = actor.prod[s][t]
            value = _twisted(theta, t, a, b)
            if value is None or value not in theta.maps[st]:
                raise InternalConsistencyError(
                    "semidirect product formula left its domain at "
                    f"(({actor.arrow_names[s]},{space.arrow_names[a]}),"
                    f"({actor.arrow_names[t]},{space.arrow_names[b]})); the action "
                    "validator should have prevented this"
                )
            yield i, j, (st, value)

    return pair_semigroupoid(
        pairs, ends, (actor.arrow_names, space.arrow_names),
        (actor.vertex_names, space.vertex_names), products(),
        name=f"{actor.name}|x{space.name}",
    )


@dataclass
class RigidCongruence:
    base: FiniteSemigroupoid
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    def representative(self, cls: int) -> int:
        return self.classes[cls][0]


def validate_rigid_congruence(partition, base: FiniteSemigroupoid) -> RigidCongruence | ValidationReport:
    """Partition of the arrows, each member an arrow id, with class-wise
    constant src/rng, product compatible."""
    report = ValidationReport("rigid congruence")
    names = base.arrow_names
    resolved: list[list[int]] = []
    seen: set[int] = set()
    for block in partition:
        ids = []
        for x in block:
            # a member is an arrow id, as in every other stanza, never a position
            if str(x) not in base.by_name:
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

    # x1 ~ y1 and x2 ~ y2 imply x1x2 ~ y1y2 exactly when every composable
    # (x1, x2) has x1x2 ~ rep(x1)x2 ~ x1rep(x2): classes share src and rng, so
    # x1x2 ~ rep(y1)x2 ~ y1x2 ~ y1rep(y2) ~ y1y2 by transitivity
    prod = base.prod
    rep = [resolved[ci][0] for ci in class_of]
    for x1, x2 in base.composable:
        cls = class_of[prod[x1][x2]]
        if class_of[prod[rep[x1]][x2]] != cls or class_of[prod[x1][rep[x2]]] != cls:
            report.add("product-incompatibility", _first_incompatibility(base, resolved, class_of),
                       "x1x2 and y1y2 land in different classes")
            return report
    return RigidCongruence(base, tuple(tuple(b) for b in resolved), tuple(class_of))


def _first_incompatibility(base: FiniteSemigroupoid, resolved, class_of) -> tuple[str, ...]:
    """The first (x1, y1, x2, y2) with x1 ~ y1, x2 ~ y2 composable and x1x2 !~ y1y2."""
    names, prod = base.arrow_names, base.prod
    for x1 in base.arrows():
        for y1 in resolved[class_of[x1]]:
            for x2 in base.into[base.src[x1]]:
                for y2 in resolved[class_of[x2]]:
                    if class_of[prod[x1][x2]] != class_of[prod[y1][y2]]:
                        return (names[x1], names[y1], names[x2], names[y2])
    raise InternalConsistencyError("generator-pair congruence check failed with no witness")


def quotient_semigroupoid(cong: RigidCongruence) -> tuple[FiniteSemigroupoid, Homomorphism]:
    """Classes as arrows over the original vertex set, plus the projection.

    Well-definedness of the class product is re-verified over every pair of
    representatives; a failure would mean the congruence validator is broken.
    """
    base = cong.base
    names = base.arrow_names
    arrow_names = tuple(f"[{names[block[0]]}]" for block in cong.classes)
    src = tuple(base.src[block[0]] for block in cong.classes)
    rng = tuple(base.rng[block[0]] for block in cong.classes)
    prod: list[dict[int, int]] = [{} for _ in cong.classes]
    # prod is filled in place: into, the classes by range, needs only rng
    quotient = FiniteSemigroupoid(
        base.vertex_names, arrow_names, src, rng, tuple(prod),
        name=f"{base.name}/~" if base.name else "",
    )
    for i, bi in enumerate(cong.classes):
        for j in quotient.into[src[i]]:
            expected = None
            for x in bi:
                for y in cong.classes[j]:
                    c = base.compose(x, y)
                    if c is None:
                        raise InternalConsistencyError(
                            "rigid congruence produced a non-composable member pair"
                        )
                    cls = cong.class_of[c]
                    if expected is None:
                        expected = cls
                    elif expected != cls:
                        raise InternalConsistencyError(
                            f"quotient product ill-defined on ({arrow_names[i]},{arrow_names[j]})"
                        )
            prod[i][j] = expected
    quotient = must(validate_semigroupoid(quotient))
    projection = must(validate_homomorphism(
        {names[a]: arrow_names[cong.class_of[a]] for a in base.arrows()},
        base, quotient,
    ))
    if not projection.rigid:
        raise InternalConsistencyError("quotient projection of a rigid congruence must be rigid")
    return quotient, projection


@dataclass
class GermQuotient:
    semidirect: FiniteSemigroupoid
    congruence: RigidCongruence
    quotient: FiniteSemigroupoid
    projection: Homomorphism
    groupoid_check: GroupoidCheck


def germ_quotient(theta: LandPreaction) -> GermQuotient | ValidationReport:
    """Collapse (s1,g) ~ (s2,g) when some u below both has g in its domain.

    Each semidirect arrow (s, g) has its germ set, the u <= s with g in
    dom theta_u; arrows over the same g are related when their germ sets
    meet, so the relation is reflexive and symmetric and rows[i] is a set.
    It is transitive exactly when rows[j] <= rows[i] for every j in rows[i];
    otherwise the first failing (i, j, k) is refused as the witness (possible
    for general wedge-preactions). The classes are the distinct rows, checked
    as a rigid congruence.
    """
    space_check = is_groupoid(theta.space)
    if not space_check.ok:
        return ValidationReport.single("germ quotient", "space-not-groupoid",
                                       space_check.witness, space_check.message)
    if not theta.is_associative:
        return ValidationReport.single("germ quotient", "not-associative",
                                       theta.associativity_witness,
                                       "germ quotients need an associative action")

    sp = semidirect_product(theta)
    names = sp.arrow_names
    germs = [{u for u in theta.actor.below(s) if g in theta.maps[u]} for s, g in sp.labels]
    over: dict[int, list[int]] = {}
    for i, (_s, g) in enumerate(sp.labels):
        over.setdefault(g, []).append(i)
    rows = [frozenset(j for j in over[g] if germs[i] & germs[j])
            for i, (_s, g) in enumerate(sp.labels)]
    for i, row in enumerate(rows):
        for j in sorted(row):
            if not rows[j] <= row:
                return ValidationReport.single(
                    "germ quotient", "germ-transitivity",
                    (names[i], names[j], names[min(rows[j] - row)]),
                    "the germ relation is not transitive for this action",
                )

    cong = validate_rigid_congruence(
        [[names[j] for j in row] for row in set(rows)], sp,
    )
    if isinstance(cong, ValidationReport):
        return cong
    quotient, projection = quotient_semigroupoid(cong)
    return GermQuotient(sp, cong, quotient, projection, is_groupoid(quotient))
