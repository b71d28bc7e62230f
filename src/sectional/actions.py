"""Actions of inverse semigroupoids on semigroupoids, and their quotients.

A wedge-preaction assigns to each arrow s of the acting inverse semigroupoid
a partial isomorphism theta_s of the space, subject to ideal conditions, the
inverse condition theta_{s*} = theta_s^{-1}, and an extension law for
composable pairs. The validator enumerates all of it and decides whether
the action is associative.

Quotients: rigid congruences with class-wise constant source and range, the
canonical quotient semigroupoid, and the groupoid of germs, built from one
representative per germ with no semidirect product; that the germ relation
is a congruence follows from the validated axioms (germ_quotient).
"""

from __future__ import annotations

from .semigroupoids import (
    FiniteInverseSemigroupoid,
    FiniteSemigroupoid,
    Homomorphism,
    _checked,
    composable_labels,
    in_arrow_order,
    is_groupoid,
    pair_semigroupoid,
)
from .validation import (
    InternalConsistencyError,
    StructureError,
    ValidationReport,
)


class LandPreaction:
    """maps[s] sends each space arrow of dom theta_s to its image."""

    def __init__(self, actor: FiniteInverseSemigroupoid, space: FiniteSemigroupoid,
                 maps: tuple[dict[int, int], ...], is_associative: bool = False,
                 associativity_witness: tuple = ()):
        self.actor, self.space, self.maps = actor, space, maps
        self.is_associative, self.associativity_witness = is_associative, associativity_witness

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


def validate_preaction(raw_maps, actor: FiniteInverseSemigroupoid, space: FiniteSemigroupoid) -> LandPreaction:
    """Check the four wedge-preaction axioms and decide associativity.

    raw_maps: {actor arrow name: {"dom": [...], "img": [...]}} with img parallel
    to dom; arrows not mentioned act with empty domain. is_associative: the
    twisted triple products agree, with definedness matched on both sides.
    """
    base = actor.base
    report = ValidationReport("wedge-preaction")
    maps: list[dict[int, int]] = [dict() for _ in base.arrows()]

    if not isinstance(raw_maps, dict):
        report.add("structural", (), "maps must be an object keyed by actor arrows")
        raise StructureError(report)
    for k, s, entry in in_arrow_order(raw_maps, base.by_name.get):
        if s is None:
            report.add("structural", (k,), f"unknown actor arrow {k!r}")
            raise StructureError(report)
        dom = [str(x) for x in entry.get("dom", [])]
        img = [str(x) for x in entry.get("img", [])]
        if len(dom) != len(img):
            report.add("structural", (k,), "img must be parallel to dom")
            raise StructureError(report)
        table: dict[int, int] = {}
        for d, i in zip(dom, img):
            if d not in space.by_name or i not in space.by_name:
                report.add("structural", (k, d, i), "dom/img reference unknown space arrows")
                raise StructureError(report)
            di, ii = space.arrow_index(d), space.arrow_index(i)
            if di in table:
                report.add("structural", (k, d), f"duplicate domain entry {d!r}")
                raise StructureError(report)
            table[di] = ii
        if len(set(table.values())) != len(table):
            report.add("structural", (k,), f"theta_{k} is not injective")
            raise StructureError(report)
        maps[s] = table

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
        raise StructureError(report)

    # (i) the union of domains at each actor vertex is an ideal of the space
    bigs = big_ideals(theta.actor, theta.maps)
    for v, big in enumerate(bigs):
        w = _is_ideal(big, set(space.arrows()), space)
        if w is not None:
            report.add("ideal-property", (base.vertex_names[v],) + w,
                       f"I(theta,{base.vertex_names[v]}) is not an ideal of the space")
    if not report.ok:
        raise StructureError(report)

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
        raise StructureError(report)

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
        raise StructureError(report)

    theta.is_associative, theta.associativity_witness = _associativity(theta)
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


def twisted_partners(base: FiniteSemigroupoid, doms, rans) -> dict[int, dict[int, frozenset]]:
    """Project the twisted triple enumeration onto (t, a, c): t -> a -> every c.

    The triple condition runs over actor triples (s, t, u) with stu defined
    and (a, b, c) in doms[s] x doms[t] x rans[u], but both of its sides read
    only t, a, b and c; s and u only decide which a and c are drawn. (s, t)
    is composable when src(s) = rng(t), and (st, u) when rng(u) is the source
    of st, which the actor's source compatibility makes w = src(t). So for
    each t, a meets c exactly when a lies in the union A_t of doms[s] over
    such s, and c in the union R_w of rans[u] over rng(u) = w; b ranges over
    doms[t] either way. This is the exact projection of the full enumeration
    and uses no preaction axiom, so the check stays exhaustive on any tables.

    Every a of t meets the same R_w, so each R_w is stored once, as a
    frozenset all its keys share: the result takes memory O(keys + one R_w
    per actor vertex), not one copy of R_w per (t, a). Callers only read it.
    """
    ranges_at: dict[int, set[int]] = {}        # w -> R_w
    for u in base.arrows():
        ranges_at.setdefault(base.rng[u], set()).update(rans[u])
    shared = {w: frozenset(cs) for w, cs in ranges_at.items() if cs}
    domains_at: dict[int, set[int]] = {}       # t -> A_t
    for s, t in base.composable:
        domains_at.setdefault(t, set()).update(doms[s])
    return {t: dict.fromkeys(a_set, shared[base.src[t]])
            for t, a_set in domains_at.items() if base.src[t] in shared}


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
        met = set().union(*set(partners.values()))  # every c some a meets
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
    return validate_preaction(raw, actor, space)


def semidirect_product(theta: LandPreaction) -> FiniteSemigroupoid:
    """Arrows (s,a) with a in dom(theta_s), labeled (s, a); product
    (s,a)(t,b) = (st, theta_{t*}(a theta_t(b))).

    Vertex pairs live in actor^(0) x space^(0); only those met by an arrow
    are kept, so groupoid detection sees the operative graph. Refuses
    non-associative actions with the failing triple. On an associative one
    the ideal axioms and the extension law keep each product in dom(theta_st),
    and with c' = theta_u(c) both bracketings of (s,a)(t,b)(u,c) are
    (stu, theta_{u*}(theta_{t*}(a theta_t(b)) c')): the twisted associativity
    that validate_preaction decided, through theta_{tu} extending theta_t
    theta_u and theta_{(tu)*} extending theta_{u*} theta_{t*}. So no triple
    is walked. pair_semigroupoid checks the names and the pair axioms: no
    preaction axiom ties the source of theta_{t*}(a theta_t(b)) to that of b.
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
            yield i, j, (actor.prod[s][t], _twisted(theta, t, a, b))

    return pair_semigroupoid(
        pairs, ends, (actor.arrow_names, space.arrow_names),
        (actor.vertex_names, space.vertex_names), products(),
        name=f"{actor.name}|x{space.name}",
    )


class RigidCongruence:
    def __init__(self, base: FiniteSemigroupoid, classes: tuple[tuple[int, ...], ...],
                 class_of: tuple[int, ...]):
        self.base, self.classes, self.class_of = base, classes, class_of


def validate_rigid_congruence(partition, base: FiniteSemigroupoid) -> RigidCongruence:
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
                raise StructureError(report)
            xi = base.arrow_index(str(x))
            if xi in seen:
                report.add("structural", (names[xi],), f"arrow {names[xi]!r} appears twice")
                raise StructureError(report)
            seen.add(xi)
            ids.append(xi)
        if ids:
            resolved.append(sorted(ids))
    if seen != set(base.arrows()):
        missing = sorted(set(base.arrows()) - seen)[0]
        report.add("structural", (names[missing],), f"partition misses arrow {names[missing]!r}")
        raise StructureError(report)
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
        raise StructureError(report)

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
            raise StructureError(report)
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

    validate_rigid_congruence implies every axiom, so nothing is re-walked.
    Members of a class share source and range, so [x][y] is composable
    exactly when every member pair is, and x1x2 ~ y1y2 makes the product
    [xy], read off the representatives, the same for every member pair. The
    quotient's pair axioms and associativity are then the base's, read
    through the classes; the projection x -> [x] is multiplicative by the
    same compatibility, and rigid as composability is read off src and rng.
    """
    base = cong.base
    reps = [block[0] for block in cong.classes]
    src = tuple(base.src[r] for r in reps)
    prod: list[dict[int, int]] = [{} for _ in reps]
    # prod is filled in place: into, the classes by range, needs only rng
    quotient = FiniteSemigroupoid(
        base.vertex_names, tuple(f"[{base.arrow_names[r]}]" for r in reps), src,
        tuple(base.rng[r] for r in reps), tuple(prod),
        name=f"{base.name}/~" if base.name else "",
    )
    for i, r in enumerate(reps):
        prod[i].update((j, cong.class_of[base.prod[r][reps[j]]]) for j in quotient.into[src[i]])
    return quotient, Homomorphism(base, quotient, cong.class_of, rigid=True)


class GermQuotient:
    """class_of maps each label (s, g) of S |x G to its germ, an arrow of quotient."""

    def __init__(self, quotient: FiniteSemigroupoid, class_of: dict):
        self.quotient, self.class_of = quotient, class_of


def germ_quotient(theta: LandPreaction) -> GermQuotient:
    """The groupoid of germs, (s, g) ~ (t, g) when some u <= s, t has g in
    dom theta_u, from one representative per class.

    On a validated preaction theta_{u*u} extends theta_{u*} theta_u = id on
    dom theta_u, so theta_u = theta_{s(u*u)} agrees with theta_s for u <= s,
    and the extension law puts g in dom theta_{s eps}, eps the product of
    the idempotents at src s whose domains hold g. So (s, g) ~ (t, g) iff
    s eps = t eps: a witness u has eps <= u*u, so s eps = u eps = t eps, and
    s eps is one. It is a congruence: witnesses u at (s, a), w at (t, b)
    give one c = theta_{t*}(y) = theta_{w*}(y), y = a theta_w(b) in the ideal
    ran theta_w, and uw <= st has c in its domain, as theta_w(c) = y lies in
    the ideal dom theta_u. Over a groupoid space a domain, an ideal, holds
    whole components and theta_{t*} carries units to units: c has the
    source of b, and no pair axiom can fail. The first label with a new key,
    in the semidirect product's order, represents and labels its germ; each
    product is read off the representatives with one _twisted call, and
    associativity is the semidirect product's.
    """
    space_check = is_groupoid(theta.space)
    if not space_check.ok:
        raise StructureError(ValidationReport.single(
            "germ quotient", "space-not-groupoid", space_check.witness, space_check.message))
    if not theta.is_associative:
        raise StructureError(ValidationReport.single(
            "germ quotient", "not-associative", theta.associativity_witness,
            "germ quotients need an associative action"))

    actor, space = theta.actor.base, theta.space
    eps, reps, key_class, class_of = {}, [], {}, {}      # eps: (v, g) -> eps at v for g
    for e in theta.actor.idempotents:
        for g in theta.maps[e]:
            eps[actor.src[e], g] = actor.prod[eps.get((actor.src[e], g), e)][e]
    for s, g in ((s, g) for s in actor.arrows() for g in theta.dom(s)):
        key = (actor.prod[s][eps[actor.src[s], g]], g)
        if key_class.setdefault(key, len(reps)) == len(reps):
            reps.append((s, g))
        class_of[s, g] = key_class[key]

    ends = [((actor.src[s], space.src[g]), (actor.rng[s], space.rng[theta.apply(s, g)]))
            for s, g in reps]
    vid = {v: i for i, v in enumerate(sorted({v for end in ends for v in end}))}
    prod: list[dict[int, int]] = [{} for _ in reps]     # filled in place, as into needs only rng
    quotient = FiniteSemigroupoid(
        tuple(f"({actor.vertex_names[v]},{space.vertex_names[w]})" for v, w in vid),
        tuple(f"[({actor.arrow_names[s]},{space.arrow_names[g]})]" for s, g in reps),
        tuple(vid[v] for v, _ in ends), tuple(vid[r] for _, r in ends), tuple(prod),
        name=f"{actor.name}|x{space.name}/~", labels=reps)
    for i, (s, a) in enumerate(reps):
        for j, (t, b) in ((j, reps[j]) for j in quotient.into[quotient.src[i]]):
            prod[i][j] = class_of[actor.prod[s][t], _twisted(theta, t, a, b)]
    return GermQuotient(_checked(quotient), class_of)
