"""The four isomorphism pipelines, materialized as basis maps with certificates.

Each comparison builds both sides explicitly, writes the connecting map as a
basis-image table, and certifies the claimed properties by enumeration plus,
where the coefficient ring allows, an exact kernel/image cross-check:

  - product bundles against tensor products of algebras;
  - semidirect product bundles against naive crossed products;
  - skew products of graded bundles against smash products;
  - quotient bundles against quotients by conjugate-section kernels, with the
    groupoid-of-germs pipeline on top.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import (
    LandPreaction,
    RigidCongruence,
    GermQuotient,
    germ_quotient,
    quotient_semigroupoid,
    semidirect_product,
)
from .algebras import AlgebraPresentation
from .bundles import (
    AlgebraAction,
    Bundle,
    algebra_action_associativity,
    bundle_from_product,
    coefficient_bundle,
    lscript_iso,
    naive_crossed_product,
    pullback_bundle,
    sectional_algebra,
    semigroupoid_algebra,
    validate_algebra_action,
)
from .maps import (Certificate, LinearMapOnBasis, basis_bijection, certify_linear_iso,
                   multiplicative_witness, surjective)
from .rings import (
    EchelonBasis,
    ideal_closure,
    mat_inverse,
    solve_linear,
    span_rank,
    spans_equal,
    sparse_row,
)
from .semigroupoids import (
    FiniteSemigroupoid,
    Homomorphism,
    composable_labels,
    direct_product,
    is_groupoid,
    label_index,
    pair_semigroupoid,
    validate_homomorphism,
)
from .validation import (
    CapabilityError,
    InternalConsistencyError,
    StageError,
    StructureError,
    ValidationReport,
    must,
)


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------

def tensor_product_algebra(a: AlgebraPresentation, b: AlgebraPresentation) -> AlgebraPresentation:
    """Pairwise basis with (x1 (x) y1)(x2 (x) y2) = x1x2 (x) y1y2, x (x) y
    labeled (label of x, label of y).

    Needs a shared commutative ring; free fibers carry the symmetric bimodule
    structure, so the entrywise product formula is balanced.
    """
    if a.ring != b.ring:
        raise ValueError("tensor factors must share a ring")
    ring = a.ring
    if not ring.commutative:
        raise CapabilityError(
            "tensor products of algebras need a commutative ring; over a "
            "non-commutative ring the tensor is only a bimodule"
        )
    rank_b = b.rank
    basis = tuple(f"{x}(x){y}" for x in a.basis for y in b.basis)
    labels = tuple((x, y) for x in a.labels for y in b.labels)
    table: dict[tuple[int, int], dict] = {}
    for (i1, i2), pa in a.table.items():
        for (j1, j2), pb in b.table.items():
            table[(i1 * rank_b + j1, i2 * rank_b + j2)] = {
                k * rank_b + l: ring.mul(x, y) for k, x in pa for l, y in pb
            }
    return AlgebraPresentation(ring=ring, basis=basis, table=table,
                               provenance="tensor product", labels=labels)


@dataclass
class TensorTheoremResult:
    map: LinearMapOnBasis
    certificate: Certificate
    section_algebra: AlgebraPresentation
    factor_algebra: AlgebraPresentation
    tensor: AlgebraPresentation
    product_algebra: AlgebraPresentation
    product_bundle: Bundle


def product_bundle(bundle: Bundle, factor: FiniteSemigroupoid) -> Bundle:
    """The bundle over base x factor whose fiber over (g,e) is the fiber over g."""
    base = direct_product(bundle.base, factor)
    return pullback_bundle(bundle, base, [g for g, _e in base.labels])


def tensor_theorem(bundle: Bundle, factor: FiniteSemigroupoid) -> TensorTheoremResult:
    """T(alpha (x) f)(g,e) = (alpha(g) f(e), e), certified multiplicative and
    bijective, with the rank identity rank = rank * rank reported."""
    ring = bundle.ring
    section = sectional_algebra(bundle)
    factor_algebra = semigroupoid_algebra(ring, factor)
    tensor = tensor_product_algebra(section, factor_algebra)
    pbundle = product_bundle(bundle, factor)
    product_algebra = sectional_algebra(pbundle)

    arrow = pbundle.base.index
    tmap = basis_bijection(tensor, product_algebra, {
        t: product_algebra.index[(arrow[(g, e)], i)]
        for t, ((g, i), (e, _)) in enumerate(tensor.labels)
    })
    cert = certify_linear_iso(tmap, "tensor comparison")
    cert.data["rank_identity"] = (
        product_algebra.rank == section.rank * factor_algebra.rank
    )
    cert.add("rank-multiplicativity",
             product_algebra.rank == section.rank * factor_algebra.rank,
             note=f"{product_algebra.rank} vs {section.rank}*{factor_algebra.rank}")
    return TensorTheoremResult(tmap, cert, section, factor_algebra, tensor,
                               product_algebra, pbundle)


# ---------------------------------------------------------------------------
# Bundle-level actions, semidirect bundles, crossed products
# ---------------------------------------------------------------------------

def _columns(mat, ring) -> tuple:
    """A dense square matrix as its columns, each the sparse image row of a basis vector."""
    return tuple(sparse_row(col, ring) for col in zip(*mat))


def _identity_columns(k: int, ring) -> tuple:
    return tuple(((i, ring.one),) for i in range(k))


def _move(cols, v, ring) -> dict:
    """The fiber map with image columns cols applied to a sparse vector v, summed
    in place in combine's term order. The matrix entry multiplies from the left,
    as in a matrix times a column: over a non-commutative table ring the extension
    law compares m_st with m_s m_t, so rings.apply_linear, which puts the
    vector's coefficient on the left, cannot serve here."""
    add, mul = ring.add, ring.mul
    acc: dict = {}
    get = acc.get
    for j, x in v:
        for r, m in cols[j]:
            prev = get(r)
            acc[r] = mul(m, x) if prev is None else add(prev, mul(m, x))
    is_zero = ring.is_zero
    return {k: y for k, y in acc.items() if not is_zero(y)}


def _compose(a, b, ring) -> tuple:
    """The columns of fiber map a after fiber map b: the matrix product a b."""
    return tuple(tuple(sorted(_move(a, col, ring).items())) for col in b)


def _intertwines(bundle: Bundle, g1: int, g2: int, h1: int, h2: int, m1, m2, m12) -> bool:
    """Whether fiber maps m1: fiber(g1) -> fiber(h1), m2: fiber(g2) -> fiber(h2)
    and m12: fiber(g1 g2) -> fiber(h1 h2), given as image columns, carry
    products to products: m1(e_i) m2(e_j) == m12(e_i e_j) on basis pairs."""
    ring = bundle.ring
    products = bundle.rows[(g1, g2)]
    for i, x in enumerate(m1):
        for j, y in enumerate(m2):
            if bundle.fiber_mul(h1, h2, x, y) != _move(m12, products[i][j], ring):
                return False
    return True


@dataclass
class BundleAction:
    """Action on a bundle: a base action plus invertible fiber maps.

    fiber_maps[(s, g)] holds the fiber isomorphism over base arrow g for actor
    arrow s as its columns, the sparse image row of each fiber basis vector;
    the base action constrains where they exist.
    """

    base_action: LandPreaction
    bundle: Bundle
    fiber_maps: dict[tuple[int, int], tuple]


def validate_bundle_action(theta: LandPreaction, bundle: Bundle,
                           fiber_maps=None) -> BundleAction | ValidationReport:
    """Check fiber matrices: shapes, invertibility through the inverse arrow,
    product intertwining, and the extension law.

    fiber_maps: {(s, g): matrix} on pairs of the action domains; a pair it
    omits (all of them when it is None) acts as the identity.
    """
    report = ValidationReport("bundle action")
    if bundle.base is not theta.space and bundle.base != theta.space:
        report.add("structural", (), "the action must act on the bundle base")
        return report
    ring = bundle.ring
    actor = theta.actor
    names = actor.base.arrow_names
    anames = theta.space.arrow_names

    maps: dict[tuple[int, int], tuple] = {}
    for key, mat in (fiber_maps or {}).items():
        try:
            maps[key] = tuple(tuple(ring.coerce(x) for x in row) for row in mat)
        except ValueError as exc:
            report.add("structural", (names[key[0]], anames[key[1]]), str(exc))
            return report

    expected = [(s, g) for s in actor.base.arrows() for g in theta.dom(s)]
    outside = set(maps).difference(expected)
    if outside:
        s, g = min(outside)
        report.add("structural", (names[s], anames[g]),
                   "fiber matrices must exist exactly on the action domains")
        return report
    cols: dict[tuple[int, int], tuple] = {}
    for s, g in [*maps, *(key for key in expected if key not in maps)]:
        h = theta.apply(s, g)
        if bundle.ranks[g] != bundle.ranks[h]:
            report.add("structural", (names[s], anames[g]),
                       "fiber ranks must match along the action")
            return report
        mat = maps.get((s, g))
        if mat is None:
            cols[(s, g)] = _identity_columns(bundle.ranks[g], ring)
            continue
        if len(mat) != bundle.ranks[h] or any(len(row) != bundle.ranks[g] for row in mat):
            report.add("structural", (names[s], anames[g]),
                       f"matrix for ({names[s]},{anames[g]}) has the wrong shape")
            return report
        cols[(s, g)] = _columns(mat, ring)

    for (s, g), mat in sorted(cols.items()):
        back = cols[(actor.inv[s], theta.apply(s, g))]
        if _compose(back, mat, ring) != _identity_columns(bundle.ranks[g], ring):
            report.add("non-invertible-fiber-map", (names[s], anames[g]),
                       "the inverse arrow's matrix does not invert this one")
            return report

    for s in actor.base.arrows():
        dom = set(theta.dom(s))
        for (g1, g2) in theta.space.composable:
            if g1 not in dom or g2 not in dom:
                continue
            g12 = theta.space.prod[g1][g2]
            if not _intertwines(bundle, g1, g2, theta.apply(s, g1), theta.apply(s, g2),
                                cols[(s, g1)], cols[(s, g2)], cols[(s, g12)]):
                report.add("intertwining", (names[s], anames[g1], anames[g2]),
                           "fiber matrices do not intertwine the products")
                return report

    for s, t in actor.base.composable:
        st = actor.base.prod[s][t]
        for x in theta.dom(t):
            tx = theta.apply(t, x)
            if tx not in theta.maps[s]:
                continue
            if cols[(st, x)] != _compose(cols[(s, tx)], cols[(t, x)], ring):
                report.add("extension-law", (names[s], names[t], anames[x]),
                           "fiber matrices violate the extension law")
                return report

    return BundleAction(theta, bundle, cols)


def bundle_semidirect(action: BundleAction) -> Bundle:
    """The bundle over the semidirect product base with transported products."""
    theta = action.base_action
    inner = action.bundle
    ring = inner.ring
    base = semidirect_product(theta)
    pairs = base.labels
    ranks = tuple(inner.ranks[g] for (_s, g) in pairs)

    def pair_product(p: int, q: int, i: int, j: int) -> dict:
        """e_i e_j over arrows (s,a)(t,b) of the semidirect base."""
        _s, a = pairs[p]
        t, b = pairs[q]
        tb = theta.apply(t, b)
        lift = action.fiber_maps[(t, b)][j]
        drop = action.fiber_maps[(theta.actor.inv[t], theta.space.compose(a, tb))]
        inner_product = inner.fiber_mul(a, tb, ((i, ring.one),), lift)
        return _move(drop, inner_product.items(), ring)

    return bundle_from_product(ring, base, ranks, pair_product)


def induced_theta(action: BundleAction) -> AlgebraAction:
    """Action on the sectional algebra: shift supports along the base action
    and apply the fiber matrices; the domain of arrow s is the span of basis
    sections supported inside dom(theta_s): (g, k) goes to the column k of
    the fiber map at (s, g), placed over theta_s(g)."""
    theta, fiber_maps = action.base_action, action.fiber_maps
    algebra = sectional_algebra(action.bundle)
    matrices = [
        {
            idx: tuple((algebra.index[(moved[g], j)], x) for j, x in fiber_maps[(s, g)][k])
            for idx, (g, k) in enumerate(algebra.labels) if g in moved
        }
        for s, moved in enumerate(theta.maps)
    ]
    domains = [tuple(mat) for mat in matrices]

    out = must(validate_algebra_action(theta.actor, algebra, domains, matrices))
    witness = algebra_action_associativity(out)
    if witness is not None:
        raise StructureError(ValidationReport.single(
            "induced action", "not-associative", witness,
            "the induced action fails twisted associativity"))
    return out


@dataclass
class CrossedTheoremResult:
    phi: LinearMapOnBasis
    psi: LinearMapOnBasis
    certificate: Certificate
    lscript_certificate: Certificate
    section_of_semidirect: AlgebraPresentation
    crossed: AlgebraPresentation
    induced_action: AlgebraAction


def crossed_theorem(action: BundleAction) -> CrossedTheoremResult:
    """Compare the sectional algebra of the semidirect bundle with the naive
    crossed product of the induced action.

    Phi reads a section of the semidirect bundle as a function of the actor
    coordinate; Psi rebuilds it. Both composites are certified to be the
    identity, Psi multiplicative, and the range-side comparison map phi is
    certified alongside.
    """
    bsd = bundle_semidirect(action)
    left = sectional_algebra(bsd)

    induced = induced_theta(action)
    inner = induced.algebra
    lscript = lscript_iso(induced)
    right = lscript.source          # the naive crossed product, built once

    assignment = {}
    for li, (p, k) in enumerate(left.labels):
        s, g = bsd.base.labels[p]
        assignment[li] = right.index[(s, inner.index[(g, k)])]
    phi = basis_bijection(left, right, assignment)
    psi = phi.inverse
    cert = certify_linear_iso(psi, "crossed product comparison")

    lcert = certify_linear_iso(lscript, "range-side crossed comparison")
    return CrossedTheoremResult(phi, psi, cert, lcert, left, right, induced)


# ---------------------------------------------------------------------------
# Smash and skew products
# ---------------------------------------------------------------------------

def smash_product(algebra: AlgebraPresentation) -> AlgebraPresentation:
    """Formal sums a delta_h over a groupoid-graded algebra.

    Basis pairs (u, h) with src(deg u) = rng(h), labeled (u, h) with u a
    basis position of the input; the product twists by the degree
    projection: (a delta_g)(b delta_h) keeps only the part of b in degree
    g h^{-1} and lands on delta_h. Associativity is re-proved on this
    instance by enumeration.
    """
    if not algebra.graded:
        raise StructureError(ValidationReport.single(
            "smash product", "structural", (), "smash products need a graded algebra"))
    g = algebra.grading
    check = is_groupoid(g)
    if not check.ok:
        raise StructureError(ValidationReport.single(
            "smash product", "grading-not-groupoid", check.witness, check.message))
    ring = algebra.ring
    labels = [
        (u, h) for u in range(algebra.rank) for h in g.arrows()
        if g.src[algebra.degrees[u]] == g.rng[h]
    ]
    pos = label_index(labels)
    basis = tuple(f"{algebra.basis[u]}.d{g.arrow_names[h]}" for u, h in labels)
    table: dict[tuple[int, int], dict] = {}
    for p, (u, gu) in enumerate(labels):
        for q, (v, hv) in enumerate(labels):
            if g.src[gu] != g.src[hv]:
                continue
            ghinv = g.prod[gu][check.inverses[hv]]
            if algebra.degrees[v] != ghinv:
                continue
            w = algebra.table.get((u, v), ())
            table[(p, q)] = {pos[(k, hv)]: x for k, x in w}
    out = AlgebraPresentation(
        ring=ring, basis=basis, table=table,
        grading=g, degrees=tuple(algebra.degrees[u] for u, _h in labels),
        provenance="smash product", labels=labels,
    )
    witness = out.check_associativity()
    if witness is not None:
        raise InternalConsistencyError(
            f"smash product is not associative at {witness}; this contradicts "
            "the graded structure of the input"
        )
    return out


@dataclass
class SkewProduct:
    semigroupoid: FiniteSemigroupoid
    grading: Homomorphism


def skew_product(sgpd: FiniteSemigroupoid, d: Homomorphism) -> SkewProduct:
    """Pairs (g, h) with src(d(g)) = rng(h), labeled (g, h); product
    (g1,h1)(g2,h2) = (g1g2,h2), defined when the factors compose and
    h1 = d(g2) h2; graded back to the grading groupoid by the first
    coordinate's degree."""
    g = d.target
    check = is_groupoid(g)
    if not check.ok:
        raise StructureError(ValidationReport.single(
            "skew product", "grading-not-groupoid", check.witness, check.message))
    if d.source is not sgpd and d.source != sgpd:
        raise ValueError("the grading must be a homomorphism out of the base")

    pairs = [
        (x, h)
        for x in sgpd.arrows()
        for h in g.arrows()
        if g.src[d.map[x]] == g.rng[h]
    ]
    # vertices live in base^(0) x arrows(G)
    ends = [((sgpd.src[x], h), (sgpd.rng[x], g.prod[d.map[x]][h])) for x, h in pairs]
    products = []
    for i, j in composable_labels(sgpd, pairs, lambda x1, h1: (h1,),
                                  lambda x2, h2: (g.prod[d.map[x2]][h2],)):
        (x1, _h1), (x2, h2) = pairs[i], pairs[j]
        products.append((i, j, (sgpd.prod[x1][x2], h2)))
    out = pair_semigroupoid(
        pairs, ends, (sgpd.arrow_names, g.arrow_names), (sgpd.vertex_names, g.arrow_names),
        products, name=f"{sgpd.name}#{g.name}" if sgpd.name else "",
    )
    grading = must(validate_homomorphism([d.map[x] for x, _h in pairs], out, g))
    return SkewProduct(out, grading)


@dataclass
class SmashTheoremResult:
    map: LinearMapOnBasis
    certificate: Certificate
    smash: AlgebraPresentation
    skew: SkewProduct
    skew_algebra: AlgebraPresentation


def smash_theorem(bundle: Bundle, d: Homomorphism) -> SmashTheoremResult:
    """T(alpha delta_g)(x,h) = (alpha(x), g) when g = h, else zero; certified
    as a degree-preserving isomorphism of algebras."""
    graded_section = sectional_algebra(bundle, d)
    smash = smash_product(graded_section)
    skew = skew_product(bundle.base, d)

    skew_bundle = pullback_bundle(bundle, skew.semigroupoid,
                                  [x for x, _h in skew.semigroupoid.labels])
    skew_algebra = sectional_algebra(skew_bundle, skew.grading)

    assignment = {}
    for p, (u, h) in enumerate(smash.labels):
        x, k = graded_section.labels[u]
        assignment[p] = skew_algebra.index[(skew.semigroupoid.index[(x, h)], k)]
    tmap = basis_bijection(smash, skew_algebra, assignment)
    cert = certify_linear_iso(tmap, "smash comparison", graded=True)
    return SmashTheoremResult(tmap, cert, smash, skew, skew_algebra)


# ---------------------------------------------------------------------------
# Bundle congruences, quotient bundles, kernels
# ---------------------------------------------------------------------------

@dataclass
class BundleCongruence:
    """A rigid base congruence with coherent invertible fiber transports.

    transports[(g, g')] identifies the fiber over g with the fiber over g'
    for every ordered pair of equivalent arrows; like a fiber map it is held
    as columns, the sparse image row of each fiber basis vector. The induced
    relation on the total space relates x over g with transports[(g,g')](x)
    over g'; linearity makes the zero set saturated and the roll property
    automatic.
    """

    bundle: Bundle
    base: RigidCongruence
    transports: dict[tuple[int, int], tuple]


def validate_bundle_congruence(bundle: Bundle, base: RigidCongruence,
                               transports=None) -> BundleCongruence | ValidationReport:
    """Complete rep-to-member transports to all ordered pairs, check the
    cocycle identities on the diagonal and product intertwining by enumeration.

    transports: {arrow name: matrix} giving the transport from the class
    representative (minimal arrow id) to that arrow; omitted arrows get the
    identity, and a representative's own transport must be the identity.
    Arbitrary ordered pairs g -> h are derived by composing through the
    representative; each g -> g must be the identity, which implies every
    triple identity (see the comment at the check).
    """
    report = ValidationReport("bundle congruence")
    if base.base is not bundle.base and base.base != bundle.base:
        report.add("structural", (), "the congruence must live on the bundle base")
        return report
    ring = bundle.ring
    names = bundle.base.arrow_names

    rep_to: dict[int, tuple] = {}
    to_cols: dict[int, tuple] = {}
    from_cols: dict[int, tuple] = {}
    raw = transports or {}
    for key, mat in raw.items():
        k = str(key)
        if k not in bundle.base.by_name:
            report.add("structural", (k,), f"transport given for unknown arrow {k!r}")
            return report
        g = bundle.base.arrow_index(k)
        try:
            rep_to[g] = tuple(tuple(ring.coerce(x) for x in row) for row in mat)
        except ValueError as exc:
            report.add("structural", (k,), str(exc))
            return report

    for block in base.classes:
        rep = block[0]
        for g in block:
            if bundle.ranks[g] != bundle.ranks[rep]:
                report.add("structural", (names[rep], names[g]),
                           "equivalent arrows must carry fibers of equal rank")
                return report
            k = bundle.ranks[rep]
            identity = _identity_columns(k, ring)
            mat = rep_to.get(g)
            if mat is not None and (len(mat) != k or any(len(row) != k for row in mat)):
                report.add("structural", (names[g],),
                           f"transport for {names[g]} must be {k}x{k}")
                return report
            cols = identity if mat is None else _columns(mat, ring)
            if g == rep and cols != identity:
                report.add("cocycle", (names[g],),
                           f"transport for the representative {names[g]} is not the identity")
                return report
            if cols == identity:
                to_cols[g] = from_cols[g] = identity
                continue
            inverse = mat_inverse(mat, ring)
            if inverse is None:
                report.add("non-invertible-transport", (names[g],),
                           f"transport for {names[g]} is not invertible")
                return report
            to_cols[g], from_cols[g] = cols, _columns(inverse, ring)

    full: dict[tuple[int, int], tuple] = {}
    for block in base.classes:
        for g in block:
            for h in block:
                full[(g, h)] = _compose(to_cols[h], from_cols[g], ring)

    # The diagonal check is every cocycle identity: to_g.from_g = I makes
    # from_g a two-sided inverse of the square to_g (by the determinant over
    # a commutative ring; a non-commutative ring here is a finite table ring
    # with 1x1 transports, and finite rings are Dedekind-finite), so
    # full[(h,k)].full[(g,h)] = to_k.(from_h.to_h).from_g = full[(g,k)].
    for block in base.classes:
        for g in block:
            if full[(g, g)] != _identity_columns(bundle.ranks[g], ring):
                report.add("cocycle", (names[g],), "transport g->g is not the identity")
                return report

    prod = bundle.base.prod
    for (g1, g2) in bundle.base.composable:
        for h1 in base.classes[base.class_of[g1]]:
            for h2 in base.classes[base.class_of[g2]]:
                if not _intertwines(bundle, g1, g2, h1, h2, full[(g1, h1)], full[(g2, h2)],
                                    full[(prod[g1][g2], prod[h1][h2])]):
                    report.add("intertwining", (names[g1], names[g2], names[h1], names[h2]),
                               "transports do not intertwine the fiber products")
                    return report

    return BundleCongruence(bundle, base, full)


@dataclass
class QuotientBundleResult:
    bundle: Bundle
    base_quotient: FiniteSemigroupoid
    projection: Homomorphism
    congruence: BundleCongruence


def quotient_bundle(bc: BundleCongruence) -> QuotientBundleResult:
    """Quotient base, representative fibers, transported products.

    Products are computed through the minimal representatives and re-verified
    against every other representative pair; disagreement would contradict
    the congruence invariants, so it is surfaced as an internal error.
    """
    bundle = bc.bundle
    ring = bundle.ring
    quotient, projection = quotient_semigroupoid(bc.base)
    reps = [block[0] for block in bc.base.classes]
    ranks = tuple(bundle.ranks[r] for r in reps)
    transports, one = bc.transports, ring.one

    def moved(a: int, b: int, x, y, rq: int) -> dict:
        """x * y over (a, b), transported to the representative rq."""
        xy = bundle.fiber_mul(a, b, x, y)
        return _move(transports[(bundle.base.prod[a][b], rq)], xy.items(), ring)

    tables: dict[tuple[int, int], list] = {}
    for (ci, cj) in quotient.composable:
        ri, rj = reps[ci], reps[cj]
        rq = reps[quotient.prod[ci][cj]]
        table = tables[(ci, cj)] = [
            [moved(ri, rj, ((i, one),), ((j, one),), rq) for j in range(ranks[cj])]
            for i in range(ranks[ci])
        ]
        for a in bc.base.classes[ci]:
            for b in bc.base.classes[cj]:
                for i, x in enumerate(transports[(ri, a)]):
                    for j, y in enumerate(transports[(rj, b)]):
                        if moved(a, b, x, y, rq) != table[i][j]:
                            raise InternalConsistencyError(
                                "quotient fiber product depends on representatives at "
                                f"({bundle.base.arrow_names[a]},{bundle.base.arrow_names[b]})"
                            )
    out = bundle_from_product(ring, quotient, ranks, lambda p, q, i, j: tables[(p, q)][i][j])
    return QuotientBundleResult(out, quotient, projection, bc)


@dataclass
class QuotientKernelResult:
    map: LinearMapOnBasis
    certificate: Certificate
    kernel_basis: list[dict]
    generators: list[dict]
    source: AlgebraPresentation
    target: AlgebraPresentation
    quotient: QuotientBundleResult


def quotient_map_and_kernel(bc: BundleCongruence) -> QuotientKernelResult:
    """T sums a section over each congruence class after transporting to the
    representative. Certifies: T is an algebra homomorphism, surjective, and
    its kernel is exactly the span of the conjugate-section differences
    e_i at g minus (transport e_i) at g'."""
    bundle = bc.bundle
    ring = bundle.ring
    if not (ring.kind == "q" or ring.kind == "zmod"):
        raise CapabilityError(
            "kernel certification needs a field or Z/n coefficient ring"
        )
    qb = quotient_bundle(bc)
    source = sectional_algebra(bundle)
    target = sectional_algebra(qb.bundle)

    # the quotient arrow of g is its class, whose fiber is the representative's
    images = []
    for g, i in source.labels:
        cls = bc.base.class_of[g]
        to_rep = bc.transports[(g, bc.base.representative(cls))]
        images.append({target.index[(cls, k)]: x for k, x in to_rep[i]})
    tmap = LinearMapOnBasis(source, target, tuple(images))

    cert = Certificate("quotient comparison")
    cert.data["source_rank"] = source.rank
    cert.data["target_rank"] = target.rank
    witness = multiplicative_witness(tmap)
    cert.add("algebra-homomorphism", witness is None, witness or ())

    sol = solve_linear(tmap.rows, tmap.target.rank, ring)
    cert.add("surjective", surjective(sol))

    # discrete reduction of the conjugate sections: every open set splits
    # into single arrows, so a conjugating pair of partial homeomorphisms
    # decomposes into arrow-to-arrow transports, and alpha - psi alpha phi
    # ranges over differences of one fiber basis vector at g against its
    # transport at an equivalent g'
    generators = [
        dict([(source.index[(g, i)], ring.one)]
             + [(source.index[(h, k)], ring.neg(x)) for k, x in col])
        for block in bc.base.classes for g in block for h in block if g != h
        for i, col in enumerate(bc.transports[(g, h)])
    ]

    inside = not any(tmap.apply_rows(gen.items()) for gen in generators)
    cert.add("generators-in-kernel", inside)
    cert.add("kernel-equals-generator-span",
             spans_equal(sol.kernel_basis, generators, ring))
    if ring.is_field:
        cert.data["kernel_rank"] = span_rank(sol.kernel_basis, ring)
    return QuotientKernelResult(tmap, cert, sol.kernel_basis, generators,
                                source, target, qb)


# ---------------------------------------------------------------------------
# Groupoid of germs
# ---------------------------------------------------------------------------

@dataclass
class GermCorollaryResult:
    certificate: Certificate
    germ: GermQuotient
    crossed: AlgebraPresentation
    ideal_basis: list[dict]
    germ_algebra: AlgebraPresentation
    map: LinearMapOnBasis
    induced_action: AlgebraAction


def germ_corollary(theta: LandPreaction, coefficients) -> GermCorollaryResult:
    """Crossed product modulo order differences against the germ algebra.

    Pipeline: germ quotient of the semidirect product; coefficient algebra of
    the space with the shift action; naive crossed product; the two-sided
    ideal generated by delta_s a - delta_t a for s below t; the coefficient
    algebra of the germ groupoid; and the certified induced isomorphism.
    The map is built before the ideal, so when it is multiplicative and kills
    every generator its kernel bounds the saturation, which stops there.
    StageErrors tag which stage refused.
    """
    def stage(name, thunk):
        try:
            out = thunk()
        except (StructureError, CapabilityError, InternalConsistencyError) as exc:
            raise StageError(name, exc)
        if isinstance(out, ValidationReport):
            raise StageError(name, StructureError(out))
        return out

    germ = stage("germ-quotient", lambda: germ_quotient(theta))

    inner_bundle = stage("coefficient-algebra",
                         lambda: coefficient_bundle(coefficients, theta.space))
    baction = stage("induced-action",
                    lambda: validate_bundle_action(theta, inner_bundle, None))
    induced = stage("induced-action", lambda: induced_theta(baction))
    crossed = stage("crossed-product", lambda: naive_crossed_product(induced))

    actor = theta.actor
    ring = crossed.ring
    generators = [
        {crossed.index[(s, d)]: ring.one, crossed.index[(t, d)]: ring.neg(ring.one)}
        for s, t in sorted(actor.leq) if s != t
        for d in sorted(set(induced.domains[s]) & set(induced.domains[t]))
    ]
    germ_algebra = stage("germ-algebra",
                      lambda: semigroupoid_algebra(coefficients, germ.quotient))

    # delta_s e_(g, i) goes to e_i at the germ (class) of the arrow (s, g)
    images = []
    for s, d in crossed.labels:
        g, i = induced.algebra.labels[d]
        cls = germ.congruence.class_of[germ.semidirect.index[(s, g)]]
        images.append(((germ_algebra.index[(cls, i)], ring.one),))
    qmap = LinearMapOnBasis(crossed, germ_algebra, tuple(images))
    witness = multiplicative_witness(qmap)
    sol = stage("ideal", lambda: solve_linear(qmap.rows, qmap.target.rank, ring))
    # one echelon form of the kernel: the saturation's stop target and the
    # span the ideal is compared with
    kernel = stage("ideal", lambda: EchelonBasis(ring, sol.kernel_basis))
    kills = not any(qmap.apply_rows(gen.items()) for gen in generators)
    # the kernel of a multiplicative map that kills every generator is a
    # two-sided ideal containing them, so the saturation may stop there
    until = kernel if witness is None and kills else None
    ideal = stage("ideal", lambda: ideal_closure(generators, crossed, until))
    ideal_rows = EchelonBasis(ring, ideal).rows

    cert = Certificate("germ corollary")
    cert.data["crossed_rank"] = crossed.rank
    cert.data["quotient_rank"] = germ_algebra.rank
    if ring.is_field:
        ideal_rank = cert.data["ideal_rank"] = len(ideal_rows)
    else:
        cert.data["ideal_generators"] = len(ideal)

    cert.add("multiplicative", witness is None, witness or ())
    cert.add("ideal-killed", not any(qmap.apply_rows(v.items()) for v in ideal))

    cert.add("surjective", surjective(sol))
    cert.add("kernel-is-ideal", kernel.rows == ideal_rows)
    if ring.is_field:
        cert.add("rank-identity",
                 crossed.rank - ideal_rank == germ_algebra.rank,
                 note=f"{crossed.rank} - {ideal_rank} == {germ_algebra.rank}")
    return GermCorollaryResult(cert, germ, crossed, ideal, germ_algebra, qmap, induced)
