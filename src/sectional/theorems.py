"""The four isomorphism pipelines, materialized as basis maps with certificates.

Each comparison builds both sides explicitly, writes the connecting map as a
basis-image table, and certifies the claimed properties by enumeration; the
kernels and images are read off the maps' rows or their checked inverses:

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
)
from .maps import (Certificate, LinearMapOnBasis, basis_bijection, certify_linear_iso,
                   multiplicative_witness)
from .rings import EchelonBasis, _thin, apply_linear, mat_inverse, sparse_row
from .semigroupoids import (
    FiniteSemigroupoid,
    Homomorphism,
    composable_labels,
    direct_product,
    in_arrow_order,
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
)


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------

def tensor_product_algebra(a: AlgebraPresentation, b: AlgebraPresentation) -> AlgebraPresentation:
    """Pairwise basis with (x1 (x) y1)(x2 (x) y2) = x1x2 (x) y1y2, x (x) y
    labeled (label of x, label of y).

    Needs a shared commutative ring; free fibers carry the symmetric bimodule
    structure, so the entrywise product formula is balanced. Zero products
    (2 * 3 over Z/6) are pruned, so the rows come out in normal form.
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
    table: dict[tuple[int, int], tuple] = {}
    for (i1, i2), pa in a.table.items():
        for (j1, j2), pb in b.table.items():
            if row := tuple((k * rank_b + l, xy) for k, x in pa for l, y in pb
                            if not ring.is_zero(xy := ring.mul(x, y))):
                table[(i1 * rank_b + j1, i2 * rank_b + j2)] = row
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


def _compose(a, b, ring) -> tuple:
    """The columns of fiber map a after fiber map b: the matrix product a b.
    apply_linear puts b's entry before a's, which is the matrix's product as
    the validators first check each fiber map and transport to be central."""
    return tuple(tuple(sorted(apply_linear(a, col, ring).items())) for col in b)


def _intertwines(bundle: Bundle, g1: int, g2: int, h1: int, h2: int, m1, m2, m12) -> bool:
    """Whether fiber maps m1: fiber(g1) -> fiber(h1), m2: fiber(g2) -> fiber(h2)
    and m12: fiber(g1 g2) -> fiber(h1 h2), given as image columns, carry
    products to products: m1(e_i) m2(e_j) == m12(e_i e_j) on basis pairs."""
    ring = bundle.ring
    products = bundle.rows[(g1, g2)]
    for i, x in enumerate(m1):
        for j, y in enumerate(m2):
            if bundle.fiber_mul(h1, h2, x, y) != apply_linear(m12, products[i][j], ring):
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
                           fiber_maps=None) -> BundleAction:
    """Check fiber matrices: shapes, central entries, invertibility through the
    inverse arrow, product intertwining, and the extension law m_st = m_s m_t.

    A fiber over a non-commutative ring is the bimodule R, and a bimodule map
    f(r) = r f(1) = f(1) r multiplies by a central element; central maps
    commute, so m_s m_t is also m_t m_s, the order of the induced rows.

    fiber_maps: {(s, g): matrix} on pairs of the action domains; a pair it
    omits (all of them when it is None) acts as the identity.
    """
    report = ValidationReport("bundle action")
    if bundle.base is not theta.space and bundle.base != theta.space:
        report.add("structural", (), "the action must act on the bundle base")
        raise StructureError(report)
    ring = bundle.ring
    actor = theta.actor
    names = actor.base.arrow_names
    anames = theta.space.arrow_names

    maps: dict[tuple[int, int], tuple] = {}
    for key, mat in sorted((fiber_maps or {}).items()):
        try:
            maps[key] = tuple(tuple(ring.coerce(x) for x in row) for row in mat)
        except ValueError as exc:
            report.add("structural", (names[key[0]], anames[key[1]]), str(exc))
            raise StructureError(report)

    expected = [(s, g) for s in actor.base.arrows() for g in theta.dom(s)]
    outside = set(maps).difference(expected)
    if outside:
        s, g = min(outside)
        report.add("structural", (names[s], anames[g]),
                   "fiber matrices must exist exactly on the action domains")
        raise StructureError(report)
    cols: dict[tuple[int, int], tuple] = {}
    for s, g in expected:
        h = theta.apply(s, g)
        if bundle.ranks[g] != bundle.ranks[h]:
            report.add("structural", (names[s], anames[g]),
                       "fiber ranks must match along the action")
            raise StructureError(report)
        mat = maps.get((s, g))
        if mat is None:
            cols[(s, g)] = _identity_columns(bundle.ranks[g], ring)
            continue
        if len(mat) != bundle.ranks[h] or any(len(row) != bundle.ranks[g] for row in mat):
            report.add("structural", (names[s], anames[g]),
                       f"matrix for ({names[s]},{anames[g]}) has the wrong shape")
            raise StructureError(report)
        if not (ring.commutative or all(ring.is_central(x) for row in mat for x in row)):
            report.add("non-central-fiber-map", (names[s], anames[g]),
                       "over a non-commutative ring a fiber map must be central")
            raise StructureError(report)
        cols[(s, g)] = _columns(mat, ring)

    for (s, g), mat in cols.items():
        back = cols[(actor.inv[s], theta.apply(s, g))]
        if _compose(back, mat, ring) != _identity_columns(bundle.ranks[g], ring):
            report.add("non-invertible-fiber-map", (names[s], anames[g]),
                       "the inverse arrow's matrix does not invert this one")
            raise StructureError(report)

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
                raise StructureError(report)

    for s, t in actor.base.composable:
        st = actor.base.prod[s][t]
        for x in theta.dom(t):
            tx = theta.apply(t, x)
            if tx not in theta.maps[s]:
                continue
            m_st, m_s, m_t = cols[(st, x)], cols[(s, tx)], cols[(t, x)]
            if m_st != _compose(m_s, m_t, ring):
                report.add("extension-law", (names[s], names[t], anames[x]),
                           "fiber matrices violate the extension law")
                raise StructureError(report)

    return BundleAction(theta, bundle, cols)


def _semidirect_bundle(action: BundleAction) -> Bundle:
    """The bundle over the semidirect product base with transported products,
    not walked: crossed_theorem, its one caller, argues its associativity;
    drop applies through apply_linear as the matrix does (_compose)."""
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
        return apply_linear(drop, inner_product.items(), ring)

    return bundle_from_product(ring, base, ranks, pair_product)


def coefficient_action(theta: LandPreaction, coefficients) -> BundleAction:
    """theta acting by identity fiber maps on coefficient_bundle(coefficients,
    theta.space), built unchecked: all fibers have one rank; I I = I gives the
    inverse check and the extension law; and intertwining at (g1, g2) compares
    the one product table with itself, as theta_s keeps (g1, g2) composable
    (validate_preaction). validate_bundle_action(theta, bundle, None) returns
    the same fiber maps."""
    bundle = coefficient_bundle(coefficients, theta.space)
    identity = _identity_columns(max(bundle.ranks, default=0), bundle.ring)
    pairs = ((s, g) for s in theta.actor.base.arrows() for g in theta.dom(s))
    return BundleAction(theta, bundle, dict.fromkeys(pairs, identity))


def induced_theta(action: BundleAction) -> AlgebraAction:
    """Action on the sectional algebra: shift supports along the base action
    and apply the fiber matrices; the domain of arrow s is the span of basis
    sections supported inside dom(theta_s): (g, k) goes to the column k of
    the fiber map at (s, g), placed over theta_s(g).

    Each check an algebra action needs is one validate_preaction and
    validate_bundle_action decided, read on basis sections (e_(g,i) e_(h,j)
    lies over gh, and is 0 off composable pairs):
      - ideal-property: the preaction's axioms (i) and (ii);
      - inverse-compatibility: its axiom (iii) and the bundle action's inverse
        check, a left inverse, two-sided over a commutative or a finite ring;
      - isomorphism: theta_s keeps composability and products, and the fiber
        maps intertwine the fiber products (a twist constant is central);
      - extension-law: for y = theta_t(x) in dom(theta_s), both extension
        laws give x in dom(theta_st) and m_(st,x) = m_(s,y) m_(t,x), and the
        inverse check at (t*, y) makes Theta_{t*} carry y's sections to x's;
        a row applies with the vector's coefficient on the left, so Theta_s
        Theta_t reads m_(t,x) m_(s,y), the same product, as the fiber maps
        over a non-commutative ring are central.
    Twisted associativity follows from none of this, so it is checked.
    """
    theta, fiber_maps = action.base_action, action.fiber_maps
    algebra = sectional_algebra(action.bundle)
    rows = tuple({idx: tuple((algebra.index[(moved[g], j)], x) for j, x in fiber_maps[(s, g)][k])
                  for idx, (g, k) in enumerate(algebra.labels) if g in moved}
                 for s, moved in enumerate(theta.maps))
    out = AlgebraAction(theta.actor, algebra, tuple(map(tuple, rows)), rows)
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

    The semidirect bundle is not walked. induced_theta decides twisted
    associativity, the crossed product's, and the bundle's product at
    ((s,a),(t,b)) is, term for term, the crossed product's at
    (delta_s e_(a,i), delta_t e_(b,j)): both apply the fiber maps through
    rings.apply_linear.
    """
    induced = induced_theta(action)
    bsd = _semidirect_bundle(action)
    left = sectional_algebra(bsd)
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
    g h^{-1} and lands on delta_h. For a basis element e_v, h = deg(v)^{-1} g
    is the one h with deg v = g h^{-1}, defined when rng(deg v) = rng(g); so a
    keyed join meets each (u, g) only with the v after u, ascending, and fills
    the table in ascending pair order. The input's graded closure and
    associativity are checked instead of A # G's, at half the rank, and a
    failure is refused with the input's witness: with them both bracketings of
    (a delta_g)(b delta_h)(c delta_k) are abc delta_k when deg b = g h^{-1} and
    deg c = h k^{-1}, and zero otherwise.
    """
    if not algebra.graded:
        raise StructureError(ValidationReport.single(
            "smash product", "structural", (), "smash products need a graded algebra"))
    g = algebra.grading
    check = is_groupoid(g)
    if not check.ok:
        raise StructureError(ValidationReport.single(
            "smash product", "grading-not-groupoid", check.witness, check.message))
    for kind, proof in (("graded-closure", algebra.check_graded_closure),
                        ("associativity", algebra.check_associativity)):
        if (witness := proof()) is not None:
            raise StructureError(ValidationReport.single(
                "smash product", kind, witness, f"the graded algebra fails {kind}"))
    ring = algebra.ring
    labels = [
        (u, h) for u in range(algebra.rank) for h in g.arrows()
        if g.src[algebra.degrees[u]] == g.rng[h]
    ]
    pos = label_index(labels)
    basis = tuple(f"{algebra.basis[u]}.d{g.arrow_names[h]}" for u, h in labels)
    table: dict[tuple[int, int], tuple] = {}
    inv, degrees = check.inverses, algebra.degrees
    for p, (u, gu) in enumerate(labels):
        for v in sorted(algebra.after[u]):
            if (h := g.prod[inv[degrees[v]]].get(gu)) is not None:
                table[(p, pos[(v, h)])] = tuple((pos[(k, h)], x) for k, x in algebra.table[(u, v)])
    return AlgebraPresentation(
        ring=ring, basis=basis, table=table,
        grading=g, degrees=tuple(algebra.degrees[u] for u, _h in labels),
        provenance="smash product", labels=labels,
    )


@dataclass
class SkewProduct:
    semigroupoid: FiniteSemigroupoid
    grading: Homomorphism


def skew_product(sgpd: FiniteSemigroupoid, d: Homomorphism) -> SkewProduct:
    """Pairs (g, h) with src(d(g)) = rng(h), labeled (g, h); product
    (g1,h1)(g2,h2) = (g1g2,h2), defined when the factors compose and
    h1 = d(g2) h2; graded back to the grading groupoid by the first
    coordinate's degree. (g, h) runs from (src g, h) to (rng g, d(g) h), so
    the validated base and multiplicative d imply every axiom and no triple
    is walked; pair_semigroupoid checks the names and the pair axioms, and
    validate_homomorphism the grading, deciding its rigidity."""
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
    grading = validate_homomorphism([d.map[x] for x, _h in pairs], out, g)
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
    """A rigid base congruence with coherent invertible fiber transports, one
    per arrow as the file declares them: from_rep[g] carries the fiber over
    g's class representative to the fiber over g (the declared matrix) and
    to_rep[g] carries it back, both the identity at a representative and held
    as columns like a fiber map. The transport g -> h of equivalent arrows is
    from_rep[h] after to_rep[g]; relating x over g with its transport over h,
    linearity makes the zero set saturated and the roll property automatic."""

    bundle: Bundle
    base: RigidCongruence
    to_rep: tuple
    from_rep: tuple


def validate_bundle_congruence(bundle: Bundle, base: RigidCongruence,
                               transports=None) -> BundleCongruence:
    """Invert the declared transports, check each g -> g is the identity (every
    cocycle identity) and product intertwining at the class representatives,
    which decides every equivalent pair. A transport is a bimodule map, central
    over a non-commutative ring, as a fiber map is (validate_bundle_action).

    transports: {arrow name: matrix} giving the transport from the class
    representative (minimal arrow id) to that arrow; omitted arrows get the
    identity, and a representative's own transport must be the identity.
    """
    report = ValidationReport("bundle congruence")
    if base.base is not bundle.base and base.base != bundle.base:
        report.add("structural", (), "the congruence must live on the bundle base")
        raise StructureError(report)
    ring = bundle.ring
    names = bundle.base.arrow_names

    declared: dict[int, tuple] = {}
    for k, g, mat in in_arrow_order(transports or {}, bundle.base.by_name.get):
        if g is None:
            report.add("structural", (k,), f"transport given for unknown arrow {k!r}")
            raise StructureError(report)
        try:
            declared[g] = tuple(tuple(ring.coerce(x) for x in row) for row in mat)
        except ValueError as exc:
            report.add("structural", (k,), str(exc))
            raise StructureError(report)

    to_rep = [_identity_columns(k, ring) for k in bundle.ranks]
    from_rep = list(to_rep)
    for block in base.classes:
        rep = block[0]
        for g in block:
            if bundle.ranks[g] != bundle.ranks[rep]:
                report.add("structural", (names[rep], names[g]),
                           "equivalent arrows must carry fibers of equal rank")
                raise StructureError(report)
            k = bundle.ranks[rep]
            identity = _identity_columns(k, ring)
            mat = declared.get(g)
            if mat is not None and (len(mat) != k or any(len(row) != k for row in mat)):
                report.add("structural", (names[g],),
                           f"transport for {names[g]} must be {k}x{k}")
                raise StructureError(report)
            if not (ring.commutative or all(ring.is_central(x) for row in mat or () for x in row)):
                report.add("non-central-transport", (names[g],),
                           "over a non-commutative ring a transport must be central")
                raise StructureError(report)
            cols = identity if mat is None else _columns(mat, ring)
            if g == rep and cols != identity:
                report.add("cocycle", (names[g],),
                           f"transport for the representative {names[g]} is not the identity")
                raise StructureError(report)
            if cols == identity:
                continue
            inverse = mat_inverse(mat, ring)
            if inverse is None:
                report.add("non-invertible-transport", (names[g],),
                           f"transport for {names[g]} is not invertible")
                raise StructureError(report)
            from_rep[g], to_rep[g] = cols, _columns(inverse, ring)
            # g -> g = I is every cocycle identity: it makes to_g a two-sided
            # inverse of the square from_g (by the determinant over a commutative
            # ring; a non-commutative ring here is a finite table ring with 1x1
            # transports, and finite rings are Dedekind-finite)
            if _compose(cols, to_rep[g], ring) != identity:
                report.add("cocycle", (names[g],), "transport g->g is not the identity")
                raise StructureError(report)

    # The basis check at the representative pair (r1, r2) decides every equivalent
    # pair (h1, h2): with A, B, C the transports of g1, g2, g1g2 to r1, r2, r1r2 and
    # A', B', C' those of h1, h2, h1h2, Ax.By = C(xy) holds for all vectors by
    # bilinearity (central twists and transports make it so over any ring), so
    # x' = A'^-1 Ax, y' = B'^-1 By give x'y' = C'^-1 C(xy), and A'^-1 A, B'^-1 B,
    # C'^-1 C are the transports g1 -> h1, g2 -> h2, g1g2 -> h1h2 by the cocycle identities.
    prod, cls = bundle.base.prod, [base.classes[c] for c in base.class_of]

    def intertwines(g1: int, g2: int, h1: int, h2: int) -> bool:
        pairs = ((g1, h1), (g2, h2), (prod[g1][g2], prod[h1][h2]))
        return _intertwines(bundle, g1, g2, h1, h2,
                            *(_compose(from_rep[h], to_rep[g], ring) for g, h in pairs))

    # the witness is the first failure of the walk over every equivalent pair
    at_reps = all(intertwines(g1, g2, cls[g1][0], cls[g2][0]) for g1, g2 in bundle.base.composable)
    witness = None if at_reps else next(((g1, g2, h1, h2) for g1, g2 in bundle.base.composable
                                         for h1 in cls[g1] for h2 in cls[g2]
                                         if not intertwines(g1, g2, h1, h2)), None)
    if witness is not None:
        report.add("intertwining", tuple(names[g] for g in witness),
                   "transports do not intertwine the fiber products")
        raise StructureError(report)
    return BundleCongruence(bundle, base, tuple(to_rep), tuple(from_rep))


@dataclass
class QuotientBundleResult:
    bundle: Bundle
    base_quotient: FiniteSemigroupoid
    projection: Homomorphism
    congruence: BundleCongruence


def quotient_bundle(bc: BundleCongruence) -> QuotientBundleResult:
    """Quotient base, representative fibers, transported products.

    The products over the representatives ri, rj of two classes, carried by
    to_rep to their product's representative, are the quotient's; any other
    members a, b give the same. validate_bundle_congruence decided that every
    transport pair intertwines the basis products (at the representatives,
    which decides every pair): at (ri, rj) -> (a, b), x y = from_rep[ab]
    to_rep[ri rj](e_i e_j) for x, y the columns i, j of from_rep[a],
    from_rep[b], so to_rep[ab](x y) = to_rep[ri rj](e_i e_j); to_rep applies
    through apply_linear as the matrix does (_compose).

    Its associativity is not walked. At classes (ci, cj, ck), with r the
    representative of ri rj's class, (e_i e_j) e_l is to_rep[r rk] of
    to_rep[ri rj](e_i e_j) e_l; intertwining at (ri rj, rk) -> (r, rk) and the
    cocycle identity make that to_rep[ri rj rk]((e_i e_j) e_l), and the other
    bracketing to_rep[ri rj rk](e_i (e_j e_l)) likewise: the parent's two.
    """
    bundle = bc.bundle
    ring = bundle.ring
    quotient, projection = quotient_semigroupoid(bc.base)
    reps = [block[0] for block in bc.base.classes]
    ranks = tuple(bundle.ranks[r] for r in reps)

    def product(ci: int, cj: int, i: int, j: int) -> dict:
        ri, rj = reps[ci], reps[cj]
        return apply_linear(bc.to_rep[bundle.base.prod[ri][rj]], bundle.rows[ri, rj][i][j], ring)

    out = bundle_from_product(ring, quotient, ranks, product)
    return QuotientBundleResult(out, quotient, projection, bc)


@dataclass
class QuotientKernelResult:
    """The quotient map and its certificate; generators holds e_i at g minus (transport
    e_i) at the representative for each arrow g that is not its class representative."""

    map: LinearMapOnBasis
    certificate: Certificate
    generators: list[dict]
    source: AlgebraPresentation
    target: AlgebraPresentation
    quotient: QuotientBundleResult


def quotient_map_and_kernel(bc: BundleCongruence) -> QuotientKernelResult:
    """T sums a section over each congruence class after transporting to the
    representative. Certifies: T is an algebra homomorphism, surjective, and
    its kernel is exactly the span of the conjugate-section differences
    e_i at g minus (transport e_i) at g', generated by those with g' the
    representative. No elimination decides the last two: each generator is
    e_(g,i), for g no representative, less terms at g's representative r, so
    with the units (r, i) the generators are a unitriangular basis of the
    source, over any commutative ring. The rows of T must send each (r, i) to
    the target unit (class of r, i), as many as the target rank: then these
    are every target unit, and T is onto. If the generators also lie in ker T,
    write v in ker T in that basis: T(v) puts v's representative coordinates
    at distinct target units, so they are 0 and v is in the generators' span.
    Both are sufficient conditions that T as built meets (to_rep is the
    identity at a representative); over a field the kernel's rank is the
    number of generators."""
    bundle = bc.bundle
    ring = bundle.ring
    if ring.kind not in ("q", "zmod"):
        raise CapabilityError("kernel certification needs a field or Z/n coefficient ring")
    qb = quotient_bundle(bc)
    source = sectional_algebra(bundle)
    target = sectional_algebra(qb.bundle)

    # the quotient arrow of g is its class, whose fiber is the representative's
    images = [{target.index[(bc.base.class_of[g], k)]: x for k, x in bc.to_rep[g][i]}
              for g, i in source.labels]
    tmap = LinearMapOnBasis(source, target, tuple(images))

    cert = Certificate("quotient comparison")
    cert.data["source_rank"] = source.rank
    cert.data["target_rank"] = target.rank
    witness = multiplicative_witness(tmap)
    cert.add("algebra-homomorphism", witness is None, witness or ())

    # each representative unit (r, i) goes to (class of r, i), and they are all
    reps = [(c, block[0]) for c, block in enumerate(bc.base.classes)]
    identity_block = sum(bundle.ranks[r] for _, r in reps) == target.rank and all(
        tmap.rows[source.index[(r, i)]] == ((target.index.get((c, i)), ring.one),)
        for c, r in reps for i in range(bundle.ranks[r]))
    cert.add("surjective", identity_block)

    # discrete reduction of the conjugate sections: every open set splits
    # into single arrows, so a conjugating pair of partial homeomorphisms
    # decomposes into arrow-to-arrow transports, and alpha - psi alpha phi
    # ranges over differences of one fiber basis vector at g against its
    # transport at an equivalent h. Those at the representative r span them
    # all: as g -> h -> r is g -> r, the difference for v from g to h is the
    # one for v from g to r less the one for (transport v) from h to r.
    generators = [
        dict([(source.index[(g, i)], ring.one)]
             + [(source.index[(block[0], k)], ring.neg(x)) for k, x in col])
        for block in bc.base.classes for g in block[1:]
        for i, col in enumerate(bc.to_rep[g])
    ]

    inside = not any(tmap.apply_rows(gen.items()) for gen in generators)
    cert.add("generators-in-kernel", inside)
    cert.add("kernel-equals-generator-span", inside and identity_block)
    if ring.is_field:
        cert.data["kernel_rank"] = len(generators)
    return QuotientKernelResult(tmap, cert, generators, source, target, qb)


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


def _unit_map_kernel(tmap: LinearMapOnBasis) -> tuple:
    """The kernel's echelon basis, set with no elimination, of a map sending
    each source unit to a target unit or to 0, and whether it is onto. Of the
    units sent to one target unit, r the largest, each other x gives e_x - e_r;
    a unit sent to 0 gives e_x. These span the kernel, and their pivots x are
    units met by no other row: the RREF over a field, the reduced Howell form
    over Z/n. A row of any other shape is a program bug."""
    ring = tmap.source.ring
    kernel, one = EchelonBasis(ring), ring.one
    for x, row in enumerate(tmap.rows):
        if row and (len(row) > 1 or row[0][1] != one):
            raise InternalConsistencyError(
                f"the image of {tmap.source.basis[x]} is neither 0 nor a target unit")
    last = {row[0][0]: x for x, row in enumerate(tmap.rows) if row}
    kernel.rows = {x: {x: one, last[row[0][0]]: ring.neg(one)} if row else {x: one}
                   for x, row in enumerate(tmap.rows) if not row or last[row[0][0]] != x}
    return kernel, len(last) == tmap.target.rank


def germ_corollary(theta: LandPreaction, coefficients) -> GermCorollaryResult:
    """Crossed product modulo order differences against the germ algebra.

    Pipeline: the groupoid of germs of the action; coefficient algebra of
    the space with the shift action; naive crossed product; the two-sided
    ideal generated by delta_s a - delta_t a for s below t; the coefficient
    algebra of the germ groupoid; and the certified induced isomorphism.
    The map sends each delta_s e_(g, i) to one target unit, so its kernel K
    and image are read off its rows. The ideal is read off the span of its
    generators, with no product formed:
      - when the map is multiplicative, K is a two-sided ideal; when the
        span's echelon rows are K's, the generators lie in K, so
        span <= ideal <= K = span;
      - on a validated preaction that holds. A row of K is e_(s,g,i) -
        e_(t,g,i) with s eps = t eps, germ_quotient's key, and equals
        (delta_s - delta_(s eps)) e_(g,i) - (delta_t - delta_(t eps)) e_(g,i).
        As s eps <= s and g lies in dom theta_(s eps), each bracket is zero
        or a generator.
    So `kernel-is-ideal` passes wherever a full saturation would equal K,
    and the reported ideal, the span, is the ideal wherever the check passes.
    StageErrors tag which stage refused.
    """
    def stage(name, thunk):
        try:
            return thunk()
        except (StructureError, CapabilityError, InternalConsistencyError) as exc:
            raise StageError(name, exc)

    germ = stage("germ-quotient", lambda: germ_quotient(theta))

    baction = stage("coefficient-algebra", lambda: coefficient_action(theta, coefficients))
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
        images.append(((germ_algebra.index[(germ.class_of[s, g], i)], ring.one),))
    qmap = LinearMapOnBasis(crossed, germ_algebra, tuple(images))
    witness = multiplicative_witness(qmap)
    kernel, onto = stage("ideal", lambda: _unit_map_kernel(qmap))
    kept, ideal_span = stage("ideal", lambda: _thin(generators, ring))
    ideal = ideal_span.pivot_rows() if ring.is_field else kept

    cert = Certificate("germ corollary")
    cert.data["crossed_rank"] = crossed.rank
    cert.data["quotient_rank"] = germ_algebra.rank
    if ring.is_field:
        ideal_rank = cert.data["ideal_rank"] = len(ideal_span.rows)
    else:
        cert.data["ideal_generators"] = len(ideal)

    cert.add("multiplicative", witness is None, witness or ())
    cert.add("ideal-killed", not any(qmap.apply_rows(gen.items()) for gen in generators))

    cert.add("surjective", onto)
    cert.add("kernel-is-ideal", witness is None and kernel.rows == ideal_span.rows)
    if ring.is_field:
        cert.add("rank-identity",
                 crossed.rank - ideal_rank == germ_algebra.rank,
                 note=f"{crossed.rank} - {ideal_rank} == {germ_algebra.rank}")
    return GermCorollaryResult(cert, germ, crossed, ideal, germ_algebra, qmap, induced)
