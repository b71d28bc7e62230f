"""Algebra bundles over finite semigroupoids and their sectional algebras.

A bundle assigns to every base arrow a free bimodule fiber and to every
composable pair a balanced fiber product, held as sparse rows: the product
of two basis vectors, for every composable pair. Over a non-commutative ring
every fiber is the bimodule R, its product ring multiplication times a
central constant, which validate_bundle alone scans for; a fiber map or
transport (theorems) is a bimodule map, multiplication by a central unit.
Bundles are built from a workspace stanza, pulled back along a base map, or
read off a fiber-product function; the stanza's "mode" ("sc" structure
constants, commutative rings only, or "ringfiber" twists) only chooses how
the file spells the products.

Sections (finitely supported choices of a fiber vector per arrow) multiply by
convolution over factorizations, which turns the basis sections into the
uniform algebra presentations used everywhere else: sectional algebras,
semigroupoid algebras, graded round trips, and naive crossed products.
"""

from __future__ import annotations

import itertools

from .actions import first_twisted_triple, twisted_partners
from .algebras import AlgebraPresentation
from .maps import LinearMapOnBasis, basis_bijection
from .rings import Ring, apply_linear, combine, sparse_row, sparse_vector
from .semigroupoids import (
    FiniteInverseSemigroupoid,
    FiniteSemigroupoid,
    Homomorphism,
    composable_labels,
    identity_homomorphism,
    in_arrow_order,
    label_index,
    validate_homomorphism,
    validate_semigroupoid,
)
from .validation import (
    CapabilityError,
    InternalConsistencyError,
    StructureError,
    ValidationReport,
)


class Bundle:
    """rows[(a, b)][i][j] is e_i * e_j in fiber(ab), a row in normal form, for
    every composable pair; every product is (x_i y_j) * row, summed. A Bundle
    is made only by validate_bundle or by a builder that argues its identities."""

    def __init__(self, ring: Ring, base: FiniteSemigroupoid, ranks: tuple[int, ...],
                 rows: dict[tuple[int, int], tuple]):
        self.ring, self.base, self.ranks, self.rows = ring, base, ranks, rows

    def fiber_mul(self, a: int, b: int, x, y) -> dict:
        """Balanced product fiber(a) x fiber(b) -> fiber(ab) of sparse vectors
        given as (index, value) pairs."""
        if self.base.compose(a, b) is None:
            raise ValueError("fiber_mul on a non-composable pair")
        table, mul = self.rows[(a, b)], self.ring.mul
        return combine(((mul(xi, yj), row) for i, xi in x for j, yj in y if (row := table[i][j])),
                       self.ring)


def fiber_rows(table, ring: Ring) -> tuple:
    """A dense product table, table[i][j] = e_i * e_j, as sparse rows."""
    return tuple(tuple(sparse_row(vec, ring) for vec in row) for row in table)


def pullback_bundle(bundle: Bundle, base: FiniteSemigroupoid, along) -> Bundle:
    """The bundle over base whose fiber over p is the fiber over along[p].

    along lists an arrow of bundle.base per arrow of base. Once it is checked to
    be a homomorphism (O(composable pairs)), the shared rows' identity at (p, q, r)
    is the parent's at (along[p], along[q], along[r]), which is already decided.
    """
    validate_homomorphism(along, base, bundle.base)
    ranks = tuple(bundle.ranks[along[p]] for p in base.arrows())
    rows = {(p, q): bundle.rows[(along[p], along[q])] for p, q in base.composable}
    return Bundle(bundle.ring, base, ranks, rows)


def bundle_from_product(ring: Ring, base: FiniteSemigroupoid, ranks: tuple[int, ...],
                        product) -> Bundle:
    """The bundle whose e_i * e_j over (p, q) is product(p, q, i, j), a sparse
    {index: value} dict as combine returns it. Nothing is scanned or walked:
    each caller argues associativity from its inputs' checks, and centrality
    from checked central twists, fiber maps and transports, whose products are."""
    rows = {
        (p, q): tuple(tuple(tuple(sorted(product(p, q, i, j).items())) for j in range(ranks[q]))
                      for i in range(ranks[p]))
        for p, q in base.composable
    }
    return Bundle(ring, base, ranks, rows)


def trivial_bundle(ring: Ring, base: FiniteSemigroupoid) -> Bundle:
    """Rank-1 fibers, every constant 1: the direct-product bundle R x base.
    Each identity reads 1 = 1, so validating base (lookups only) checks it."""
    validate_semigroupoid(base)
    one = fiber_rows((((ring.one,),),), ring)
    return Bundle(ring, base, (1,) * base.n_arrows, dict.fromkeys(base.composable, one))


def _check_twists(bundle: Bundle) -> Bundle:
    """A fiber over a non-commutative ring is the ring itself, twisted centrally."""
    ring, report = bundle.ring, ValidationReport("bundle")
    if ring.commutative:
        return bundle
    if any(k != 1 for k in bundle.ranks):
        report.add("structural", (), "non-commutative coefficients need every rank equal to 1")
        raise StructureError(report)
    for a, b in bundle.base.composable:
        table = bundle.rows[(a, b)]
        if not all(ring.is_central(t) for row in table for entry in row for _k, t in entry):
            report.add("structural", (bundle.base.arrow_names[a], bundle.base.arrow_names[b]),
                       "twist constants must be central in the ring")
            raise StructureError(report)
    return bundle


def validate_bundle(raw, ring: Ring, base: FiniteSemigroupoid) -> Bundle:
    """Build a bundle from a stanza, or take a built one, and enumerate
    total-product associativity: (e_i e_j) e_l = e_i (e_j e_l) for every
    composable (a, b, c) and basis indices (i, j, l), each side summed in place
    from the stored rows; the witness is the first failing (a, b, c, i, j, l).

    Stanza fields: "ranks" {arrow: k} (default 1), "mode" ("sc"/"ringfiber"),
    "constants" {"a,b": [[[r]]]} for sc, "twist" {"a,b": r} for ringfiber.
    Missing constants are allowed only for rank-1 pairs and default to 1.
    """
    report = ValidationReport("bundle")
    if isinstance(raw, Bundle):
        bundle = raw
    else:
        mode = raw.get("mode", "sc")
        if mode not in ("sc", "ringfiber"):
            report.add("structural", (str(mode),), f"unknown bundle mode {mode!r}")
            raise StructureError(report)
        ranks = [1] * base.n_arrows
        for k, a, val in in_arrow_order(raw.get("ranks", {}), base.by_name.get):
            if a is None:
                report.add("structural", (k,), f"rank given for unknown arrow {k!r}")
                raise StructureError(report)
            if isinstance(val, bool) or not isinstance(val, int) or val < 0:
                report.add("structural", (k,), "ranks must be non-negative integers")
                raise StructureError(report)
            ranks[a] = val

        def parse_pair(text: str):
            # arrow ids may themselves contain commas, so try every split
            # point and demand a unique reading as two declared ids
            candidates = []
            for cut in range(len(text)):
                if text[cut] != ",":
                    continue
                left, right = text[:cut], text[cut + 1:]
                if left in base.by_name and right in base.by_name:
                    candidates.append((base.arrow_index(left), base.arrow_index(right)))
            if len(candidates) != 1 or not base.is_composable(*candidates[0]):
                return None
            return candidates[0]

        tables: dict[tuple[int, int], tuple] = {}
        if mode == "ringfiber":
            if any(k != 1 for k in ranks):
                report.add("structural", (), "ringfiber mode needs every rank equal to 1")
                raise StructureError(report)
            for key, pair, val in in_arrow_order(raw.get("twist", {}), parse_pair):
                if pair is None:
                    report.add("structural", (key,),
                               f"twist key {key!r} is not a composable arrow pair")
                    raise StructureError(report)
                try:
                    tables[pair] = (((ring.coerce(val),),),)
                except ValueError as exc:
                    report.add("structural", (key,), str(exc))
                    raise StructureError(report)
        else:
            for key, pair, val in in_arrow_order(raw.get("constants", {}), parse_pair):
                if pair is None:
                    report.add("structural", (key,),
                               f"constants key {key!r} is not a composable arrow pair")
                    raise StructureError(report)
                a, b = pair
                c = base.prod[a][b]
                name = f"{base.arrow_names[a]},{base.arrow_names[b]}"
                if (
                    not isinstance(val, list) or len(val) != ranks[a]
                    or any(not isinstance(row, list) or len(row) != ranks[b] for row in val)
                    or any(
                        not isinstance(vec, list) or len(vec) != ranks[c]
                        for row in val for vec in row
                    )
                ):
                    report.add("rank-mismatch", (name,),
                               f"constants at ({name}) must be {ranks[a]}x{ranks[b]} vectors of length {ranks[c]}")
                    raise StructureError(report)
                try:
                    tables[pair] = tuple(
                        tuple(tuple(ring.coerce(x) for x in vec) for vec in row)
                        for row in val
                    )
                except ValueError as exc:
                    report.add("structural", (name,), str(exc))
                    raise StructureError(report)
        rows = {}
        for a, b in base.composable:
            table = tables.get((a, b))
            if table is None:
                if ranks[a] == ranks[b] == ranks[base.prod[a][b]] == 1:
                    table = (((ring.one,),),)
                else:
                    report.add("rank-mismatch",
                               (base.arrow_names[a], base.arrow_names[b]),
                               "constants missing for a composable pair with ranks above 1")
                    raise StructureError(report)
            rows[(a, b)] = fiber_rows(table, ring)
        if mode == "sc" and not ring.commutative:
            raise CapabilityError(
                "structure-constants mode needs a commutative ring; "
                "use ringfiber mode for non-commutative coefficients"
            )
        bundle = Bundle(ring, base, tuple(ranks), rows)

    _check_twists(bundle)

    # (e_i e_j) e_l against e_i (e_j e_l), read off the stored rows, each side
    # summed in place; sums that differ are pruned to be compared
    ranks, rows, prod = bundle.ranks, bundle.rows, bundle.base.prod
    add, mul = ring.add, ring.mul
    for a, b, c in bundle.base.composable_triples():
        ab, bc = rows[(a, b)], rows[(b, c)]
        ab_c, a_bc = rows[(prod[a][b], c)], rows[(a, prod[b][c])]
        for i, j, l in itertools.product(range(ranks[a]), range(ranks[b]), range(ranks[c])):
            left, right = {}, {}
            for m, x in ab[i][j]:
                for k, y in ab_c[m][l]:
                    prev = left.get(k)
                    left[k] = mul(x, y) if prev is None else add(prev, mul(x, y))
            for m, x in bc[j][l]:
                for k, y in a_bc[i][m]:
                    prev = right.get(k)
                    right[k] = mul(x, y) if prev is None else add(prev, mul(x, y))
            if left != right and sparse_vector(left, ring) != sparse_vector(right, ring):
                names = bundle.base.arrow_names
                report.add("associativity", (names[a], names[b], names[c], str(i), str(j), str(l)),
                           "fiber products are not associative on this triple")
                raise StructureError(report)
    return bundle


class Section:
    """Finitely supported right-inverse of the bundle projection.

    Stored sparsely, arrow -> sparse fiber vector {index: nonzero value}
    (given as a dict or (index, value) pairs); absent means the zero vector.
    Zero entries and vectors are pruned so equality of normalized forms is
    literal.
    """

    def __init__(self, bundle: Bundle, values: dict[int, dict] | None = None):
        ring = bundle.ring
        self.bundle = bundle
        self.values = {a: w for a, v in (values or {}).items() if (w := sparse_vector(v, ring))}

    @classmethod
    def normal(cls, bundle: Bundle, values: dict) -> "Section":
        """A section on values already in normal form, taken as they are."""
        section = cls.__new__(cls)
        section.bundle, section.values = bundle, values
        return section

    def at(self, arrow: int) -> dict:
        return self.values.get(arrow, {})

    def add(self, other: "Section") -> "Section":
        _same_bundle(self, other)
        ring = self.bundle.ring
        return Section(self.bundle, {
            a: combine(((ring.one, self.at(a).items()), (ring.one, other.at(a).items())), ring)
            for a in self.values.keys() | other.values.keys()
        })

    def neg(self) -> "Section":
        return self.scale(self.bundle.ring.neg(self.bundle.ring.one))

    def scale(self, r) -> "Section":
        ring = self.bundle.ring
        return Section(self.bundle, {
            a: combine(((r, v.items()),), ring) for a, v in self.values.items()
        })

    def __eq__(self, other):
        return (
            isinstance(other, Section)
            and self.bundle is other.bundle
            and self.values == other.values
        )


def zero_section(bundle: Bundle) -> Section:
    return Section(bundle, {})


def delta_section(bundle: Bundle, arrow: int, coords=None, index: int = 0) -> Section:
    """Section supported on one arrow; defaults to the index-th basis vector."""
    return Section(bundle, {arrow: {index: bundle.ring.one} if coords is None else coords})


def _same_bundle(a: Section, b: Section) -> None:
    if a.bundle is not b.bundle:
        raise ValueError("sections live on different bundles")


def convolve(alpha: Section, beta: Section) -> Section:
    """(alpha * beta)(c) = sum over factorizations ab = c of the fiber products;
    beta is grouped by range, so a meets only the composable b ending at src[a].
    Each x_i y_j * row is summed in place into one dict per arrow c, in combine's
    term order, and pruned once, so the section is in normal form as built."""
    _same_bundle(alpha, beta)
    bundle = alpha.bundle
    base, rows, add, mul = bundle.base, bundle.rows, bundle.ring.add, bundle.ring.mul
    ending: dict[int, list] = {}
    for b, vb in beta.values.items():
        ending.setdefault(base.rng[b], []).append((b, vb.items()))
    sums: dict[int, dict] = {}
    for a, va in alpha.values.items():
        for b, vb in ending.get(base.src[a], ()):
            table, acc = rows[(a, b)], sums.setdefault(base.prod[a][b], {})
            for i, xi in va.items():
                for j, yj in vb:
                    if row := table[i][j]:
                        coeff = mul(xi, yj)
                        for k, c in row:
                            prev = acc.get(k)
                            acc[k] = mul(coeff, c) if prev is None else add(prev, mul(coeff, c))
    is_zero = bundle.ring.is_zero
    return Section.normal(bundle, {c: w for c, acc in sums.items()
                                   if (w := {k: x for k, x in acc.items() if not is_zero(x)})})


def basis_sections(bundle: Bundle) -> tuple[tuple, tuple[str, ...]]:
    """The labels (γ, i) of the basis sections, in basis order, and their
    names: γ's name, followed by #i when the fiber over γ has rank above 1."""
    base, ranks = bundle.base, bundle.ranks
    labels = tuple((arrow, i) for arrow in base.arrows() for i in range(ranks[arrow]))
    return labels, tuple(base.arrow_names[arrow] + (f"#{i}" if ranks[arrow] > 1 else "")
                         for arrow, i in labels)


def sectional_algebra(bundle: Bundle, grading: Homomorphism | None = None) -> AlgebraPresentation:
    """Convolution algebra on the basis sections, optionally graded.

    The basis section (γ,i), the i-th fiber basis vector at γ, is labeled
    (γ, i). Basis sections over a and b convolve along the one factorization
    ab, so e_(a,i) e_(b,j) is rows[(a, b)][i][j] placed over ab, read for each
    composable label pair; any other product is empty and left out. The
    positions (ab, k) ascend with k, so the row stays in normal form. With a
    grading homomorphism c on the base, (γ, i) gets degree c(γ); a section is
    homogeneous of degree g exactly when it vanishes off the preimage of g.
    """
    if grading is not None and grading.source is not bundle.base and grading.source != bundle.base:
        raise ValueError("grading must be a homomorphism out of the bundle base")
    labels, names = basis_sections(bundle)
    position = label_index(labels)
    table, prod = {}, bundle.base.prod
    for p, q in composable_labels(bundle.base, labels):
        (a, i), (b, j) = labels[p], labels[q]
        if row := bundle.rows[(a, b)][i][j]:
            table[(p, q)] = tuple((position[(prod[a][b], k)], x) for k, x in row)
    g, degrees = (None, None) if grading is None else (
        grading.target, tuple(grading.map[arrow] for arrow, _ in labels))
    return AlgebraPresentation(
        ring=bundle.ring, basis=names, table=table, grading=g, degrees=degrees,
        provenance=f"sectional algebra over {bundle.base.name or 'base'}", labels=labels,
    )


def semigroupoid_algebra(coefficients, sgpd: FiniteSemigroupoid,
                         grading: Homomorphism | None = None) -> AlgebraPresentation:
    """Functions into a ring or algebra under convolution, as a sectional algebra.

    This is literally the sectional algebra of the coordinate-projection
    bundle: fibers all equal to the coefficient ring (rank 1) or to the given
    algebra (its structure constants repeated over every composable pair).
    """
    bundle = coefficient_bundle(coefficients, sgpd)
    return sectional_algebra(bundle, grading)


def coefficient_bundle(coefficients, sgpd: FiniteSemigroupoid) -> Bundle:
    if isinstance(coefficients, Ring):
        return trivial_bundle(coefficients, sgpd)
    algebra: AlgebraPresentation = coefficients
    ring = algebra.ring
    if not ring.commutative:
        raise CapabilityError("algebra coefficients need a commutative ring")
    m = algebra.rank
    table = tuple(
        tuple(algebra.table.get((i, j), ()) for j in range(m)) for i in range(m)
    )
    bundle = Bundle(ring, sgpd, (m,) * sgpd.n_arrows, dict.fromkeys(sgpd.composable, table))
    return validate_bundle(bundle, ring, sgpd)


def bundle_from_graded(algebra: AlgebraPresentation) -> Bundle:
    """Disassemble a graded algebra into a bundle over its grading semigroupoid.

    The fiber over g is the degree-g homogeneous component; fiber products are
    the restrictions of the structure constants, which land in the right
    degree by graded closure.
    """
    if not algebra.graded:
        raise StructureError(ValidationReport.single(
            "bundle from graded algebra", "structural", (),
            "the algebra carries no grading",
        ))
    g = algebra.grading
    ring = algebra.ring
    witness = algebra.check_graded_closure()
    if witness is not None:
        raise StructureError(ValidationReport.single(
            "bundle from graded algebra", "graded-closure", witness,
            "products leave the homogeneous component dictated by the degrees",
        ))
    fibers = [algebra.homogeneous_indices(arrow) for arrow in g.arrows()]
    ranks = tuple(len(f) for f in fibers)
    if not ring.commutative and any(r > 1 for r in ranks):
        raise CapabilityError(
            "non-commutative coefficients need rank-1 homogeneous components"
        )
    # fiber coordinates of basis elements; they keep the basis order
    local = {k: i for fiber in fibers for i, k in enumerate(fiber)}
    rows = {
        (a, b): tuple(tuple(tuple((local[k], x) for k, x in algebra.table.get((i, j), ()))
                            for j in fibers[b]) for i in fibers[a])
        for a, b in g.composable
    }
    return validate_bundle(Bundle(ring, g, ranks, rows), ring, g)


def graded_roundtrip_iso(algebra: AlgebraPresentation) -> LinearMapOnBasis:
    """Sectional algebra of the disassembled bundle back onto the algebra.

    On a basis section supported at degree g with fiber coordinate i, the map
    picks out the i-th basis element of the degree-g component; summed over
    degrees this is exactly the evaluation-and-forget map, and it is a graded
    isomorphism with the obvious inverse.
    """
    bundle = bundle_from_graded(algebra)
    g = algebra.grading
    rebuilt = sectional_algebra(bundle, identity_homomorphism(g))
    fibers = [algebra.homogeneous_indices(arrow) for arrow in g.arrows()]
    return basis_bijection(rebuilt, algebra, {
        p: fibers[arrow][i] for p, (arrow, i) in enumerate(rebuilt.labels)
    })


# ---------------------------------------------------------------------------
# Algebra-level actions and naive crossed products
# ---------------------------------------------------------------------------

class AlgebraAction:
    """Wedge-preaction of an inverse semigroupoid on an algebra presentation.

    Domains are coordinate subspaces (spans of basis subsets), so ideal and
    membership checks reduce to support containment; the per-arrow maps are
    linear isomorphisms given on the domain basis: rows[s][i] is the image of
    basis i under arrow s, as a sparse row. theorems.induced_theta builds one
    from a checked bundle action.
    """

    def __init__(self, actor: FiniteInverseSemigroupoid, algebra: AlgebraPresentation,
                 domains: tuple[tuple[int, ...], ...], rows: tuple[dict[int, tuple], ...]):
        self.actor, self.algebra, self.domains, self.rows = actor, algebra, domains, rows

    def apply_rows(self, s: int, v) -> dict:
        """Theta_s of a sparse vector given as (index, value) pairs, which must
        be supported in dom(s)."""
        try:
            return apply_linear(self.rows[s], v, self.algebra.ring)
        except KeyError as missing:
            raise ValueError(
                f"vector leaves dom at basis {self.algebra.basis[missing.args[0]]} for arrow "
                f"{self.actor.base.arrow_names[s]}"
            ) from None


def algebra_action_associativity(action: AlgebraAction) -> tuple | None:
    """Twisted triple condition at the algebra level; witness or None.

    For actor triples with stu defined and basis vectors a, b, c drawn from
    dom(Theta_s), dom(Theta_t), ran(Theta_u):
    Theta_{t*}(a Theta_t(b)) c == Theta_{t*}(a Theta_t(bc)).
    Both sides depend on (t, a, b, c) alone; s and u only decide which a and
    c are drawn. So each tuple of the exact projection of that enumeration
    (`actions.twisted_partners`) is checked once. For each (t, b), Theta_t(bc)
    is formed once per c after b that some a meets, and a is met only where
    a Theta_t(b) or some a Theta_t(bc) can be nonzero, before the support of
    one of them: for any other a both sides are empty sums for every c. The
    inner value Theta_{t*}(a Theta_t(b)) is computed once per (t, a, b). The
    witness is the first failure in (s, t, u, a, b, c) order. The action
    must be one theorems.induced_theta builds, whose ideal and inverse
    axioms (argued there) keep every apply inside its domain.
    """
    base = action.actor.base
    inv = action.actor.inv
    alg = action.algebra
    one = alg.ring.one
    doms = action.domains
    rans = [doms[inv[u]] for u in base.arrows()]
    failing: set[tuple[int, int, int, int]] = set()
    for t, partners in twisted_partners(base, doms, rans).items():
        met = set().union(*set(partners.values()))          # every c some a meets
        for b in doms[t]:
            tb = action.rows[t][b]                          # Theta_t(e_b)
            t_bc = {c: action.apply_rows(t, alg.table[(b, c)]).items()
                    for c in alg.after[b] & met}            # c -> Theta_t(e_b e_c)
            keys = alg.before_support(tb).union(*map(alg.before_support, t_bc.values()))
            for a in keys & partners.keys():
                va = ((a, one),)
                inner = action.apply_rows(inv[t], alg.mul(va, tb).items()).items()
                # both sides are empty sums unless c is after b or after inner
                for c in partners[a] & (alg.after[b] | alg.after_support(inner)):
                    left = alg.mul(inner, ((c, one),))
                    right = action.apply_rows(inv[t], alg.mul(va, t_bc.get(c, ())).items())
                    if left != right:
                        failing.add((t, a, b, c))
    if not failing:
        return None
    s, t, u, a, b, c = first_twisted_triple(base, doms, rans, failing)
    return (
        base.arrow_names[s], base.arrow_names[t], base.arrow_names[u],
        alg.basis[a], alg.basis[b], alg.basis[c],
    )


def naive_crossed_product(action: AlgebraAction) -> AlgebraPresentation:
    """Formal sums of delta_s a with a in dom(Theta_s), twisted convolution.

    Product on generators: (delta_s a)(delta_t b) = delta_{st}
    Theta_{t*}(a Theta_t(b)) when (s,t) is composable, zero otherwise.
    The generator delta_s e_d is labeled (s, d) and has degree s in the actor.
    A pair is met only when a is before the support of Theta_t(b) in the
    support index; otherwise a Theta_t(b) is an empty sum and the product is
    zero, which the table leaves out anyway. The value, formed once per
    (t, a, b), is checked to lie in dom(Theta_st) for each pair.
    """
    actor = action.actor
    base = actor.base
    alg = action.algebra
    ring = alg.ring
    labels = [(s, d) for s in base.arrows() for d in action.domains[s]]
    position = label_index(labels)
    names = tuple(
        f"d_{base.arrow_names[s]}.{alg.basis[d]}" for s, d in labels
    )
    table: dict[tuple[int, int], tuple] = {}
    twisted: dict[tuple[int, int, int], dict] = {}        # (t, a, b) -> Theta_{t*}(a Theta_t(b))
    for p, q in composable_labels(base, labels, lambda s, a: (a,),
                                  lambda t, b: alg.before_support(action.rows[t][b])):
        (s, a), (t, b) = labels[p], labels[q]
        st = base.prod[s][t]
        if (value := twisted.get((t, a, b))) is None:
            a_tb = alg.mul(((a, ring.one),), action.rows[t][b])
            value = twisted[t, a, b] = action.apply_rows(actor.inv[t], a_tb.items())
        if not value.keys() <= action.rows[st].keys():     # rows[st] is keyed by dom
            raise InternalConsistencyError(
                "crossed product landed outside dom(Theta_st); induced_theta's "
                "argument says a built action keeps it inside"
            )
        if value:
            table[(p, q)] = tuple(sorted((position[(st, k)], x) for k, x in value.items()))
    return AlgebraPresentation(
        ring=ring, basis=names, table=table,
        grading=base, degrees=tuple(s for s, _ in labels),
        provenance="naive crossed product", labels=labels,
    )


def lscript_presentation(action: AlgebraAction) -> AlgebraPresentation:
    """Range-side twist of the crossed product: f(s) in ran(Theta_s).

    Product on generators: (delta_x a)(delta_y b) = delta_{xy}
    Theta_x(Theta_{x*}(a) b). The generator delta_s e_d, d in dom(Theta_{s*}),
    is labeled (s, d) and has degree s in the actor. The keyed join meets a
    pair only when b is after the support of Theta_{x*}(a); otherwise
    Theta_{x*}(a) b is an empty sum and the product is zero.
    """
    actor = action.actor
    base = actor.base
    alg = action.algebra
    ring = alg.ring
    labels = [(s, d) for s in base.arrows() for d in action.domains[actor.inv[s]]]
    position = label_index(labels)
    names = tuple(
        f"L_{base.arrow_names[s]}.{alg.basis[d]}" for s, d in labels
    )
    table: dict[tuple[int, int], tuple] = {}
    for p, q in composable_labels(base, labels,
                                  lambda x, a: alg.after_support(action.rows[actor.inv[x]][a]),
                                  lambda y, b: (b,)):
        (x, a), (y, b) = labels[p], labels[q]
        xy = base.prod[x][y]
        pulled_b = alg.mul(action.rows[actor.inv[x]][a], ((b, ring.one),))
        value = action.apply_rows(x, pulled_b.items())
        if not value.keys() <= action.rows[actor.inv[xy]].keys():
            raise InternalConsistencyError(
                "range-side product landed outside ran(Theta_xy)"
            )
        if value:
            table[(p, q)] = tuple(sorted((position[(xy, k)], val) for k, val in value.items()))
    return AlgebraPresentation(
        ring=ring, basis=names, table=table,
        grading=base, degrees=tuple(s for s, _ in labels),
        provenance="range-side crossed product", labels=labels,
    )


def lscript_iso(action: AlgebraAction) -> LinearMapOnBasis:
    """phi(f)(s) = Theta_s(f(s)) from the crossed product onto the range-side
    presentation, with inverse f -> (s -> Theta_{s*}(f(s)))."""
    inv = action.actor.inv
    crossed = naive_crossed_product(action)
    ranged = lscript_presentation(action)
    fwd = tuple(
        {ranged.index[(s, k)]: x for k, x in action.rows[s][d]} for s, d in crossed.labels
    )
    back = tuple(
        {crossed.index[(s, k)]: x for k, x in action.rows[inv[s]][d]} for s, d in ranged.labels
    )
    inverse = LinearMapOnBasis(ranged, crossed, back)
    out = LinearMapOnBasis(crossed, ranged, fwd, inverse=inverse)
    inverse.inverse = out
    return out
