"""Linear maps between algebra presentations and the certificates that check them.

Every theorem comparison is materialized as a basis-image table so that all
claimed properties (multiplicativity, two-sided inverses, degree preservation,
bijectivity) can be certified by plain enumeration; the checked two-sided
inverse is the one proof of bijectivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebras import AlgebraPresentation
from .rings import LinearSolution, apply_linear, dense, solve_linear, sparse_vector


@dataclass
class LinearMapOnBasis:
    """rows[i] is the image of source basis i as a sparse row: (index, value)
    pairs sorted by index, zeros absent. Rows may arrive as dicts or unsorted
    pairs; they are stored in that canonical form. Read as a matrix, the
    rows are its columns, the form rings.solve_linear takes."""

    source: AlgebraPresentation
    target: AlgebraPresentation
    rows: tuple
    inverse: "LinearMapOnBasis | None" = None

    def __post_init__(self):
        if len(self.rows) != self.source.rank:
            raise ValueError("one image per source basis element required")
        ring, rank = self.source.ring, self.target.rank
        rows = [sparse_vector(row, ring) for row in self.rows]
        if any(not isinstance(k, int) or not 0 <= k < rank for row in rows for k in row):
            raise ValueError("image vector indexes outside the target basis")
        self.rows = tuple(tuple(sorted(row.items())) for row in rows)

    def apply_rows(self, v) -> dict:
        """Image of a sparse vector given as (index, value) pairs."""
        return apply_linear(self.rows, v, self.source.ring)


def basis_bijection(source: AlgebraPresentation, target: AlgebraPresentation,
                    assignment: dict[int, int]) -> LinearMapOnBasis:
    """Map sending source basis i to target basis assignment[i], with inverse."""
    if sorted(assignment) != list(range(source.rank)) or sorted(
        assignment.values()
    ) != list(range(target.rank)):
        raise ValueError("assignment must be a bijection between the bases")
    one = source.ring.one
    back = {j: i for i, j in assignment.items()}
    inverse = LinearMapOnBasis(target, source, tuple({back[k]: one} for k in range(target.rank)))
    out = LinearMapOnBasis(source, target, tuple({assignment[i]: one} for i in range(source.rank)),
                           inverse=inverse)
    inverse.inverse = out
    return out


@dataclass
class Check:
    name: str
    ok: bool
    witness: tuple = ()
    note: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "ok": self.ok}
        if self.witness:
            out["witness"] = [str(w) for w in self.witness]
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class Certificate:
    subject: str
    checks: list[Check] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, witness=(), note: str = "") -> None:
        self.checks.append(Check(name, ok, tuple(witness), note))


def product_pairs(source: AlgebraPresentation, target: AlgebraPresentation, images: dict):
    """The pairs (i, j) of keys of images, in order, at which map(e_i e_j) or
    map(e_i) map(e_j) can be nonzero, images[i] being the image of e_i as
    (index, value) pairs: those with e_i e_j != 0, and those where an image
    entry of e_j lies after one of e_i in the target. Both sides of every
    other pair are empty sums."""
    owners: dict[int, list] = {}
    for j, row in images.items():
        for l, _ in row:
            owners.setdefault(l, []).append(j)
    for i in sorted(images):
        partners = {j for j in source.after[i] if j in images}
        for l in target.after_support(images[i]):
            partners.update(owners.get(l, ()))
        for j in sorted(partners):
            yield i, j


def multiplicative_witness(tmap: LinearMapOnBasis) -> tuple | None:
    """First basis pair (i, j) with map(e_i e_j) != map(e_i) map(e_j), or None."""
    src, tgt, rows = tmap.source, tmap.target, tmap.rows
    for i, j in product_pairs(src, tgt, dict(enumerate(rows))):
        lhs = tmap.apply_rows(src.table.get((i, j), ()))
        if lhs != tgt.mul(rows[i], rows[j]):
            return (src.basis[i], src.basis[j])
    return None


def _check_multiplicative(cert: Certificate, tmap: LinearMapOnBasis) -> None:
    w = multiplicative_witness(tmap)
    cert.add("multiplicative", w is None, w or (),
             f"map(uv) != map(u)map(v) at ({w[0]},{w[1]})" if w else "")


def _check_inverse(cert: Certificate, tmap: LinearMapOnBasis) -> bool:
    """Add the two-sided-inverse check and return its verdict."""
    inv, one = tmap.inverse, tmap.source.ring.one
    if inv is None:
        cert.add("two-sided-inverse", False, note="no inverse declared")
        return False
    for a, b, note in ((tmap, inv, "inverse(map(u)) != u"), (inv, tmap, "map(inverse(w)) != w")):
        for i, row in enumerate(a.rows):
            if b.apply_rows(row) != {i: one}:
                cert.add("two-sided-inverse", False, (a.source.basis[i],), note)
                return False
    cert.add("two-sided-inverse", True)
    return True


def _check_graded(cert: Certificate, tmap: LinearMapOnBasis) -> None:
    src, tgt = tmap.source, tmap.target
    if not (src.graded and tgt.graded):
        cert.add("degree-preserving", False, note="both sides must be graded")
        return
    if src.grading is not tgt.grading and src.grading != tgt.grading:
        cert.add("degree-preserving", False, note="gradings live over different semigroupoids")
        return
    for i in range(src.rank):
        d = src.degrees[i]
        for k, _ in tmap.rows[i]:
            if tgt.degrees[k] != d:
                cert.add("degree-preserving", False, (src.basis[i],),
                         f"image of {src.basis[i]} leaves degree {src.grading.arrow_names[d]}")
                return
    cert.add("degree-preserving", True)


def surjective(sol: LinearSolution) -> bool:
    """Whether the solved matrix maps onto ring^rows: rank == rows over a field;
    over composite Z/n, where rank counts invariant factors, by unit vectors
    against one basis of the image."""
    ring = sol.ring
    if ring.is_field:
        return sol.rank == sol.rows
    image = sol.image_echelon
    return all(image.contains({k: ring.one}) for k in range(sol.rows))


def _linear_route(cert: Certificate, tmap: LinearMapOnBasis, inverse_ok: bool) -> None:
    """Kernel and image over Q and Z/n. A passing inverse check, A B = I and
    B A = I exactly over a commutative ring, makes every invariant factor of
    A a unit: the kernel is 0, A is onto and its rank is the target rank.
    Only a failed inverse runs elimination, whose first kernel vector is the
    witness."""
    ring = tmap.source.ring
    if not (ring.kind == "q" or ring.kind == "zmod"):
        cert.data["linear_route"] = "skipped: unsupported ring kind"
        return
    kernel, onto, rank = [], True, tmap.target.rank
    if not inverse_ok:
        sol = solve_linear(tmap.rows, tmap.target.rank, ring)
        kernel, onto, rank = sol.kernel_basis, surjective(sol), sol.rank
    cert.add("kernel-trivial", not kernel,
             (dense(kernel[0].items(), tmap.source.rank, ring),) if kernel else ())
    cert.add("surjective", onto)
    cert.data["linear_route"] = "ran"
    cert.data["matrix_rank"] = rank


def certify_linear_iso(tmap: LinearMapOnBasis, subject: str,
                       graded: bool = False) -> Certificate:
    """Certify an algebra isomorphism presented on bases.

    Checks multiplicativity and the declared two-sided inverse by
    enumeration, then, over Q and Z/n, reports the kernel, surjectivity and
    rank that a passing inverse implies (see _linear_route).
    """
    cert = Certificate(subject)
    cert.data["source_rank"] = tmap.source.rank
    cert.data["target_rank"] = tmap.target.rank
    _check_multiplicative(cert, tmap)
    inverse_ok = _check_inverse(cert, tmap)
    if graded:
        _check_graded(cert, tmap)
    _linear_route(cert, tmap, inverse_ok)
    return cert
