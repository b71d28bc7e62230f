"""Linear maps between algebra presentations and the certificates that check them.

Every theorem comparison is materialized as a basis-image table so that all
claimed properties (multiplicativity, two-sided inverses, degree preservation,
bijectivity) can be certified by plain enumeration and, when the coefficient
ring allows it, cross-checked through exact kernel/image computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebras import AlgebraPresentation
from .rings import (EchelonBasis, ExactMatrix, LinearSolution, Vector, combine, dense,
                    solve_linear, sparse_row, unit_vector)


@dataclass
class LinearMapOnBasis:
    """Images are given dense; `rows` holds them once as sparse rows."""

    source: AlgebraPresentation
    target: AlgebraPresentation
    images: tuple[Vector, ...]
    inverse: "LinearMapOnBasis | None" = None
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.images) != self.source.rank:
            raise ValueError("one image per source basis element required")
        for vec in self.images:
            if len(vec) != self.target.rank:
                raise ValueError("image vector has wrong target rank")
        self.rows = tuple(sparse_row(vec, self.source.ring) for vec in self.images)

    def apply(self, v: Vector) -> Vector:
        ring = self.source.ring
        return dense(self.apply_rows(sparse_row(v, ring)).items(), self.target.rank, ring)

    def apply_rows(self, v) -> dict:
        """Image of a sparse vector given as (index, value) pairs."""
        rows = self.rows
        return combine(((x, rows[i]) for i, x in v), self.source.ring)

    def matrix(self) -> ExactMatrix:
        """Columns are the basis images; rows indexed by the target basis."""
        rows = [
            [self.images[j][i] for j in range(self.source.rank)]
            for i in range(self.target.rank)
        ]
        return ExactMatrix.from_rows(rows)


def basis_bijection(source: AlgebraPresentation, target: AlgebraPresentation,
                    assignment: dict[int, int]) -> LinearMapOnBasis:
    """Map sending source basis i to target basis assignment[i], with inverse."""
    if sorted(assignment) != list(range(source.rank)) or sorted(
        assignment.values()
    ) != list(range(target.rank)):
        raise ValueError("assignment must be a bijection between the bases")
    fwd = tuple(target.unit_vector(assignment[i]) for i in range(source.rank))
    back = tuple(
        source.unit_vector(next(i for i, j in assignment.items() if j == k))
        for k in range(target.rank)
    )
    inverse = LinearMapOnBasis(target, source, back)
    out = LinearMapOnBasis(source, target, fwd, inverse=inverse)
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

    def first_failure(self) -> Check | None:
        return next((c for c in self.checks if not c.ok), None)

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "data": self.data,
        }

    def summary(self) -> str:
        if self.passed:
            return f"{self.subject}: certified"
        c = self.first_failure()
        return f"{self.subject}: FAILED {c.name} at {c.witness}"


def multiplicative_witness(tmap: LinearMapOnBasis) -> tuple | None:
    """First basis pair (i, j) with map(e_i e_j) != map(e_i) map(e_j), or None."""
    src, tgt, rows = tmap.source, tmap.target, tmap.rows
    for i in range(src.rank):
        for j in range(src.rank):
            lhs = tmap.apply_rows(src.table.get((i, j), ()))
            if lhs != tgt.mul_rows(rows[i], rows[j]):
                return (src.basis[i], src.basis[j])
    return None


def _check_multiplicative(cert: Certificate, tmap: LinearMapOnBasis) -> None:
    w = multiplicative_witness(tmap)
    cert.add("multiplicative", w is None, w or (),
             f"map(uv) != map(u)map(v) at ({w[0]},{w[1]})" if w else "")


def _check_inverse(cert: Certificate, tmap: LinearMapOnBasis) -> None:
    if tmap.inverse is None:
        cert.add("two-sided-inverse", False, note="no inverse declared")
        return
    inv = tmap.inverse
    for i in range(tmap.source.rank):
        if inv.apply(tmap.images[i]) != tmap.source.unit_vector(i):
            cert.add("two-sided-inverse", False, (tmap.source.basis[i],),
                     "inverse(map(u)) != u")
            return
    for j in range(tmap.target.rank):
        if tmap.apply(inv.images[j]) != tmap.target.unit_vector(j):
            cert.add("two-sided-inverse", False, (tmap.target.basis[j],),
                     "map(inverse(w)) != w")
            return
    cert.add("two-sided-inverse", True)


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
    image = EchelonBasis(ring, sol.image_basis)
    return all(image.contains(unit_vector(sol.rows, k, ring)) for k in range(sol.rows))


def _linear_route(cert: Certificate, tmap: LinearMapOnBasis) -> None:
    """Kernel/image cross-check where the ring supports exact solving."""
    ring = tmap.source.ring
    if not (ring.kind == "q" or ring.kind == "zmod"):
        cert.data["linear_route"] = "skipped: unsupported ring kind"
        return
    sol = solve_linear(tmap.matrix(), ring)
    cert.add("kernel-trivial", not sol.kernel_basis,
             tuple(sol.kernel_basis[:1]) if sol.kernel_basis else ())
    cert.add("surjective", surjective(sol))
    cert.data["linear_route"] = "ran"
    cert.data["matrix_rank"] = sol.rank


def certify_linear_iso(tmap: LinearMapOnBasis, subject: str,
                       graded: bool = False) -> Certificate:
    """Certify an algebra isomorphism presented on bases.

    Always runs the explicit route (multiplicativity plus declared two-sided
    inverse composites); additionally runs the kernel/image route whenever the
    ring permits, so the two certifications cross-check each other.
    """
    cert = Certificate(subject)
    cert.data["source_rank"] = tmap.source.rank
    cert.data["target_rank"] = tmap.target.rank
    _check_multiplicative(cert, tmap)
    _check_inverse(cert, tmap)
    if graded:
        _check_graded(cert, tmap)
    _linear_route(cert, tmap)
    return cert
