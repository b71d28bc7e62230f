"""Exact coefficient rings and the linear algebra every verification reduces to.

Ring elements are plain Python values in canonical form (int for the integers
and residues, Fraction for rationals, table index for finite-table rings); the
ring object supplies the operations. All arithmetic is exact, so structural
identities can be asserted with ==.

Kernel, image and span computations run over fields (rationals, prime
residues) on one incremental reduced echelon basis (EchelonBasis) and over
composite residue rings via Smith normal form of the integer lift. Other ring
kinds refuse with CapabilityError.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .validation import CapabilityError, ValidationReport, must

Element = Any
Vector = tuple


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Ring:
    """Unital ring with exact, decidable element equality."""

    kind = "?"
    commutative = True
    zero: Element
    one: Element

    def add(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def neg(self, a: Element) -> Element:
        raise NotImplementedError

    def mul(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def is_zero(self, a: Element) -> bool:
        """The one zero test. Truthiness is not one: a table ring's zero is
        an arbitrary table index."""
        return a == self.zero

    @property
    def is_field(self) -> bool:
        return False

    def inv(self, a: Element) -> Element:
        raise CapabilityError(f"ring kind {self.kind!r} has no general division")

    def unit_inverse(self, a: Element) -> Element | None:
        """Two-sided multiplicative inverse of a, or None if a is not a unit."""
        raise NotImplementedError

    def coerce(self, x) -> Element:
        raise NotImplementedError

    def to_json(self, a: Element):
        return a

    def spec(self) -> dict:
        raise NotImplementedError

    def sample(self, rnd) -> Element:
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind

    def __eq__(self, other):
        return isinstance(other, Ring) and self.spec() == other.spec()

    def __hash__(self):
        return hash(str(self.spec()))

    def __repr__(self):
        return f"Ring({self.describe()})"


class IntegerRing(Ring):
    kind = "z"
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    # canonical ints, residues and Fractions are false exactly at zero
    is_zero = staticmethod(operator.not_)

    def unit_inverse(self, a):
        return a if a in (1, -1) else None

    def coerce(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"not an integer literal: {x!r}")
        return x

    def spec(self):
        return {"kind": "z"}

    def sample(self, rnd):
        return rnd.randint(-9, 9)

    def describe(self):
        return "Z"


class RationalRing(Ring):
    kind = "q"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    is_zero = staticmethod(operator.not_)

    @property
    def is_field(self):
        return True

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def unit_inverse(self, a):
        return None if self.is_zero(a) else 1 / Fraction(a)

    def coerce(self, x):
        if isinstance(x, bool):
            raise ValueError(f"not a rational literal: {x!r}")
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, Fraction):
            return x
        if isinstance(x, str):
            return Fraction(x)
        raise ValueError(f"not a rational literal: {x!r}")

    def to_json(self, a):
        return int(a) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def spec(self):
        return {"kind": "q"}

    def sample(self, rnd):
        return Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))

    def describe(self):
        return "Q"


class ZModRing(Ring):
    kind = "zmod"

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {n!r}")
        self.n = n
        self.zero = 0
        self.one = 1 % n
        self._is_field = _is_prime(n)

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    is_zero = staticmethod(operator.not_)

    @property
    def is_field(self):
        return self._is_field

    def inv(self, a):
        if not self.is_field:
            raise CapabilityError(f"Z/{self.n} is not a field")
        if a % self.n == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.n)

    def unit_inverse(self, a):
        if math.gcd(a, self.n) != 1:
            return None
        return pow(a, -1, self.n)

    def coerce(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"not a residue literal: {x!r}")
        return x % self.n

    def spec(self):
        return {"kind": "zmod", "n": self.n}

    def sample(self, rnd):
        return rnd.randrange(self.n)

    def describe(self):
        return f"Z/{self.n}"


class TableRing(Ring):
    """Finite ring given by explicit addition and multiplication tables.

    Elements are indices into `names`. The tables are trusted here;
    validate_ring checks the axioms by full enumeration.
    """

    kind = "table"

    def __init__(self, names, add_table, mul_table, zero_index, one_index,
                 commutative: bool | None = None):
        self.names = tuple(str(x) for x in names)
        self.add_table = tuple(tuple(row) for row in add_table)
        self.mul_table = tuple(tuple(row) for row in mul_table)
        self.zero = zero_index
        self.one = one_index
        if commutative is None:
            k = len(self.names)
            commutative = all(
                self.mul_table[a][b] == self.mul_table[b][a]
                for a in range(k) for b in range(k)
            )
        self.commutative = commutative

    def add(self, a, b):
        return self.add_table[a][b]

    def neg(self, a):
        for b in range(len(self.names)):
            if self.is_zero(self.add_table[a][b]):
                return b
        raise CapabilityError(f"element {self.names[a]} has no additive inverse")

    def mul(self, a, b):
        return self.mul_table[a][b]

    def unit_inverse(self, a):
        for b in range(len(self.names)):
            if self.mul_table[a][b] == self.one and self.mul_table[b][a] == self.one:
                return b
        return None

    def is_central(self, a) -> bool:
        return all(self.mul(a, r) == self.mul(r, a) for r in range(len(self.names)))

    def coerce(self, x):
        if isinstance(x, bool):
            raise ValueError(f"not a table element: {x!r}")
        if isinstance(x, int):
            if 0 <= x < len(self.names):
                return x
            raise ValueError(f"table index out of range: {x}")
        if isinstance(x, str) and x in self.names:
            return self.names.index(x)
        raise ValueError(f"unknown table element: {x!r}")

    def to_json(self, a):
        return self.names[a]

    def spec(self):
        return {
            "kind": "table",
            "elements": list(self.names),
            "add": [list(r) for r in self.add_table],
            "mul": [list(r) for r in self.mul_table],
            "zero": self.zero,
            "one": self.one,
        }

    def sample(self, rnd):
        return rnd.randrange(len(self.names))

    def describe(self):
        return f"table({','.join(self.names)})"


def validate_ring(spec) -> Ring | ValidationReport:
    """Check a ring literal (or a built Ring) and return it, or a failure report.

    Built-in kinds are valid axiomatically. Finite-table rings get every axiom
    enumerated; malformed tables are reported as "structural" failures, kept
    distinct from axiom failures.
    """
    if isinstance(spec, Ring):
        if isinstance(spec, TableRing):
            return _validate_table_ring(spec.spec())
        return spec

    report = ValidationReport("ring")
    if not isinstance(spec, dict) or "kind" not in spec:
        report.add("structural", (), "ring literal must be an object with a 'kind'")
        return report
    kind = spec["kind"]
    if kind == "z":
        return IntegerRing()
    if kind == "q":
        return RationalRing()
    if kind == "zmod":
        n = spec.get("n")
        if not isinstance(n, int) or n < 2:
            report.add("structural", (repr(n),), "zmod needs an integer modulus n >= 2")
            return report
        return ZModRing(n)
    if kind == "table":
        return _validate_table_ring(spec)
    report.add("structural", (repr(kind),), f"unknown ring kind {kind!r}")
    return report


def _validate_table_ring(spec: dict) -> TableRing | ValidationReport:
    report = ValidationReport("table ring")
    names = spec.get("elements")
    if not isinstance(names, list) or not names:
        report.add("structural", (), "table ring needs a nonempty 'elements' list")
        return report
    names = [str(x) for x in names]
    k = len(names)
    if len(set(names)) != k:
        report.add("structural", (), "duplicate element names")
        return report

    tables = {}
    for key in ("add", "mul"):
        table = spec.get(key)
        if not isinstance(table, list) or len(table) != k or any(
            not isinstance(row, list) or len(row) != k for row in table
        ):
            report.add("structural", (key,), f"{key} table must be {k}x{k}")
            continue
        resolved = []
        for i, row in enumerate(table):
            out = []
            for j, entry in enumerate(row):
                if isinstance(entry, int) and 0 <= entry < k:
                    out.append(entry)
                elif isinstance(entry, str) and entry in names:
                    out.append(names.index(entry))
                else:
                    report.add("structural", (names[i], names[j]),
                               f"unknown element {entry!r} in {key} table")
                    out.append(0)
            resolved.append(out)
        tables[key] = resolved
    for key in ("zero", "one"):
        val = spec.get(key)
        if isinstance(val, str) and val in names:
            tables[key] = names.index(val)
        elif isinstance(val, int) and 0 <= val < k:
            tables[key] = val
        else:
            report.add("structural", (key,), f"{key!r} must name a declared element")
    if not report.ok:
        return report

    add, mul = tables["add"], tables["mul"]
    zero, one = tables["zero"], tables["one"]
    declared_comm = spec.get("commutative")

    def witness(*idx):
        return tuple(names[i] for i in idx)

    seen = set()

    def fail(kind, w, msg):
        if kind not in seen:
            seen.add(kind)
            report.add(kind, w, msg)

    rng = range(k)
    for a in rng:
        if add[zero][a] != a or add[a][zero] != a:
            fail("add-zero", witness(a), f"0+{names[a]} or {names[a]}+0 differs from {names[a]}")
        if all(add[a][b] != zero for b in rng):
            fail("add-inverse", witness(a), f"{names[a]} has no additive inverse")
        if mul[one][a] != a or mul[a][one] != a:
            fail("unit-law", witness(a), f"1*{names[a]} != {names[a]} or {names[a]}*1 != {names[a]}")
    for a in rng:
        for b in rng:
            if add[a][b] != add[b][a]:
                fail("add-commutativity", witness(a, b),
                     f"{names[a]}+{names[b]} != {names[b]}+{names[a]}")
            if declared_comm and mul[a][b] != mul[b][a]:
                fail("mul-commutativity", witness(a, b),
                     f"{names[a]}*{names[b]} != {names[b]}*{names[a]}")
    for a in rng:
        for b in rng:
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    fail("add-associativity", witness(a, b, c), "(a+b)+c != a+(b+c)")
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    fail("mul-associativity", witness(a, b, c), "(ab)c != a(bc)")
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    fail("left-distributivity", witness(a, b, c), "a(b+c) != ab+ac")
                if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
                    fail("right-distributivity", witness(a, b, c), "(a+b)c != ac+bc")
    if not report.ok:
        return report
    return TableRing(names, add, mul, zero, one, commutative=declared_comm)


def ring_from_spec(spec) -> Ring:
    """Build a ring from a literal, raising StructureError on a bad table."""
    return must(validate_ring(spec))


# ---------------------------------------------------------------------------
# Matrices and exact linear algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactMatrix:
    """Dense row-major matrix of ring elements."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count must equal rows*cols")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Element]], ring: Ring | None = None):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = [ring.coerce(x) if ring else x for row in rows for x in row]
        return cls(len(rows), ncols, tuple(flat))

    def at(self, i: int, j: int) -> Element:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols: (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.at(i, j) for i in range(self.rows))

    def to_rows(self) -> list[list[Element]]:
        return [list(self.row(i)) for i in range(self.rows)]


def zero_vector(k: int, ring: Ring) -> Vector:
    return (ring.zero,) * k


def unit_vector(k: int, i: int, ring: Ring) -> Vector:
    return tuple(ring.one if j == i else ring.zero for j in range(k))


def vec_add(u: Vector, v: Vector, ring: Ring) -> Vector:
    return tuple(ring.add(a, b) for a, b in zip(u, v))


def vec_is_zero(v: Vector, ring: Ring) -> bool:
    return all(map(ring.is_zero, v))


def sparse_row(v: Vector, ring: Ring) -> tuple:
    """The nonzero coordinates of a dense vector as (index, value) pairs."""
    is_zero = ring.is_zero
    return tuple((k, x) for k, x in enumerate(v) if not is_zero(x))


def dense(row, k: int, ring: Ring) -> Vector:
    """The length-k dense vector holding the given (index, value) pairs."""
    out = [ring.zero] * k
    for i, x in row:
        out[i] = x
    return tuple(out)


def combine(terms, ring: Ring) -> dict:
    """Sum of coeff * row over (coeff, row) terms, as a sparse {index: value}.

    Every "coefficient times image, summed" product in the package runs
    here: algebra and fiber products, linear maps, actions, matrix-vector
    products. A row is any iterable of (index, value) pairs. The coefficient
    always multiplies from the left. The loop tests no zeros; only the sum is
    pruned, through ring.is_zero, so equal results compare equal as dicts.
    """
    add, mul = ring.add, ring.mul
    acc: dict = {}
    get = acc.get
    for coeff, row in terms:
        for k, c in row:
            prev = get(k)
            acc[k] = mul(coeff, c) if prev is None else add(prev, mul(coeff, c))
    is_zero = ring.is_zero
    return {k: x for k, x in acc.items() if not is_zero(x)}


def identity_matrix(k: int, ring: Ring) -> tuple:
    return tuple(unit_vector(k, i, ring) for i in range(k))


def mat_vec(mat: Sequence[Vector], vec: Vector, ring: Ring) -> Vector:
    """mat * vec. Each matrix entry is a coefficient whose image is the single
    pair (row, x), so the entry stays on the left of x."""
    nonzero = sparse_row(vec, ring)
    terms = ((row[j], ((r, x),)) for r, row in enumerate(mat) for j, x in nonzero)
    return dense(combine(terms, ring).items(), len(mat), ring)


def mat_mul(a: Sequence[Vector], b: Sequence[Vector], ring: Ring) -> tuple:
    bt = list(zip(*b)) if b else []
    out = []
    for row in a:
        entries = []
        for col in bt:
            acc = ring.zero
            for x, y in zip(row, col):
                acc = ring.add(acc, ring.mul(x, y))
            entries.append(acc)
        out.append(tuple(entries))
    return tuple(out)


def mat_determinant(mat: Sequence[Vector], ring: Ring) -> Element:
    k = len(mat)
    if k == 0:
        return ring.one
    if k == 1:
        return mat[0][0]
    det = ring.zero
    sign_pos = True
    for j in range(k):
        minor = [tuple(row[:j] + row[j + 1:]) for row in [tuple(r) for r in mat[1:]]]
        term = ring.mul(mat[0][j], mat_determinant(minor, ring))
        det = ring.add(det, term if sign_pos else ring.neg(term))
        sign_pos = not sign_pos
    return det


def mat_inverse(mat: Sequence[Vector], ring: Ring) -> tuple | None:
    """Inverse of a square matrix via the adjugate; None when det is not a unit."""
    k = len(mat)
    mat = [tuple(r) for r in mat]
    det = mat_determinant(mat, ring)
    dinv = ring.unit_inverse(det)
    if dinv is None:
        return None
    if k == 0:
        return ()
    cof = []
    for i in range(k):
        row = []
        for j in range(k):
            minor = [r[:j] + r[j + 1:] for ri, r in enumerate(mat) if ri != i]
            c = mat_determinant(minor, ring)
            if (i + j) % 2:
                c = ring.neg(c)
            row.append(c)
        cof.append(row)
    return tuple(
        tuple(ring.mul(dinv, cof[j][i]) for j in range(k)) for i in range(k)
    )


# ---------------------------------------------------------------------------
# Smith normal form over the integers
# ---------------------------------------------------------------------------

def smith_normal_form(a: Sequence[Sequence[int]]):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (d, u, v) with u * a * v == d, u and v unimodular, d diagonal.
    The diagonal is not normalized to a divisibility chain; solvability and
    kernel computations modulo n only need diagonality.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    for s in range(min(m, n)):
        while True:
            best = None
            for i in range(s, m):
                for j in range(s, n):
                    if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != s:
                swap_rows(s, best[0])
            if best[1] != s:
                swap_cols(s, best[1])
            for i in range(s + 1, m):
                if d[i][s]:
                    add_row(i, s, -(d[i][s] // d[s][s]))
            for j in range(s + 1, n):
                if d[s][j]:
                    add_col(j, s, -(d[s][j] // d[s][s]))
            if all(d[i][s] == 0 for i in range(s + 1, m)) and all(
                d[s][j] == 0 for j in range(s + 1, n)
            ):
                break
        if s < min(m, n) and d[s][s] < 0:
            d[s] = [-x for x in d[s]]
            u[s] = [-x for x in u[s]]
    return d, u, v


def _zmod_solvable(matrix_rows: list[list[int]], target: Sequence[int], n: int) -> bool:
    """Decide whether A x = target has a solution over Z/n (A given by rows)."""
    m = len(matrix_rows)
    cols = len(matrix_rows[0]) if matrix_rows and matrix_rows[0] else 0
    if m == 0:
        return True
    if cols == 0:
        return all(t % n == 0 for t in target)
    d, u, _v = smith_normal_form(matrix_rows)
    for i in range(m):
        c = sum(u[i][r] * target[r] for r in range(m)) % n
        di = d[i][i] if i < min(m, cols) else 0
        if c % math.gcd(di, n) != 0:
            return False
    return True


@dataclass
class LinearSolution:
    """Kernel and image data for one matrix over a supported ring.

    Over a field: `rank` is the usual rank and `pivots` the pivot columns.
    Over Z/n with composite n the bases are spanning sets (free bases need not
    exist) and `rank` counts invariant factors with a nonzero image.
    """

    ring: Ring
    rows: int
    cols: int
    rank: int
    pivots: tuple
    kernel_basis: list[Vector]
    image_basis: list[Vector]


class EchelonBasis:
    """The span of some vectors over a field, grown one vector at a time.

    `rows` maps each pivot to a sparse {index: nonzero} row that has 1 at its
    pivot and 0 at every other pivot. Sorted by pivot, the rows are the unique
    reduced row echelon form of the span, so two spans are equal exactly when
    their bases have equal rows. Every field elimination in the package runs
    here; inputs are dense vectors.
    """

    def __init__(self, ring: Ring, vectors: Sequence[Vector] = ()):
        self.ring = ring
        self.rows: dict[int, dict] = {}
        for v in vectors:
            self.insert(v)

    def _residue(self, v: Vector) -> dict:
        # the rows vanish at each other's pivots, so v minus v[p] * row_p over
        # the pivots p of v is zero at every pivot
        ring, rows = self.ring, self.rows
        acc = dict(sparse_row(v, ring))
        return combine([(ring.one, acc.items())] + [
            (ring.neg(acc[p]), rows[p].items()) for p in acc if p in rows
        ], ring)

    def contains(self, v: Vector) -> bool:
        return not self._residue(v)

    def insert(self, v: Vector) -> bool:
        """Add v to the span; False when it already lies there."""
        ring, rows = self.ring, self.rows
        res = self._residue(v)
        if not res:
            return False
        p = min(res)
        inv = ring.inv(res[p])
        new = {k: ring.mul(inv, x) for k, x in res.items()}
        for q, row in rows.items():
            if p in row:
                rows[q] = combine(((ring.one, row.items()), (ring.neg(row[p]), new.items())), ring)
        rows[p] = new
        return True

    def dense_rows(self, width: int) -> list[Vector]:
        """The reduced row echelon form as dense vectors of the given length."""
        return [dense(self.rows[p].items(), width, self.ring) for p in sorted(self.rows)]


def solve_linear(m: ExactMatrix, ring: Ring) -> LinearSolution:
    """Exact rank/kernel/image data; see LinearSolution for conventions."""
    if ring.is_field:
        rows = EchelonBasis(ring, m.to_rows()).rows
        pivots = tuple(sorted(rows))
        # free column f: 1 at f, minus column f of the rows at their pivots
        kernel = [dense([(f, ring.one)] + [(p, ring.neg(row[f])) for p, row in rows.items()
                                           if f in row], m.cols, ring)
                  for f in range(m.cols) if f not in rows]
        image = [m.column(p) for p in pivots]
        return LinearSolution(ring, m.rows, m.cols, len(pivots), pivots, kernel, image)

    if ring.kind == "zmod":
        n = ring.n
        rows = [[int(x) % n for x in m.row(i)] for i in range(m.rows)]
        kernel: list[Vector] = []
        if m.cols:
            d, _u, v = smith_normal_form(rows) if m.rows else (
                [], [], [[int(i == j) for j in range(m.cols)] for i in range(m.cols)]
            )
            for i in range(m.cols):
                di = d[i][i] if i < min(m.rows, m.cols) else 0
                mult = n // math.gcd(di, n)
                if mult % n == 0:
                    continue
                col = tuple((v[r][i] * mult) % n for r in range(m.cols))
                if not vec_is_zero(col, ring):
                    kernel.append(col)
        kernel = span_reduce(kernel, ring)
        image = span_reduce([m.column(j) for j in range(m.cols)], ring)
        rank = 0
        if m.rows and m.cols:
            d, _u, _v = smith_normal_form(rows)
            rank = sum(
                1 for i in range(min(m.rows, m.cols)) if math.gcd(d[i][i], n) != n
            )
        return LinearSolution(ring, m.rows, m.cols, rank, (), kernel, image)

    raise CapabilityError(
        f"linear solving needs a field or Z/n; ring kind {ring.kind!r} is unsupported"
    )


def vector_in_span(v: Vector, generators: Sequence[Vector], ring: Ring) -> bool:
    """Decide membership of v in the span of the generators (exactly)."""
    if ring.is_field:
        return EchelonBasis(ring, generators).contains(v)
    gens = [g for g in generators if not vec_is_zero(g, ring)]
    if vec_is_zero(v, ring):
        return True
    if not gens:
        return False
    if ring.kind == "zmod":
        n = ring.n
        k = len(v)
        matrix = [[int(g[i]) % n for g in gens] for i in range(k)]
        return _zmod_solvable(matrix, [int(x) % n for x in v], n)
    raise CapabilityError(
        f"span membership needs a field or Z/n; ring kind {ring.kind!r} is unsupported"
    )


def span_reduce(generators: Sequence[Vector], ring: Ring) -> list[Vector]:
    """Deterministically thin a generating set without changing its span
    (over a field, to its reduced row echelon form)."""
    if ring.is_field:
        width = len(generators[0]) if generators else 0
        return EchelonBasis(ring, generators).dense_rows(width)
    kept: list[Vector] = []
    for g in generators:
        if not vec_is_zero(g, ring) and not vector_in_span(g, kept, ring):
            kept.append(tuple(g))
    return kept


def spans_equal(a: Sequence[Vector], b: Sequence[Vector], ring: Ring) -> bool:
    if ring.is_field:
        return EchelonBasis(ring, a).rows == EchelonBasis(ring, b).rows
    return all(vector_in_span(v, b, ring) for v in a) and all(
        vector_in_span(v, a, ring) for v in b
    )


def span_rank(generators: Sequence[Vector], ring: Ring) -> int:
    if not ring.is_field:
        raise CapabilityError("span rank is defined here only over fields")
    return len(EchelonBasis(ring, generators).rows)


def ideal_closure(generators: Sequence[Vector], algebra) -> list[Vector]:
    """Smallest two-sided multiplication-closed subspace containing the generators.

    `algebra` is any presentation exposing ring, rank, and mul on coordinate
    vectors. Saturation multiplies every vector that enlarges the span by every
    basis element on both sides until nothing new appears; the submodule lattice
    of a finite free module over a field or Z/n has finite height, so this
    stops. Over a field the result is the ideal's reduced row echelon form.
    """
    ring = algebra.ring
    if not (ring.kind == "q" or ring.kind == "zmod"):
        raise CapabilityError(
            f"ideal closure needs a field or Z/n; ring kind {ring.kind!r} is unsupported"
        )
    basis = EchelonBasis(ring) if ring.is_field else None
    span: list[Vector] = []
    queue = deque(tuple(ring.coerce(x) for x in g) for g in generators)
    while queue:
        vec = queue.popleft()
        if not (basis.insert(vec) if basis is not None else
                not vec_is_zero(vec, ring) and not vector_in_span(vec, span, ring)):
            continue
        span.append(vec)
        for i in range(algebra.rank):
            unit = algebra.unit_vector(i)
            queue.append(algebra.mul(unit, vec))
            queue.append(algebra.mul(vec, unit))
    return basis.dense_rows(algebra.rank) if basis is not None else span
