"""Exact coefficient rings and the linear algebra every verification reduces to.

Ring elements are plain Python values in canonical form (int for the integers
and residues; for rationals an int when integral and a Fraction otherwise;
table index for finite-table rings); the ring object supplies the operations,
for Z and Q the C builtins of the operator module. All arithmetic is exact,
so structural identities can be asserted with ==; an integral Fraction that
rational arithmetic produces equals its int. A vector is a sparse {index:
nonzero value} dict, the form combine returns. A matrix passed between
functions is its columns, the sparse image of each source basis vector, as in
a linear map's rows; dense tuples remain only inside mat_inverse, in the
integer matrix of solve_linear's Smith normal form, and at the file and
report boundary (sparse_row, dense).

Span tests run on one incremental echelon basis (EchelonBasis): reduced row
echelon form over fields (rationals, prime residues), reduced Howell form over
composite residue rings. No passing certificate eliminates: a comparison map
reads its bijectivity off its checked inverse, and the quotient and germ
certificates read their kernels off the map's rows, so solve_linear, whose
composite kernel takes a Smith normal form, only explains a failed inverse.
The germ certificate's ideal is the span of its generators, differences of
units whose echelon rows union-find sets; no ideal is saturated by products.
Matrix inverses are division-free over any commutative ring; over Z/n a dot
product is one integer sum, reduced once. Other ring kinds refuse with
CapabilityError.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import insort
from fractions import Fraction
from typing import Any, Sequence

from .validation import CapabilityError, StructureError, ValidationReport

Element = Any
Vector = tuple


# Miller-Rabin on these bases is exact below the bound (J. Sorenson and
# J. Webster, Math. Comp. 86, 2017); above it only "composite" is exact
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool | None:
    """Whether n is prime, in time polynomial in its bit length; None when
    n lies above the exact bound and passes every base."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True if n < _MR_EXACT_BELOW else None


class Ring:
    """Unital ring with exact, decidable element equality. Each kind supplies
    add, neg, mul, coerce, spec, describe and unit_inverse (the
    two-sided inverse of a unit, None off the units)."""

    kind = "?"
    commutative = True
    zero: Element
    one: Element

    def is_zero(self, a: Element) -> bool:
        """The one zero test. Truthiness is not one: a table ring's zero is
        an arbitrary table index."""
        return a == self.zero

    @property
    def is_field(self) -> bool:
        return False

    def __eq__(self, other):
        return isinstance(other, Ring) and self.spec() == other.spec()

    def __hash__(self):
        return hash(str(self.spec()))


class _BuiltinOp(staticmethod):
    """A ring operation that is a C builtin such as operator.add.

    As a staticmethod, `ring.add` is the builtin itself: neither the lookup
    nor the call runs a Python frame. The descriptor object, called as a
    method in Ring's signature with the ring first, drops the ring, so code
    that takes the class attribute as a method (a counting wrapper set on
    the class, say) still adds.
    """

    def __call__(self, ring, *args):
        return self.__func__(*args)


class IntegerRing(Ring):
    kind = "z"
    zero = 0
    one = 1
    add = _BuiltinOp(operator.add)
    neg = _BuiltinOp(operator.neg)
    mul = _BuiltinOp(operator.mul)

    # canonical ints, residues and rationals are false exactly at zero
    is_zero = staticmethod(operator.not_)

    def unit_inverse(self, a):
        return a if a in (1, -1) else None

    def coerce(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"not an integer literal: {x!r}")
        return x

    def spec(self):
        return {"kind": "z"}

    def describe(self):
        return "Z"


def _rational(x: Fraction) -> int | Fraction:
    """The canonical form of a rational: its numerator when it is integral."""
    return x.numerator if x.denominator == 1 else x


class RationalRing(Ring):
    """The rationals. An element is an int when it is integral and a Fraction
    only otherwise, so the 0, 1 and -1 of structure constants, delta sections
    and pivots multiply as C integers. Arithmetic does not normalise: an
    integral Fraction it produces (1/2 * 2) is a valid element too, equal and
    hash-equal to the int, and str prints it the same way."""

    kind = "q"
    zero = 0
    one = 1
    add = _BuiltinOp(operator.add)
    neg = _BuiltinOp(operator.neg)
    mul = _BuiltinOp(operator.mul)
    is_zero = staticmethod(operator.not_)

    @property
    def is_field(self):
        return True

    def unit_inverse(self, a):
        return None if self.is_zero(a) else _rational(1 / Fraction(a))

    def coerce(self, x):
        if isinstance(x, bool):
            raise ValueError(f"not a rational literal: {x!r}")
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction):
            return _rational(x)
        # an exponent ("1e-8000000") costs time exponential in its length; "1_0" is 10 from 3.11
        if isinstance(x, str) and "e" not in x.lower() and "_" not in x:
            try:
                return _rational(Fraction(x))
            except (ValueError, ZeroDivisionError):  # "x", "1/0", "0/0"
                pass
        raise ValueError(f"not a rational literal: {x!r}")

    def spec(self):
        return {"kind": "q"}

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
        if self._is_field is None:
            raise ValueError(f"cannot decide whether the modulus {n} is prime")

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

    def spec(self):
        return {
            "kind": "table",
            "elements": list(self.names),
            "add": [list(r) for r in self.add_table],
            "mul": [list(r) for r in self.mul_table],
            "zero": self.zero,
            "one": self.one,
        }

    def describe(self):
        return f"table({','.join(self.names)})"


def validate_ring(spec) -> Ring:
    """Check a ring literal and return the ring, or raise StructureError with
    the failure report.

    Built-in kinds are valid axiomatically. Finite-table rings get every axiom
    enumerated; malformed tables are reported as "structural" failures, kept
    distinct from axiom failures.
    """
    def bad(witness, message):
        return StructureError(ValidationReport.single("ring", "structural", witness, message))

    if not isinstance(spec, dict) or "kind" not in spec:
        raise bad((), "ring literal must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "z":
        return IntegerRing()
    if kind == "q":
        return RationalRing()
    if kind == "zmod":
        n = spec.get("n")
        if not isinstance(n, int) or n < 2:
            raise bad((repr(n),), "zmod needs an integer modulus n >= 2")
        try:
            return ZModRing(n)
        except ValueError as exc:
            raise bad((str(n),), str(exc))
    if kind == "table":
        return _validate_table_ring(spec)
    raise bad((repr(kind),), f"unknown ring kind {kind!r}")


def _validate_table_ring(spec: dict) -> TableRing:
    report = ValidationReport("table ring")
    names = spec.get("elements")
    if not isinstance(names, list) or not names:
        report.add("structural", (), "table ring needs a nonempty 'elements' list")
        raise StructureError(report)
    names = [str(x) for x in names]
    k = len(names)
    if len(set(names)) != k:
        report.add("structural", (), "duplicate element names")
        raise StructureError(report)

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
        raise StructureError(report)

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
        raise StructureError(report)
    return TableRing(names, add, mul, zero, one, commutative=declared_comm)


# ---------------------------------------------------------------------------
# Matrices and exact linear algebra
# ---------------------------------------------------------------------------

def sparse_row(v: Vector, ring: Ring) -> tuple:
    """The nonzero coordinates of a dense vector as (index, value) pairs."""
    is_zero = ring.is_zero
    return tuple((k, x) for k, x in enumerate(v) if not is_zero(x))


def sparse_vector(v, ring: Ring) -> dict:
    """A sparse vector given as a dict or (index, value) pairs, as the one
    vector form {index: nonzero value}: zero entries are dropped."""
    is_zero = ring.is_zero
    return {k: x for k, x in dict(v).items() if not is_zero(x)}


def normal_row(v, ring: Ring) -> tuple:
    """The one stored row form: (index, nonzero value) pairs sorted by index."""
    return tuple(sorted(sparse_vector(v, ring).items()))


def dense(row, k: int, ring: Ring) -> Vector:
    """The length-k dense vector holding the given (index, value) pairs."""
    out = [ring.zero] * k
    for i, x in row:
        out[i] = x
    return tuple(out)


def combine(terms, ring: Ring) -> dict:
    """Sum of coeff * row over (coeff, row) terms, as a sparse {index: value}.

    fiber_mul, section arithmetic and echelon row operations run here; the hot
    products (convolve, validate_bundle, AlgebraPresentation.mul, apply_linear
    and the fiber maps of theorems) sum in place in the same term order instead.
    A row is any iterable of (index, value) pairs.
    The coefficient always multiplies from the left. The loop tests no zeros;
    only the sum is pruned, through ring.is_zero, so equal results compare
    equal as dicts.
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


def apply_linear(rows, v, ring: Ring) -> dict:
    """The image of a sparse vector v, given as (index, value) pairs, under the
    linear map whose image of basis i is rows[i]: the sum of x * rows[i], summed
    in place in combine's term order. An index with no row raises the lookup's
    KeyError or IndexError."""
    add, mul = ring.add, ring.mul
    acc: dict = {}
    get = acc.get
    for i, x in v:
        for k, c in rows[i]:
            prev = get(k)
            acc[k] = mul(x, c) if prev is None else add(prev, mul(x, c))
    is_zero = ring.is_zero
    return {k: y for k, y in acc.items() if not is_zero(y)}


def identity_matrix(k: int, ring: Ring) -> tuple:
    return tuple(tuple(ring.one if j == i else ring.zero for j in range(k)) for i in range(k))


def _dot(u: Sequence, v: Sequence, ring: Ring) -> Element:
    if ring.kind == "zmod":
        # canonical residues: one integer sum of products, reduced once
        return sum(map(operator.mul, u, v)) % ring.n
    acc = ring.zero
    for x, y in zip(u, v):
        acc = ring.add(acc, ring.mul(x, y))
    return acc


def mat_mul(a: Sequence[Vector], b: Sequence[Vector], ring: Ring) -> tuple:
    bt = list(zip(*b))
    return tuple(tuple(_dot(row, col, ring) for col in bt) for row in a)


def _charpoly(mat: Sequence[Vector], ring: Ring) -> list:
    """Coefficients of det(xI - mat), highest degree first, by Berkowitz's
    division-free recursion over the leading principal blocks
    (S. J. Berkowitz, Inf. Proc. Letters 18, 1984); commutative rings only."""
    poly = [ring.one]
    for r in range(len(mat)):
        # the leading (r+1)-block is [[A, s], [row, a]]; its polynomial is the
        # lower-triangular Toeplitz matrix of (1, -a, -row s, -row A s, ...)
        # times the polynomial of A
        col, row = [mat[i][r] for i in range(r)], mat[r][:r]
        toeplitz = [ring.one, ring.neg(mat[r][r])]
        for _ in range(r):
            toeplitz.append(ring.neg(_dot(row, col, ring)))
            col = [_dot(mat[i][:r], col, ring) for i in range(r)]
        poly = [_dot([toeplitz[i - j] for j in range(min(i, r) + 1)], poly, ring)
                for i in range(r + 2)]
    return poly


def mat_inverse(mat: Sequence[Vector], ring: Ring) -> tuple | None:
    """Inverse of a square matrix; None when its determinant is not a unit.

    O(k^4) ring operations: det(xI - A) = x^k + c[k-1] x^(k-1) + ... + c[0]
    gives det A = (-1)^k c[0] and, by Cayley-Hamilton, A^-1 = -c[0]^-1 (A^(k-1)
    + c[k-1] A^(k-2) + ... + c[1] I). Above 1x1 the ring must be commutative.
    """
    k = len(mat)
    mat = tuple(tuple(r) for r in mat)
    if k <= 1:
        inv = ring.unit_inverse(mat[0][0]) if k else ring.one
        return None if inv is None else tuple((inv,) for _ in range(k))
    if not ring.commutative:
        raise CapabilityError(
            f"matrix inverse above 1x1 needs a commutative ring; {ring.describe()} is not"
        )
    poly = _charpoly(mat, ring)
    c0_inv = ring.unit_inverse(poly[k])
    if c0_inv is None:
        return None
    acc = identity_matrix(k, ring)
    for c in poly[1:k]:
        acc = mat_mul(acc, mat, ring)
        acc = tuple(tuple(ring.add(x, c) if i == j else x for j, x in enumerate(row))
                    for i, row in enumerate(acc))
    scale = ring.neg(c0_inv)
    return tuple(tuple(ring.mul(scale, x) for x in row) for row in acc)


# ---------------------------------------------------------------------------
# Smith normal form over the integers
# ---------------------------------------------------------------------------

def smith_normal_form(a: Sequence[Sequence[int]]):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (d, u, v) with u * a * v == d, u and v unimodular, d diagonal.
    The diagonal is not normalized to a divisibility chain; kernels modulo n
    only need diagonality, and solve_linear normalizes it to count the rank.
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


def _xgcd(a: int, b: int) -> tuple:
    """(g, s, t) with s * a + t * b == g == gcd(a, b), for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


class LinearSolution:
    """Kernel and image data for one matrix over a supported ring.

    Over a field: `rank` is the usual rank and `pivots` the pivot columns.
    Over Z/n with composite n the bases are spanning sets (free bases need not
    exist) and `rank` counts invariant factors with a nonzero image. Basis
    vectors are sparse {index: nonzero value} dicts; over Z/n, image_echelon
    is the image's echelon form.
    """

    def __init__(self, ring: Ring, rows: int, cols: int, rank: int, pivots: tuple,
                 kernel_basis: list[dict], image_basis: list[dict],
                 image_echelon: EchelonBasis | None = None):
        self.ring, self.rows, self.cols, self.rank, self.pivots = ring, rows, cols, rank, pivots
        self.kernel_basis, self.image_basis = kernel_basis, image_basis
        self.image_echelon = image_echelon


class EchelonBasis:
    """The span of some vectors over a field or Z/n, grown one vector at a time.

    `rows` maps each pivot to a sparse {index: nonzero} row that is zero
    before its pivot. Over a field a row has 1 at its pivot and 0 at every
    other pivot, so sorted by pivot the rows are the reduced row echelon form.
    Over composite Z/n they are the reduced Howell form (J. A. Howell, Lin.
    Multilin. Alg. 19, 1986): a row's pivot entry g divides n, its entry at a
    later pivot q lies in [0, g_q), and (n/g) * row, which vanishes at the
    pivot, lies in the span of the later rows. Both forms are unique, so two
    spans are equal exactly when their bases have equal rows, and v lies in
    the span exactly when reducing it by the rows leaves nothing. A Howell
    reduction walks only the pivots v touches, ascending, in place; an
    insertion merges v into the rows, then reduces again only the rows with
    an entry at a merged pivot. Every span test in the package runs here;
    inputs are sparse vectors of canonical elements, a dict or (index, value)
    pairs, whose zeros are dropped (an explicit zero must not become a Howell
    pivot).
    """

    def __init__(self, ring: Ring, vectors=()):
        if not (ring.is_field or ring.kind == "zmod"):
            raise CapabilityError(
                f"span computations need a field or Z/n; ring kind {ring.kind!r} is unsupported"
            )
        self.ring = ring
        self.rows: dict[int, dict] = {}
        for v in vectors:
            self.insert(v)

    def _residue(self, v) -> dict:
        ring, rows = self.ring, self.rows
        acc = sparse_vector(v, ring)
        if not ring.is_field:
            return self._reduce(acc, -1)
        # the rows vanish at each other's pivots, so v minus v[p] * row_p over
        # the pivots p of v is zero at every pivot
        return combine([(ring.one, acc.items())] + [
            (ring.neg(acc[p]), rows[p].items()) for p in acc if p in rows
        ], ring)

    def _reduce(self, acc: dict, after: int) -> dict:
        """acc, Howell-reduced in place by the rows with pivot > after: each
        leaves the entry at its pivot g in [0, g)."""
        rows, n = self.rows, self.ring.n
        todo = sorted(p for p in acc if p > after and p in rows)
        for p in todo:
            row = rows[p]
            q = acc.get(p, 0) // row[p]
            if not q:
                continue
            # acc - q * row in combine's term order: kept keys stay put, new
            # ones follow in row order, zeros leave; the row is zero before p,
            # so insort puts a pivot it brings ahead of the loop, in order
            for k, c in row.items():
                if k not in acc and k in rows:
                    insort(todo, k)
                acc[k] = (acc.get(k, 0) - q * c) % n
                if not acc[k]:
                    del acc[k]
        return acc

    def contains(self, v) -> bool:
        return not self._residue(v)

    def insert(self, v) -> bool:
        """Add v to the span; False when it already lies there."""
        ring, rows = self.ring, self.rows
        res = self._residue(v)
        if not res:
            return False
        if not ring.is_field:
            self._insert_howell(res)
            return True
        p = min(res)
        inv = ring.unit_inverse(res[p])
        new = {k: ring.mul(inv, x) for k, x in res.items()}
        for q, row in rows.items():
            if p in row:
                rows[q] = combine(((ring.one, row.items()), (ring.neg(row[p]), new.items())), ring)
        rows[p] = new
        return True

    def _insert_howell(self, res: dict) -> None:
        ring, rows, n = self.ring, self.rows, self.ring.n
        pending, merged = [res], set()
        while pending:
            r = self._reduce(pending.pop(), -1)
            if not r:
                continue
            p = min(r)
            x = r[p]
            # merge r into the row at p (an absent row is zero with pivot
            # entry n) by the unimodular [[s, t], [x/g, -b/g]]; the second
            # result vanishes at p and, with the old row's annihilator, spans
            # the new row's annihilator (n/g) * new, so it goes back in
            old = rows.get(p, {})
            b = old.get(p, n)
            g, s, t = _xgcd(b, x)
            rows[p] = combine(((s, old.items()), (t, r.items())), ring)
            merged.add(p)
            pending.append(combine(((x // g, old.items()), (-(b // g), r.items())), ring))
        # a row is reduced when its entry at each later pivot q is in [0, g_q);
        # reducing by later rows keeps every pivot entry, so only rows with an
        # entry at a merged pivot (a merged row has its own) need it again
        for p in sorted(rows, reverse=True):
            if not merged.isdisjoint(rows[p]):
                self._reduce(rows[p], p)

    def pivot_rows(self) -> list[dict]:
        """The rows in pivot order."""
        return [self.rows[p] for p in sorted(self.rows)]


def solve_linear(columns, rows: int, ring: Ring) -> LinearSolution:
    """Exact rank/kernel/image data of the matrix with the given columns, each a
    sparse vector (a dict or (index, value) pairs) of height rows; see
    LinearSolution for conventions."""
    columns = [sparse_vector(col, ring) for col in columns]
    cols = len(columns)
    transposed: list[dict] = [{} for _ in range(rows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            transposed[i][j] = x
    if ring.is_field:
        echelon = EchelonBasis(ring, transposed).rows
        pivots = tuple(sorted(echelon))
        # free column f: 1 at f, minus column f of the rows at their pivots
        kernel = [{f: ring.one, **{p: ring.neg(row[f]) for p, row in echelon.items() if f in row}}
                  for f in range(cols) if f not in echelon]
        image = [columns[p] for p in pivots]
        return LinearSolution(ring, rows, cols, len(pivots), pivots, kernel, image)

    if ring.kind == "zmod":
        n = ring.n
        kernel: list[dict] = []
        rank = 0
        if cols:
            if rows:
                d, _u, v = smith_normal_form([[int(row.get(j, 0)) % n for j in range(cols)]
                                              for row in transposed])
            else:
                d, v = [], [[int(i == j) for j in range(cols)] for i in range(cols)]
            diag = [math.gcd(d[i][i], n) if i < rows else n for i in range(cols)]
            kernel = [{r: (v[r][i] * (n // di)) % n for r in range(cols)}
                      for i, di in enumerate(diag)]
            factors = diag[:rows]     # gcd/lcm passes make it the invariant factors
            for i, j in itertools.combinations(range(len(factors)), 2):
                a, b = factors[i], factors[j]
                factors[i], factors[j] = math.gcd(a, b), math.lcm(a, b)
            rank = sum(1 for f in factors if f != n)
        return LinearSolution(ring, rows, cols, rank, (), _thin(kernel, ring)[0],
                              *_thin(columns, ring))

    raise CapabilityError(
        f"linear solving needs a field or Z/n; ring kind {ring.kind!r} is unsupported"
    )


def vector_in_span(v, generators, ring: Ring) -> bool:
    """Decide membership of v in the span of the generators (exactly)."""
    return EchelonBasis(ring, generators).contains(v)


def _thin(generators, ring: Ring) -> tuple:
    """The generators that enlarge the span before them, and its echelon basis."""
    basis = EchelonBasis(ring)
    return [g for g in (sparse_vector(g, ring) for g in generators) if basis.insert(g)], basis
