"""Finite free-module algebra presentations with exact structure constants.

Every algebra this package constructs (sectional algebras, crossed products,
tensor and smash products, quotients) comes out in this uniform shape:
a labeled basis, a multiplication table, and an optional degree map into a
grading semigroupoid.

Each basis element has a display name (basis, report text only) and a
structural label: the coordinates the construction writes it in, such as
(arrow, i) for a basis section or (s, d) for a crossed-product generator
delta_s e_d. index maps each label to its basis position. The builder that
fixes a basis order is the only code that knows it; every comparison map,
induced action and generator set finds a basis element by looking up its
label in index.

The table is stored row by row and only once: table[(i, j)] is the product of
basis elements i and j as a row in rings.normal_row's form, zero products
absent. Builders hand their rows over in that form; a hand-written table comes
in through from_table, which range-checks and normalises it. Products, maps,
actions and the exhaustive checks iterate only over these nonzeros, in the
row-wise scheme of Gustavson (ACM TOMS 4(3), 1978): mul adds each coefficient
times row into one dict, in rings.combine's term order, and prunes the sum once.
Linear maps are held the same way (maps.LinearMapOnBasis, bundles.AlgebraAction,
and the fiber maps and transports of theorems): one sparse image row per basis
element, the first two applied by rings.apply_linear; a passing certificate
reads its kernel off those rows, with no elimination. Vectors are sparse too:
mul takes two vectors as (index, value) pairs (a stored row or the items of a
{index: value} dict) and returns a dict. Dense coordinate tuples remain only
for file literals, the transports inverted by rings.mat_inverse, and reports.

The table's keys also give a support index, built once with it: after[l] is
the set of k with e_l e_k != 0 and before[l] the set of i with e_i e_l != 0.
The exhaustive checks compare two sides that are sums over stored products,
so a basis tuple where both sums are empty is 0 = 0; the index finds the
other tuples, and the checks walk those in the dense order, which keeps
every check exhaustive and every witness the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rings import Ring, normal_row
from .semigroupoids import FiniteSemigroupoid, label_index


@dataclass
class AlgebraPresentation:
    ring: Ring
    basis: tuple[str, ...]
    table: dict[tuple[int, int], tuple] = field(default_factory=dict)
    grading: FiniteSemigroupoid | None = None
    degrees: tuple[int, ...] | None = None
    provenance: str = ""
    labels: tuple | None = None
    index: dict = field(init=False, repr=False, compare=False)
    after: tuple = field(init=False, repr=False, compare=False)
    before: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # labels default to the names, so a hand-built basis is its own key
        self.labels = self.basis if self.labels is None else tuple(self.labels)
        if len(self.labels) != self.rank:
            raise ValueError("one label per basis element required")
        self.index = label_index(self.labels)
        # the support index: after[l] = {k : e_l e_k != 0}, before[l] = {i : e_i e_l != 0}
        after = [set() for _ in self.labels]
        before = [set() for _ in self.labels]
        for i, j in self.table:
            after[i].add(j)
            before[j].add(i)
        self.after = tuple(map(frozenset, after))
        self.before = tuple(map(frozenset, before))
        if (self.grading is None) != (self.degrees is None):
            raise ValueError("grading and degrees must be supplied together")
        if self.degrees is not None and len(self.degrees) != self.rank:
            raise ValueError("degree map must cover the basis")

    @classmethod
    def from_table(cls, ring: Ring, basis, table=(), **fields) -> "AlgebraPresentation":
        """A hand-written table, rows as dicts or (index, value) pairs, any order, zeros kept."""
        table = dict(table)
        for key, row in table.items():
            if any(not isinstance(k, int) or not 0 <= k < len(basis) for k in (*key, *dict(row))):
                raise ValueError(f"structure constant at {key} indexes outside the basis")
        return cls(ring, basis, {key: normal for key, row in table.items()
                                 if (normal := normal_row(row, ring))}, **fields)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def graded(self) -> bool:
        return self.grading is not None

    def mul(self, u, v) -> dict:
        """Product of two sparse vectors given as (index, value) pairs; v is
        walked once per term of u. Each x y * row is summed in place, in
        combine's term order, and the sum is pruned once."""
        table, add, mul = self.table, self.ring.add, self.ring.mul
        acc: dict = {}
        get = acc.get
        for i, x in u:
            for j, y in v:
                if row := table.get((i, j)):
                    coeff = mul(x, y)
                    for k, c in row:
                        prev = get(k)
                        acc[k] = mul(coeff, c) if prev is None else add(prev, mul(coeff, c))
        is_zero = self.ring.is_zero
        return {k: x for k, x in acc.items() if not is_zero(x)}

    def after_support(self, v) -> set:
        """The k for which v e_k can be nonzero, v given as (index, value) pairs."""
        return set().union(*(self.after[l] for l, _ in v))

    def before_support(self, v) -> set:
        """The i for which e_i v can be nonzero, v given as (index, value) pairs."""
        return set().union(*(self.before[l] for l, _ in v))

    def homogeneous_indices(self, g: int) -> tuple[int, ...]:
        if self.degrees is None:
            raise ValueError("algebra is not graded")
        return tuple(i for i, d in enumerate(self.degrees) if d == g)

    def check_associativity(self) -> tuple | None:
        """Enumerate basis triples; returns the first failing (i,j,k) or None.

        e_i e_j and e_j e_k are read off the stored rows. (e_i e_j) e_k is an
        empty sum unless k lies after the support of e_i e_j, and e_i (e_j e_k)
        unless k lies in reach[i][j], read once off the table; every other k
        is 0 = 0, so only the j after i or in reach[i] are visited.
        """
        table, one = self.table, self.ring.one
        # reach[i][j]: the k for which e_i (e_j e_k) can be nonzero
        reach = [{} for _ in self.labels]
        for (j, k), jk in table.items():
            for i in self.before_support(jk):
                reach[i].setdefault(j, set()).add(k)
        for i in range(self.rank):
            ei = ((i, one),)
            for j in sorted(self.after[i] | reach[i].keys()):
                ij = table.get((i, j), ())
                for k in sorted(reach[i].get(j, set()) | self.after_support(ij)):
                    left = self.mul(ij, ((k, one),))
                    right = self.mul(ei, table.get((j, k), ()))
                    if left != right:
                        return (self.basis[i], self.basis[j], self.basis[k])
        return None

    def check_graded_closure(self) -> tuple | None:
        """Products of homogeneous basis elements must respect the grading.

        For composable degrees every nonzero coordinate of the product sits in
        degree deg(u)deg(v); for non-composable degrees the product is zero.
        Returns the first failing pair or None. Only the stored products are
        walked: an absent product is zero and respects every grading.
        """
        if not self.graded:
            return None
        g = self.grading
        for (i, j), prod in sorted(self.table.items()):
            di, dj = self.degrees[i], self.degrees[j]
            if g.is_composable(di, dj):
                target = g.prod[di][dj]
                if any(self.degrees[k] != target for k, _ in prod):
                    return (self.basis[i], self.basis[j])
            elif prod:
                return (self.basis[i], self.basis[j])
        return None
