"""Incremental Howell insertion and the one-reduction dot product over Z/n.

`oracle_reduce` and `oracle_insert` below are the previous
`EchelonBasis._reduce` and `_insert_howell`, kept here only as the
reference: the first walked every pivot in sorted order and subtracted each
row through `combine`, the second re-reduced every row after each insertion.
Over Z/4, 6, 8, 9, 12, 30, 36, 60 and 72:

  - every `insert` returns the oracle's bool, and afterwards the rows equal
    the oracle's: the same pivots in the same order, each row with the same
    entries in the same order (the reduced Howell form is unique, and the
    in-place subtraction keeps `combine`'s term order);
  - `contains` agrees with the oracle's residue.

Over Z/n, `_dot` sums the products as integers and reduces once. Against a
subclass of ZModRing that `_dot` does not recognise, and so takes the
generic loop, `mat_inverse` returns the same matrix; A A^-1 = A^-1 A = I
holds, both by an integer product mod n and by `mat_mul`, whose entries are
`_dot`'s and must be canonical residues, on random unimodular matrices; a
singular matrix still gives None, and None comes exactly when det A is not a
unit.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectional.rings import (EchelonBasis, ZModRing, _xgcd, combine, identity_matrix, mat_inverse,
                             mat_mul, sparse_vector)

MODULI = [4, 6, 8, 9, 12, 30, 36, 60, 72]
SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def oracle_reduce(rows, acc, after, ring):
    for p in sorted(rows):
        if p > after and p in acc and acc[p] >= rows[p][p]:
            acc = combine(((ring.one, acc.items()),
                           (-(acc[p] // rows[p][p]), rows[p].items())), ring)
    return acc


def oracle_insert(rows, v, ring) -> bool:
    res = oracle_reduce(rows, sparse_vector(v, ring), -1, ring)
    if not res:
        return False
    n, pending = ring.n, [res]
    while pending:
        r = oracle_reduce(rows, pending.pop(), -1, ring)
        if not r:
            continue
        p = min(r)
        x = r[p]
        old = rows.get(p, {})
        b = old.get(p, n)
        g, s, t = _xgcd(b, x)
        rows[p] = combine(((s, old.items()), (t, r.items())), ring)
        pending.append(combine(((x // g, old.items()), (-(b // g), r.items())), ring))
    for p in sorted(rows, reverse=True):
        rows[p] = oracle_reduce(rows, rows[p], p, ring)
    return True


def _layout(rows):
    """The rows with their dict order: pivots, then each row's entries."""
    return [(p, list(row.items())) for p, row in rows.items()]


@st.composite
def insert_sequences(draw):
    n = draw(st.sampled_from(MODULI))
    k = draw(st.integers(1, 7))
    # zero divisors and units of n alike, and enough zeros for sparse vectors
    value = st.sampled_from([0, 0, 0] + list(range(1, n)))
    vector = st.lists(value, min_size=k, max_size=k).map(
        lambda xs: {i: x for i, x in enumerate(xs) if x})
    return ZModRing(n), draw(st.lists(vector, min_size=1, max_size=12)), draw(vector)


@SETTINGS
@given(insert_sequences())
def test_insert_matches_the_oracle_row_for_row(case):
    ring, vectors, probe = case
    basis, rows = EchelonBasis(ring), {}
    for v in vectors:
        assert basis.insert(v) == oracle_insert(rows, v, ring)
        assert _layout(basis.rows) == _layout(rows)
    assert basis.contains(probe) == (not oracle_reduce(rows, dict(probe), -1, ring))


class GenericZMod(ZModRing):
    """Z/n under another kind name, so `_dot` takes the generic loop."""

    kind = "zmod-generic"


def _product_mod(a, b, n):
    return [[sum(x * y for x, y in zip(row, col)) % n for col in zip(*b)] for row in a]


def _det(mat) -> int:
    m = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return int(det)


def _unimodular(k, n, rnd):
    """A product of elementary row moves and unit scalings, mod n."""
    mat = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        i, j = rnd.sample(range(k), 2)
        q = rnd.randrange(1, n)
        mat[i] = [(x + q * y) % n for x, y in zip(mat[i], mat[j])]
    unit = rnd.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
    row = rnd.randrange(k)
    mat[row] = [x * unit % n for x in mat[row]]
    return mat


@pytest.mark.parametrize("n", [6, 12, 30, 36, 60, 72])
def test_inverse_over_zmod_matches_the_generic_loop(n):
    ring, generic, rnd = ZModRing(n), GenericZMod(n), random.Random(n)
    factor = min(p for p in range(2, n + 1) if n % p == 0)
    for k in range(2, 8):
        a = _unimodular(k, n, rnd)
        inv = mat_inverse(a, ring)
        assert inv is not None and inv == mat_inverse(a, generic)
        assert _product_mod(a, inv, n) == _product_mod(inv, a, n) == [
            [int(i == j) for j in range(k)] for i in range(k)]
        assert mat_mul(a, inv, ring) == mat_mul(inv, a, ring) == identity_matrix(k, ring)
        # a row times a prime factor of n makes det A a zero divisor
        singular = [list(row) for row in a]
        row = rnd.randrange(k)
        singular[row] = [x * factor % n for x in singular[row]]
        assert mat_inverse(singular, ring) is None and mat_inverse(singular, generic) is None
        drawn = [[rnd.randrange(n) for _ in range(k)] for _ in range(k)]
        inv = mat_inverse(drawn, ring)
        assert inv == mat_inverse(drawn, generic)
        assert (inv is None) == (math.gcd(_det(drawn), n) != 1)
