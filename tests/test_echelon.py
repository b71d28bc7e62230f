"""The incremental reduced-echelon basis against the dense elimination it replaced.

Every span test over a field (membership, thinning, equality, rank, kernels,
the germ ideal) now runs on rings.EchelonBasis. `oracle_rref` below is the
previous dense Gauss-Jordan routine, kept here only as the reference. The
properties are checked over Q, Z/5 and Z/2 on small generated inputs:

  - EchelonBasis.pivot_rows is the oracle's nonzero RREF rows;
  - contains and vector_in_span agree with membership against the oracle;
  - spans_equal is membership checked both ways;
  - solve_linear gives A k = 0 for every kernel vector, rank + nullity = cols
    and the oracle's pivots;
  - the saturation oracle structures.ideal_closure contains its generators,
    is closed under multiplication by every basis element on both sides, and
    equals a naive fixpoint.

Over composite Z/6 and Z/4 the closure is checked for closedness only here;
tests/test_zmod_linear.py checks the composite (Howell form) basis against
a Smith-normal-form oracle.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sectional.algebras import AlgebraPresentation
from sectional.rings import (
    EchelonBasis,
    RationalRing,
    ZModRing,
    _thin,
    dense,
    solve_linear,
    vector_in_span,
)
from structures import columns_of, ideal_closure, span_rank, spans_equal

RINGS = [RationalRing(), ZModRing(5), ZModRing(2)]


def oracle_rref(rows, ring):
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != ring.zero), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = ring.unit_inverse(mat[r][c])
        mat[r] = [ring.mul(inv, x) for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != ring.zero:
                f = mat[i][c]
                mat[i] = [ring.add(x, ring.neg(ring.mul(f, y))) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def oracle_basis(gens, ring):
    rref, _ = oracle_rref(gens, ring)
    return [tuple(row) for row in rref if any(x != ring.zero for x in row)]


def oracle_in_span(v, gens, ring):
    residue = list(v)
    rref, pivots = oracle_rref(gens, ring)
    for k, p in enumerate(pivots):
        f = residue[p]
        if f != ring.zero:
            residue = [ring.add(x, ring.neg(ring.mul(f, y))) for x, y in zip(residue, rref[k])]
    return all(x == ring.zero for x in residue)


def oracle_mat_vec(mat, vec, ring):
    out = []
    for row in mat:
        acc = ring.zero
        for a, x in zip(row, vec):
            acc = ring.add(acc, ring.mul(a, x))
        out.append(acc)
    return tuple(out)


def oracle_mul(algebra, u, v):
    """u * v for dense u, v, summed over the stored structure constants."""
    ring = algebra.ring
    out = [ring.zero] * algebra.rank
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            for k, c in algebra.table.get((i, j), ()):
                out[k] = ring.add(out[k], ring.mul(ring.mul(x, y), c))
    return tuple(out)


def sparse(v):
    """A dense vector as a dict that keeps its zero entries; the span tests
    must drop them."""
    return dict(enumerate(v))


def densify(vectors, k, ring):
    return [dense(v.items(), k, ring) for v in vectors]


def _elements(ring):
    if isinstance(ring, RationalRing):
        nonzero = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        nonzero = st.integers(1, ring.n - 1)
    # zeros often, so spans come out dependent and vectors sparse
    return st.one_of(st.just(ring.zero), st.just(ring.zero), nonzero)


def _vectors(data, ring, k, max_count=5):
    return [tuple(v) for v in data.draw(st.lists(
        st.lists(_elements(ring), min_size=k, max_size=k), max_size=max_count))]


def _combination(data, ring, gens, k):
    """A vector in the span of gens, drawn as a linear combination."""
    out = (ring.zero,) * k
    for g in gens:
        c = data.draw(_elements(ring))
        out = tuple(ring.add(x, ring.mul(c, y)) for x, y in zip(out, g))
    return out


rings = st.sampled_from(RINGS)
widths = st.integers(0, 5)


@settings(max_examples=150, deadline=None)
@given(rings, widths, st.data())
def test_pivot_rows_are_the_oracle_rref(ring, k, data):
    gens = _vectors(data, ring, k)
    basis = EchelonBasis(ring, map(sparse, gens)).pivot_rows()
    assert densify(basis, k, ring) == oracle_basis(gens, ring)
    assert all(ring.zero not in v.values() for v in basis)
    assert span_rank(map(sparse, gens), ring) == len(basis)


@settings(max_examples=150, deadline=None)
@given(rings, widths, st.data())
def test_insert_order_does_not_change_the_rows(ring, k, data):
    gens = _vectors(data, ring, k)
    shuffled = data.draw(st.permutations(gens))
    assert (EchelonBasis(ring, map(sparse, gens)).rows
            == EchelonBasis(ring, map(sparse, shuffled)).rows)


@settings(max_examples=150, deadline=None)
@given(rings, widths, st.data())
def test_contains_agrees_with_the_oracle(ring, k, data):
    gens = _vectors(data, ring, k)
    basis = EchelonBasis(ring, map(sparse, gens))
    inside = _combination(data, ring, gens, k)
    probe = tuple(data.draw(st.lists(_elements(ring), min_size=k, max_size=k)))
    for v in (inside, probe):
        expected = oracle_in_span(v, gens, ring)
        assert basis.contains(sparse(v)) == expected
        assert basis.contains(tuple(enumerate(v))) == expected
        assert vector_in_span(sparse(v), map(sparse, gens), ring) == expected
    assert basis.contains(sparse(inside))


@settings(max_examples=150, deadline=None)
@given(rings, widths, st.data())
def test_insert_reports_whether_the_span_grew(ring, k, data):
    gens = _vectors(data, ring, k)
    basis = EchelonBasis(ring)
    for i, g in enumerate(gens):
        assert basis.insert(sparse(g)) == (not oracle_in_span(g, gens[:i], ring))
        assert basis.contains(sparse(g))


@settings(max_examples=150, deadline=None)
@given(rings, widths, st.data())
def test_spans_equal_is_membership_both_ways(ring, k, data):
    a = _vectors(data, ring, k)
    # half the time b spans the same space as a, drawn as combinations of it
    if data.draw(st.booleans()):
        b = [_combination(data, ring, a, k) for _ in a] + a[:1]
    else:
        b = _vectors(data, ring, k)
    expected = (all(oracle_in_span(v, b, ring) for v in a)
                and all(oracle_in_span(v, a, ring) for v in b))
    a, b = [sparse(v) for v in a], [sparse(v) for v in b]
    assert spans_equal(a, b, ring) == expected
    assert spans_equal(b, a, ring) == expected


@settings(max_examples=150, deadline=None)
@given(rings, st.integers(0, 5), st.integers(1, 5), st.data())
def test_solve_linear_kernel_and_rank(ring, rows, cols, data):
    entries = [list(v) for v in _vectors(data, ring, cols, max_count=rows)]
    entries += [[ring.zero] * cols for _ in range(rows - len(entries))]
    sol = solve_linear(columns_of(entries, cols), rows, ring)
    for kv in densify(sol.kernel_basis, cols, ring):
        assert oracle_mat_vec(entries, kv, ring) == (ring.zero,) * rows
    assert sol.rank + len(sol.kernel_basis) == cols
    assert len(EchelonBasis(ring, sol.kernel_basis).rows) == len(sol.kernel_basis)
    _, pivots = oracle_rref(entries, ring)
    assert sol.pivots == tuple(pivots)
    assert densify(sol.image_basis, rows, ring) == [tuple(row[p] for row in entries)
                                                    for p in pivots]


def _algebra(data, ring, rank):
    """A free algebra of the given rank with generated structure constants;
    closure needs only bilinearity, so the table need not be associative."""
    table = {}
    for i in range(rank):
        for j in range(rank):
            row = data.draw(st.lists(_elements(ring), min_size=rank, max_size=rank))
            table[(i, j)] = dict(enumerate(row))
    return AlgebraPresentation.from_table(ring, tuple(f"e{i}" for i in range(rank)), table)


def naive_closure(gens, algebra):
    ring = algebra.ring
    span = oracle_basis(gens, ring)
    while True:
        units = [dense(((i, ring.one),), algebra.rank, ring) for i in range(algebra.rank)]
        grown = oracle_basis(span + [oracle_mul(algebra, e, v) for e in units for v in span]
                             + [oracle_mul(algebra, v, e) for e in units for v in span], ring)
        if len(grown) == len(span):
            return span
        span = grown


@settings(max_examples=60, deadline=None)
@given(rings, st.integers(1, 4), st.data())
def test_ideal_closure_is_closed(ring, rank, data):
    algebra = _algebra(data, ring, rank)
    gens = _vectors(data, ring, rank, max_count=2)
    closure = densify(ideal_closure(map(sparse, gens), algebra), rank, ring)
    assert closure == oracle_basis(closure, ring)
    for g in gens:
        assert oracle_in_span(g, closure, ring)
    for i in range(rank):
        e = dense(((i, ring.one),), rank, ring)
        for v in closure:
            assert oracle_in_span(oracle_mul(algebra, e, v), closure, ring)
            assert oracle_in_span(oracle_mul(algebra, v, e), closure, ring)
    assert closure == naive_closure(gens, algebra)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([ZModRing(6), ZModRing(4)]), st.integers(1, 3), st.data())
def test_composite_closure_is_closed_and_already_thinned(ring, rank, data):
    # over composite Z/n the closure is the list of accepted vectors, which
    # greedy thinning leaves as it is
    algebra = _algebra(data, ring, rank)
    gens = _vectors(data, ring, rank, max_count=2)
    closure = ideal_closure(map(sparse, gens), algebra)
    assert _thin(closure, ring)[0] == closure
    for g in gens:
        assert vector_in_span(sparse(g), closure, ring)
    for i in range(rank):
        e = ((i, ring.one),)
        for v in closure:
            assert vector_in_span(algebra.mul(e, v.items()), closure, ring)
            assert vector_in_span(algebra.mul(v.items(), e), closure, ring)
