"""Division-free matrix inverse and Howell-form spans against the routines they replaced.

`mat_inverse` now takes Berkowitz's characteristic polynomial and the
Cayley-Hamilton adjugate; `oracle_inverse` below is the previous cofactor
expansion, kept here only as the reference (it costs O(k!), so k <= 5).
Over composite Z/n every span test now runs on the reduced Howell form of
rings.EchelonBasis; `oracle_solvable` is the previous Smith-normal-form
solvability test of the integer lift, kept here as the reference.

  - A A^-1 = A^-1 A = I, equal to the oracle's inverse, and None exactly when
    the oracle's determinant is not a unit, over Z, Q, Z/5, Z/6, Z/12 and a
    commutative table ring;
  - over composite Z/n: contains agrees with the oracle, the rows are in
    reduced Howell form and do not depend on insertion order, rings._thin
    equals the old greedy thinning, spans_equal is oracle membership both
    ways, the saturation oracle structures.ideal_closure is closed, and
    solve_linear's kernel is the whole kernel, with one Smith normal form per
    call and a rank that counts normalized invariant factors;
  - `verify quotient` passes on a rank-12 unimodular transport over Z/12.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sectional.rings as rings_module
from sectional.algebras import AlgebraPresentation
from sectional.cli import main
from sectional.rings import (
    EchelonBasis,
    IntegerRing,
    RationalRing,
    ZModRing,
    _thin,
    dense,
    identity_matrix,
    mat_inverse,
    mat_mul,
    smith_normal_form,
    solve_linear,
    validate_ring,
    vector_in_span,
)
from sectional.validation import CapabilityError
from structures import columns_of, ideal_closure, spans_equal, upper_triangular_f2_ring_spec


def _relabeled_z4():
    values = [1, 3, 0, 2]                    # index 2 holds the zero
    k = len(values)
    return validate_ring({
        "kind": "table",
        "elements": [str(v) for v in values],
        "add": [[values.index((values[a] + values[b]) % 4) for b in range(k)]
                for a in range(k)],
        "mul": [[values.index((values[a] * values[b]) % 4) for b in range(k)]
                for a in range(k)],
        "zero": 2,
        "one": 0,
    })


INVERSE_RINGS = [IntegerRing(), RationalRing(), ZModRing(5), ZModRing(6), ZModRing(12),
                 _relabeled_z4()]
COMPOSITE = [ZModRing(4), ZModRing(6), ZModRing(8), ZModRing(12)]


# ---------------------------------------------------------------------------
# The replaced routines, kept as references
# ---------------------------------------------------------------------------

def oracle_determinant(mat, ring):
    k = len(mat)
    if k == 0:
        return ring.one
    det = ring.zero
    for j in range(k):
        minor = [tuple(row[:j] + row[j + 1:]) for row in mat[1:]]
        term = ring.mul(mat[0][j], oracle_determinant(minor, ring))
        det = ring.add(det, term if j % 2 == 0 else ring.neg(term))
    return det


def oracle_inverse(mat, ring):
    k = len(mat)
    mat = [tuple(r) for r in mat]
    dinv = ring.unit_inverse(oracle_determinant(mat, ring))
    if dinv is None:
        return None
    cof = [[oracle_determinant([r[:j] + r[j + 1:] for ri, r in enumerate(mat) if ri != i], ring)
            for j in range(k)] for i in range(k)]
    cof = [[c if (i + j) % 2 == 0 else ring.neg(c) for j, c in enumerate(row)]
           for i, row in enumerate(cof)]
    return tuple(tuple(ring.mul(dinv, cof[j][i]) for j in range(k)) for i in range(k))


def oracle_solvable(v, generators, n):
    """Whether v is a Z/n-combination of the generators, by the Smith normal
    form of the integer lift: u A w = d, and A x = v is solvable mod n exactly
    when gcd(d_i, n) divides (u v)_i for every i."""
    gens = [g for g in generators if any(x % n for x in g)]
    if not any(x % n for x in v):
        return True
    if not gens:
        return False
    a = [[g[i] % n for g in gens] for i in range(len(v))]
    d, u, _w = smith_normal_form(a)
    for i in range(len(a)):
        c = sum(u[i][r] * v[r] for r in range(len(a))) % n
        di = d[i][i] if i < min(len(a), len(gens)) else 0
        if c % math.gcd(di, n):
            return False
    return True


def oracle_greedy(generators, n):
    kept = []
    for g in generators:
        if not oracle_solvable(g, kept, n):
            kept.append(tuple(g))
    return kept


def oracle_mat_vec(mat, vec, ring):
    return tuple(sum(a * x for a, x in zip(row, vec)) % ring.n for row in mat)


def oracle_mul(algebra, u, v):
    """u * v for dense u, v over Z/n, summed over the stored structure constants."""
    n = algebra.ring.n
    out = [0] * algebra.rank
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            for k, c in algebra.table.get((i, j), ()):
                out[k] = (out[k] + x * y * c) % n
    return tuple(out)


def sparse(v):
    """A dense vector as a dict that keeps its zero entries; the span tests
    must drop them."""
    return dict(enumerate(v))


def densify(vectors, k, ring):
    return [dense(v.items(), k, ring) for v in vectors]


# ---------------------------------------------------------------------------
# Generated inputs
# ---------------------------------------------------------------------------

def _elements(ring):
    if isinstance(ring, RationalRing):
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if isinstance(ring, IntegerRing):
        return st.integers(-3, 3)
    if isinstance(ring, ZModRing):
        return st.integers(0, ring.n - 1)
    return st.integers(0, len(ring.names) - 1)


def _matrix(data, ring, k):
    """A random k x k matrix, or half the time a product of elementary row
    moves, which is invertible over every ring."""
    if data.draw(st.booleans()):
        return tuple(tuple(data.draw(st.lists(_elements(ring), min_size=k, max_size=k)))
                     for _ in range(k))
    rows = [list(r) for r in identity_matrix(k, ring)]
    for _ in range(data.draw(st.integers(0, 2 * k)) if k > 1 else 0):
        i, j = data.draw(st.permutations(range(k)))[:2]
        q = data.draw(_elements(ring))
        rows[i] = [ring.add(x, ring.mul(q, y)) for x, y in zip(rows[i], rows[j])]
    return tuple(tuple(r) for r in rows)


def _vectors(data, ring, k, max_count=5):
    count = data.draw(st.integers(0, max_count))
    # small residues and zeros often, so spans overlap and pivots clash
    entries = st.one_of(st.just(0), st.integers(0, ring.n - 1))
    return [tuple(data.draw(st.lists(entries, min_size=k, max_size=k)))
            for _ in range(count)]


# ---------------------------------------------------------------------------
# Matrix inverse
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sampled_from(INVERSE_RINGS), st.integers(0, 5), st.data())
def test_inverse_agrees_with_the_cofactor_oracle(ring, k, data):
    a = _matrix(data, ring, k)
    inv = mat_inverse(a, ring)
    assert inv == oracle_inverse(a, ring)
    if inv is None:
        assert ring.unit_inverse(oracle_determinant(a, ring)) is None
    else:
        assert mat_mul(a, inv, ring) == identity_matrix(k, ring)
        assert mat_mul(inv, a, ring) == identity_matrix(k, ring)


def test_noncommutative_inverse_stops_at_one_by_one():
    ring = validate_ring(upper_triangular_f2_ring_spec())
    assert not ring.commutative
    assert mat_inverse((), ring) == ()
    assert mat_inverse(((ring.one,),), ring) == ((ring.one,),)
    assert mat_inverse(((ring.zero,),), ring) is None
    with pytest.raises(CapabilityError):
        mat_inverse(identity_matrix(2, ring), ring)


def test_inverse_of_a_rank_twelve_unimodular_matrix():
    # cofactor expansion would take 12! terms
    ring = ZModRing(12)
    a = _unimodular(12, random.Random(4))
    inv = mat_inverse(a, ring)
    assert mat_mul(a, inv, ring) == identity_matrix(12, ring)
    doubled = (tuple(2 * x % 12 for x in a[0]),) + a[1:]
    assert mat_inverse(doubled, ring) is None


# ---------------------------------------------------------------------------
# Howell-form spans over composite Z/n
# ---------------------------------------------------------------------------

def _check_howell_form(basis, n):
    rows = basis.rows
    pivots = sorted(rows)
    width = 1 + max((max(row) for row in rows.values()), default=-1)
    for p in pivots:
        row = rows[p]
        assert min(row) == p and n % row[p] == 0 and row[p] < n
        for q in pivots:
            if q > p and q in row:
                assert row[q] < rows[q][q]
        # the annihilator vanishes at p and lies in the span of the later rows
        later = [tuple(rows[q].get(i, 0) for i in range(width)) for q in pivots if q > p]
        ann = tuple((n // row[p]) * row.get(i, 0) % n for i in range(width))
        assert oracle_solvable(ann, later, n)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(COMPOSITE), st.integers(1, 5), st.data())
def test_contains_agrees_with_the_snf_oracle(ring, k, data):
    gens = _vectors(data, ring, k)
    basis = EchelonBasis(ring, map(sparse, gens))
    _check_howell_form(basis, ring.n)
    for g in gens:
        assert basis.contains(sparse(g))
    for v in _vectors(data, ring, k, max_count=4):
        expected = oracle_solvable(v, gens, ring.n)
        assert basis.contains(sparse(v)) == expected
        assert vector_in_span(sparse(v), map(sparse, gens), ring) == expected


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(COMPOSITE), st.integers(1, 5), st.data())
def test_insertion_order_does_not_change_the_rows(ring, k, data):
    gens = _vectors(data, ring, k)
    shuffled = data.draw(st.permutations(gens))
    assert (EchelonBasis(ring, map(sparse, gens)).rows
            == EchelonBasis(ring, map(sparse, shuffled)).rows)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(COMPOSITE), st.integers(1, 5), st.data())
def test_thin_is_the_old_greedy_thinning(ring, k, data):
    gens = _vectors(data, ring, k, max_count=6)
    assert densify(_thin(map(sparse, gens), ring)[0], k, ring) == oracle_greedy(gens, ring.n)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(COMPOSITE), st.integers(1, 4), st.data())
def test_spans_equal_is_oracle_membership_both_ways(ring, k, data):
    a = _vectors(data, ring, k, max_count=3)
    # half the time b spans the same module through other generators
    if data.draw(st.booleans()):
        b = a + [tuple((x + y) % ring.n for x, y in zip(u, v)) for u in a for v in a]
    else:
        b = _vectors(data, ring, k, max_count=3)
    expected = (all(oracle_solvable(v, b, ring.n) for v in a)
                and all(oracle_solvable(v, a, ring.n) for v in b))
    a, b = [sparse(v) for v in a], [sparse(v) for v in b]
    assert spans_equal(a, b, ring) == expected
    assert spans_equal(b, a, ring) == expected


def _algebra(data, ring, rank):
    """A free algebra with generated structure constants; closure needs only
    bilinearity, so the table need not be associative."""
    table = {}
    for i in range(rank):
        for j in range(rank):
            row = data.draw(st.lists(st.integers(0, ring.n - 1), min_size=rank, max_size=rank))
            table[(i, j)] = dict(enumerate(row))
    return AlgebraPresentation.from_table(ring, tuple(f"e{i}" for i in range(rank)), table)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([ZModRing(6), ZModRing(4)]), st.integers(1, 3), st.data())
def test_ideal_closure_is_closed(ring, rank, data):
    algebra = _algebra(data, ring, rank)
    gens = _vectors(data, ring, rank, max_count=2)
    closure = densify(ideal_closure(map(sparse, gens), algebra), rank, ring)
    assert closure == oracle_greedy(closure, ring.n)
    for g in gens:
        assert oracle_solvable(g, closure, ring.n)
    for i in range(rank):
        e = dense(((i, 1),), rank, ring)
        for v in closure:
            assert oracle_solvable(oracle_mul(algebra, e, v), closure, ring.n)
            assert oracle_solvable(oracle_mul(algebra, v, e), closure, ring.n)


# ---------------------------------------------------------------------------
# solve_linear over composite Z/n
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sampled_from([ZModRing(4), ZModRing(6)]), st.integers(0, 3), st.integers(1, 3),
       st.data())
def test_kernel_is_the_whole_kernel_with_one_smith_form(ring, rows, cols, data):
    entries = [data.draw(st.lists(st.integers(0, ring.n - 1), min_size=cols, max_size=cols))
               for _ in range(rows)]
    calls = []
    snf = rings_module.smith_normal_form
    rings_module.smith_normal_form = lambda a: calls.append(a) or snf(a)
    try:
        sol = solve_linear(columns_of(entries, cols), rows, ring)
    finally:
        rings_module.smith_normal_form = snf
    assert len(calls) <= 1
    kernel = [x for x in _all_vectors(ring.n, cols)
              if not any(oracle_mat_vec(entries, x, ring))]
    kernel_basis = densify(sol.kernel_basis, cols, ring)
    for x in kernel:
        assert oracle_solvable(x, kernel_basis, ring.n)
    for x in kernel_basis:
        assert x in kernel


def _all_vectors(n, k):
    if k == 0:
        return [()]
    return [v + (x,) for v in _all_vectors(n, k - 1) for x in range(n)]


@pytest.mark.parametrize("entries, rank", [
    ([[2, 0], [0, 3]], 1),     # invariant factors 1 | 6: one nonzero over Z/6
    ([[1, 0], [0, 0]], 1),
    ([[2, 0], [0, 2]], 2),
    ([[2, 3], [0, 0]], 1),
    ([[0, 0], [0, 0]], 0),
])
def test_composite_rank_counts_normalized_invariant_factors(entries, rank):
    z6 = ZModRing(6)
    assert solve_linear(columns_of(entries, 2), 2, z6).rank == rank


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------

def _unimodular(k, rnd):
    mat = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(2 * k):
        i, j = rnd.sample(range(k), 2)
        q = rnd.choice((-2, -1, 1, 2))
        mat[i] = [x + q * y for x, y in zip(mat[i], mat[j])]
    return tuple(tuple(x % 12 for x in row) for row in mat)


def test_verify_quotient_with_a_rank_twelve_transport(tmp_path, capsys):
    transport = _unimodular(12, random.Random(12))
    doc = {
        "ring": {"kind": "zmod", "n": 12},
        "semigroupoids": {"B": {
            "vertices": ["v", "w"],
            "arrows": [{"id": "a", "src": "v", "rng": "w"}, {"id": "b", "src": "v", "rng": "w"}],
            "prod": [],
        }},
        "bundles": {"bd": {"base": "B", "mode": "sc", "ranks": {"a": 12, "b": 12}}},
        "congruences": {"c": {"base": "B", "classes": [["a", "b"]],
                              "transports": {"b": [list(r) for r in transport]}}},
        "tasks": [{"kind": "verify", "theorem": "quotient", "bundle": "bd", "congruence": "c"}],
    }
    path = tmp_path / "rank12.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "quotient", "--input", str(path), "--no-timestamp", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    task = out["workspaces"][0]["tasks"][0]
    assert code == 0 and task["status"] == "pass", task
    assert task["data"]["source_rank"] == 24 and task["data"]["target_rank"] == 12
