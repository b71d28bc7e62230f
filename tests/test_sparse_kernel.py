"""The sparse product kernel against the dense loops it replaced.

Every "coefficient times image, summed" product now runs over sparse rows,
through rings.combine or in place. The dense loops below are the reference: they
are the previous implementations, kept here only as an oracle. Each product
must equal its oracle exactly over Q, Z/6 and two finite table rings:

  - Z/3 relabeled so that its zero is table index 1, which a truthiness zero
    test would get wrong;
  - upper-triangular 2x2 matrices over F2, which are non-commutative, so a
    product taken on the wrong side shows.

The exhaustive checks (algebra and bundle associativity, multiplicativity of
a basis map) must also return the oracle's witness after one structure
constant is corrupted. The algebra-level checks walk only the tuples the
support index leaves, so they are also run on generated sparse tables (the
semigroupoid algebras of small groupoids and random constants on a few
products) over Q, Z/6 and the non-commutative table ring, each with one
corrupted constant; both verdicts must occur.

AlgebraPresentation.mul and AlgebraAction.apply_rows now sum in place
instead of calling combine; the combine calls they replaced are kept below
as the reference, and the values and key order of each result must be
theirs over Q, Z/6 and the non-commutative table ring.
"""

import itertools
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectional.algebras import AlgebraPresentation
from sectional.bundles import (
    AlgebraAction,
    Bundle,
    fiber_rows,
    semigroupoid_algebra,
    validate_bundle,
)
from sectional.maps import LinearMapOnBasis, basis_bijection, multiplicative_witness
from sectional.rings import RationalRing, ZModRing, combine, ring_from_spec, sparse_row
from sectional.rings import dense as densify
from sectional.theorems import _columns, _compose, _move
from sectional.validation import ValidationReport

from structures import built, pair_groupoid_raw, semilattice_raw, unit_groupoid_raw


def _relabeled_z3():
    values = [1, 0, 2]                       # index 1 holds the zero
    k = len(values)
    return ring_from_spec({
        "kind": "table",
        "elements": [str(v) for v in values],
        "add": [[values.index((values[a] + values[b]) % 3) for b in range(k)]
                for a in range(k)],
        "mul": [[values.index((values[a] * values[b]) % 3) for b in range(k)]
                for a in range(k)],
        "zero": 1,
        "one": 0,
    })


def _upper_triangular_f2():
    mats = list(itertools.product((0, 1), repeat=3))     # [[a, b], [0, d]]

    def add(x, y):
        return tuple((p + q) % 2 for p, q in zip(x, y))

    def mul(x, y):
        a1, b1, d1 = x
        a2, b2, d2 = y
        return (a1 * a2 % 2, (a1 * b2 + b1 * d2) % 2, d1 * d2 % 2)

    k = len(mats)
    return ring_from_spec({
        "kind": "table",
        "elements": ["".join(map(str, m)) for m in mats],
        "add": [[mats.index(add(x, y)) for y in mats] for x in mats],
        "mul": [[mats.index(mul(x, y)) for y in mats] for x in mats],
        "zero": mats.index((0, 0, 0)),
        "one": mats.index((1, 0, 1)),
    })


RINGS = {
    "Q": RationalRing(),
    "Z6": ZModRing(6),
    "Z3-zero-at-1": _relabeled_z3(),
    "UT2-F2": _upper_triangular_f2(),
}


def test_table_rings_have_the_intended_shape():
    assert RINGS["Z3-zero-at-1"].zero == 1
    assert not RINGS["UT2-F2"].commutative


def _elements(ring):
    if isinstance(ring, RationalRing):
        nonzero = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    elif isinstance(ring, ZModRing):
        nonzero = st.integers(0, ring.n - 1)
    else:
        nonzero = st.integers(0, len(ring.names) - 1)
    # zeros often, so vectors and constants come out sparse
    return st.one_of(st.just(ring.zero), nonzero)


def _vector(data, ring, k):
    return tuple(data.draw(st.lists(_elements(ring), min_size=k, max_size=k)))


# ---------------------------------------------------------------------------
# The dense reference loops
# ---------------------------------------------------------------------------

def oracle_mul(table, rank, ring, u, v):
    out = [ring.zero] * rank
    for i, x in enumerate(u):
        if x == ring.zero:
            continue
        for j, y in enumerate(v):
            if y == ring.zero:
                continue
            entry = table.get((i, j))
            if entry is None:
                continue
            coeff = ring.mul(x, y)
            for k, c in enumerate(entry):
                if c != ring.zero:
                    out[k] = ring.add(out[k], ring.mul(coeff, c))
    return tuple(out)


def oracle_apply(images, rank, ring, v):
    out = [ring.zero] * rank
    for i, x in enumerate(v):
        if x == ring.zero:
            continue
        image = images.get(i)
        if image is None:
            raise ValueError("vector leaves the domain")
        for k, c in enumerate(image):
            if c != ring.zero:
                out[k] = ring.add(out[k], ring.mul(x, c))
    return tuple(out)


def oracle_fiber_mul(dense, a, b, x, y):
    """x * y in fiber(ab), read off the generator's dense tables."""
    ring = dense.ring
    c = dense.base.compose(a, b)
    table = dense.tables[(a, b)]
    out = [ring.zero] * dense.ranks[c]
    for i, xi in enumerate(x):
        if xi == ring.zero:
            continue
        for j, yj in enumerate(y):
            if yj == ring.zero:
                continue
            coeff = ring.mul(xi, yj)
            for k, ck in enumerate(table[i][j]):
                if ck != ring.zero:
                    out[k] = ring.add(out[k], ring.mul(coeff, ck))
    return tuple(out)


def oracle_mat_vec(mat, vec, ring):
    out = []
    for row in mat:
        acc = ring.zero
        for a, x in zip(row, vec):
            acc = ring.add(acc, ring.mul(a, x))
        out.append(acc)
    return tuple(out)


def _unit(rank, i, ring):
    return tuple(ring.one if j == i else ring.zero for j in range(rank))


def oracle_associativity(table, basis, ring):
    rank = len(basis)
    zero = (ring.zero,) * rank
    for i in range(rank):
        ei = _unit(rank, i, ring)
        for j in range(rank):
            ij = table.get((i, j), zero)
            ej = _unit(rank, j, ring)
            for k in range(rank):
                ek = _unit(rank, k, ring)
                left = oracle_mul(table, rank, ring, ij, ek)
                right = oracle_mul(table, rank, ring, ei,
                                   oracle_mul(table, rank, ring, ej, ek))
                if left != right:
                    return (basis[i], basis[j], basis[k])
    return None


def oracle_bundle_associativity(dense):
    base, ranks, ring = dense.base, dense.ranks, dense.ring
    names = base.arrow_names
    for a, b, c in base.composable_triples():
        ab = base.prod[a][b]
        bc = base.prod[b][c]
        for i in range(ranks[a]):
            ei = _unit(ranks[a], i, ring)
            for j in range(ranks[b]):
                ej = _unit(ranks[b], j, ring)
                left_inner = oracle_fiber_mul(dense, a, b, ei, ej)
                for l in range(ranks[c]):
                    el = _unit(ranks[c], l, ring)
                    left = oracle_fiber_mul(dense, ab, c, left_inner, el)
                    right = oracle_fiber_mul(dense, a, bc, ei,
                                             oracle_fiber_mul(dense, b, c, ej, el))
                    if left != right:
                        return (names[a], names[b], names[c], str(i), str(j), str(l))
    return None


def oracle_multiplicative(tmap, src_table, tgt_table):
    src, tgt = tmap.source, tmap.target
    ring = src.ring
    images = {i: densify(row, tgt.rank, ring) for i, row in enumerate(tmap.rows)}
    zero = (ring.zero,) * src.rank
    for i in range(src.rank):
        for j in range(src.rank):
            lhs = oracle_apply(images, tgt.rank, ring, src_table.get((i, j), zero))
            rhs = oracle_mul(tgt_table, tgt.rank, ring, images[i], images[j])
            if lhs != rhs:
                return (src.basis[i], src.basis[j])
    return None


# ---------------------------------------------------------------------------
# Products against the oracle
# ---------------------------------------------------------------------------

def _random_table(data, ring, rank):
    keys = [(i, j) for i in range(rank) for j in range(rank)]
    chosen = data.draw(st.lists(st.sampled_from(keys), max_size=len(keys), unique=True))
    return {key: _vector(data, ring, rank) for key in chosen}


def _presentation(ring, table, rank, **kw):
    """Sparse presentation of a dense table; the constructor prunes zeros."""
    sparse = {key: dict(enumerate(vec)) for key, vec in table.items()}
    return AlgebraPresentation(ring=ring, basis=tuple(f"b{i}" for i in range(rank)),
                               table=sparse, **kw)


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_mul_matches_dense_oracle(ring, data):
    rank = data.draw(st.integers(1, 4))
    table = _random_table(data, ring, rank)
    alg = _presentation(ring, table, rank)
    u, v = _vector(data, ring, rank), _vector(data, ring, rank)
    product = alg.mul(sparse_row(u, ring), sparse_row(v, ring))
    assert densify(product.items(), rank, ring) == oracle_mul(table, rank, ring, u, v)
    zero = (ring.zero,) * rank
    for i in range(rank):
        for j in range(rank):
            assert _dense_product(alg, i, j) == table.get((i, j), zero)


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_map_apply_matches_dense_oracle(ring, data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    src, tgt = _presentation(ring, {}, n), _presentation(ring, {}, m)
    images = tuple(_vector(data, ring, m) for _ in range(n))
    tmap = LinearMapOnBasis(src, tgt, tuple(dict(enumerate(im)) for im in images))
    v = _vector(data, ring, n)
    image = tmap.apply_rows(sparse_row(v, ring))
    assert densify(image.items(), m, ring) == oracle_apply(dict(enumerate(images)), m, ring, v)


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_action_apply_matches_dense_oracle(ring, data):
    actor = built(semilattice_raw())
    rank = data.draw(st.integers(1, 4))
    alg = _presentation(ring, {}, rank)
    domains, matrices = [], []
    for _s in actor.base.arrows():
        dom = tuple(sorted(data.draw(st.sets(st.integers(0, rank - 1)))))
        domains.append(dom)
        matrices.append({i: _vector(data, ring, rank) for i in dom})
    rows = tuple({i: sparse_row(vec, ring) for i, vec in m.items()} for m in matrices)
    action = AlgebraAction(actor, alg, tuple(domains), rows)
    s = data.draw(st.sampled_from(list(actor.base.arrows())))
    v = _vector(data, ring, rank)
    try:
        expected = oracle_apply(matrices[s], rank, ring, v)
    except ValueError:
        with pytest.raises(ValueError):
            action.apply_rows(s, sparse_row(v, ring))
        return
    assert densify(action.apply_rows(s, sparse_row(v, ring)).items(), rank, ring) == expected


class DenseBundle(NamedTuple):
    """A generated bundle as dense tables: tables[(a, b)][i][j] = e_i * e_j."""

    ring: object
    base: object
    ranks: tuple
    tables: dict


def _random_bundle(data, ring, mode):
    """A random bundle over P_2 and the dense tables it was built from: rank-1
    fibers with random twists (default 1), or ranks 1-2 with random constants."""
    base = built(pair_groupoid_raw()).base
    if mode == "ringfiber":
        ranks = (1,) * base.n_arrows
        pairs = data.draw(st.lists(st.sampled_from(list(base.composable)), unique=True))
        twists = {pair: data.draw(_elements(ring)) for pair in pairs}
        tables = {pair: (((twists.get(pair, ring.one),),),) for pair in base.composable}
    else:
        ranks = tuple(data.draw(st.integers(1, 2)) for _ in base.arrows())
        tables = {}
        for a, b in base.composable:
            c = base.prod[a][b]
            tables[(a, b)] = tuple(
                tuple(_vector(data, ring, ranks[c]) for _j in range(ranks[b]))
                for _i in range(ranks[a])
            )
    rows = {pair: fiber_rows(table, ring) for pair, table in tables.items()}
    return Bundle(ring, base, ranks, rows), DenseBundle(ring, base, ranks, tables)


@pytest.mark.parametrize("mode", ["sc", "ringfiber"])
@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_fiber_mul_matches_dense_oracle(ring, mode, data):
    bundle, dense = _random_bundle(data, ring, mode)
    a, b = data.draw(st.sampled_from(list(bundle.base.composable)))
    x = _vector(data, ring, bundle.ranks[a])
    y = _vector(data, ring, bundle.ranks[b])
    product = bundle.fiber_mul(a, b, sparse_row(x, ring), sparse_row(y, ring))
    c = bundle.base.prod[a][b]
    assert densify(product.items(), bundle.ranks[c], ring) == oracle_fiber_mul(dense, a, b, x, y)


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_fiber_map_columns_match_dense_oracle(ring, data):
    """A matrix held as its columns moves a sparse vector as the matrix times
    the vector, each entry on the left: the product rings.mat_vec computed."""
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    mat = tuple(_vector(data, ring, cols) for _ in range(rows))
    vec = _vector(data, ring, cols)
    moved = _move(_columns(mat, ring), sparse_row(vec, ring), ring)
    assert densify(moved.items(), rows, ring) == oracle_mat_vec(mat, vec, ring)


def test_compose_puts_the_left_map_first():
    """_compose(a, b) is the matrix product a b: on 1x1 maps over UT2-F2 it
    gives x·y for every pair, also for pairs that do not commute."""
    ring = RINGS["UT2-F2"]
    for x in range(len(ring.names)):
        for y in range(len(ring.names)):
            composed = _compose(_columns(((x,),), ring), _columns(((y,),), ring), ring)
            assert composed == _columns(((ring.mul(x, y),),), ring)
    p, q = ring.names.index("001"), ring.names.index("010")
    assert ring.mul(p, q) != ring.mul(q, p)


# ---------------------------------------------------------------------------
# Exhaustive checks: the same witness as the oracle after one corruption
# ---------------------------------------------------------------------------

def _dense_product(alg, i, j):
    return densify(alg.table.get((i, j), ()), alg.rank, alg.ring)


def _dense_table(alg):
    return {key: _dense_product(alg, *key) for key in alg.table}


def _corrupt(data, ring, table, rank):
    key = data.draw(st.sampled_from([(i, j) for i in range(rank) for j in range(rank)]))
    out = dict(table)
    out[key] = _vector(data, ring, rank)
    return out


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_associativity_witness_matches_oracle(ring, data):
    matrix_units = semigroupoid_algebra(ring, built(pair_groupoid_raw()).base)
    assert matrix_units.check_associativity() is None
    rank = matrix_units.rank
    table = _corrupt(data, ring, _dense_table(matrix_units), rank)
    alg = _presentation(ring, table, rank)
    assert alg.check_associativity() == oracle_associativity(table, alg.basis, ring)


@pytest.mark.parametrize("ring", [RINGS["Q"], RINGS["Z6"], RINGS["Z3-zero-at-1"]],
                         ids=["Q", "Z6", "Z3-zero-at-1"])
@given(data=st.data())
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
def test_bundle_associativity_witness_matches_oracle(ring, data):
    bundle, dense = _random_bundle(data, ring, "sc")
    result = validate_bundle(bundle, ring, bundle.base)
    expected = oracle_bundle_associativity(dense)
    if expected is None:
        assert result is bundle
    else:
        assert isinstance(result, ValidationReport)
        assert result.first().witness == expected


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_multiplicative_witness_matches_oracle(ring, data):
    matrix_units = semigroupoid_algebra(ring, built(pair_groupoid_raw()).base)
    rank = matrix_units.rank
    table = _corrupt(data, ring, _dense_table(matrix_units), rank)
    corrupted = _presentation(ring, table, rank)
    tmap = basis_bijection(matrix_units, corrupted, {i: i for i in range(rank)})
    expected = oracle_multiplicative(tmap, _dense_table(matrix_units), table)
    assert multiplicative_witness(tmap) == expected


# ---------------------------------------------------------------------------
# Exhaustive checks on sparse tables: the oracle's verdict and witness
# ---------------------------------------------------------------------------

SPARSE_RINGS = {name: RINGS[name] for name in ("Q", "Z6", "UT2-F2")}
SPARSE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SPARSE_BASES = [built(raw).base for raw in (pair_groupoid_raw(), unit_groupoid_raw(("x", "y", "z")),
                                            semilattice_raw())]


def _sparse_table(data, ring):
    """Dense tables of a sparse algebra, and its rank: the semigroupoid
    algebra of a small groupoid or semilattice, or random constants on at
    most rank + 1 products."""
    base = data.draw(st.sampled_from(SPARSE_BASES + [None]))
    if base is not None:
        alg = semigroupoid_algebra(ring, base)
        return _dense_table(alg), alg.rank
    rank = data.draw(st.integers(2, 5))
    keys = [(i, j) for i in range(rank) for j in range(rank)]
    chosen = data.draw(st.lists(st.sampled_from(keys), max_size=rank + 1, unique=True))
    return {key: _vector(data, ring, rank) for key in chosen}, rank


def _corrupt_constant(data, ring, table, rank):
    """The table with the coefficient of e_k in e_i e_j redrawn."""
    i, j, k = (data.draw(st.integers(0, rank - 1)) for _ in range(3))
    row = list(table.get((i, j), (ring.zero,) * rank))
    row[k] = data.draw(_elements(ring))
    return {**table, (i, j): tuple(row)}


@pytest.mark.parametrize("ring", SPARSE_RINGS.values(), ids=SPARSE_RINGS.keys())
def test_associativity_on_sparse_tables_matches_oracle(ring):
    verdicts = set()

    @SPARSE_SETTINGS
    @given(data=st.data())
    def check(data):
        table, rank = _sparse_table(data, ring)
        table = _corrupt_constant(data, ring, table, rank)
        alg = _presentation(ring, table, rank)
        expected = oracle_associativity(table, alg.basis, ring)
        assert alg.check_associativity() == expected
        verdicts.add(expected is None)

    check()
    assert verdicts == {True, False}


def _sparse_images(data, ring, source_rank, target_rank):
    """Basis images with at most two nonzero entries each."""
    images = []
    for _ in range(source_rank):
        keys = data.draw(st.lists(st.integers(0, target_rank - 1), max_size=2, unique=True))
        images.append({k: data.draw(_elements(ring)) for k in keys})
    return tuple(images)


@pytest.mark.parametrize("ring", SPARSE_RINGS.values(), ids=SPARSE_RINGS.keys())
def test_multiplicative_witness_on_sparse_tables_matches_oracle(ring):
    """The identity of a sparse table into a copy with one corrupted constant
    (either side), or random sparse images between two sparse tables."""
    verdicts = set()

    @SPARSE_SETTINGS
    @given(data=st.data())
    def check(data):
        src_table, rank = _sparse_table(data, ring)
        if data.draw(st.booleans()):
            tgt_table = _corrupt_constant(data, ring, src_table, rank)
            if data.draw(st.booleans()):
                src_table, tgt_table = tgt_table, src_table
            tgt_rank = rank
            images = tuple({i: ring.one} for i in range(rank))
        else:
            tgt_table, tgt_rank = _sparse_table(data, ring)
            images = _sparse_images(data, ring, rank, tgt_rank)
        src = _presentation(ring, src_table, rank)
        tgt = _presentation(ring, tgt_table, tgt_rank)
        tmap = LinearMapOnBasis(src, tgt, images)
        expected = oracle_multiplicative(tmap, src_table, tgt_table)
        assert multiplicative_witness(tmap) == expected
        verdicts.add(expected is None)

    check()
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# validate_bundle's in-place triple walk against the combine loop it replaced
# ---------------------------------------------------------------------------

def oracle_triple_walk(bundle, ring):
    """Bundle associativity as it was summed: one combine over a generator per
    side and (a, b, c, i, j, l); the first failing tuple, or None."""
    names, rows = bundle.base.arrow_names, bundle.rows
    for a, b, c in bundle.base.composable_triples():
        ab_c = rows[(bundle.base.prod[a][b], c)]
        a_bc = rows[(a, bundle.base.prod[b][c])]
        for i in range(bundle.ranks[a]):
            for j in range(bundle.ranks[b]):
                left_inner = rows[(a, b)][i][j]
                for l in range(bundle.ranks[c]):
                    left = combine(((x, ab_c[m][l]) for m, x in left_inner), ring)
                    right = combine(((x, a_bc[i][m]) for m, x in rows[(b, c)][j][l]), ring)
                    if left != right:
                        return (names[a], names[b], names[c], str(i), str(j), str(l))
    return None


# the upper-triangular 2x2 matrices on the basis e22, e12 + e22, e11: the
# product e11 (e12 + e22) = e12 has two terms, so e22 (e11 (e12 + e22)) sums
# e22 - e22 to a zero that a prune must drop, where e22 e11 = 0 has no terms
TRIANGULAR = {(0, 0): {0: 1}, (0, 1): {0: 1}, (1, 0): {1: 1}, (1, 1): {1: 1},
              (2, 1): {0: -1, 1: 1}, (2, 2): {2: 1}}


def _fiber_algebra(ring, rank):
    """Dense constants of an associative fiber: the ring (rank 1), R x R
    (rank 2), TRIANGULAR (rank 3) or the 2x2 matrix units e_pq e_rs =
    delta_qr e_ps (rank 4)."""
    def unit(k):
        return tuple(ring.one if m == k else ring.zero for m in range(rank))

    zero = (ring.zero,) * rank
    if rank == 3:
        sign = {1: ring.one, -1: ring.neg(ring.one)}

        def vec(entries):
            return tuple(sign[entries[m]] if m in entries else ring.zero for m in range(3))

        return tuple(tuple(vec(TRIANGULAR.get((i, j), {})) for j in range(3)) for i in range(3))
    if rank == 4:
        return tuple(tuple(unit(2 * (i // 2) + j % 2) if i % 2 == j // 2 else zero
                           for j in range(4)) for i in range(4))
    return tuple(tuple(unit(i) if i == j else zero for j in range(rank)) for i in range(rank))


# the units f may take, so the twist f(a) f(b) / f(ab) is a coboundary; over
# UT2-F2 only central constants pass validate_bundle's first check, and the
# only central unit is 1
TWIST_UNITS = {"Q": (1, -1, 2, Fraction(1, 3), Fraction(-3, 2)), "Z6": (1, 5)}


def _twisted_bundle(data, name, ring):
    """A coboundary-twisted bundle of one fiber algebra over a small base, with
    one structure constant redrawn in about half the draws."""
    base = data.draw(st.sampled_from(SPARSE_BASES))
    rank = 1 if name == "UT2-F2" else data.draw(st.sampled_from((1, 2, 3, 4)))
    f = [data.draw(st.sampled_from(TWIST_UNITS.get(name, (ring.one,)))) for _ in base.arrows()]
    fiber = _fiber_algebra(ring, rank)
    tables = {}
    for a, b in base.composable:
        t = ring.mul(ring.mul(f[a], f[b]), ring.unit_inverse(f[base.prod[a][b]]))
        tables[(a, b)] = [[[ring.mul(t, x) for x in vec] for vec in row] for row in fiber]
    if data.draw(st.booleans()):
        a, b = data.draw(st.sampled_from(list(base.composable)))
        i, j, k = (data.draw(st.integers(0, rank - 1)) for _ in range(3))
        central = st.sampled_from((ring.zero, ring.one))
        tables[(a, b)][i][j][k] = data.draw(central if name == "UT2-F2" else _elements(ring))
    rows = {pair: fiber_rows(table, ring) for pair, table in tables.items()}
    return Bundle(ring, base, (rank,) * base.n_arrows, rows)


@pytest.mark.parametrize("name", SPARSE_RINGS)
def test_bundle_triple_walk_matches_the_combine_loop(name):
    """validate_bundle's verdict and first (a, b, c, i, j, l) witness are the
    combine loop's, on twisted bundles with and without a redrawn constant."""
    ring = SPARSE_RINGS[name]
    verdicts = set()

    @SPARSE_SETTINGS
    @given(data=st.data())
    def check(data):
        bundle = _twisted_bundle(data, name, ring)
        expected = oracle_triple_walk(bundle, ring)
        result = validate_bundle(bundle, ring, bundle.base)
        if expected is None:
            assert result is bundle
        else:
            assert isinstance(result, ValidationReport)
            assert (result.first().kind, result.first().witness) == ("associativity", expected)
        verdicts.add(expected is None)

    check()
    assert verdicts == {True, False}



# ---------------------------------------------------------------------------
# The in-place algebra kernel against the combine calls it replaced
# ---------------------------------------------------------------------------

def combine_mul(alg, u, v):
    """AlgebraPresentation.mul as it stood before: one combine over the
    stored products of each term of u with each term of v."""
    table, mul = alg.table, alg.ring.mul
    return combine(((mul(x, y), row) for i, x in u for j, y in v
                    if (row := table.get((i, j)))), alg.ring)


def combine_apply_rows(action, s, v):
    """AlgebraAction.apply_rows as it stood before: every index checked
    against the domain, then one combine."""
    images = action.rows[s]
    for i, _ in v:
        if i not in images:
            raise ValueError(
                f"vector leaves dom at basis {action.algebra.basis[i]} for arrow "
                f"{action.actor.base.arrow_names[s]}"
            )
    return combine(((x, images[i]) for i, x in v), action.algebra.ring)


def _terms(data, ring, rank):
    """A sparse vector as (index, nonzero value) pairs in a drawn order."""
    support = data.draw(st.lists(st.integers(0, rank - 1), min_size=1, max_size=rank,
                                 unique=True))
    if isinstance(ring, RationalRing):
        pool = [ring.coerce(x) for x in (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3))]
    else:
        pool = [x for x in range(ring.n if isinstance(ring, ZModRing) else len(ring.names))
                if not ring.is_zero(x)]
    return [(i, data.draw(st.sampled_from(pool))) for i in support]


@pytest.mark.parametrize("ring", SPARSE_RINGS.values(), ids=SPARSE_RINGS.keys())
def test_in_place_kernel_matches_combine(ring):
    """mul and apply_rows on random sparse tables, images and vectors: the
    same dict as combine's, key order included, and no zero entry. Some
    draws must sum an entry to zero (over Z/6, 2 * 3 = 0 too)."""
    pruned = []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        rank = data.draw(st.integers(1, 4))
        table = {(i, j): dict(_terms(data, ring, rank))
                 for i in range(rank) for j in range(rank) if data.draw(st.booleans())}
        alg = AlgebraPresentation(ring, tuple(f"b{i}" for i in range(rank)), table)
        u, v = _terms(data, ring, rank), _terms(data, ring, rank)
        product = alg.mul(u, v)
        assert list(product.items()) == list(combine_mul(alg, u, v).items())
        touched = {k for i, _ in u for j, _ in v for k, _ in alg.table.get((i, j), ())}
        pruned.append(len(product) < len(touched))

        actor = built(semilattice_raw())
        domains = tuple(tuple(sorted(data.draw(st.sets(st.integers(0, rank - 1)))))
                        for _ in actor.base.arrows())
        rows = tuple({i: tuple(sorted(dict(_terms(data, ring, rank)).items())) for i in dom}
                     for dom in domains)
        action = AlgebraAction(actor, alg, domains, rows)
        s, w = data.draw(st.sampled_from(actor.base.arrows())), _terms(data, ring, rank)
        try:
            expected = combine_apply_rows(action, s, w)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                action.apply_rows(s, w)
            assert str(err.value) == str(exc)
            return
        image = action.apply_rows(s, w)
        assert list(image.items()) == list(expected.items())
        for out in (product, image):
            assert not any(ring.is_zero(x) for x in out.values())
        touched = {k for i, _ in w for k, _ in rows[s][i]}
        pruned.append(len(image) < len(touched))

    check()
    assert any(pruned)
