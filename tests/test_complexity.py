"""Complexity contracts: deterministic operation counts at two sizes.

A wall-clock bound says little on a shared host; a count of the operations
an algorithm performs does not move between runs. Each contract runs one
scaling family at two sizes, reads the counts, and bounds the growth
exponent log(c2 / c1) / log(m2 / m1) and the counts themselves, each bound
derived from the algorithm.

`verify quotient` on Q(30, m, 3): the congruence of m parallel arrows over
Z/30 in three classes of m/3, rank-3 fibers and unimodular transports, as
`bench/workloads._parallel_congruence` builds it (seed 3), at m = 15 and 30.
Write k = 3 for the fiber rank, I for the `EchelonBasis.insert` calls and R
for the `EchelonBasis._reduce` calls.

  - I is exact: the kernel and image thinning insert m k vectors each, and
    the generator span one per fiber vector of each arrow that is no class
    representative, k (m - 3); so I = 3 k (m - 1) = 126 and 261, linear in m:
    the growth exponent of I is log(29 / 14) / log 2 = 1.05.
  - The spans are free: the kernel and the generator span of rank (m - 3) k,
    the image of rank 3 k. So E = 2 m k - 3 k inserts enlarge a span (one
    pivot each; 81 and 171): every generator, which spans its rank exactly,
    and (m - 3) k + 3 k thinning inserts. Every other insert fails.
  - A failing insert runs `_reduce` once, in `_residue`; so do the 3 k unit
    vectors `surjective` tests. An enlarging insert runs it once more per
    remainder its merge loop pops, the last of which reduces to nothing (at
    most 4 on this family: a unit pivot leaves no remainder, and a pivot
    entry of Z/30 can shrink through at most Omega(30) = 3 proper divisors),
    and once for each row that meets a pivot it merged. Those rows lie in
    the class of the inserted vector (the spans split by class), at most
    k m / 3 of them.
  - Hence R <= I + 3 k + E (4 + k m / 3): 1,674 and 6,084. The generator
    set over every ordered pair of distinct arrows in a class inserted
    k m (m/3 - 1) generators (I = 270 and 990, the same E), for a bound of
    1,818 and 6,813 on its 868 and 3,478 calls; the routine that re-reduced
    every row after each enlarging insert made 2,726 and 11,921 calls there.
  - Every term is at most quadratic in m, so R grows as m^2; the exponent
    bound is 2 plus 0.05 (a factor of 1.035 per doubling) for lower-order
    terms that enter with a negative sign, such as the rows of a class not
    yet inserted. The old routine's exponent is 2.13.

`build semidirect` on C_n, the chain semilattice e_0 < ... < e_{n-1} acting
by identities on nested domains D_0 < ... < D_{n-1} of the n loops of the
unit groupoid, |D_i| = i + 1, as `bench/workloads.nested_chain_action` builds
it (seed 3), at n = 16 and 32. T counts the composable triples of every
semigroupoid handed to `_check_axioms`, W the `_twisted` calls made while
`semidirect_product` runs.

  - The actor has n arrows at one vertex, so n^3 composable triples; the
    space has n loops, each composable only with itself, so n. The inputs
    are all that is walked: T = n^3 + n = 4,112 and 32,800, growth exponent
    log(32800 / 4112) / log 2 = 2.996. The bound is 3 plus 0.05 (a factor
    of 1.035 per doubling).
  - The output has the arrows (e_i, x) with x in D_i; (e_i, x)(e_j, y) is
    composable exactly when x = y, and the point entering at k lies in the
    n - k domains D_k..D_{n-1}. So it has sum of m^2 over m = 1..n, n(n+1)(2n+1)/6
    = 1,496 and 11,440 composable pairs, and sum of m^3 = (n(n+1)/2)^2 =
    18,496 and 278,784 composable triples. The build forms each product once,
    W = 1,496 and 11,440 exactly. Walking the output's triples again, as the
    semidirect product's own validation did, makes T = 22,608 and 311,584,
    exponent 3.78.
"""

import importlib.util
import json
import math
import os
import random

from sectional import actions, semigroupoids, workspace
from sectional.cli import main
from sectional.rings import EchelonBasis

HERE = os.path.dirname(os.path.abspath(__file__))


def _workloads():
    path = os.path.join(HERE, os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quotient_counts(m, tmp_path, monkeypatch, capsys):
    """(_reduce calls, insert calls) of `verify quotient` on Q(30, m, 3)."""
    workloads = _workloads()
    rnd = random.Random(3)
    doc = workloads._parallel_congruence(30, m, (m // 3,) * 3, 3, workloads._Labels(rnd), rnd)
    path = tmp_path / f"q30-{m}-3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    counts = {"_reduce": 0, "insert": 0}
    for name in counts:
        method = getattr(EchelonBasis, name)

        def counted(*args, _method=method, _name=name):
            counts[_name] += 1
            return _method(*args)

        monkeypatch.setattr(EchelonBasis, name, counted)
    assert main(["verify", "quotient", "--input", str(path), "--no-timestamp"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    return counts["_reduce"], counts["insert"]


def _reduce_bound(m, k=3):
    inserts = 3 * k * (m - 1)
    enlarging = 2 * m * k - 3 * k
    return inserts + 3 * k + enlarging * (4 + k * m // 3)


def test_quotient_howell_reductions_grow_quadratically(tmp_path, monkeypatch, capsys):
    (r1, i1), (r2, i2) = (_quotient_counts(m, tmp_path, monkeypatch, capsys) for m in (15, 30))
    assert (i1, i2) == (126, 261)
    assert math.log(i2 / i1) / math.log(2) <= 1.06
    assert r1 <= _reduce_bound(15) == 1674
    assert r2 <= _reduce_bound(30) == 6084
    assert math.log(r2 / r1) / math.log(2) <= 2.05


def _semidirect_counts(n, tmp_path, monkeypatch, capsys):
    """(T, W) of `build semidirect` on C_n: the composable triples of every
    semigroupoid `_check_axioms` walks, and the `_twisted` calls inside
    `semidirect_product`."""
    workloads = _workloads()
    rnd = random.Random(3)
    actor, space, action, *_ = workloads.nested_chain_action(n, workloads._Labels(rnd), rnd)
    path = tmp_path / f"c{n}.json"
    path.write_text(json.dumps({
        "semigroupoids": {"C": actor, "X": space},
        "actions": {"theta": dict(action, actor="C", space="X")},
        "tasks": [{"kind": "build", "id": "out", "op": "semidirect", "action": "theta"}],
    }), encoding="utf-8")
    counts = {"triples": 0, "twisted": 0}
    building = []

    def check_axioms(sgpd, report, _check=semigroupoids._check_axioms):
        counts["triples"] += sum(1 for _ in sgpd.composable_triples())
        return _check(sgpd, report)

    def twisted(*args, _twisted=actions._twisted):
        counts["twisted"] += bool(building)
        return _twisted(*args)

    def semidirect_product(theta, _build=actions.semidirect_product):
        building.append(theta)
        try:
            return _build(theta)
        finally:
            building.pop()

    monkeypatch.setattr(semigroupoids, "_check_axioms", check_axioms)
    monkeypatch.setattr(actions, "_twisted", twisted)
    monkeypatch.setattr(workspace, "semidirect_product", semidirect_product)
    out = tmp_path / f"c{n}.out.json"
    assert main(["build", "out", "--input", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    return counts["triples"], counts["twisted"]


def test_semidirect_build_walks_only_its_inputs(tmp_path, monkeypatch, capsys):
    (t1, w1), (t2, w2) = (_semidirect_counts(n, tmp_path, monkeypatch, capsys) for n in (16, 32))
    assert (w1, w2) == (1496, 11440)
    assert t1 <= 16 ** 3 + 16 == 4112
    assert t2 <= 32 ** 3 + 32 == 32800
    assert math.log(t2 / t1) / math.log(2) <= 3.05
