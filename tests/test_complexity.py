"""Complexity contracts: deterministic operation counts at two sizes.

A wall-clock bound says little on a shared host; a count of the operations
an algorithm performs does not move between runs. Each contract runs one
scaling family at two sizes, reads the counts, and bounds the growth
exponent log(c2 / c1) / log(m2 / m1) and the counts themselves, each bound
derived from the algorithm.

`verify quotient` on Q(30, m, 3): the congruence of m parallel arrows over
Z/30 in three classes of m/3, rank-3 fibers and unimodular transports, as
`bench/workloads._parallel_congruence` builds it (seed 3), at m = 15 and 30.
The certificate reads surjectivity and the kernel off the representative
units, so the path runs no elimination at all.

  - `EchelonBasis.insert`, `EchelonBasis._reduce`, `smith_normal_form` and
    `solve_linear` are each called 0 times. Nothing on the path takes a span:
    the base has no composable pairs, so the bundle, the congruence's
    intertwining and the quotient bundle walk no products, and the
    certificate checks the representative block and applies the map to each
    generator. The route it replaced ran `solve_linear` (one Smith normal
    form and two Howell thinnings of m k vectors each) and an echelon form of
    the (m - 3) k generators: 3 k (m - 1) = 126 and 261 inserts and up to
    1,674 and 6,084 reductions, growing as m^2.
  - `mat_inverse` is called once per declared transport that is not the
    identity, in `validate_bundle_congruence`: the generator declares one
    unimodular transport for each of the m - 3 arrows that are no class
    representative, and none of them is the identity at this seed. So it is
    called exactly m - 3 = 12 and 27 times, linear in m.

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

from sectional import actions, maps, rings, semigroupoids, theorems, workspace
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
    """Calls of each elimination routine and of mat_inverse made by `verify
    quotient` on Q(30, m, 3), wherever the package refers to them."""
    workloads = _workloads()
    rnd = random.Random(3)
    doc = workloads._parallel_congruence(30, m, (m // 3,) * 3, 3, workloads._Labels(rnd), rnd)
    path = tmp_path / f"q30-{m}-3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    counts = dict.fromkeys(["insert", "_reduce", "smith_normal_form", "solve_linear",
                            "mat_inverse"], 0)

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    for name in ("insert", "_reduce"):
        monkeypatch.setattr(EchelonBasis, name, counted(name, getattr(EchelonBasis, name)))
    for name in ("smith_normal_form", "solve_linear", "mat_inverse"):
        fn = getattr(rings, name)
        for module in (rings, maps, theorems):
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    assert main(["verify", "quotient", "--input", str(path), "--no-timestamp"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    return counts


def test_quotient_runs_no_elimination(tmp_path, monkeypatch, capsys):
    for m in (15, 30):
        counts = _quotient_counts(m, tmp_path, monkeypatch, capsys)
        assert counts == {"insert": 0, "_reduce": 0, "smith_normal_form": 0,
                          "solve_linear": 0, "mat_inverse": m - 3}


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
