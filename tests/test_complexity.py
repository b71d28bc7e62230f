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
unit groupoid, |D_i| = i + 1, as `tests/structures.nested_chain_action`
builds it, at n = 16 and 32. T counts the composable triples of every
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

`build germ` on the same C_n at n = 32 and 64: 0 calls to
`semidirect_product`, `validate_rigid_congruence` and `quotient_semigroupoid`,
and W, the `_twisted` calls made while `germ_quotient` runs, is n.

  - The least idempotent whose domain holds the point x entering at k is
    e_k, so (e_i, x) has the key (e_i e_k, x) = (e_k, x) for every i >= k:
    one germ per point, n arrows, the loop at (*, x) for each. A loop at a
    vertex no other arrow meets composes only with itself, so the germ
    groupoid has n composable pairs, and its products are read off the
    representatives with one `_twisted` call each: W = 32 and 64, linear.
  - The route it replaced built the semidirect product first, one `_twisted`
    call per composable pair of it: n(n+1)(2n+1)/6 = 11,440 and 89,440,
    growing as n^3, and then walked every such pair again to check the
    germ congruence.

`verify tensor`, `smash` and `crossed` on the frozen scaled inputs of
`tests/data/scaled/` (tensor P_6 with r = 2, smash P_6 with r = 1, crossed
P_4 with r = 2), over Q and Z/6: 0 calls to `solve_linear` and 0 to
`smith_normal_form`. A comparison certificate reads bijectivity off its
passing two-sided inverse; the route it replaced ran one `solve_linear` per
certificate, and over Z/6 one Smith normal form in each.

`verify germ` on C_n, the chain action above, at n = 16 and 32, over Q and
Z/6: 0 calls to `solve_linear` and 0 to `smith_normal_form`, and every
`EchelonBasis.insert` call comes from `rings._thin`, the span of the ideal's
generators.

  - The germ certificate sets its kernel's echelon rows off the map's rows
    (`theorems._unit_map_kernel`, which inserts nothing), reads the ideal
    off its generators' span, forming no product, and runs no
    `solve_linear`; `verify germ` certifies no other map. So the span is the
    only caller left.
  - The germ of (s, x) is the class of all (t, x) with x in D_t: the point
    entering at k lies in the n - k domains D_k..D_{n-1}, so the classes
    have the sizes m = 1..n. The map sends each class to one unit, so its
    kernel is spanned by the differences delta_s e_x - delta_t e_x inside
    the classes, which are exactly the generators, sum of C(m, 2) = C(n+1, 3)
    = 680 and 5,456 of them, one insert each: at most C(n+1, 3) calls,
    cubic in n.
  - A generator enlarges the span exactly when it joins two parts of its
    class not yet joined, so over any Z/n as over Q exactly sum of (m - 1) =
    n(n - 1)/2 = 120 and 496 calls return True, the ideal's rank. The route
    it replaced also rebuilt the kernel and the ideal by insertion: 936 and
    6,480 calls over Q, 376 and 1,520 of them True.

`verify crossed` on crossed P_4 with r = 2 and `verify quotient` on
`fixtures/quotient.json`, over Q and Z/6: no `src/` code walks the triples of
a bundle it built. `validate_bundle` is called once per bundle stanza the
tasks name, on the stanza itself: once for crossed P_4, twice for the
quotient fixture's two stanzas. The semidirect bundle inherits its
associativity through the induced action and the quotient bundle through the
congruence's intertwining, so neither is handed to the walk; the route they
replaced walked each, one call more per task. (tests/conftest.py walks them
after the test, through its own reference to the function.)

`verify convolution` on P_n with r = 2, the fiber Q^2 with the coordinatewise
product on every composable pair, as `bench/workloads._pair_bundle` builds it
(seed 3), at n = 3 and 5 with 40 triples: the task decides on the basis.

  - P_n has the n^3 composable arrow pairs ((x, y), (y, z)), each with r^2
    label pairs, and `workspace._convolution` convolves each pair of delta
    sections once: exactly n^3 r^2 = 108 and 500 `convolve` calls, each on
    two sections of one entry. Its table associates, so no triple is drawn
    and no dense section is convolved; the route it replaced made 4 calls
    per triple on dense sections, 160 here, and built no table.
  - The table holds e_{(x,y),a} e_{(y,z),b} = delta_ab e_{(x,z),a}: n^3 r
    products of one term each. A basis triple has a nonzero side exactly
    when its arrows are (x, y), (y, z), (z, w) and its three labels are equal,
    and then neither side cancels: n^4 r = 162 and 1,250 triples.
    `check_associativity` visits exactly those and makes two `mul` calls on
    each, 324 and 2,500, quadratic in the rank 2n^2.
  - It calls `after_support` once per pair (i, j) it visits. Here reach[i]
    holds only the j after i, so those are the n^3 r = 54 and 250 pairs with
    e_i e_j != 0; the all-pairs walk it replaced visited every one of the
    rank^2 = 4 n^4 = 324 and 2,500 pairs.

`verify tensor`, `smash` and `crossed` on the frozen scaled inputs named
above, over Q and Z/6: 0 `convolve` calls. Every sectional algebra they build reads e_(a,i)
e_(b,j) off the fiber row rows[(a, b)][i][j]; the route it replaced
convolved two delta sections per composable label pair. Only `verify
convolution`, above, convolves, to decide on convolve's own products.

`smash_product` on the sectional algebra of P_n with r = 1 and the constant
1 on every composable pair, graded by a seeded parity map into Z/2
(`bench/workloads._parity_grading`), at n = 4 and 8. V counts the reads of the
grading's inverse map while `smash_product` runs: the table loop reads one
inverse per pair of the labels it meets, so V is the number of pairs visited.

  - The input has rank n^2, and each basis element e_u has two labels (u, h),
    one per element of Z/2. Its products e_(x,y) e_(y,z) = e_(x,z) are the n^3
    nonzero ones, so u has n elements after it. The join meets each label
    (u, g) with the n basis elements v after u, and Z/2 has one vertex, so
    deg(v)^{-1} g is always defined: V = 2n * n^2 = 2n^3 = 128 and 1,024,
    exactly, and the growth exponent is 3.
  - The dense walk it replaced met every pair of the 2n^2 labels and, with
    one vertex, read an inverse on each: V = 4n^4 = 1,024 and 16,384
    (82,944 on P_12), growth exponent 4.
"""

import importlib.util
import json
import math
import os
import random

import pytest

from sectional import actions, bundles, semigroupoids, theorems, workspace
from sectional.algebras import AlgebraPresentation
from sectional.cli import main
from structures import elimination_calls, nested_chain_action

HERE = os.path.dirname(os.path.abspath(__file__))


def _workloads():
    path = os.path.join(HERE, os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quotient_counts(m, tmp_path, monkeypatch, capsys):
    """What `verify quotient` on Q(30, m, 3) does of elimination."""
    workloads = _workloads()
    rnd = random.Random(3)
    doc = workloads._parallel_congruence(30, m, (m // 3,) * 3, 3, workloads._Labels(rnd), rnd)
    path = tmp_path / f"q30-{m}-3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return _verify_counts(["quotient", "--input", str(path)], monkeypatch, capsys)


def _verify_counts(args, monkeypatch, capsys):
    """elimination_calls of a passing `verify` run with these arguments."""
    def run():
        assert main(["verify", *args, "--no-timestamp"]) == 0
        capsys.readouterr()

    return elimination_calls(monkeypatch, run)


def test_quotient_runs_no_elimination(tmp_path, monkeypatch, capsys):
    for m in (15, 30):
        counts, inserts = _quotient_counts(m, tmp_path, monkeypatch, capsys)
        assert counts == {"_reduce": 0, "smith_normal_form": 0, "solve_linear": 0,
                          "mat_inverse": m - 3}
        assert inserts == []


def _chain_file(n, task, tmp_path):
    """A file holding tests/structures.nested_chain_action(n) as the action
    `theta` and the one task given."""
    actor, space, maps = nested_chain_action(n)
    path = tmp_path / f"c{n}.json"
    path.write_text(json.dumps({
        "semigroupoids": {"C": actor, "X": space},
        "actions": {"theta": {"actor": "C", "space": "X", "maps": maps}},
        "tasks": [task],
    }), encoding="utf-8")
    return path


def _build(n, op, tmp_path, capsys):
    """Run `build` of op on C_n."""
    path = _chain_file(n, {"kind": "build", "id": "out", "op": op, "action": "theta"}, tmp_path)
    out = tmp_path / f"c{n}.out.json"
    assert main(["build", "out", "--input", str(path), "--out", str(out)]) == 0
    capsys.readouterr()


def _semidirect_counts(n, tmp_path, monkeypatch, capsys):
    """(T, W) of `build semidirect` on C_n: the composable triples of every
    semigroupoid `_check_axioms` walks, and the `_twisted` calls inside
    `semidirect_product`."""
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
    _build(n, "semidirect", tmp_path, capsys)
    monkeypatch.undo()
    return counts["triples"], counts["twisted"]


def test_semidirect_build_walks_only_its_inputs(tmp_path, monkeypatch, capsys):
    (t1, w1), (t2, w2) = (_semidirect_counts(n, tmp_path, monkeypatch, capsys) for n in (16, 32))
    assert (w1, w2) == (1496, 11440)
    assert t1 <= 16 ** 3 + 16 == 4112
    assert t2 <= 32 ** 3 + 32 == 32800
    assert math.log(t2 / t1) / math.log(2) <= 3.05


def _germ_counts(n, tmp_path, monkeypatch, capsys):
    """What `build germ` on C_n calls: semidirect_product,
    validate_rigid_congruence and quotient_semigroupoid anywhere, and _twisted
    while germ_quotient runs."""
    counts = dict.fromkeys(["semidirect_product", "validate_rigid_congruence",
                            "quotient_semigroupoid", "twisted"], 0)
    building = []

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    def twisted(*args, _twisted=actions._twisted):
        counts["twisted"] += bool(building)
        return _twisted(*args)

    def germ_quotient(theta, _build=actions.germ_quotient):
        building.append(theta)
        try:
            return _build(theta)
        finally:
            building.pop()

    for name in ("semidirect_product", "validate_rigid_congruence", "quotient_semigroupoid"):
        for module in (actions, workspace):
            monkeypatch.setattr(module, name, counted(name, getattr(actions, name)))
    monkeypatch.setattr(actions, "_twisted", twisted)
    monkeypatch.setattr(workspace, "germ_quotient", germ_quotient)
    _build(n, "germ", tmp_path, capsys)
    monkeypatch.undo()
    return counts


def test_germ_build_reads_products_off_its_germs(tmp_path, monkeypatch, capsys):
    for n in (32, 64):
        assert _germ_counts(n, tmp_path, monkeypatch, capsys) == {
            "semidirect_product": 0, "validate_rigid_congruence": 0,
            "quotient_semigroupoid": 0, "twisted": n}


SCALED = os.path.join(HERE, "data", "scaled")


@pytest.mark.parametrize("ring", ["q", "zmod6"])
@pytest.mark.parametrize("theorem, name", [("tensor", "tensor-p6r2"), ("smash", "smash-p6r1"),
                                           ("crossed", "crossed-p4r2")])
def test_passing_certificates_run_no_elimination(theorem, name, ring, monkeypatch, capsys):
    path = os.path.join(SCALED, f"{name}.json")
    counts, _ = _verify_counts([theorem, "--input", path, "--ring", ring], monkeypatch, capsys)
    assert counts["solve_linear"] == counts["smith_normal_form"] == 0


@pytest.mark.parametrize("ring", ["q", "zmod6"])
def test_germ_inserts_only_in_the_generator_span(ring, tmp_path, monkeypatch, capsys):
    for n in (16, 32):
        path = _chain_file(n, {"kind": "verify", "theorem": "germ", "action": "theta"}, tmp_path)
        counts, inserts = _verify_counts(["germ", "--input", str(path), "--ring", ring],
                                         monkeypatch, capsys)
        assert counts["solve_linear"] == counts["smith_normal_form"] == 0
        assert {caller for caller, _ in inserts} == {"_thin"}
        assert len(inserts) <= math.comb(n + 1, 3)
        assert sum(accepted for _, accepted in inserts) == n * (n - 1) // 2


def _walks(args, monkeypatch, capsys):
    """The first argument of each validate_bundle call a passing `verify`
    run with these arguments makes, wherever the package refers to it."""
    walked = []

    def spy(raw, *rest, _walk=bundles.validate_bundle):
        walked.append(raw)
        return _walk(raw, *rest)

    for module in (bundles, workspace):
        monkeypatch.setattr(module, "validate_bundle", spy)
    assert main(["verify", *args, "--no-timestamp"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    return walked


@pytest.mark.parametrize("ring", ["q", "zmod6"])
@pytest.mark.parametrize("theorem, folder, name, stanzas", [
    ("crossed", SCALED, "crossed-p4r2", 1),
    ("quotient", os.path.join(HERE, os.pardir, "fixtures"), "quotient", 2),
], ids=["crossed-p4r2", "quotient"])
def test_built_bundles_are_not_walked(theorem, folder, name, stanzas, ring, monkeypatch,
                                      capsys):
    path = os.path.join(folder, f"{name}.json")
    walked = _walks([theorem, "--input", path, "--ring", ring], monkeypatch, capsys)
    assert len(walked) == stanzas
    assert all(isinstance(raw, dict) for raw in walked)


def _convolution_counts(n, tmp_path, monkeypatch, capsys):
    """What a passing `verify convolution` on P_n with r = 2 calls: the
    argument sizes (arrows, entries) of each convolve call, and the mul and
    after_support calls of every AlgebraPresentation."""
    workloads = _workloads()
    rnd = random.Random(3)
    sgpd, _, _, bundle = workloads._pair_bundle(n, 2, workloads._Labels(rnd), rnd)
    path = tmp_path / f"p{n}r2.json"
    path.write_text(json.dumps({
        "ring": {"kind": "q"}, "semigroupoids": {"P": sgpd}, "bundles": {"b": bundle},
        "tasks": [{"kind": "verify", "theorem": "convolution", "bundle": "b",
                   "triples": 40, "seed": 5}],
    }), encoding="utf-8")
    sizes, counts = [], {"mul": 0, "after_support": 0}

    def size(section):
        return len(section.values), sum(map(len, section.values.values()))

    def convolve(alpha, beta, _convolve=bundles.convolve):
        sizes.append((size(alpha), size(beta)))
        return _convolve(alpha, beta)

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    for module in (bundles, workspace):
        monkeypatch.setattr(module, "convolve", convolve)
    for name in counts:
        monkeypatch.setattr(AlgebraPresentation, name,
                            counted(name, getattr(AlgebraPresentation, name)))
    assert main(["verify", "convolution", "--input", str(path), "--no-timestamp"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    return sizes, counts


def test_convolution_decides_on_the_basis(tmp_path, monkeypatch, capsys):
    r = 2
    for n in (3, 5):
        sizes, counts = _convolution_counts(n, tmp_path, monkeypatch, capsys)
        assert len(sizes) == n ** 3 * r ** 2
        assert set(sizes) == {((1, 1), (1, 1))}
        assert counts == {"mul": 2 * n ** 4 * r, "after_support": n ** 3 * r}


@pytest.mark.parametrize("ring", ["q", "zmod6"])
@pytest.mark.parametrize("theorem, name", [("tensor", "tensor-p6r2"), ("smash", "smash-p6r1"),
                                           ("crossed", "crossed-p4r2")])
def test_built_algebras_convolve_nothing(theorem, name, ring, monkeypatch, capsys):
    calls = []

    def convolve(alpha, beta, _convolve=bundles.convolve):
        calls.append((alpha, beta))
        return _convolve(alpha, beta)

    for module in (bundles, workspace, theorems):
        if vars(module).get("convolve") is bundles.convolve:
            monkeypatch.setattr(module, "convolve", convolve)
    path = os.path.join(SCALED, f"{name}.json")
    assert main(["verify", theorem, "--input", path, "--ring", ring, "--no-timestamp"]) == 0
    capsys.readouterr()
    assert len(calls) == 0


class _CountedReads(dict):
    """A dict that counts its item reads into reads[0]."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, key):
        self.reads[0] += 1
        return super().__getitem__(key)


def _smash_visits(n, tmp_path, monkeypatch, capsys):
    """V of `verify smash` on P_n with r = 1: the reads of the grading's
    inverse map made while smash_product runs."""
    workloads = _workloads()
    rnd = random.Random(3)
    label = workloads._Labels(rnd)
    sgpd, ids, verts, bundle = workloads._pair_bundle(n, 1, label, rnd)
    z2, u, g = workloads.z2_group(label)
    path = tmp_path / f"smash-p{n}.json"
    path.write_text(json.dumps({
        "ring": {"kind": "q"}, "semigroupoids": {"P": sgpd, "Z2": z2}, "bundles": {"b": bundle},
        "homomorphisms": {"d": {"source": "P", "target": "Z2",
                                "map": workloads._parity_grading(n, ids, verts, u, g, rnd)}},
        "tasks": [{"kind": "verify", "theorem": "smash", "bundle": "b", "grading": "d"}],
    }), encoding="utf-8")
    reads, building = [0], []

    def is_groupoid(sgpd, _check=theorems.is_groupoid):
        check = _check(sgpd)
        if building:
            check.inverses = _CountedReads(check.inverses, reads)
        return check

    def smash_product(algebra, _build=theorems.smash_product):
        building.append(algebra)
        try:
            return _build(algebra)
        finally:
            building.pop()

    monkeypatch.setattr(theorems, "is_groupoid", is_groupoid)
    monkeypatch.setattr(theorems, "smash_product", smash_product)
    assert main(["verify", "smash", "--input", str(path), "--no-timestamp"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    return reads[0]


def test_smash_table_visits_only_nonzero_pairs(tmp_path, monkeypatch, capsys):
    v1, v2 = (_smash_visits(n, tmp_path, monkeypatch, capsys) for n in (4, 8))
    assert (v1, v2) == (2 * 4 ** 3, 2 * 8 ** 3)
    assert math.log(v2 / v1) / math.log(2) <= 3.05
