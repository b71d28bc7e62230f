"""The quotient certificate against elimination on its own map.

`quotient_map_and_kernel` decides `surjective` and
`kernel-equals-generator-span` without elimination: the generators and the
representative units form a unitriangular basis of the source, so both follow
once the map sends each representative unit (r, i) to the target unit
(class of r, i) and the generators lie in its kernel. The oracle is the
elimination the certificate ran before, on the returned map: `solve_linear`
on its rows, `maps.surjective` on the solution, and the kernel's echelon rows
against those of the generators (`structures.quotient_elimination`).

The inputs, over Q, Z/5, Z/6, Z/12 and Z/30: the acceptance corpus of
criterion 7, the random congruences of tests/test_fiber_maps.py (whose
refusals are skipped), and the parallel-arrow congruences of
`bench/workloads._parallel_congruence` at small sizes. On each, the
certificate must pass and give elimination's two verdicts. Then one entry of
one row of the map is overwritten as the map is built; the certificate's
checks may pass only where elimination passes.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from sectional import theorems
from sectional.maps import LinearMapOnBasis
from sectional.rings import RationalRing, ZModRing
from sectional.theorems import quotient_map_and_kernel, validate_bundle_congruence
from sectional.workspace import Builder, parse_workspace, workspace_ring

from structures import quotient_elimination
from test_acceptance import _quotient_corpus
from test_complexity import _workloads
from test_fiber_maps import _congruence_instance, _outcome

RINGS = [RationalRing(), ZModRing(5), ZModRing(6), ZModRing(12), ZModRing(30)]


def _verdicts(res):
    checks = {c.name: c.ok for c in res.certificate.checks}
    return checks["surjective"], checks["kernel-equals-generator-span"]


def _agrees_with_elimination(res):
    """The certificate passes with elimination's verdicts, and over a field
    reports the kernel's rank."""
    sol, *oracle = quotient_elimination(res)
    assert res.certificate.passed
    assert _verdicts(res) == tuple(oracle) == (True, True)
    if res.source.ring.is_field:
        assert res.certificate.data["kernel_rank"] == len(sol.kernel_basis)


def _corrupted(bc, monkeypatch, row, entry, value):
    """The certificate on the quotient map of bc with one entry of one row
    overwritten as the map is built (dropped when the value is zero)."""

    def build(source, target, rows):
        rows = [dict(r) for r in rows]
        rows[row][entry] = value
        return LinearMapOnBasis(source, target, tuple(rows))

    with monkeypatch.context() as m:
        m.setattr(theorems, "LinearMapOnBasis", build)
        return quotient_map_and_kernel(bc)


def _bench_congruences():
    """The parallel-arrow congruence of the quotient-zmod generator at small
    sizes, over its own Z/n and over Q."""
    workloads = _workloads()
    rnd = random.Random(3)
    for mod, m, sizes, k in [(5, 4, (2, 2), 2), (6, 6, (2, 2, 2), 3), (12, 6, (3, 3), 2),
                             (30, 9, (3, 3, 3), 3), (30, 6, (1, 2, 3), 4)]:
        doc = workloads._parallel_congruence(mod, m, sizes, k, workloads._Labels(rnd), rnd)
        for ring in ({"kind": "zmod", "n": mod}, {"kind": "q"}):
            ws = parse_workspace(json.dumps(dict(doc, ring=ring)))
            yield Builder(ws, workspace_ring(ws))


def test_corpus_and_bench_congruences_match_elimination():
    seen = set()
    for ring in RINGS:
        for bc in _quotient_corpus(ring):
            _agrees_with_elimination(quotient_map_and_kernel(bc))
            seen.add(ring.describe())
    for builder in _bench_congruences():
        bc = builder.bundle_congruence("c", "b")
        _agrees_with_elimination(quotient_map_and_kernel(bc))
        seen.add(bc.bundle.ring.describe())
    assert seen == {"Q", "Z/5", "Z/6", "Z/12", "Z/30"}


def test_random_congruences_match_elimination(monkeypatch):
    corrupted, kinds = [], set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        ring = data.draw(st.sampled_from(RINGS))
        bundle, cong, transport = _congruence_instance(data, ring)
        bc, refused = _outcome(validate_bundle_congruence, bundle, cong, transport)
        if refused:
            return
        res = quotient_map_and_kernel(bc)
        _agrees_with_elimination(res)
        row = data.draw(st.integers(0, res.source.rank - 1))
        entry = data.draw(st.integers(0, res.target.rank - 1))
        value = ring.coerce(data.draw(st.sampled_from([0, 1, -1, 2, 3])))
        bad = _corrupted(bc, monkeypatch, row, entry, value)
        _, *oracle = quotient_elimination(bad)
        verdicts = _verdicts(bad)
        assert all(o or not v for v, o in zip(verdicts, oracle))
        representative = bc.base.classes[bc.base.class_of[res.source.labels[row][0]]][0]
        kinds.add((res.source.labels[row][0] == representative, verdicts, tuple(oracle)))
        corrupted.append(ring.describe())

    check()
    assert set(corrupted) == {r.describe() for r in RINGS}
    # corruptions at representative and other rows; some leave the map as it
    # was and pass, others fail both routes
    assert {rep for rep, *_ in kinds} == {True, False}
    assert (True, (True, True), (True, True)) in kinds
    assert any(v == o == (False, False) for _, v, o in kinds)
