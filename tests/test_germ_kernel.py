"""The germ certificate against elimination on its own map.

`germ_corollary` decides `surjective` and `kernel-is-ideal` without
elimination. Its map sends each crossed-product unit delta_s e_(g, i) to one
germ-algebra unit, so `theorems._unit_map_kernel` sets the kernel's echelon
rows off the map's rows (e_x - e_r for r the largest unit with x's image,
e_x for a unit sent to 0), and the map is onto when it hits every target
unit. The ideal's echelon rows are the saturation's own. The oracle is
elimination on the returned map, as the certificate ran it before:
`solve_linear` on its rows, `maps.surjective` on the solution, and the
echelon rows of its kernel against those of the full saturation of the
generators, with no stop target.

The inputs, over Q, Z/5, Z/6, Z/12 and Z/30: the running example {1, e} on
two points, the chain actions C_n (`structures.nested_chain_action`) for
n = 1..6 and 10, and E ⋊ Γ on copies of pair groupoids
(`structures.components_semidirect_action`). On each, the certificate
passes with elimination's verdicts, and the kernel rows it sets are the
echelon rows of elimination's kernel. Then one image of the map is moved to
another target unit, or zeroed, as the map is built: the certificate must
still give exactly elimination's verdicts and kernel rows. Such a change
always changes the kernel, so `kernel-is-ideal` fails on every corrupted map,
while `surjective` holds on some and fails on others.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from sectional import theorems
from sectional.maps import LinearMapOnBasis, surjective
from sectional.rings import (EchelonBasis, RationalRing, ZModRing, _saturate, ideal_closure,
                             solve_linear)
from sectional.theorems import _unit_map_kernel, germ_corollary

from structures import (components_semidirect_action, nested_chain_action, preaction,
                        semilattice_on_points_action, semilattice_raw, unit_groupoid_raw)

RINGS = [RationalRing(), ZModRing(5), ZModRing(6), ZModRing(12), ZModRing(30)]
INSTANCES = {
    "1e-on-2": lambda: (semilattice_raw(), unit_groupoid_raw(("x", "y")),
                        semilattice_on_points_action()),
    **{f"C{n}": (lambda n=n: nested_chain_action(n)) for n in (1, 2, 3, 4, 5, 6)},
    "2P1-1": lambda: components_semidirect_action(2, 1, [(0, 1)]),
    "2P2-Z2": lambda: components_semidirect_action(2, 2, [(0, 1), (1, 0)]),
    "3P1-S3": lambda: components_semidirect_action(3, 1, list(itertools.permutations(range(3)))),
}
THETAS = {name: preaction(*instance()) for name, instance in INSTANCES.items()}


def _run(theta, ring, monkeypatch, corrupt=None):
    """The germ corollary of theta over ring, with the map's rows rewritten
    by corrupt as it is built, and the generators its saturation got."""
    seen = []

    def build(source, target, rows):
        rows = list(rows)
        if corrupt is not None:
            corrupt(rows)
        return LinearMapOnBasis(source, target, tuple(rows))

    def saturate(generators, algebra, until=None):
        seen.append(list(generators))
        return _saturate(seen[-1], algebra, until)

    with monkeypatch.context() as m:
        m.setattr(theorems, "LinearMapOnBasis", build)
        m.setattr(theorems, "_saturate", saturate)
        res = germ_corollary(theta, ring)
    (generators,) = seen
    return res, generators


def _verdicts(res):
    checks = {c.name: c.ok for c in res.certificate.checks}
    return checks["surjective"], checks["kernel-is-ideal"]


def _agrees_with_elimination(res, generators):
    """The certificate's verdicts and kernel rows are elimination's; returns
    the verdicts."""
    ring = res.crossed.ring
    sol = solve_linear(res.map.rows, res.germ_algebra.rank, ring)
    kernel = EchelonBasis(ring, sol.kernel_basis).rows
    ideal = EchelonBasis(ring, ideal_closure(generators, res.crossed)).rows
    onto = surjective(sol)
    set_kernel, set_onto = _unit_map_kernel(res.map)
    assert set_kernel.rows == kernel and set_onto == onto
    assert _verdicts(res) == (onto, kernel == ideal)
    return _verdicts(res)


def test_germ_instances_match_elimination(monkeypatch):
    for ring in RINGS:
        for theta in list(THETAS.values()) + [preaction(*nested_chain_action(10))]:
            res, generators = _run(theta, ring, monkeypatch)
            assert res.certificate.passed
            assert _agrees_with_elimination(res, generators) == (True, True)


def test_corrupted_germ_maps_match_elimination(monkeypatch):
    kinds = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        ring = data.draw(st.sampled_from(RINGS))
        theta = THETAS[data.draw(st.sampled_from(sorted(THETAS)))]
        clean, generators = _run(theta, ring, monkeypatch)
        kinds.add(("clean", _agrees_with_elimination(clean, generators)))
        x = data.draw(st.integers(0, clean.crossed.rank - 1))
        ((image, _one),) = clean.map.rows[x]
        others = [t for t in range(clean.germ_algebra.rank) if t != image]
        moved = bool(others) and data.draw(st.booleans())
        target = data.draw(st.sampled_from(others)) if moved else None

        def corrupt(rows):
            rows[x] = ((target, ring.one),) if moved else ()

        res, generators = _run(theta, ring, monkeypatch, corrupt)
        kinds.add(("moved" if moved else "zeroed", _agrees_with_elimination(res, generators)))

    check()
    # a moved or zeroed image always changes the kernel, so kernel-is-ideal
    # fails on every corruption; surjective holds on some and fails on others
    assert {kind for kind, _ in kinds} == {"clean", "moved", "zeroed"}
    assert {verdicts for kind, verdicts in kinds if kind == "clean"} == {(True, True)}
    assert {verdicts for kind, verdicts in kinds if kind != "clean"} == {(True, False),
                                                                      (False, False)}
