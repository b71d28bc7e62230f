"""The germ certificate against elimination on its own map.

`germ_corollary` decides `surjective` and `kernel-is-ideal` without
elimination. Its map sends each crossed-product unit delta_s e_(g, i) to one
germ-algebra unit, so `theorems._unit_map_kernel` sets the kernel's echelon
rows off the map's rows (e_x - e_r for r the largest unit with x's image,
e_x for a unit sent to 0), and the map is onto when it hits every target
unit. The ideal's echelon rows are those of its generators' span. The oracle
is elimination on the returned map, as the certificate ran it before:
`solve_linear` on its rows, `maps.surjective` on the solution, and the
echelon rows of its kernel against those of the full saturation of the
generators (`structures.ideal_closure`).

The inputs, over Q, Z/5, Z/6, Z/12 and Z/30: the running example {1, e} on
two points, the chain actions C_n (`structures.nested_chain_action`) for
n = 1..6 and 10, C_3 on a point missing from the middle domain
(`structures.gapped_chain`), and E ⋊ Γ on copies of pair groupoids
(`structures.components_semidirect_action`). On each, the certificate
passes with elimination's verdicts, and the kernel rows it sets are the
echelon rows of elimination's kernel. Then one image of the map is moved to
another target unit, or zeroed, as the map is built: the certificate must
still give exactly elimination's verdicts and kernel rows. Such a change
always changes the kernel, so `kernel-is-ideal` fails on every corrupted map,
while `surjective` holds on some and fails on others.

The generators span the kernel on every validated preaction (the argument is
in `germ_corollary`'s docstring), so the span is the ideal. The oracle's
generators are listed on the test side (`structures.germ_generators`): one
for every s < t and d in both domains, as the germ path formed them before it
formed only the covering ones, and those covering ones, with no u between s
and t whose domain holds d. Drawn over Q, Z/6 and Z/12: chain semilattices,
Z/2 and pair groupoids acting on points (`structures.chain_actions`,
`z2_actions`, `pair_moves`), chains whose domains skip arrows
(`gapped_chain_actions`), and E ⋊ Γ with E cut down to fewer sets U, whose
domains are not global. On each, the echelon rows of all the generators, of
the covering ones, of the kernel and of the full saturation are equal; the
reported ideal is the saturation of the covering generators, the full
saturation's rows over a field; and the induced action the germ path builds
without a walk passes the twisted-associativity walk.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from sectional import theorems
from sectional.bundles import algebra_action_associativity
from sectional.maps import LinearMapOnBasis, surjective
from sectional.rings import EchelonBasis, RationalRing, ZModRing, solve_linear
from sectional.theorems import _unit_map_kernel, germ_corollary

from structures import (chain_actions, components_semidirect_action, gapped_chain,
                        gapped_chain_actions, germ_generators, ideal_closure,
                        nested_chain_action, pair_moves, preaction, semilattice_on_points_action,
                        semilattice_raw, unit_groupoid_raw, z2_actions)

RINGS = [RationalRing(), ZModRing(5), ZModRing(6), ZModRing(12), ZModRing(30)]
INSTANCES = {
    "1e-on-2": lambda: (semilattice_raw(), unit_groupoid_raw(("x", "y")),
                        semilattice_on_points_action()),
    **{f"C{n}": (lambda n=n: nested_chain_action(n)) for n in (1, 2, 3, 4, 5, 6)},
    "gapped-C3": gapped_chain,
    "2P1-1": lambda: components_semidirect_action(2, 1, [(0, 1)]),
    "2P2-Z2": lambda: components_semidirect_action(2, 2, [(0, 1), (1, 0)]),
    "3P1-S3": lambda: components_semidirect_action(3, 1, list(itertools.permutations(range(3)))),
}
THETAS = {name: preaction(*instance()) for name, instance in INSTANCES.items()}


def _run(theta, ring, monkeypatch, corrupt=None):
    """The germ corollary of theta over ring, with the map's rows rewritten
    by corrupt as it is built, and the ideal's generators for every pair
    s < t (structures.germ_generators)."""
    def build(source, target, rows):
        rows = list(rows)
        if corrupt is not None:
            corrupt(rows)
        return LinearMapOnBasis(source, target, tuple(rows))

    with monkeypatch.context() as m:
        m.setattr(theorems, "LinearMapOnBasis", build)
        res = germ_corollary(theta, ring)
    return res, germ_generators(res)


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


def _restricted_semidirect(data):
    """E ⋊ Γ on k <= 3 copies of P_m, m <= 2, with Γ a subgroup of S_k and E
    the component sets of at most r < k copies, or a chain of sets under the
    trivial group: a sub-inverse-semigroup acting by non-global domains."""
    k = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 2))
    identity = tuple(range(k))
    groups = [[identity], list(itertools.permutations(range(k)))]
    if k == 3:
        groups.append([identity, (1, 2, 0), (2, 0, 1)])
    if data.draw(st.booleans()):
        r = data.draw(st.integers(0, k - 1))
        keep = [u for r_ in range(r + 1) for u in itertools.combinations(range(k), r_)]
        group = data.draw(st.sampled_from(groups))
    else:
        top = data.draw(st.integers(0, k - 1))
        keep, group = [range(i) for i in range(top + 1)], [identity]
    return preaction(*components_semidirect_action(k, m, group, keep))


def _skips_an_arrow(res, covering) -> bool:
    """Whether some covering generator joins s < t with an arrow between
    them in the order, which is then one whose domain lacks the point."""
    actor, labels = res.induced_action.actor, res.crossed.labels
    return any(any(u not in (s, t) and (s, u) in actor.leq and (u, t) in actor.leq
                   for u in actor.base.arrows())
               for s, t in ((labels[x][0], labels[y][0]) for x, y in map(sorted, covering)))


def test_generator_span_is_the_kernel_on_validated_preactions(monkeypatch):
    kinds, skips = set(), set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        kind = data.draw(st.sampled_from(["chain", "gapped", "z2", "pairs", "restricted"]))
        theta = {"chain": lambda: data.draw(chain_actions()),
                 "gapped": lambda: data.draw(gapped_chain_actions()),
                 "z2": lambda: data.draw(z2_actions()),
                 "pairs": lambda: pair_moves("xyz"[:data.draw(st.integers(1, 3))]),
                 "restricted": lambda: _restricted_semidirect(data)}[kind]()
        ring = data.draw(st.sampled_from([RationalRing(), ZModRing(6), ZModRing(12)]))
        res, generators = _run(theta, ring, monkeypatch)
        covering = germ_generators(res, covering=True)
        assert res.certificate.passed
        kernel, _onto = _unit_map_kernel(res.map)
        saturated = ideal_closure(generators, res.crossed)
        assert EchelonBasis(ring, generators).rows == EchelonBasis(ring, covering).rows \
            == kernel.rows == EchelonBasis(ring, saturated).rows
        assert res.ideal_basis == ideal_closure(covering, res.crossed)
        if ring.is_field:
            assert res.ideal_basis == saturated
        assert algebra_action_associativity(res.induced_action) is None
        kinds.add((kind, bool(generators)))
        skips.add(_skips_an_arrow(res, covering))

    check()
    # a group, Z/2 or a pair groupoid, has the trivial order and no generator
    assert kinds == {("chain", False), ("chain", True), ("gapped", False), ("gapped", True),
                     ("z2", False), ("pairs", False), ("restricted", False),
                     ("restricted", True)}
    assert skips == {False, True}

