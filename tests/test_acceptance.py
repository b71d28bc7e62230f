"""Acceptance suite: each criterion runs at its stated (exact) tolerance and
records one pass/fail line, printed in the terminal summary."""

import glob
import json
import os
import random
import subprocess
import sys

import pytest

from sectional.actions import validate_preaction, validate_rigid_congruence
from sectional.bundles import (
    Section,
    convolve,
    graded_roundtrip_iso,
    semigroupoid_algebra,
    trivial_bundle,
    validate_bundle,
)
from sectional.maps import certify_linear_iso
from sectional.rings import RationalRing, ZModRing
from sectional.semigroupoids import (
    identity_homomorphism,
    validate_inverse_semigroupoid,
    validate_semigroupoid,
)
from sectional.theorems import (
    _semidirect_bundle,
    crossed_theorem,
    germ_corollary,
    quotient_map_and_kernel,
    smash_theorem,
    tensor_theorem,
    validate_bundle_action,
    validate_bundle_congruence,
)

from structures import (
    SKEW_Z2_TO_PAIR,
    built,
    cyclic2_raw,
    is_isomorphism,
    klein_four_raw,
    pair_groupoid_raw,
    parallel_arrows_raw,
    quotient_elimination,
    refusal,
    semilattice_on_points_action,
    semilattice_raw,
    trivial_monoid_raw,
    unit_groupoid_raw,
    with_inverse_entry,
    with_product_entry,
    without_product_entry,
)

Q = RationalRing()
Z4 = ZModRing(4)
Z5 = ZModRing(5)

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.abspath(os.path.join(HERE, os.pardir, "fixtures"))


def _prod_table(raw):
    return {(e[0], e[1]): e[2] for e in raw["prod"]}


def _witness_is_correct(raw, kind, witness):
    """Re-evaluate the cited axiom at the witness on the perturbed tables."""
    table = _prod_table(raw)
    src = {e["id"]: e["src"] for e in raw["arrows"]}
    rng = {e["id"]: e["rng"] for e in raw["arrows"]}
    if kind == "undefined-product":
        a, b = witness
        return src[a] == rng[b] and (a, b) not in table
    if kind == "product-on-noncomposable":
        a, b = witness
        return src[a] != rng[b] and (a, b) in table
    if kind == "range-compatibility":
        a, b = witness
        return rng[table[(a, b)]] != rng[a]
    if kind == "source-compatibility":
        a, b = witness
        return src[table[(a, b)]] != src[b]
    if kind == "associativity":
        a, b, c = witness
        return table[(table[(a, b)], c)] != table[(a, table[(b, c)])]
    if kind == "inverse-condition":
        (s,) = witness
        t = raw["inv"][s]
        sts = table.get((table.get((s, t)), s))
        tst = table.get((table.get((t, s)), t))
        return sts != s or tst != t
    return False


def test_criterion_1_axiom_validators(acceptance):
    corpus = [trivial_monoid_raw(), pair_groupoid_raw(), cyclic2_raw(),
              semilattice_raw(), klein_four_raw()]
    ok = True
    for raw in corpus:
        ok = ok and refusal(built, raw) is None

    perturbations = [
        (without_product_entry(trivial_monoid_raw(), "a", "a"),
         "undefined-product"),
        (with_product_entry(pair_groupoid_raw(), "(1,2)", "(2,1)", "(2,2)"),
         "range-compatibility"),
        (without_product_entry(pair_groupoid_raw(), "(1,1)", "(1,2)"),
         "undefined-product"),
        ({**pair_groupoid_raw(),
          "prod": pair_groupoid_raw()["prod"] + [["(1,2)", "(1,2)", "(1,1)"]]},
         "product-on-noncomposable"),
        (with_product_entry(pair_groupoid_raw(), "(1,1)", "(1,2)", "(2,1)"),
         "source-compatibility"),
        (with_inverse_entry(cyclic2_raw(), "g", "u"), "inverse-condition"),
        (with_product_entry(cyclic2_raw(), "u", "u", "g"), "associativity"),
        (with_inverse_entry(semilattice_raw(), "e", "1"), "inverse-condition"),
        (without_product_entry(semilattice_raw(), "1", "e"), "undefined-product"),
        (with_product_entry(klein_four_raw(), "a", "b", "a"), "associativity"),
    ]
    assert len(perturbations) == 10
    for raw, expected_kind in perturbations:
        if expected_kind == "inverse-condition":
            report = refusal(validate_inverse_semigroupoid, validate_semigroupoid(raw), raw["inv"])
        else:
            report = refusal(validate_semigroupoid, raw)
        ok = ok and report is not None
        if report is not None:
            failure = report.first(expected_kind)
            ok = ok and failure is not None
            ok = ok and _witness_is_correct(raw, expected_kind, failure.witness)

    acceptance(1, ok, "5-structure corpus validates; 10 perturbations rejected "
                      "with correct witnesses")
    assert ok


@pytest.mark.parametrize("ring", [Z4, Q], ids=["Z4", "Q"])
def test_criterion_2_convolution_associativity(ring, acceptance):
    bundle = trivial_bundle(ring, built(pair_groupoid_raw()).base)
    rnd = random.Random(f"acceptance-2:{ring.describe()}")

    def sample():
        return Section(bundle, {
            arrow: {0: ring.sample(rnd)} for arrow in bundle.base.arrows()
        })

    ok = True
    for _ in range(200):
        a, b, c = sample(), sample(), sample()
        ok = ok and convolve(convolve(a, b), c) == convolve(a, convolve(b, c))
    acceptance(2, ok, f"200 seeded random section triples associate exactly "
                      f"over {ring.describe()}")
    assert ok


def test_criterion_3_graded_roundtrip(acceptance):
    z2 = built(cyclic2_raw()).base
    p2 = built(pair_groupoid_raw()).base
    ok = True
    for base in (z2, p2):
        algebra = semigroupoid_algebra(Q, base, identity_homomorphism(base))
        iso = graded_roundtrip_iso(algebra)
        cert = certify_linear_iso(iso, "round trip", graded=True)
        ok = ok and cert.passed
        for i in range(iso.source.rank):
            ok = ok and iso.inverse.apply_rows(iso.rows[i]) == {i: Q.one}
        for j in range(iso.target.rank):
            ok = ok and iso.apply_rows(iso.inverse.rows[j]) == {j: Q.one}
    acceptance(3, ok, "graded round trip is a certified graded isomorphism for "
                      "R[Z/2] and the matrix-unit algebra over the pair groupoid")
    assert ok


def _matrix_unit_bundle(ring):
    base = built(trivial_monoid_raw()).base
    arrow = base.arrow_names[0]
    units = {}
    for p in range(4):
        for q in range(4):
            i, j = divmod(p, 2)
            k, l = divmod(q, 2)
            vec = [0, 0, 0, 0]
            if j == k:
                vec[i * 2 + l] = 1
            units[(p, q)] = vec
    return validate_bundle(
        {"ranks": {arrow: 4}, "mode": "sc",
         "constants": {f"{arrow},{arrow}": [[units[(p, q)] for q in range(4)]
                                            for p in range(4)]}},
        ring, base,
    )


def test_criterion_4_tensor_theorem(acceptance):
    instances = [
        (trivial_bundle(Q, built(trivial_monoid_raw()).base), built(pair_groupoid_raw()).base),
        (trivial_bundle(Q, built(pair_groupoid_raw()).base), built(cyclic2_raw()).base),
        (_matrix_unit_bundle(Q), built(unit_groupoid_raw(("x", "y"))).base),
    ]
    ok = True
    for bundle, factor in instances:
        res = tensor_theorem(bundle, factor)
        ok = ok and res.certificate.passed
        ok = ok and res.product_algebra.rank == (
            res.section_algebra.rank * res.factor_algebra.rank
        )
        names = {c.name: c.ok for c in res.certificate.checks}
        ok = ok and names.get("multiplicative") and names.get("kernel-trivial") \
            and names.get("surjective")
    p2, z2 = built(pair_groupoid_raw()).base, built(cyclic2_raw()).base
    second = tensor_theorem(trivial_bundle(Q, p2), z2)
    ok = ok and (second.section_algebra.rank, second.factor_algebra.rank,
                 second.product_algebra.rank) == (4, 2, 8)
    acceptance(4, ok, "tensor comparison certified multiplicative and bijective "
                      "on all three instances with rank multiplicativity (4*2=8)")
    assert ok


def _crossed_instances():
    from sectional.actions import trivial_action

    theta0 = trivial_action(built(trivial_monoid_raw()), built(pair_groupoid_raw()).base)
    inst0 = validate_bundle_action(
        theta0, trivial_bundle(Q, built(pair_groupoid_raw()).base), None
    )

    actor = built(semilattice_raw())
    space = built(unit_groupoid_raw(("x", "y")))
    theta1 = validate_preaction(
        semilattice_on_points_action(), actor, space.base
    )
    inst1 = validate_bundle_action(theta1, trivial_bundle(Q, space.base), None)

    z2 = built(cyclic2_raw())
    point = built(trivial_monoid_raw()).base
    arrow = point.arrow_names[0]
    bundle = validate_bundle(
        {"ranks": {arrow: 2}, "mode": "sc",
         "constants": {f"{arrow},{arrow}": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}},
        Q, point,
    )
    theta2 = validate_preaction(
        {"u": {"dom": [arrow], "img": [arrow]},
         "g": {"dom": [arrow], "img": [arrow]}},
        z2, point,
    )
    inst2 = validate_bundle_action(
        theta2, bundle, {(0, 0): [[1, 0], [0, 1]], (1, 0): [[0, 1], [1, 0]]}
    )
    return [inst0, inst1, inst2]


def test_criterion_5_crossed_theorem(acceptance):
    ok = True
    for action in _crossed_instances():
        res = crossed_theorem(action)
        ok = ok and res.certificate.passed
        phi, psi = res.phi, res.psi
        for i in range(phi.source.rank):
            ok = ok and psi.apply_rows(phi.rows[i]) == {i: Q.one}
        for j in range(psi.source.rank):
            ok = ok and phi.apply_rows(psi.rows[j]) == {j: Q.one}
        names = {c.name: c.ok for c in res.certificate.checks}
        ok = ok and names.get("multiplicative")
        ok = ok and res.lscript_certificate.passed
    acceptance(5, ok, "crossed-product comparison: both composites are the "
                      "identity, Psi multiplicative, range-side map certified "
                      "on all three instances")
    assert ok


def test_criterion_6_smash_theorem(acceptance):
    z2 = built(cyclic2_raw()).base
    res = smash_theorem(trivial_bundle(Q, z2), identity_homomorphism(z2))
    ok = res.certificate.passed
    ok = ok and res.smash.rank == 4 and res.skew_algebra.rank == 4
    names = {c.name: c.ok for c in res.certificate.checks}
    ok = ok and names.get("degree-preserving")
    p2 = built(pair_groupoid_raw()).base
    ok = ok and is_isomorphism(SKEW_Z2_TO_PAIR, res.skew.semigroupoid, p2)
    acceptance(6, ok, "smash comparison certified graded on Z/2 with both ranks "
                      "4 and the skew product isomorphic to the pair groupoid")
    assert ok


def _quotient_corpus(ring):
    z2 = built(cyclic2_raw()).base
    out = []

    cong = validate_rigid_congruence([["u"], ["g"]], z2)
    out.append(validate_bundle_congruence(
        trivial_bundle(ring, z2), cong, None))

    actor = built(semilattice_raw())
    space = built(unit_groupoid_raw(("x", "y")))
    theta = validate_preaction(
        semilattice_on_points_action(), actor, space.base
    )
    sp = _semidirect_bundle(validate_bundle_action(
        theta, trivial_bundle(ring, space.base), None
    ))
    assert validate_bundle(sp, ring, sp.base) is sp
    cong = validate_rigid_congruence(
        [["(1,1x)", "(e,1x)"], ["(1,1y)"]], sp.base
    )
    out.append(validate_bundle_congruence(sp, cong, None))

    par = built(parallel_arrows_raw())
    cong = validate_rigid_congruence([["a", "b"]], par)
    out.append(validate_bundle_congruence(
        trivial_bundle(ring, par), cong, None))

    cong = validate_rigid_congruence([["u", "g"]], z2)
    out.append(validate_bundle_congruence(
        trivial_bundle(ring, z2), cong, {"g": [[-1]]}))
    return out


@pytest.mark.parametrize("ring", [Q, Z5], ids=["Q", "Z5"])
def test_criterion_7_quotient_theorem(ring, acceptance):
    ok = True
    for bc in _quotient_corpus(ring):
        res = quotient_map_and_kernel(bc)
        names = {c.name: c.ok for c in res.certificate.checks}
        ok = ok and names.get("surjective")
        ok = ok and names.get("kernel-equals-generator-span")
        ok = ok and res.certificate.passed
        ok = ok and quotient_elimination(res)[1:] == (True, True)
    acceptance(7, ok, f"quotient map surjective with kernel exactly the "
                      f"conjugate-section span over {ring.describe()}")
    assert ok


def test_criterion_8_germ_corollary(acceptance):
    actor = built(semilattice_raw())
    space = built(unit_groupoid_raw(("x", "y")))
    theta = validate_preaction(
        semilattice_on_points_action(), actor, space.base
    )
    res = germ_corollary(theta, Q)
    data = res.certificate.data
    ok = res.certificate.passed
    ok = ok and (data["crossed_rank"], data["ideal_rank"], data["quotient_rank"]) == (3, 1, 2)
    acceptance(8, ok, "germ pipeline gives ranks 3/1/2 with a certified "
                      "induced isomorphism")
    assert ok


def test_criterion_9_cli_determinism(acceptance):
    inputs = sorted(glob.glob(os.path.join(FIXTURES, "*.json")))
    assert inputs, "fixtures directory must not be empty"
    argv = [sys.executable, "-m", "sectional.cli", "verify", "all",
            "--input", *inputs, "--seed", "7", "--no-timestamp",
            "--format", "json"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    ok = first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout and first.stdout
    report = json.loads(first.stdout)
    ok = ok and report["ok"]
    acceptance(9, bool(ok), "verify all over the fixture corpus twice: exit 0 "
                            "and byte-identical JSON reports")
    assert ok
