"""Fixture reports against checked-in golden copies, byte for byte.

For every `fixtures/NAME.json`, `tests/data/golden/NAME.verify.json` holds the
output of

    sectional verify all --input fixtures/NAME.json --seed 7 --no-timestamp --format json

For each ring override R in `RINGS`, `tests/data/golden/NAME.verify.R.json`
holds the same `verify all` run with `--ring R` appended; these pin the
prime-field and composite Z/n linear algebra (kernels, images, span tests).
`tests/data/golden/NAME.validate.json` holds the output of

    sectional validate fixtures/NAME.json --format json

both run from the repository root. Only the workspace `path` field is
normalised, since it echoes the path given on the command line.

No fixture has a build task, so `tests/data/builds.json` holds one build task
per constructor (semidirect, germ, quotient, direct_product, skew), each over
a small multi-vertex workspace, and `tests/data/golden_build/ID.json` holds the
file written by

    sectional build ID --input tests/data/builds.json --out tests/data/golden_build/ID.json

The fixtures with a convolution task run over their own rings (Z/4 and a
table ring), so `tests/data/golden/NAME.verify.q.json` for each NAME in
`Q_NAMES` holds the `--ring q` run as well, which pins the sampled check over
Q, where the random sections have non-integral values.

`tests/data/golden/rational_twist.verify.json` holds the output of

    sectional verify all --input tests/data/rational_twist.json --format json --no-timestamp

(exit 1: two of its tasks must fail), the one report whose bundles have
non-integral rational constants.

The fixtures' algebras have rank at most 18, where the Howell merges, keyed
joins and support indexes barely branch. `tests/data/scaled/` freezes larger
inputs, written once by the `bench/workloads.py` generators with
`random.Random(3)` so that later changes to the generators cannot move them:
germ C_16 (`nested_chain_action` and `_germ_doc`), and the `certify_pair`
instances tensor P_6 with r = 2, smash P_6 with r = 1 and crossed P_4 with
r = 2 (whose draw flips the fibers), and the `quotient_zmod` congruences
Q(30, 30, 8) over Z/30 (three classes of 10) and Q(12, 12, 4) over Z/12 (two
classes of 6), each `_parallel_congruence` with its own `random.Random(3)`.
`tests/data/scaled/golden/NAME.verify.json` and `NAME.verify.zmod6.json` hold

    sectional verify all --input tests/data/scaled/NAME.json --seed 7 --no-timestamp --format json

without and with `--ring zmod6`. The germ and certify-pair goldens were
recorded before the certificates stopped running elimination on a passing
map, the quotient ones before the induced action stopped re-proving its axioms.
Germ C_16 also has `germ-c16.verify.zmod12.json` and `.zmod30.json`, with
`--ring zmod12` and `--ring zmod30`: over a composite ring its report counts
the ideal's generators that join two classes, `ideal_generators`, where a
field reports the rank. They were recorded while every pair s < t was still
a generator and the span was taken by elimination.

Two crossed must-fail files (exit 1) are frozen beside them, each over Q with
goldens under its own ring, `--ring zmod5` and `--ring zmod6`:
`crossed-fail-p3r2.json`, the `certify_pair` must-fail file of
`random.Random(3)` (an involutive fiber map that is not an automorphism,
refused as `intertwining` by the bundle action), and
`crossed-fail-semilattice.json`, Z/2 on the semilattice p < q whose bundle
action passes but whose semidirect bundle is not associative. Its goldens
were regenerated when the crossed path stopped walking that bundle: the
refusal moved from the bundle's `associativity` to the induced action's
`not-associative`.

`tests/data/scaled/ci/` holds the inputs the CI console-script step reads
instead of generating them from `bench/workloads.py`, frozen byte for byte as
those generators wrote them: the parity-graded skew P_8 and P_8 x C_12 build
files (`random.Random(3)`) and the convolution P_5 with r = 2
(`random.Random(5)`). CI checks the two build outputs; the convolution file
has goldens, `tests/data/scaled/golden/convolution-p5r2.verify.q.json` and
`.verify.zmod6.json`, holding

    sectional verify all --input tests/data/scaled/ci/convolution-p5r2.json --ring R --seed 7 --no-timestamp --format json

for R = q (its own ring) and zmod6. They were recorded while the check still
convolved every sampled triple, so they pin that deciding on the basis
writes the same report.

Built structures too large to check in are pinned by the SHA-256 of the file
`sectional build` writes instead (`BUILD_PINS`): `build germ` on
`tests/structures.nested_chain_action(n)` for n = 32, 64 and 128, and
`build semidirect` for n = 16 and 32, each from a workspace holding the chain
action as its only action. They were recorded while the germ groupoid was
still read off the whole semidirect product, so they pin that its keyed build
writes the same bytes.

A refactor that must not change any report keeps these passing; a change that
means to alter a report regenerates the golden copy with the commands above.
"""

import hashlib
import json
import os
import re

import pytest

from sectional.cli import main
from structures import nested_chain_action

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "golden")
GOLDEN_BUILD = os.path.join(HERE, "data", "golden_build")
BUILDS = os.path.join(HERE, "data", "builds.json")
FIXTURES = os.path.abspath(os.path.join(HERE, os.pardir, "fixtures"))
NAMES = sorted(name[:-len(".json")] for name in os.listdir(FIXTURES)
               if name.endswith(".json"))
RINGS = ("zmod5", "zmod6")
Q_NAMES = ("convolution", "tablering")
RATIONAL_TWIST = os.path.join(HERE, "data", "rational_twist.json")
SCALED = os.path.join(HERE, "data", "scaled")
SCALED_NAMES = ("crossed-p4r2", "germ-c16", "quotient-z12m12k4", "quotient-z30m30k8",
                "smash-p6r1", "tensor-p6r2")
GERM_COMPOSITE_RINGS = ("zmod12", "zmod30")
MUST_FAIL_NAMES = ("crossed-fail-p3r2", "crossed-fail-semilattice")
MUST_FAIL_RINGS = ("zmod5", "zmod6")
CI_NAMES = ("convolution-p5r2",)
CI_RINGS = ("q", "zmod6")
BUILD_PINS = {
    ("germ", 32): "1db4611a84af96572cae7cabe302323e0e708096f63694090cb8d78c8d366884",
    ("germ", 64): "d300267abd6a19ffa6ddd940eace1af5b26775e228a3ff8973b02707f51a0a31",
    ("germ", 128): "6901b72f180911b300a381eb3690b9374c3b86af6e1c95f4c2586c1850039e26",
    ("semidirect", 16): "c1f2d387768edac5d8e7e841e36b0d1dc6c63e77c5e24c76b9d512723e11d502",
    ("semidirect", 32): "eb8f5750a8b2e426c7122c95a9c49ec4597e1c158e4886179ec2dacdd880d0ba",
}


def _normalised(text):
    return re.sub(r'"path": "[^"]*"', '"path": "<fixture>"', text)


def _golden(name, command):
    with open(os.path.join(GOLDEN, f"{name}.{command}.json"), encoding="utf-8") as fh:
        return fh.read()


def test_every_fixture_has_golden_reports():
    commands = ["verify", "validate"] + [f"verify.{ring}" for ring in RINGS]
    assert sorted(os.listdir(GOLDEN)) == sorted(
        [f"{name}.{command}.json" for name in NAMES for command in commands]
        + [f"{name}.verify.q.json" for name in Q_NAMES]
        + ["rational_twist.verify.json"]
    )


@pytest.mark.parametrize("name, ring", [
    pytest.param(name, ring, id=name if ring is None else f"{name}-{ring}")
    for name in NAMES for ring in (None,) + RINGS
] + [pytest.param(name, "q", id=f"{name}-q") for name in Q_NAMES])
def test_verify_report_matches_golden(name, ring, capsys):
    path = os.path.join(FIXTURES, f"{name}.json")
    argv = ["verify", "all", "--input", path, "--seed", "7",
            "--no-timestamp", "--format", "json"]
    code = main(argv + (["--ring", ring] if ring else []))
    out = capsys.readouterr().out
    assert code == 0
    golden = _golden(name, "verify" if ring is None else f"verify.{ring}")
    assert _normalised(out) == _normalised(golden)


@pytest.mark.parametrize("name", NAMES)
def test_validate_report_matches_golden(name, capsys):
    code = main(["validate", os.path.join(FIXTURES, f"{name}.json"), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert _normalised(out) == _normalised(_golden(name, "validate"))


def test_rational_twist_report_matches_golden(capsys):
    code = main(["verify", "all", "--input", RATIONAL_TWIST, "--format", "json",
                 "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 1
    assert _normalised(out) == _normalised(_golden("rational_twist", "verify"))


def test_every_scaled_input_has_golden_reports():
    assert sorted(name for name in os.listdir(SCALED) if name.endswith(".json")) == sorted(
        f"{name}.json" for name in SCALED_NAMES + MUST_FAIL_NAMES)
    assert sorted(os.listdir(os.path.join(SCALED, "golden"))) == sorted(
        [f"{name}.verify{suffix}.json" for name in SCALED_NAMES for suffix in ("", ".zmod6")]
        + [f"germ-c16.verify.{ring}.json" for ring in GERM_COMPOSITE_RINGS]
        + [f"{name}.verify{suffix}.json" for name in MUST_FAIL_NAMES
           for suffix in ("",) + tuple(f".{ring}" for ring in MUST_FAIL_RINGS)]
        + [f"{name}.verify.{ring}.json" for name in CI_NAMES for ring in CI_RINGS])


@pytest.mark.parametrize("name, ring", [
    pytest.param(name, ring, id=name if ring is None else f"{name}-{ring}")
    for name in SCALED_NAMES for ring in (None, "zmod6")
] + [
    pytest.param("germ-c16", ring, id=f"germ-c16-{ring}") for ring in GERM_COMPOSITE_RINGS
] + [
    pytest.param(name, ring, id=name if ring is None else f"{name}-{ring}")
    for name in MUST_FAIL_NAMES for ring in (None,) + MUST_FAIL_RINGS
])
def test_scaled_report_matches_golden(name, ring, capsys):
    argv = ["verify", "all", "--input", os.path.join(SCALED, f"{name}.json"), "--seed", "7",
            "--no-timestamp", "--format", "json"]
    code = main(argv + (["--ring", ring] if ring else []))
    out = capsys.readouterr().out
    assert code == (1 if name in MUST_FAIL_NAMES else 0)
    suffix = "" if ring is None else f".{ring}"
    with open(os.path.join(SCALED, "golden", f"{name}.verify{suffix}.json"),
              encoding="utf-8") as fh:
        assert _normalised(out) == _normalised(fh.read())


@pytest.mark.parametrize("name, ring", [
    pytest.param(name, ring, id=f"{name}-{ring}") for name in CI_NAMES for ring in CI_RINGS
])
def test_ci_report_matches_golden(name, ring, capsys):
    code = main(["verify", "all", "--input", os.path.join(SCALED, "ci", f"{name}.json"),
                 "--ring", ring, "--seed", "7", "--no-timestamp", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    with open(os.path.join(SCALED, "golden", f"{name}.verify.{ring}.json"),
              encoding="utf-8") as fh:
        assert _normalised(out) == _normalised(fh.read())


def _build_ids():
    with open(BUILDS, encoding="utf-8") as fh:
        return [task["id"] for task in json.load(fh)["tasks"]]


def test_every_build_task_has_a_golden_output():
    assert sorted(os.listdir(GOLDEN_BUILD)) == sorted(f"{tid}.json" for tid in _build_ids())


@pytest.mark.parametrize("task_id", _build_ids())
def test_build_output_matches_golden(task_id, tmp_path, capsys):
    out = tmp_path / f"{task_id}.json"
    code = main(["build", task_id, "--input", BUILDS, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    with open(os.path.join(GOLDEN_BUILD, f"{task_id}.json"), encoding="utf-8") as fh:
        assert out.read_text(encoding="utf-8") == fh.read()


@pytest.mark.parametrize("op, n", sorted(BUILD_PINS), ids=str)
def test_chain_build_matches_its_pin(op, n, tmp_path, capsys):
    actor, space, maps = nested_chain_action(n)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "semigroupoids": {"C": actor, "X": space},
        "actions": {"chain": {"actor": "C", "space": "X", "maps": maps}},
        "tasks": [{"kind": "build", "id": "out", "op": op, "action": "chain"}],
    }), encoding="utf-8")
    out = tmp_path / "out.json"
    code = main(["build", "out", "--input", str(path), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILD_PINS[op, n]
