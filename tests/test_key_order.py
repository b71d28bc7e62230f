"""Reports do not depend on the key order of JSON objects.

JSON objects are unordered, so a workspace whose objects list their members
in reverse must give the same report, byte for byte. Every fixture and
`tests/data/rational_twist.json` is checked with

    sectional verify all --input FILE --seed 7 --no-timestamp --format json

under the file's own ring, `--ring q` and `--ring zmod6`, forward and with the
members of every object reversed (arrays keep their order). The stanzas below
each carry two faults in one object; the validator must name the same one
either way: an id that names no arrow before any known id, the smallest such
id first, and known ids in arrow order (pairs by (a, b), fiber maps by
(actor arrow, base arrow)). A file refused with exit 2 for several dangling
ids lists them in one order either way, and a task over a base that is
itself a dangling id (a missing name, or a value that is no name at all)
adds nothing to that list.
"""

import json
import os
import re

import pytest

from sectional.cli import main
from sectional.rings import validate_ring
from sectional.validation import StructureError
from sectional.workspace import Builder, parse_workspace, workspace_ring

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.abspath(os.path.join(HERE, os.pardir, "fixtures"))
FILES = sorted(os.path.join(FIXTURES, name) for name in os.listdir(FIXTURES)
               if name.endswith(".json")) + [os.path.join(HERE, "data", "rational_twist.json")]
ZMOD6 = {"kind": "zmod", "n": 6}


def reversed_keys(value):
    """value with the members of every object in reverse order."""
    if isinstance(value, dict):
        return {k: reversed_keys(v) for k, v in reversed(list(value.items()))}
    if isinstance(value, list):
        return [reversed_keys(v) for v in value]
    return value


def _verify(path, ring, capsys):
    argv = ["verify", "all", "--input", str(path), "--seed", "7", "--no-timestamp",
            "--format", "json"]
    code = main(argv + (["--ring", ring] if ring else []))
    out = capsys.readouterr().out
    return code, re.sub(r'"path": "[^"]*"', '"path": "<file>"', out)


@pytest.mark.parametrize("path", FILES, ids=[os.path.basename(p)[:-5] for p in FILES])
@pytest.mark.parametrize("ring", [None, "q", "zmod6"])
def test_verify_report_ignores_key_order(path, ring, tmp_path, capsys):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    flipped = tmp_path / os.path.basename(path)
    flipped.write_text(json.dumps(reversed_keys(doc)), encoding="utf-8")
    assert _verify(flipped, ring, capsys) == _verify(path, ring, capsys)


def _fixture(name):
    with open(os.path.join(FIXTURES, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _two_faults(stanza):
    """(workspace, ring literal or None, structure to build, expected witness)."""
    if stanza == "transports":
        doc = _fixture("quotient")
        doc["congruences"]["collapse"]["transports"] = {"b": [["1/3"]], "a": [["1/2"]]}
        return doc, ZMOD6, lambda b: b.bundle_congruence("collapse", "bpar"), ("a",)
    if stanza == "map":
        doc = _fixture("smash")
        doc["homomorphisms"]["d"]["map"].update({"zz": "u", "yy": "u"})
        return doc, None, lambda b: b.homomorphism("d"), ("yy", "u")
    if stanza == "ranks":
        doc = _fixture("quotient")
        doc["bundles"]["bZ2"]["ranks"] = {"zz": 1, "yy": 1}
        return doc, None, lambda b: b.bundle("bZ2"), ("yy",)
    if stanza == "maps":
        doc = _fixture("crossed")
        doc["actions"]["theta"]["maps"].update({"zz": {}, "yy": {}})
        return doc, None, lambda b: b.action("theta"), ("yy",)
    if stanza == "inv":
        doc = _fixture("quotient")
        doc["semigroupoids"]["Z2"]["inv"].update({"zz": "u", "yy": "u"})
        return doc, None, lambda b: b.inverse("Z2"), ("yy", "u")
    if stanza == "fibers":
        doc = _fixture("crossed")
        doc["bundle_actions"]["swap"]["fibers"] = {
            "g": {"m": [[0, "1/3"], ["1/3", 0]]}, "u": {"m": [["1/2", 0], [0, "1/2"]]}}
        return doc, ZMOD6, lambda b: b.bundle_action("swap"), ("u", "m")
    raise ValueError(stanza)


def _refusal(doc, ring, build):
    ws = parse_workspace(json.dumps(doc))
    with pytest.raises(StructureError) as refused:
        build(Builder(ws, workspace_ring(ws, ring and validate_ring(ring))))
    return refused.value.report


@pytest.mark.parametrize("stanza", ["transports", "map", "ranks", "maps", "inv", "fibers"])
def test_two_faults_name_one_witness_in_either_key_order(stanza):
    doc, ring, build, witness = _two_faults(stanza)
    report = _refusal(doc, ring, build)
    assert report.first().witness == witness
    flipped = _refusal(reversed_keys(doc), ring, build)
    assert flipped.failures == report.failures


@pytest.mark.parametrize("bases", [("nope1", "nope2"), ([1], {"id": "nope2"})])
def test_dangling_ids_are_listed_in_either_key_order(bases, tmp_path, capsys):
    doc = _fixture("quotient")
    doc["bundles"]["bZ2"]["base"], doc["bundles"]["bpar"]["base"] = bases
    path = tmp_path / "quotient.json"
    refusals = []
    for variant in (doc, reversed_keys(doc)):
        path.write_text(json.dumps(variant), encoding="utf-8")
        refusals.append((main(["validate", str(path)]), capsys.readouterr().err))
    assert refusals[0] == refusals[1] == (2, f"{path}: bundle 'bZ2' references missing id "
                                             f"{bases[0]!r}; bundle 'bpar' references missing id "
                                             f"{bases[1]!r}\n")
