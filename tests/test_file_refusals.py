"""Refusals a structure file can reach and no other test reaches, through the CLI.

Every case is one small workspace with one defect. `sectional validate` (or
`build`, for a skew product) must exit 1 with a first failed task whose
message names the failure kind and the refusal, or, for a defect in the ring
literal or in the file's shape, exit 2 with one stderr line that does. The
tables of the F2 ring are written with element names, the other spelling a
table ring accepts. The preaction cases also pin the refusals that otherwise
only Hypothesis-generated examples reach, so that the lines tools/linecov.py
sees run do not depend on what a Hypothesis version generates; so do the
semigroupoid, inverse and homomorphism cases that name an arrow the table
does not hold or leave one out.
"""

import json

import pytest

from sectional.cli import main

from structures import (cyclic2_raw, cyclic_raw, pair_groupoid_raw, semilattice_raw,
                        unit_groupoid_raw)

LOOP = {"vertices": ["v"], "arrows": [{"id": "a", "src": "v", "rng": "v"}],
        "prod": [["a", "a", "a"]], "inv": {"a": "a"}}
F2 = {"kind": "table", "elements": ["0", "1"], "add": [["0", "1"], ["1", "0"]],
      "mul": [["0", "0"], ["0", "1"]], "zero": "0", "one": "1"}


def _z3_table(mul):
    """Z/3's addition with the given multiplication: the smallest tables whose
    first failure is each multiplicative axiom."""
    return {"kind": "table", "elements": ["0", "1", "2"],
            "add": [[(a + b) % 3 for b in range(3)] for a in range(3)],
            "mul": mul, "zero": 0, "one": 1}


def _bundle(stanza, ring=None, base=LOOP):
    doc = {"semigroupoids": {"A": base}, "bundles": {"b": {"base": "A", **stanza}}}
    return doc if ring is None else {"ring": ring, **doc}


def _action(actor, space, maps):
    return {"semigroupoids": {"S": actor, "X": space},
            "actions": {"t": {"actor": "S", "space": "X", "maps": maps}}}


def _z2_on_points(maps, points=("x", "y")):
    return _action(cyclic2_raw(), unit_groupoid_raw(points), maps)


def _fixing(arrows):
    return {"dom": arrows, "img": arrows}


P2 = pair_groupoid_raw()
P2_ARROWS = [a["id"] for a in P2["arrows"]]
# P_2 and one more point z, its own component
P2_Z = {**P2, "vertices": P2["vertices"] + ["z"],
        "arrows": P2["arrows"] + [{"id": "1z", "src": "z", "rng": "z"}],
        "prod": P2["prod"] + [["1z", "1z", "1z"]], "inv": {**P2["inv"], "1z": "1z"}}


def _swap_on_points(bundle, fibers=None):
    """Z/2 swapping the two points of X, acting on the bundle over X."""
    doc = _z2_on_points({"u": {"dom": ["1x", "1y"], "img": ["1x", "1y"]},
                         "g": {"dom": ["1x", "1y"], "img": ["1y", "1x"]}})
    doc["bundles"] = {"b": {"base": "X", **bundle}}
    doc["bundle_actions"] = {"ba": {"action": "t", "bundle": "b",
                                    **({} if fibers is None else {"fibers": fibers})}}
    return doc


def _skew_onto(target):
    """A skew product graded by the identity of a semigroupoid that is not a groupoid."""
    return {"semigroupoids": {"S": target},
            "homomorphisms": {"d": {"source": "S", "target": "S",
                                    "map": {a["id"]: a["id"] for a in target["arrows"]}}},
            "tasks": [{"kind": "build", "id": "k", "op": "skew", "base": "S", "grading": "d"}]}


BAND = {"vertices": ["v"], "arrows": [{"id": "1", "src": "v", "rng": "v"},
                                      {"id": "e", "src": "v", "rng": "v"}],
        "prod": [["1", "1", "1"], ["1", "e", "e"], ["e", "1", "e"], ["e", "e", "e"]]}
RANK2 = {"ranks": {"1y": 2}, "constants": {"1y,1y": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}}

# case: (workspace, exit code, failure kind, words of the refusal)
CASES = {
    "duplicate-vertex": ({"semigroupoids": {"A": {**LOOP, "vertices": ["v", "v"]}}},
                         1, "structural", "duplicate vertex ids"),
    "duplicate-arrow": ({"semigroupoids": {"A": {**LOOP, "arrows": LOOP["arrows"] * 2}}},
                        1, "structural", "duplicate arrow id 'a'"),
    "prod-entry-shape": ({"semigroupoids": {"A": {**LOOP, "prod": [["a", "a"]]}}},
                         1, "structural", "prod entries must be [a, b, ab]"),
    "prod-unknown-arrow": ({"semigroupoids": {"A": {**LOOP, "prod": [["a", "a", "b"]]}}},
                           1, "structural", "prod entry references an unknown arrow"),
    "inverse-missing": ({"semigroupoids": {"A": {**BAND, "inv": {"1": "1"}}}},
                        1, "structural", "no inverse declared for 'e'"),
    "homomorphism-cover": (
        {"semigroupoids": {"Z2": cyclic2_raw()},
         "homomorphisms": {"d": {"source": "Z2", "target": "Z2", "map": {"u": "u"}}}},
        1, "structural", "map does not cover arrow 'g'"),
    "conflicting-product": (
        {"semigroupoids": {"A": {**BAND, "prod": BAND["prod"] + [["e", "e", "1"]]}}},
        1, "structural", "conflicting products declared for (e,e)"),
    "duplicate-domain-entry": (_z2_on_points({"u": {"dom": ["1x", "1x"], "img": ["1x", "1y"]}}),
                               1, "structural", "duplicate domain entry '1x'"),
    "non-injective-theta": (_z2_on_points({"u": {"dom": ["1x", "1y"], "img": ["1x", "1x"]}}),
                            1, "structural", "theta_u is not injective"),
    "theta-not-inverted": (
        _z2_on_points({"u": {"dom": ["1x", "1y", "1z"], "img": ["1x", "1y", "1z"]},
                       "g": {"dom": ["1x", "1y", "1z"], "img": ["1y", "1z", "1x"]}},
                      ("x", "y", "z")),
        1, "inverse-compatibility", "theta_g does not invert theta_g at 1x"),
    "img-not-parallel": (_z2_on_points({"u": {"dom": ["1x"], "img": []}}),
                         1, "structural", "img must be parallel to dom"),
    "unknown-space-arrow": (_z2_on_points({"u": _fixing(["1q"])}),
                            1, "structural", "dom/img reference unknown space arrows"),
    # {(1,1)} is no ideal of P_2: (1,1)(1,2) = (1,2) lies outside it
    "domain-not-ideal": (_action(semilattice_raw(), P2,
                                 {"1": _fixing(P2_ARROWS), "e": _fixing(["(1,1)"])}),
                         1, "ideal-property", "dom(theta_e) is not an ideal of I(theta,src)"),
    "range-not-ideal": (_action(cyclic_raw(3), P2_Z,
                                {"a0": _fixing(P2_ARROWS + ["1z"]),
                                 "a1": {"dom": ["1z"], "img": ["(1,1)"]},
                                 "a2": {"dom": ["(1,1)"], "img": ["1z"]}}),
                        1, "ideal-property", "ran(theta_a1) is not an ideal of I(theta,rng)"),
    # (1,1)(1,1) is defined, (1,2)(1,2) is not
    "composability-not-preserved": (
        _action(cyclic2_raw(), P2, {"u": _fixing(P2_ARROWS), "g": {
            "dom": ["(1,1)", "(1,2)", "(2,1)", "(2,2)"],
            "img": ["(1,2)", "(1,1)", "(2,1)", "(2,2)"]}}),
        1, "isomorphism", "theta_g does not preserve composability"),
    "product-not-preserved": (
        _action(cyclic2_raw(), cyclic2_raw(), {"u": _fixing(["u", "g"]),
                                               "g": {"dom": ["u", "g"], "img": ["g", "u"]}}),
        1, "isomorphism", "theta_g(xy) != theta_g(x)theta_g(y)"),
    # theta_g theta_g is the identity on both points, theta_u only on x
    "extension-domain": (_z2_on_points({"u": _fixing(["1x"]),
                                        "g": {"dom": ["1x", "1y"], "img": ["1y", "1x"]}}),
                         1, "extension-law", "theta_u does not extend theta_gtheta_g"),
    "congruence-member-twice": (
        {"semigroupoids": {"Z2": cyclic2_raw()},
         "congruences": {"c": {"base": "Z2", "classes": [["u", "g", "u"]]}}},
        1, "structural", "arrow 'u' appears twice"),
    "unknown-bundle-mode": (_bundle({"mode": "xx"}), 1, "structural", "unknown bundle mode 'xx'"),
    "ringfiber-rank": (_bundle({"mode": "ringfiber", "ranks": {"a": 2}}),
                       1, "structural", "ringfiber mode needs every rank equal to 1"),
    "twist-key": (_bundle({"mode": "ringfiber", "twist": {"a,b": 1}}),
                  1, "structural", "twist key 'a,b' is not a composable arrow pair"),
    "constants-key": (_bundle({"constants": {"a,b": [[[1]]]}}),
                      1, "structural", "constants key 'a,b' is not a composable arrow pair"),
    "constants-missing": (_bundle({"ranks": {"a": 2}}), 1, "rank-mismatch",
                          "constants missing for a composable pair with ranks above 1"),
    "integer-literal": (_bundle({"constants": {"a,a": [[["1/2"]]]}}, {"kind": "z"}),
                        1, "structural", "not an integer literal: '1/2'"),
    "table-element-bool": (_bundle({"constants": {"a,a": [[[True]]]}}, F2),
                           1, "structural", "not a table element: True"),
    "table-index": (_bundle({"constants": {"a,a": [[[2]]]}}, F2),
                    1, "structural", "table index out of range: 2"),
    "table-element-name": (_bundle({"constants": {"a,a": [[["x"]]]}}, F2),
                           1, "structural", "unknown table element: 'x'"),
    "fiber-ranks": (_swap_on_points(RANK2), 1, "structural",
                    "fiber ranks must match along the action"),
    "fiber-map-shape": (_swap_on_points({}, {"g": {"1x": [[1, 0]]}}), 1, "structural",
                        "matrix for (g,1x) has the wrong shape"),
    "skew-grading": (_skew_onto(BAND), 1, "grading-not-groupoid",
                     "arrow e has no two-sided inverse"),
    "duplicate-element": (_bundle({}, {**F2, "elements": ["0", "0"]}),
                          2, "structural", "duplicate element names"),
    "add-inverse": (_bundle({}, {**F2, "add": [["0", "1"], ["1", "1"]]}),
                    2, "add-inverse", "1 has no additive inverse"),
    "mul-associativity": (_bundle({}, _z3_table([[0, 0, 1], [0, 1, 2], [0, 2, 0]])),
                          2, "mul-associativity", "(ab)c != a(bc)"),
    "left-distributivity": (_bundle({}, _z3_table([[1, 0, 0], [0, 1, 2], [0, 2, 0]])),
                            2, "left-distributivity", "a(b+c) != ab+ac"),
    "right-distributivity": (_bundle({}, _z3_table([[0, 0, 0], [0, 1, 2], [0, 2, 0]])),
                             2, "right-distributivity", "(a+b)c != ac+bc"),
    "top-level-list": ([], 2, None, "top level must be an object"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_file_refusal(name, tmp_path, capsys):
    doc, code, kind, words = CASES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if "tasks" in doc:
        argv = ["build", "k", "--input", str(path), "--out", str(tmp_path / "out.json")]
    else:
        argv = ["validate", str(path), "--format", "json"]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        (message,) = captured.err.splitlines()
    elif "tasks" in doc:
        message = captured.err
    else:
        tasks = [t for w in json.loads(captured.out)["workspaces"] for t in w["tasks"]]
        message = next(t["message"] for t in tasks if t["status"] == "fail")
    assert words in message and (kind is None or f": {kind} at " in message)
