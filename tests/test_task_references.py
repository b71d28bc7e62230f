"""Task parameters that name the wrong kind of structure, or structures over
different bases, are invalid input: exit 2 with one stderr line.

The workspace merges every fixture's structures under ids prefixed by the
fixture name. Each verify theorem and build op starts from a task that
names structures of the right kinds on one base; the cross-reference test
then points one parameter at a time at every declared id, from every
section, and holds `main()` to the exit codes 0, 1 and 2.
"""

import contextlib
import io
import json
import os

import pytest

from sectional.cli import main
from sectional.workspace import BUILD_OPS, SECTIONS, TASKS, THEOREMS

FIXTURES = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "fixtures"))

# The stanza keys that name another structure, and that structure's section.
STANZA_REFS = {
    "homomorphisms": {"source": "semigroupoids", "target": "semigroupoids"},
    "actions": {"actor": "semigroupoids", "space": "semigroupoids"},
    "bundles": {"base": "semigroupoids"},
    "bundle_actions": {"action": "actions", "bundle": "bundles"},
    "congruences": {"base": "semigroupoids"},
}

# One task per theorem and op whose structures have the right kinds and bases.
BASE_TASKS = {
    ("verify", "tensor"): {"bundle": "tensor.b", "factor": "tensor.Z2"},
    ("verify", "crossed"): {"action": "crossed.swap"},
    ("verify", "smash"): {"bundle": "smash.b", "grading": "smash.d"},
    ("verify", "quotient"): {"bundle": "quotient.bZ2", "congruence": "quotient.sign"},
    ("verify", "germ"): {"action": "germ.theta"},
    ("verify", "convolution"): {"bundle": "convolution.b", "triples": 5},
    ("build", "semidirect"): {"action": "germ.theta"},
    ("build", "germ"): {"action": "germ.theta"},
    ("build", "quotient"): {"congruence": "quotient.collapse"},
    ("build", "direct_product"): {"left": "tensor.Z2", "right": "tensor.P2"},
    ("build", "skew"): {"base": "smash.Z2", "grading": "smash.d"},
}


def merged_fixtures() -> dict:
    merged = {"ring": {"kind": "q"}, **{section: {} for section in SECTIONS}}
    for fname in sorted(os.listdir(FIXTURES)):
        prefix = fname[:-len(".json")] + "."
        with open(os.path.join(FIXTURES, fname), encoding="utf-8") as fh:
            doc = json.load(fh)
        for section in SECTIONS:
            for name, stanza in doc.get(section, {}).items():
                for key in STANZA_REFS.get(section, {}):
                    stanza[key] = prefix + stanza[key]
                merged[section][prefix + name] = stanza
    return merged


MERGED = merged_fixtures()


def run(tmp_path, kind, name, params):
    """main()'s exit code and stderr for one task over the merged structures."""
    task = {"kind": kind, "id": "t", "theorem" if kind == "verify" else "op": name, **params}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({**MERGED, "tasks": [task]}), encoding="utf-8")
    argv = (["verify", name, "--input", str(path)] if kind == "verify" else
            ["build", "t", "--input", str(path), "--out", str(tmp_path / "out.json")])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_base_tasks_cover_every_theorem_and_op():
    assert sorted(BASE_TASKS) == sorted(
        [("verify", t) for t in THEOREMS] + [("build", op) for op in BUILD_OPS])


@pytest.mark.parametrize("kind, name", sorted(BASE_TASKS))
def test_base_task_runs(tmp_path, kind, name):
    code, err = run(tmp_path, kind, name, BASE_TASKS[kind, name])
    assert (code, err) == (0, "")


@pytest.mark.parametrize("kind, name", sorted(BASE_TASKS))
def test_every_parameter_at_every_id(tmp_path, kind, name):
    codes = set()
    for param, sections in TASKS[kind][name].refs.items():
        for section in SECTIONS:
            for ref in MERGED[section]:
                code, err = run(tmp_path, kind, name, {**BASE_TASKS[kind, name], param: ref})
                assert code in (0, 1, 2), (param, ref)
                if code == 2:
                    assert err.count("\n") == 1 and err.endswith("\n"), (param, ref, err)
                else:
                    assert section in sections, (param, ref, code)
                codes.add(code)
    assert 2 in codes


@pytest.mark.parametrize("kind, name, params, message", [
    ("verify", "germ", {"action": "crossed.swap"},
     "'action' must name an id from actions, not 'crossed.swap' from bundle_actions"),
    ("verify", "smash", {"bundle": "convolution.b", "grading": "smash.d"},
     "'bundle' and 'grading' must lie over one base semigroupoid, "
     "not 'convolution.P2' and 'smash.Z2'"),
    ("build", "skew", {"base": "tensor.P2", "grading": "smash.d"},
     "'base' and 'grading' must lie over one base semigroupoid, not 'tensor.P2' and 'smash.Z2'"),
    ("verify", "quotient", {"bundle": "quotient.bZ2", "congruence": "quotient.collapse"},
     "'bundle' and 'congruence' must lie over one base semigroupoid, "
     "not 'quotient.Z2' and 'quotient.parallel'"),
    ("verify", "quotient", {"bundle": "quotient.bpar", "congruence": "quotient.sign"},
     "not 'quotient.parallel' and 'quotient.Z2'"),
])
def test_mismatched_reference_exits_two_with_one_line(tmp_path, kind, name, params, message):
    code, err = run(tmp_path, kind, name, params)
    assert code == 2
    assert err.count("\n") == 1
    assert f"task 0 ({kind}): " in err and message in err


def test_missing_id_keeps_its_text(tmp_path):
    code, err = run(tmp_path, "verify", "germ", {"action": "nowhere"})
    assert code == 2
    assert err.endswith("task 0 (verify) references missing id 'nowhere'\n")


class TestValidateTask:
    """A validate task checks every structure declared under its target id."""

    def _workspace(self, tmp_path, tasks):
        doc = {
            "semigroupoids": {"A": {
                "vertices": ["v"], "arrows": [{"id": "a", "src": "v", "rng": "v"}],
                "prod": [["a", "a", "a"]]}},
            "bundles": {"A": {"base": "A", "ranks": {"a": 1},
                              "constants": {"a,a": [[["1/0"]]]}}},
            "tasks": tasks,
        }
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_an_id_declared_twice_validates_both(self, tmp_path, capsys):
        path = self._workspace(tmp_path, [{"kind": "validate", "target": "A"}])
        assert main(["verify", "all", "--input", path, "--format", "json",
                     "--no-timestamp"]) == 1
        task = json.loads(capsys.readouterr().out)["workspaces"][0]["tasks"][0]
        assert task["summary"] == "validate A"
        assert task["status"] == "fail"
        assert "structural" in task["message"]

    def test_validate_command_lists_both(self, tmp_path, capsys):
        path = self._workspace(tmp_path, [])
        assert main(["validate", path, "--format", "json"]) == 1
        tasks = json.loads(capsys.readouterr().out)["workspaces"][0]["tasks"]
        assert [(t["summary"], t["status"]) for t in tasks] == [
            ("validate semigroupoid A", "pass"), ("validate bundle A", "fail")]
