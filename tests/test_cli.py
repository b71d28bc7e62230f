"""Workspace parsing, task execution, CLI behavior, and report determinism."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectional import cli
from sectional.cli import _json, _stanza, main, parse_ring_override
from sectional.semigroupoids import semigroupoid_to_raw, validate_semigroupoid
from sectional.validation import InternalConsistencyError, StructureError
from sectional.rings import RationalRing
from sectional.workspace import (
    Builder,
    WorkspaceError,
    execute_task,
    parse_workspace,
    run_guarded,
    run_workspace,
)

from structures import built, pair_groupoid_raw

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
FIXTURES = os.path.abspath(os.path.join(HERE, os.pardir, "fixtures"))


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_workspace(fh.read(), path=path)


class TestParseWorkspace:
    def test_minimal_file_parses(self):
        ws = load(os.path.join(DATA, "minimal.json"))
        assert list(ws.semigroupoids) == ["pt"]
        assert ws.tasks == []

    def test_germ_fixture_shape(self):
        ws = load(os.path.join(FIXTURES, "germ.json"))
        assert ws.ring_spec == {"kind": "q"}
        assert len(ws.semigroupoids) == 2
        assert len(ws.actions) == 1
        assert len(ws.tasks) == 1
        assert ws.tasks[0].theorem == "germ"

    def test_dangling_reference_names_the_missing_id(self):
        with pytest.raises(WorkspaceError) as err:
            load(os.path.join(DATA, "dangling.json"))
        assert "missing" in str(err.value)

    def test_parse_error_carries_position(self):
        with pytest.raises(WorkspaceError) as err:
            parse_workspace("{\n  \"ring\": }", path="bad.json")
        assert "line 2" in str(err.value)

    def test_unknown_task_kind_rejected(self):
        text = json.dumps({"tasks": [{"kind": "frobnicate"}]})
        with pytest.raises(WorkspaceError):
            parse_workspace(text)

    def test_unknown_theorem_rejected(self):
        text = json.dumps({"tasks": [{"kind": "verify", "theorem": "nope"}]})
        with pytest.raises(WorkspaceError):
            parse_workspace(text)


class TestRunWorkspace:
    def test_germ_fixture_passes_with_expected_ranks(self):
        ws = load(os.path.join(FIXTURES, "germ.json"))
        report = run_workspace(ws, timing=False)
        assert report["ok"]
        task = report["tasks"][0]
        assert task["status"] == "pass"
        assert (task["data"]["crossed_rank"], task["data"]["ideal_rank"],
                task["data"]["quotient_rank"]) == (3, 1, 2)

    def test_broken_associativity_fails_with_witness_triple(self):
        ws = load(os.path.join(DATA, "broken_assoc.json"))
        report = run_workspace(ws, timing=False)
        assert not report["ok"]
        task = report["tasks"][0]
        assert task["status"] == "fail"
        assert len(task["witness"]) == 3

    def test_selector_filters_verify_tasks(self):
        ws = load(os.path.join(FIXTURES, "tensor.json"))
        report = run_workspace(ws, selector="tensor", timing=False)
        assert report["matched_tasks"] == 1
        report = run_workspace(ws, selector="germ", timing=False)
        assert report["matched_tasks"] == 0

    def test_ring_override(self):
        ws = load(os.path.join(FIXTURES, "germ.json"))
        report = run_workspace(ws, ring_override=parse_ring_override("zmod5"),
                               timing=False)
        assert report["ok"]
        assert report["ring"] == "Z/5"

    @pytest.mark.parametrize("spec, ring", [(None, "Q"), ({"kind": "zmod", "n": 7}, "Z/7")])
    def test_workspace_ring_is_the_files_else_q(self, spec, ring, tmp_path, capsys):
        with open(os.path.join(FIXTURES, "germ.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["ring"] = spec
        assert run_workspace(parse_workspace(json.dumps(doc)), timing=False)["ring"] == ring
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "all", "--input", str(path), "--no-timestamp",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["workspaces"][0]["ring"] == ring

    def test_an_empty_ring_literal_is_refused_not_read_as_q(self, tmp_path, capsys):
        # the API and the CLI share one rule: only an absent ring means Q
        with open(os.path.join(FIXTURES, "germ.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["ring"] = {}
        with pytest.raises(StructureError):
            run_workspace(parse_workspace(json.dumps(doc)), timing=False)
        path = tmp_path / "empty-ring.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "all", "--input", str(path), "--no-timestamp"]) == 2
        assert "kind" in capsys.readouterr().err

    def test_crossed_report_joins_both_certificates(self, monkeypatch):
        # the first failure across the certificates is the witness; the data
        # is the first certificate's
        import sectional.workspace as workspace
        from sectional.maps import Certificate

        first, second = Certificate("first", data={"rank": 1}), Certificate("second")
        first.add("a", True)
        second.add("b", False, ("x", "y"))
        second.add("c", False, ("z",))

        class Result:
            certificate, lscript_certificate = first, second

        monkeypatch.setattr(workspace, "crossed_theorem", lambda action: Result)
        ws = load(os.path.join(FIXTURES, "crossed.json"))
        task = run_workspace(ws, selector="crossed", timing=False)["tasks"][0]
        assert task["status"] == "fail"
        assert task["data"]["rank"] == 1
        assert [c["name"] for c in task["checks"]] == ["a", "b", "c"]
        assert task["witness"] == ["x", "y"]


class TestRoundTrip:
    def test_built_structures_reserialize_and_reparse_equal(self):
        p2 = built(pair_groupoid_raw())
        raw = semigroupoid_to_raw(p2.base, p2)
        rebuilt = validate_semigroupoid(raw)
        assert rebuilt == p2.base
        again = semigroupoid_to_raw(rebuilt)
        again["inv"] = raw["inv"]
        assert validate_semigroupoid(again) == rebuilt


class TestCli:
    def test_verify_all_germ(self, capsys):
        code = main(["verify", "all",
                     "--input", os.path.join(FIXTURES, "germ.json"),
                     "--no-timestamp"])
        out = capsys.readouterr().out
        assert code == 0
        assert "crossed_rank=3" in out and "ideal_rank=1" in out

    def test_validate_broken_file_exits_one_with_witness(self, capsys):
        code = main(["validate", os.path.join(DATA, "broken_assoc.json")])
        out = capsys.readouterr().out
        assert code == 1
        assert "witness" in out

    @pytest.mark.parametrize("transport, code, witness", [([[1]], 0, None), ([[-1]], 1, ["u"])])
    def test_representative_transport_must_be_the_identity(self, tmp_path, capsys, transport,
                                                            code, witness):
        # u represents the class {u, g}; transports compose through it, so a
        # declared u -> u of -1 would turn the declared u -> g of -1 into +1
        with open(os.path.join(FIXTURES, "quotient.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["congruences"]["sign"]["transports"]["u"] = transport
        path = tmp_path / "quotient.json"
        path.write_text(json.dumps(doc))
        argv = ["verify", "quotient", "--input", str(path), "--no-timestamp", "--format", "json"]
        assert main(argv) == code
        task = json.loads(capsys.readouterr().out)["workspaces"][0]["tasks"][0]
        assert task.get("witness") == witness

    def test_missing_file_is_invalid_input(self, capsys):
        code = main(["verify", "all", "--input", "/nonexistent.json"])
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["validate"],
        ["verify", "all", "--input"],
        ["verify", "all", "--input", os.path.join(FIXTURES, "germ.json")],
    ])
    def test_non_utf8_file_exits_two_with_one_line(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"ring": {"kind": "q"}, "note": "caf\u00e9"}'.encode("latin-1"))
        code = main(command + [str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and str(path) in err and "UTF-8" in err

    def test_unwritable_build_output_exits_two_with_one_line(self, tmp_path, capsys):
        with open(os.path.join(FIXTURES, "germ.json"), encoding="utf-8") as fh:
            germ = json.load(fh)
        workspace = {
            "semigroupoids": germ["semigroupoids"],
            "tasks": [{"kind": "build", "id": "q", "op": "direct_product",
                       "left": "X", "right": "X"}],
        }
        src = tmp_path / "ws.json"
        src.write_text(json.dumps(workspace))
        out = tmp_path / "missing" / "x.json"
        code = main(["build", "q", "--input", str(src), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and str(out) in err
        assert not out.exists()

    def test_unknown_build_task_exits_two_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(["build", "nope", "--input", os.path.join(DATA, "builds.json"),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "no build task with id 'nope'" in err
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no integer-string digit limit")
    @pytest.mark.parametrize("where", ["file", "second file", "zmod", "json ring"])
    def test_over_long_integer_exits_two_with_one_line(self, tmp_path, capsys, where):
        digits = "7" * 4400
        path = tmp_path / "long.json"
        path.write_text('{"note": %s}' % digits)
        germ = os.path.join(FIXTURES, "germ.json")
        argv = {
            "file": ["validate", str(path)],
            "second file": ["verify", "all", "--input", germ, str(path)],
            "zmod": ["validate", germ, "--ring", "zmod" + digits],
            "json ring": ["validate", germ, "--ring", '{"kind": "zmod", "n": %s}' % digits],
        }[where]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert (str(path) if "file" in where else "cannot parse ring override") in err

    @pytest.mark.parametrize("where", ["file", "json ring"])
    def test_deeply_nested_json_exits_two_with_one_line(self, tmp_path, capsys, where):
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text('{"x": %s}' % ("[" * depth + "]" * depth))
        germ = os.path.join(FIXTURES, "germ.json")
        argv = {
            "file": ["validate", str(path)],
            "json ring": ["validate", germ, "--ring", "[" * depth],
        }[where]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert (f"{path}: parse error" if where == "file"
                else "cannot parse ring override") in err

    def test_dangling_reference_exits_two(self, capsys):
        code = main(["verify", "all",
                     "--input", os.path.join(DATA, "dangling.json")])
        assert code == 2

    def test_invalid_workspace_ring_exits_two(self, tmp_path, capsys):
        with open(os.path.join(FIXTURES, "convolution.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["ring"] = {"kind": "zmod", "n": 1}
        path = tmp_path / "zmod1.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", "all", "--input", str(path), "--no-timestamp"])
        assert code == 2
        assert "modulus" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "zmod618970019642690137449562111",
        '{"kind": "zmod", "n": 618970019642690137449562111}',
    ])
    def test_ring_override_refusal_keeps_its_report(self, override, capsys):
        # the same refused ring, given in either form, prints the validator's report
        code = main(["validate", os.path.join(FIXTURES, "quotient.json"), "--ring", override])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot decide whether the modulus 618970019642690137449562111 is prime" in err
        assert "cannot parse ring override" not in err

    def test_non_object_ring_literal_exits_two_with_its_report(self, capsys):
        code = main(["validate", os.path.join(FIXTURES, "quotient.json"), "--ring", "5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "ring literal must be an object with a 'kind'" in err

    def test_unparseable_ring_override_exits_two(self, capsys):
        code = main(["validate", os.path.join(FIXTURES, "quotient.json"), "--ring", "{kind"])
        assert code == 2
        assert "cannot parse ring override '{kind'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[" * 100_000, "zmod" + "7" * 4400],
                             ids=["deep-json", "long-zmod"])
    def test_unreadable_ring_override_quotes_a_bounded_prefix(self, text, capsys):
        if text.startswith("zmod") and not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python has no integer-string digit limit")
        code = main(["validate", os.path.join(FIXTURES, "quotient.json"), "--ring", text])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert f"cannot parse ring override {text[:40]!r}..." in err

    def test_boolean_rank_exits_two(self, tmp_path, capsys):
        with open(os.path.join(FIXTURES, "convolution.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["bundles"]["b"]["ranks"] = {"(1,1)": True}
        path = tmp_path / "bool_rank.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", "all", "--input", str(path), "--no-timestamp"])
        assert code == 2
        assert "ranks" in capsys.readouterr().err

    def test_non_list_arrows_exit_two(self, tmp_path, capsys):
        with open(os.path.join(FIXTURES, "convolution.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        name = next(iter(doc["semigroupoids"]))
        doc["semigroupoids"][name]["arrows"] = "x"
        path = tmp_path / "arrows_x.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", str(path), "--format", "json"])
        assert code == 2
        assert "arrows" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("prod", [1, 2]),
        ("vertices", 5),
        ("inv", [1]),
    ])
    @pytest.mark.parametrize("command", ["validate", "verify"])
    def test_mistyped_semigroupoid_field_exits_two(self, tmp_path, capsys, key, value,
                                                  command):
        with open(os.path.join(FIXTURES, "convolution.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        name = next(iter(doc["semigroupoids"]))
        doc["semigroupoids"][name][key] = value
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc))
        argv = ([command, str(path)] if command == "validate"
                else [command, "all", "--input", str(path), "--no-timestamp"])
        code = main(argv)
        assert code == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("fixture, where, value, text", [
        ("germ.json", ("actions", "theta", "maps", "1"), "x", "'maps'"),
        ("germ.json", ("actions", "theta", "maps", "1"), {"dom": 5}, "'maps'"),
        ("quotient.json", ("congruences", "sign", "classes"), ["u", "g"], "'classes'"),
        ("quotient.json", ("congruences", "sign", "transports"), [[1]], "'transports'"),
        ("smash.json", ("homomorphisms", "d", "map"), [[1]], "'map'"),
        ("crossed.json", ("bundles", "bR2", "constants"), [1], "'constants'"),
        ("crossed.json", ("bundle_actions", "swap", "fibers"), [1], "'fibers'"),
        ("crossed.json", ("bundle_actions", "swap", "fibers", "zz"), {}, "'zz'"),
        ("crossed.json", ("bundle_actions", "swap", "fibers", "g", "zz"), [[1]], "'zz'"),
        ("tablering.json", ("tasks", 0, "target"), ["x"], "missing id"),
        ("tablering.json", ("tasks", 0, "target"), {"x": 1}, "missing id"),
    ])
    @pytest.mark.parametrize("command", ["validate", "verify"])
    def test_mistyped_stanza_field_exits_two(self, tmp_path, capsys, fixture, where, value,
                                             text, command):
        with open(os.path.join(FIXTURES, fixture), encoding="utf-8") as fh:
            doc = json.load(fh)
        node = doc
        for step in where[:-1]:
            node = node[step]
        node[where[-1]] = value
        path = tmp_path / fixture
        path.write_text(json.dumps(doc))
        argv = ([command, str(path)] if command == "validate"
                else [command, "all", "--input", str(path), "--no-timestamp"])
        assert main(argv) == 2
        assert text in capsys.readouterr().err

    def test_non_integer_triples_exit_two(self, tmp_path, capsys):
        with open(os.path.join(FIXTURES, "convolution.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["tasks"][0]["triples"] = "many"
        path = tmp_path / "triples_many.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", "all", "--input", str(path), "--no-timestamp"])
        assert code == 2
        assert "triples" in capsys.readouterr().err

    def test_no_matching_selector_exits_two(self, capsys):
        code = main(["verify", "smash",
                     "--input", os.path.join(FIXTURES, "germ.json")])
        assert code == 2

    def test_json_and_text_agree_semantically(self, capsys):
        main(["verify", "all", "--input", os.path.join(FIXTURES, "germ.json"),
              "--no-timestamp", "--format", "json"])
        as_json = json.loads(capsys.readouterr().out)
        code = main(["verify", "all", "--input", os.path.join(FIXTURES, "germ.json"),
                     "--no-timestamp", "--format", "text"])
        text = capsys.readouterr().out
        assert code == 0
        for ws in as_json["workspaces"]:
            for task in ws["tasks"]:
                status = {"pass": "PASS", "fail": "FAIL"}[task["status"]]
                assert f"[{status}] task {task['index']}" in text
                for key, val in task["data"].items():
                    if not isinstance(val, (dict, list)):
                        assert f"{key}={val}" in text

    def test_determinism_byte_identical(self, capsys):
        argv = ["verify", "all",
                "--input",
                os.path.join(FIXTURES, "germ.json"),
                os.path.join(FIXTURES, "tensor.json"),
                "--seed", "7", "--no-timestamp", "--format", "json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_timestamp_present_unless_suppressed(self, capsys):
        main(["verify", "all", "--input", os.path.join(FIXTURES, "germ.json"),
              "--format", "json"])
        with_ts = json.loads(capsys.readouterr().out)
        assert "timestamp" in with_ts
        main(["verify", "all", "--input", os.path.join(FIXTURES, "germ.json"),
              "--format", "json", "--no-timestamp"])
        without = json.loads(capsys.readouterr().out)
        assert "timestamp" not in without
        assert all(
            "wall_time_ms" not in task
            for ws in without["workspaces"] for task in ws["tasks"]
        )

    def test_build_writes_round_trippable_structure(self, tmp_path, capsys):
        with open(os.path.join(FIXTURES, "germ.json"), encoding="utf-8") as fh:
            germ = json.load(fh)
        workspace = {
            "ring": {"kind": "q"},
            "semigroupoids": germ["semigroupoids"],
            "actions": germ["actions"],
            "tasks": [
                {"kind": "build", "id": "sp1", "op": "semidirect", "action": "theta"},
            ],
        }
        src = tmp_path / "ws.json"
        src.write_text(json.dumps(workspace))
        out = tmp_path / "built.json"
        code = main(["build", "sp1", "--input", str(src), "--out", str(out)])
        assert code == 0
        built = json.loads(out.read_text())
        rebuilt = validate_semigroupoid(built)
        assert rebuilt.n_arrows == 3
        assert sorted(built["vertices"]) == sorted(rebuilt.vertex_names)

    def test_subprocess_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sectional.cli", "verify", "germ",
             "--input", os.path.join(FIXTURES, "germ.json"), "--no-timestamp"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "verify germ" in proc.stdout


def one_arrow_q_bundle(literal):
    """A rank-1 bundle over Q on a single idempotent arrow a, with e*e = literal*e."""
    return {
        "ring": {"kind": "q"},
        "semigroupoids": {"A": {"vertices": ["v"],
                                "arrows": [{"id": "a", "src": "v", "rng": "v"}],
                                "prod": [["a", "a", "a"]]}},
        "bundles": {"b": {"base": "A", "ranks": {"a": 1},
                          "constants": {"a,a": [[[literal]]]}}},
    }


class TestRationalLiterals:
    # "1_0" is 10 to Fraction from Python 3.11 on, refused before: refused on all
    @pytest.mark.parametrize("literal", ["1/0", "0/0", "1e-8000000", "1_0", "x"])
    def test_refused_constant_is_a_structural_failure(self, tmp_path, capsys, literal):
        path = tmp_path / "one_arrow.json"
        path.write_text(json.dumps(one_arrow_q_bundle(literal)))
        start = time.perf_counter()
        code = main(["validate", str(path), "--format", "json"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        task = json.loads(capsys.readouterr().out)["workspaces"][0]["tasks"][-1]
        assert task["status"] == "fail" and task["witness"] == ["a,a"]
        assert f"structural at ('a,a',): not a rational literal: {literal!r}" in task["message"]

    @pytest.mark.parametrize("fixture, where, command, witness", [
        ("crossed.json", ("bundle_actions", "swap", "fibers", "g", "m", 1, 0),
         ["validate"], ["g", "m"]),
        ("quotient.json", ("congruences", "sign", "transports", "g", 0, 0),
         ["verify", "quotient", "--no-timestamp", "--input"], ["g"]),
    ], ids=["fibers", "transports"])
    def test_zero_denominator_in_a_matrix_is_a_structural_failure(
            self, tmp_path, capsys, fixture, where, command, witness):
        with open(os.path.join(FIXTURES, fixture), encoding="utf-8") as fh:
            doc = json.load(fh)
        node = doc
        for step in where[:-1]:
            node = node[step]
        node[where[-1]] = "1/0"
        path = tmp_path / fixture
        path.write_text(json.dumps(doc))
        assert main(command + [str(path), "--format", "json"]) == 1
        tasks = json.loads(capsys.readouterr().out)["workspaces"][0]["tasks"]
        failed = [t for t in tasks if t["status"] != "pass"]
        assert [t["witness"] for t in failed] == [witness]
        assert "structural" in failed[0]["message"]
        assert "not a rational literal: '1/0'" in failed[0]["message"]


class TestCapabilityStatus:
    def test_unsupported_ring_marks_task_capability(self, capsys):
        code = main(["verify", "quotient",
                     "--input", os.path.join(FIXTURES, "quotient.json"),
                     "--ring", "z", "--no-timestamp", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        statuses = {
            t["status"] for ws in report["workspaces"] for t in ws["tasks"]
        }
        assert statuses == {"capability"}

    def test_germ_stage_refusal_is_capability(self, capsys):
        # the germ pipeline's ideal stage needs spans over a field or Z/n
        code = main(["verify", "germ",
                     "--input", os.path.join(FIXTURES, "germ.json"),
                     "--ring", "z", "--no-timestamp", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        [task] = report["workspaces"][0]["tasks"]
        assert task["status"] == "capability"
        assert task["data"] == {"stage": "ideal"}

    def test_refusal_reads_capability_in_validate_and_verify(self, capsys):
        # structure constants over a non-commutative ring are refused, not failed
        from structures import upper_triangular_f2_ring_spec

        path = os.path.join(FIXTURES, "tablering.json")
        ring = json.dumps(upper_triangular_f2_ring_spec())
        code = main(["validate", path, "--ring", ring, "--format", "json"])
        validated = json.loads(capsys.readouterr().out)
        assert code == 1
        by_summary = {t["summary"]: t["status"] for t in validated["workspaces"][0]["tasks"]}
        assert by_summary["validate bundle b"] == "capability"
        code = main(["verify", "all", "--input", path, "--ring", ring,
                     "--no-timestamp", "--format", "json"])
        verified = json.loads(capsys.readouterr().out)
        assert code == 1
        by_summary = {t["summary"]: t["status"] for t in verified["workspaces"][0]["tasks"]}
        assert by_summary["verify convolution"] == "capability"


class TestStageReport:
    def test_germ_quotient_refusal_names_its_stage(self, monkeypatch, capsys):
        """`verify germ` on the germ fixture with its action classified as not
        associative, as tests/test_actions.py hands it to semidirect_product:
        the germ-quotient stage refuses, and the report carries the stage and
        the failing twisted triple. Over a groupoid space the domains of an
        accepted preaction are unions of components, which makes twisted
        associativity hold, so the action is flagged instead of written."""
        from sectional import actions

        witness = ("1", "1", "1", "1x", "1x", "1x")
        monkeypatch.setattr(actions, "_associativity", lambda theta: (False, witness))
        code = main(["verify", "germ", "--input", os.path.join(FIXTURES, "germ.json"),
                     "--no-timestamp", "--format", "json"])
        (task,) = json.loads(capsys.readouterr().out)["workspaces"][0]["tasks"]
        assert code == 1
        assert task["status"] == "fail"
        assert task["data"] == {"stage": "germ-quotient"}
        assert task["witness"] == list(witness)
        assert task["message"].startswith("stage 'germ-quotient': germ quotient: not-associative")


class TestCongruenceRefusals:
    """Must-fail `verify quotient` files that `validate_bundle_congruence`
    refuses as structural: each exits 1 with the refusal as the failing
    task's message and the named arrows as its witness, and the file's other
    task still passes."""

    @pytest.mark.parametrize("edit, ring, witness, message", [
        (lambda d: d["congruences"]["sign"]["transports"].update(zz=[[1]]), "q", ["zz"],
         "structural at ('zz',): transport given for unknown arrow 'zz'"),
        (lambda d: d["congruences"]["sign"]["transports"].update(g=[[1, 0], [0, 1]]), "q",
         ["g"], "structural at ('g',): transport for g must be 1x1"),
        (lambda d: d["bundles"]["bpar"].update(ranks={"a": 1, "b": 2}), "q", ["a", "b"],
         "structural at ('a', 'b'): equivalent arrows must carry fibers of equal rank"),
        (lambda d: d["congruences"]["sign"]["transports"].update(g=[["1/2"]]), "zmod6", ["g"],
         "structural at ('g',): not a residue literal: '1/2'"),
    ], ids=["unknown-arrow", "wrong-size", "unequal-ranks", "not-coercible"])
    def test_refusal_exits_one_with_kind_and_witness(self, tmp_path, capsys, edit, ring,
                                                      witness, message):
        with open(os.path.join(FIXTURES, "quotient.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        path = tmp_path / "quotient.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", "quotient", "--input", str(path), "--ring", ring,
                     "--no-timestamp", "--format", "json"])
        tasks = json.loads(capsys.readouterr().out)["workspaces"][0]["tasks"]
        assert code == 1
        (refused,) = [t for t in tasks if t["status"] != "pass"]
        assert len(tasks) == 2
        assert refused["status"] == "fail" and refused["witness"] == witness
        assert refused["message"] == f"bundle congruence: {message}"


class TestNumericArrowIds:
    """Congruence members are arrow ids, also when the file spells an id as
    a JSON number; a number is never read as an arrow position."""

    def _write(self, tmp_path, ids, classes):
        doc = {
            "ring": {"kind": "q"},
            "semigroupoids": {"par": {
                "vertices": ["v", "w"],
                "arrows": [{"id": x, "src": "v", "rng": "w"} for x in ids],
                "prod": [],
            }},
            "congruences": {"c": {"base": "par", "classes": classes}},
            "tasks": [{"kind": "build", "id": "q", "op": "quotient", "congruence": "c"}],
        }
        path = tmp_path / "numeric.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_ids_beyond_the_arrow_count_validate(self, tmp_path, capsys):
        path = self._write(tmp_path, [7, 8], [[7, 8]])
        assert main(["validate", path]) == 0
        out = tmp_path / "q.json"
        assert main(["build", "q", "--input", path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(json.loads(out.read_text(encoding="utf-8"))["arrows"]) == 1

    def test_ids_are_not_positions(self, tmp_path, capsys):
        from sectional.rings import RationalRing
        from sectional.workspace import Builder

        path = self._write(tmp_path, [1, 0, 2], [[1, 2], [0]])
        assert main(["validate", path]) == 0
        capsys.readouterr()
        cong = Builder(load(path), RationalRing()).congruence("c")
        names = cong.base.arrow_names
        assert sorted(sorted(names[x] for x in block) for block in cong.classes) == [
            ["0"], ["1", "2"]]


class TestValidateCommandOverFixtures:
    def test_every_fixture_validates(self, capsys):
        for path in sorted(os.listdir(FIXTURES)):
            code = main(["validate", os.path.join(FIXTURES, path)])
            capsys.readouterr()
            assert code == 0, path


class TestBuildOps:
    def _workspace(self):
        with open(os.path.join(FIXTURES, "germ.json"), encoding="utf-8") as fh:
            germ = json.load(fh)
        with open(os.path.join(FIXTURES, "smash.json"), encoding="utf-8") as fh:
            smash = json.load(fh)
        return {
            "ring": {"kind": "q"},
            "semigroupoids": {**germ["semigroupoids"], **smash["semigroupoids"]},
            "homomorphisms": smash["homomorphisms"],
            "actions": germ["actions"],
            "congruences": {
                "collapse": {"base": "Z2", "classes": [["u", "g"]]},
            },
            "tasks": [
                {"kind": "build", "id": "b1", "op": "semidirect", "action": "theta"},
                {"kind": "build", "id": "b2", "op": "germ", "action": "theta"},
                {"kind": "build", "id": "b3", "op": "quotient", "congruence": "collapse"},
                {"kind": "build", "id": "b4", "op": "direct_product",
                 "left": "S", "right": "X"},
                {"kind": "build", "id": "b5", "op": "skew", "base": "Z2", "grading": "d"},
            ],
        }

    def test_all_build_ops_produce_valid_structures(self):
        ws = parse_workspace(json.dumps(self._workspace()), path="<mem>")
        report = run_workspace(ws, timing=False)
        assert report["ok"], report
        arrows = [t["data"]["arrows"] for t in report["tasks"]]
        assert arrows == [3, 2, 1, 4, 4]
        for task in report["tasks"]:
            rebuilt = validate_semigroupoid(task["data"]["structure"])
            assert rebuilt.n_arrows == task["data"]["arrows"]

    def test_repeated_product_arrow_names_fail_build_and_tensor(self, tmp_path, capsys):
        # left-zero semigroups whose product names collide: (a,(b,c)) and ((a,b),c)
        def left_zero(vertex, arrows):
            return {"vertices": [vertex],
                    "arrows": [{"id": x, "src": vertex, "rng": vertex} for x in arrows],
                    "prod": [[x, y, x] for x in arrows for y in arrows]}
        src = tmp_path / "collide.json"
        src.write_text(json.dumps({
            "semigroupoids": {"A": left_zero("v", ["a", "a,b"]),
                              "B": left_zero("w", ["b,c", "c"])},
            "bundles": {"F": {"base": "A"}},
            "tasks": [{"kind": "build", "id": "AB", "op": "direct_product",
                       "left": "A", "right": "B"},
                      {"kind": "verify", "theorem": "tensor", "bundle": "F", "factor": "B"}],
        }))
        out = tmp_path / "AB.json"
        code = main(["build", "AB", "--input", str(src), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("build failed") and "duplicate arrow id '(a,b,c)'" in err
        assert not out.exists()

        code = main(["verify", "tensor", "--input", str(src), "--no-timestamp",
                     "--format", "json"])
        task = json.loads(capsys.readouterr().out)["workspaces"][0]["tasks"][0]
        assert code == 1
        assert task["status"] == "fail" and task["witness"] == ["(a,b,c)"]

    # pair names that collide: (a,(b,c)) and ((a,b),c) are both "(a,b,c)"
    _COLLIDING = {
        "semidirect": {
            "semigroupoids": {
                "E": {"vertices": ["*"],
                      "arrows": [{"id": "a", "src": "*", "rng": "*"},
                                 {"id": "a,b", "src": "*", "rng": "*"}],
                      "prod": [["a", "a", "a"], ["a", "a,b", "a,b"], ["a,b", "a", "a,b"],
                               ["a,b", "a,b", "a,b"]],
                      "inv": {"a": "a", "a,b": "a,b"}},
                "X": {"vertices": ["x", "y"],
                      "arrows": [{"id": "b,c", "src": "x", "rng": "x"},
                                 {"id": "c", "src": "y", "rng": "y"}],
                      "prod": [["b,c", "b,c", "b,c"], ["c", "c", "c"]]}},
            "actions": {"theta": {"actor": "E", "space": "X", "maps": {
                "a": {"dom": ["b,c", "c"], "img": ["b,c", "c"]},
                "a,b": {"dom": ["b,c", "c"], "img": ["b,c", "c"]}}}},
            "tasks": [{"kind": "build", "id": "out", "op": "semidirect", "action": "theta"}],
        },
        "skew": {
            "semigroupoids": {
                "L": {"vertices": ["v"],
                      "arrows": [{"id": "a", "src": "v", "rng": "v"},
                                 {"id": "a,b", "src": "v", "rng": "v"}],
                      "prod": [[x, y, x] for x in ("a", "a,b") for y in ("a", "a,b")]},
                "G": {"vertices": ["w"],
                      "arrows": [{"id": "b,c", "src": "w", "rng": "w"},
                                 {"id": "c", "src": "w", "rng": "w"}],
                      "prod": [["b,c", "b,c", "b,c"], ["b,c", "c", "c"], ["c", "b,c", "c"],
                               ["c", "c", "b,c"]]}},
            "homomorphisms": {"d": {"source": "L", "target": "G",
                                    "map": {"a": "b,c", "a,b": "b,c"}}},
            "tasks": [{"kind": "build", "id": "out", "op": "skew", "base": "L", "grading": "d"}],
        },
    }

    @pytest.mark.parametrize("op", sorted(_COLLIDING))
    def test_repeated_pair_arrow_names_fail_build(self, op, tmp_path, capsys):
        src = tmp_path / f"{op}.json"
        src.write_text(json.dumps(self._COLLIDING[op]))
        out = tmp_path / "out.json"
        assert main(["build", "out", "--input", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("build failed")
        assert "structural at ('(a,b,c)',): duplicate arrow id '(a,b,c)'" in err
        assert not out.exists()
        ws = parse_workspace(src.read_text())
        result = execute_task(Builder(ws, RationalRing()), ws.tasks[0], 0)
        assert (result.status, result.witness) == ("fail", ["(a,b,c)"])
        assert "structural" in result.message

    def test_germ_build_names_only_the_arrows_it_writes(self, tmp_path, capsys):
        """`build germ` forms no semidirect arrow names: over the colliding
        semidirect action its germs are [(a,b,c)] and [(a,c)]. Once both
        colliding labels represent a germ, the repeated name is refused."""
        doc = json.loads(json.dumps(self._COLLIDING["semidirect"]))
        doc["tasks"] = [{"kind": "build", "id": "out", "op": "germ", "action": "theta"}]
        src, out = tmp_path / "germ.json", tmp_path / "out.json"
        src.write_text(json.dumps(doc))
        assert main(["build", "out", "--input", str(src), "--out", str(out)]) == 0
        capsys.readouterr()
        assert [a["id"] for a in json.loads(out.read_text())["arrows"]] == ["[(a,b,c)]", "[(a,c)]"]
        out.unlink()
        doc["actions"]["theta"]["maps"] = {"a": {"dom": ["b,c"], "img": ["b,c"]},
                                           "a,b": {"dom": ["c"], "img": ["c"]}}
        src.write_text(json.dumps(doc))
        assert main(["build", "out", "--input", str(src), "--out", str(out)]) == 1
        assert "duplicate arrow id '[(a,b,c)]'" in capsys.readouterr().err
        assert not out.exists()

    def test_build_task_with_missing_reference_is_rejected(self):
        ws = self._workspace()
        ws["tasks"] = [{"kind": "build", "id": "x", "op": "germ", "action": "nope"}]
        with pytest.raises(WorkspaceError):
            parse_workspace(json.dumps(ws))


_TRICKY = st.text(st.sampled_from('"\\/\x00\x1f\n\t\x7f\u00e9\u2028\ud800\U0001f600a, ') | st.characters())
_SCALARS = (st.none() | st.booleans() | st.integers(-10**30, 10**30)
            | st.floats(allow_nan=True, allow_infinity=True) | _TRICKY)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(_TRICKY, max_size=4)
                   | st.tuples(inner, inner) | st.dictionaries(_TRICKY, inner, max_size=4)),
    max_leaves=30,
)


@given(value=_VALUES)
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, {"a", "b"}, b"x", [1, object()],
                                   {"a": [Fraction(1, 2)]}])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json(value)


@st.composite
def _stanzas(draw):
    """Semigroupoid stanzas as semigroupoid_to_raw writes them, with tricky
    names, possibly no arrows or products, with or without an inv table."""
    vertices = draw(st.lists(_TRICKY, max_size=4, unique=True))
    names = draw(st.lists(_TRICKY, max_size=5, unique=True)) if vertices else []
    arrows = [{"id": a, "src": draw(st.sampled_from(vertices)),
               "rng": draw(st.sampled_from(vertices))} for a in names]
    triples = st.lists(st.sampled_from(names), min_size=3, max_size=3)
    raw = {"id": draw(_TRICKY), "vertices": vertices, "arrows": arrows,
           "prod": draw(st.lists(triples, max_size=6)) if names else []}
    if draw(st.booleans()):
        raw["inv"] = {a: draw(st.sampled_from(names)) for a in names}
    return raw


@given(raw=_stanzas())
@settings(max_examples=300, deadline=None)
def test_stanza_writer_matches_json_dumps(raw):
    assert _stanza(raw) == json.dumps(raw, indent=2, sort_keys=True) + "\n"


def test_stanza_writer_matches_json_dumps_on_every_build():
    with open(os.path.join(DATA, "builds.json"), encoding="utf-8") as fh:
        ws = parse_workspace(fh.read())
    builder = Builder(ws, RationalRing())
    raws = [execute_task(builder, task, 0).data["structure"] for task in ws.tasks]
    raws += [semigroupoid_to_raw(builder.semigroupoid(name)) for name in ws.semigroupoids]
    inverses = [builder.inverse(name) for name, stanza in ws.semigroupoids.items()
                if "inv" in stanza]
    raws += [semigroupoid_to_raw(inv.base, inv) for inv in inverses]
    assert len(raws) > len(ws.tasks) and any("inv" in raw for raw in raws)
    for raw in raws:
        assert _stanza(raw) == json.dumps(raw, indent=2, sort_keys=True) + "\n"


def test_one_parser_serves_every_call_in_a_process(capsys):
    """main builds its parser on the first call and reuses it: each later
    call, a usage error included, prints exactly what a call on a freshly
    built parser prints, and exits with the same code."""
    inputs = [os.path.join(FIXTURES, name) for name in ("germ.json", "tensor.json")]
    bad = ["verify", "everything", "--input", inputs[0]]
    runs = [
        ["verify", "all", "--input", *inputs, "--seed", "7", "--format", "text", "--no-timestamp"],
        ["verify", "all", "--input", *inputs, "--no-timestamp"],
        ["validate", inputs[0]],
        bad,
        bad,
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    cli._parser.cache_clear()
    reused = [run(argv) for argv in runs]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 2]
    assert "seed: 7" in reused[0][1] and "seed: 0" in reused[1][1]
    assert "invalid choice" in reused[3][2]


def test_an_internal_consistency_error_fails_its_task_with_its_message():
    def run():
        raise InternalConsistencyError("a bug in the validator")

    result = run_guarded(3, "verify", "verify crossed x", run)
    assert (result.status, result.message, result.witness) == ("fail", "a bug in the validator", [])
