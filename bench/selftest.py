"""The benchmark's own tests.

    python3 -m pytest bench/selftest.py -q

Not collected by the repository's test run (the name does not match
test_*.py): the traced runs below take about two minutes on 2 CPUs.

Covers: the same seed gives byte-identical files; the oracle agrees with the
program at the seed (every must-fail file exits 1 with its witness kind);
per-layer counts, report hashes and each workload's dominant layer repeat
across two traced runs; BENCHMARK.json names exactly the metrics run.py
prints; without the program's sources the benchmark fails without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


@pytest.fixture(scope="module")
def traced_pairs():
    cache: dict[str, list] = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = [_result(workload, 1) for _ in range(2)]
        return cache[workload]
    return get


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_files(workload, tmp_path):
    dirs = []
    for name in ("a", "b"):
        run.write_workload(str(tmp_path / name), workloads.generate(workload, SEED))
        dirs.append(tmp_path / name)
    listing = sorted(os.listdir(dirs[0] / "files"))
    assert listing == sorted(os.listdir(dirs[1] / "files"))
    for name in listing + ["../manifest.json"]:
        assert (dirs[0] / "files" / name).read_bytes() == (dirs[1] / "files" / name).read_bytes()
    other = workloads.generate(workload, SEED + 1)
    assert [s["doc"] for s in other] != [s["doc"] for s in workloads.generate(workload, SEED)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_has_must_fail_files(workload):
    specs = workloads.generate(workload, SEED)
    failing = [s for s in specs if s["expect"]["exit"] == 1]
    assert failing and len(failing) < len(specs) / 2
    for spec in failing:
        expect = spec["expect"]
        kinds = [t.get("kind") for t in expect.get("tasks", [])] + [expect.get("failed_kind")]
        assert any(kinds), spec["name"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_agrees_with_program(workload, traced_pairs):
    for info, result in traced_pairs(workload):
        assert result["correct"], info
        assert result["failed"] == 0 and result["attempted"] == 3 * info["files"]
        assert info["error_ratio"] == 0.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_and_reports_repeat(workload, traced_pairs):
    (info_a, res_a), (info_b, res_b) = traced_pairs(workload)
    counts = [k for k, v in res_a["metrics"].items()
              if v["unit"] in ("count", "bits") or k.endswith("accept_ratio")]
    assert counts
    for key in counts:
        assert res_a["metrics"][key] == res_b["metrics"][key], key
    assert info_a["span_count"] == info_b["span_count"]
    assert info_a["reports_sha256"] == info_b["reports_sha256"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_dominant_layer_is_the_chosen_one(workload, traced_pairs):
    for info, _result in traced_pairs(workload):
        assert info["dominant"]["ok"], info["dominant"]


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = [m[0] for m in run.SPAN_METRICS + run.LAYER_METRICS + run.COUNTER_METRICS]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(per_layer)
    info, result = _result("quotient-zmod", 0)
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(result["metrics"])
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    assert info["ws_s.samples"] == info["files"] * info["passes"]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "germ-q", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
