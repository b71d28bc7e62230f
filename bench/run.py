"""Sectional benchmark: seeded workloads timed end to end through `sectional.cli.main`.

    python3 bench/run.py --workload germ-q --seed 0 --seconds 20 --trace 0

Generates the workload's workspace files from the seed, runs them through the
CLI (default sequential path) in one fresh worker process, checks every outcome
against the generator's own expectations and prints, as the last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a separate traced run gives
the per-layer ones. The line before it records the environment, the seed, the
report hash and the tail percentile with its sample count.

The load is a closed loop with one client and no threads: each file runs only
after the previous one has returned. The amount of work is fixed by --seconds
and the workload's nominal pass time on a 2-CPU box, never by the speed
observed during the run, so a parent and a child commit do the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from worker import PROBE_REF_S  # noqa: E402

# Every workload's schedule is sized so that one pass over its files takes
# about this long on the 2-CPU reference box; a run makes --seconds / this
# many passes.
PASS_SECONDS = 5.0
# Extra fresh processes that only time set-up, half before the worker and
# half after it: set-up is short, and the host's speed state lasts seconds.
SETUP_PROBES = 6
RUN_TIMEOUT_S = 170       # the whole run must end within 180 s
TAIL_ABOVE = 10           # samples the tail percentile leaves above it

# The layer each workload was chosen to stress. The traced run checks that
# this group has more self time than any other layer.
DOMINANT = {
    "germ-q": ("rings",),
    "certify-pair": ("algebras",),
    "quotient-zmod": ("rings.mat_inverse", "rings.smith_normal_form"),
    "structures": ("semigroupoids", "actions", "workspace", "cli"),
}

# (metric, span name or layer, field) read from the span summary
SPAN_METRICS = (
    ("rings.vector_in_span.calls", "rings.vector_in_span", "calls"),
    ("rings.vector_in_span.self_s", "rings.vector_in_span", "self_s"),
    ("rings.solve_linear.calls", "rings.solve_linear", "calls"),
    ("rings.solve_linear.self_s", "rings.solve_linear", "self_s"),
    ("rings.ideal_closure.self_s", "rings.ideal_closure", "self_s"),
    ("rings.mat_inverse.calls", "rings.mat_inverse", "calls"),
    ("rings.mat_inverse.self_s", "rings.mat_inverse", "self_s"),
    ("rings.smith_normal_form.calls", "rings.smith_normal_form", "calls"),
    ("rings.smith_normal_form.self_s", "rings.smith_normal_form", "self_s"),
    ("theorems.validate_bundle_congruence.self_s", "theorems.validate_bundle_congruence", "self_s"),
    ("algebras.mul.calls", "algebras.mul", "calls"),
    ("algebras.mul.self_s", "algebras.mul", "self_s"),
    ("algebras.check_associativity.self_s", "algebras.check_associativity", "self_s"),
    ("maps.apply.calls", "maps.apply", "calls"),
    ("maps.certify_linear_iso.self_s", "maps.certify_linear_iso", "self_s"),
    ("bundles.algebra_action_associativity.self_s", "bundles.algebra_action_associativity", "self_s"),
    ("bundles.convolve.calls", "bundles.convolve", "calls"),
    ("bundles.sectional_algebra.self_s", "bundles.sectional_algebra", "self_s"),
    ("workspace.parse_workspace.self_s", "workspace.parse_workspace", "self_s"),
)
LAYER_METRICS = (
    ("rings.self_s", "rings", "self_s"),
    ("algebras.self_s", "algebras", "self_s"),
    ("maps.self_s", "maps", "self_s"),
    ("theorems.self_s", "theorems", "self_s"),
    ("bundles.self_s", "bundles", "self_s"),
    ("semigroupoids.calls", "semigroupoids", "calls"),
    ("semigroupoids.self_s", "semigroupoids", "self_s"),
    ("actions.calls", "actions", "calls"),
    ("actions.self_s", "actions", "self_s"),
    ("cli.self_s", "cli", "self_s"),
    ("workspace.self_s", "workspace", "self_s"),
)
COUNTER_METRICS = (
    ("rings.arith.ops", "count"),
    ("rings.ideal_closure.accept_ratio", "ratio"),
    ("rings.smith_normal_form.max_bits", "bits"),
    ("algebras.table_nnz", "count"),
    ("trace.overhead", "ratio"),
)


def git_sha() -> str:
    """The checkout's commit from .git, without running git; "unknown" outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_workload(workdir: str, specs: list) -> None:
    files = os.path.join(workdir, "files")
    os.makedirs(files)
    manifest = []
    for spec in specs:
        rel = os.path.join("files", spec["name"])
        with open(os.path.join(workdir, rel), "w", encoding="utf-8") as fh:
            json.dump(spec["doc"], fh, indent=1, sort_keys=True)
        out = os.path.join("out", spec["name"])
        argv = [a.replace("{input}", rel).replace("{out}", out) for a in spec["argv"]]
        entry = {"name": spec["name"], "argv": argv}
        if "{out}" in spec["argv"]:
            entry["out"] = out
        manifest.append(entry)
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)


def run_worker(args: list, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py")] + args
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_passes(specs: list, passes: list) -> tuple[int, int, list]:
    """(attempted, failed, messages): the first pass against the oracle, every
    later pass against the first one's outputs."""
    by_name = {s["name"]: s for s in specs}
    first = passes[0]["calls"]
    errors = []
    bad = set()
    for call in first:
        try:
            problem = workloads.outcome_error(by_name[call["name"]], call)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"unreadable report: {exc!r}"
        if problem:
            bad.add(call["name"])
            errors.append(f"{call['name']}: {problem}")
    attempted = failed = 0
    for p in passes:
        same = p["digest"] == passes[0]["digest"]
        for call, ref in zip(p["calls"], first):
            attempted += 1
            if call["name"] in bad or call["rc"] != ref["rc"] or not same:
                failed += 1
        if not same:
            errors.append("reports differ between passes of one run")
    return attempted, failed, errors


def tail(samples: list) -> tuple[float, float]:
    """(value, percentile): the largest sample with TAIL_ABOVE samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_ABOVE:
        return ordered[-1], 100.0
    return ordered[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def scaled(record: dict, key: str) -> float:
    """A measured time at reference speed, using the probes taken around it."""
    return record[key] * PROBE_REF_S / record["probe_s"]


def pass_sum(p: dict, key: str) -> float:
    return sum(scaled(c, key) for c in p["calls"])


def median_pass(passes: list, key: str) -> float:
    """One pass over every file, each file at its median time over the passes:
    a spike in one call moves one sample, not the whole sum."""
    return sum(statistics.median(scaled(p["calls"][i], key) for p in passes)
               for i in range(len(passes[0]["calls"])))


def end_to_end(setups: list, passes: list) -> tuple[dict, dict]:
    samples = [scaled(c, "wall_s") for p in passes for c in p["calls"]]
    tail_value, tail_pct = tail(samples)
    metrics = {
        "setup_s": (statistics.median(scaled(s, "setup_s") for s in setups), "s"),
        "wall_s": (median_pass(passes, "wall_s"), "s"),
        "cpu_s": (median_pass(passes, "cpu_s"), "s"),
        "ws_s.p50": (statistics.median(samples), "s"),
        "ws_s.tail": (tail_value, "s"),
    }
    info = {
        "ws_s.tail_percentile": tail_pct, "ws_s.samples": len(samples),
        "unscaled": {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(sum(c["wall_s"] for c in p["calls"]) for p in passes),
        },
        "probe_ms": statistics.median(c["probe_s"] * 1e3 for p in passes for c in p["calls"]),
    }
    return metrics, info


def layer_totals(spans: dict) -> dict:
    totals: dict[str, dict] = {}
    for key, row in spans.items():
        layer = key.split(".", 1)[0]
        agg = totals.setdefault(layer, {"calls": 0, "self_s": 0.0})
        agg["calls"] += row["calls"]
        agg["self_s"] += row["self_s"]
    return totals


def dominant_check(workload: str, spans: dict) -> dict:
    """Self-time share of the workload's chosen group against every other layer."""
    group = DOMINANT[workload]
    units: dict[str, float] = {}
    for key, row in spans.items():
        layer = key.split(".", 1)[0]
        unit = "+".join(group) if (key in group or layer in group) else layer
        units[unit] = units.get(unit, 0.0) + row["self_s"]
    total = sum(units.values()) or 1.0
    mine = "+".join(group)
    shares = {k: round(v / total, 4) for k, v in sorted(units.items())}
    ok = all(shares.get(mine, 0.0) > v for k, v in shares.items() if k != mine)
    return {"expected": mine, "ok": ok, "shares": shares}


def per_layer(result: dict) -> dict:
    spans = result["spans"]
    layers = layer_totals(spans)
    counters = result["counters"]
    metrics = {}
    for name, key, field in SPAN_METRICS:
        value = spans.get(key, {}).get(field, 0)
        metrics[name] = (value, "count" if field == "calls" else "s")
    for name, layer, field in LAYER_METRICS:
        value = layers.get(layer, {}).get(field, 0)
        metrics[name] = (value, "count" if field == "calls" else "s")
    plain, traced = (pass_sum(p, "wall_s") for p in result["passes"][:2])
    tested = counters["closure_tested"]
    values = {
        "rings.arith.ops": counters["ring_ops"],
        "rings.ideal_closure.accept_ratio": counters["closure_kept"] / tested if tested else 0.0,
        "rings.smith_normal_form.max_bits": counters["snf_max_bits"],
        "algebras.table_nnz": counters["table_nnz"],
        "trace.overhead": traced / plain,
    }
    for name, unit in COUNTER_METRICS:
        metrics[name] = (values[name], unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sectional", "cli.py")):
        print(f"no sectional sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    specs = workloads.generate(args.workload, args.seed)
    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        write_workload(workdir, specs)
        if args.trace:
            result = run_worker(["trace", workdir], deadline)
            metrics = per_layer(result)
            extra = {"dominant": dominant_check(args.workload, result["spans"]),
                     "span_count": result["span_count"]}
            if not extra["dominant"]["ok"]:
                print(f"WARNING: {args.workload} is no longer dominated by "
                      f"{extra['dominant']['expected']}: {extra['dominant']['shares']}",
                      file=sys.stderr)
        else:
            setups = [run_worker(["setup", workdir], deadline)
                      for _ in range(SETUP_PROBES // 2)]
            passes = max(1, round(args.seconds / PASS_SECONDS))
            result = run_worker(["run", workdir, str(passes)], deadline)
            setups += [run_worker(["setup", workdir], deadline)
                       for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            metrics, extra = end_to_end(setups + [result], result["passes"])
            metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted, failed, errors = check_passes(specs, result["passes"])
    for line in errors[:20]:
        print(f"ERROR {line}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": {"python": platform.python_version(), "nproc": os.cpu_count(),
                "git_sha": git_sha(), "platform": platform.platform()},
        "files": len(specs), "passes": len(result["passes"]),
        "pass_wall_s": [pass_sum(p, "wall_s") for p in result["passes"]],
        "file_s": {c["name"]: statistics.median(scaled(p["calls"][i], "wall_s")
                                                for p in result["passes"])
                   for i, c in enumerate(result["passes"][0]["calls"])},
        "reports_sha256": result["passes"][0]["digest"],
        "error_ratio": failed / attempted,
        "caps": {k: v[0] for k, v in workloads.CAPS.items()},
        **extra,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
