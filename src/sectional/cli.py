"""Command line entry points.

    sectional validate FILE [--ring R] [--format {json,text}]
    sectional build NAME --input FILE --out FILE [--ring R]
    sectional verify {tensor,crossed,smash,quotient,germ,convolution,all}
              --input FILE [FILE ...] [--ring R] [--seed N]
              [--format {json,text}] [--no-timestamp]

Exit codes: 0 everything passed, 1 a verification or validation failed
(the report carries witnesses; capability refusals count as failures with a
distinct status in both commands), 2 invalid input (unparseable or non-UTF-8
file, dangling reference, a task parameter naming the wrong kind of structure
or structures on different bases, unknown selector target or build task id,
unwritable --out path).

The argument parser is built once per process, by the first main call.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import re
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .rings import Ring, validate_ring
from .validation import StructureError
from .workspace import (
    THEOREMS,
    Builder,
    TaskResult,
    WorkspaceError,
    WorkspaceFile,
    execute_task,
    parse_workspace,
    run_guarded,
    run_workspace,
    structure_checks,
    workspace_ring,
)


def parse_ring_override(text: str) -> Ring:
    if text in ("q", "z"):
        return validate_ring({"kind": text})
    match = re.fullmatch(r"zmod:?(\d+)", text)
    try:  # a JSON syntax error, an integer past Python's digit limit, deep nesting
        spec = {"kind": "zmod", "n": int(match.group(1))} if match else json.loads(text)
    except (ValueError, RecursionError):
        # quote a bounded prefix: the text can be arbitrarily long
        shown = repr(text[:40]) + ("..." if len(text) > 40 else "")
        raise WorkspaceError(
            f"cannot parse ring override {shown}; use q, z, zmodN, or a JSON literal"
        )
    return validate_ring(spec)


def _open(path: str, ring_text: str | None) -> tuple[WorkspaceFile, Ring]:
    """The workspace at path and the ring a command runs it over: the --ring
    text if given, else the file's own ring, else Q."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise WorkspaceError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise WorkspaceError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    ws = parse_workspace(text, path=path)
    return ws, workspace_ring(ws, parse_ring_override(ring_text) if ring_text else None)


def _json(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for dicts with
    str keys, lists, tuples, str, int, float, bool and None (else TypeError).
    Strings are quoted in line, so a list of them is one str.join."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, (int, float)):
        text = int.__repr__(value) if isinstance(value, int) else float.__repr__(value)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    inner = newline + "  "
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        items, ends = [_quote(k) + ": " + (_quote(v) if type(v) is str else _json(v, inner))
                       for k, v in sorted(value.items())], "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = [_quote(x) if type(x) is str else _json(x, inner) for x in value], "[]"
    else:  # a dict lands here only with a key that is not a str
        raise TypeError(f"cannot write {type(value).__name__} as JSON")
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1] if value else ends


def _stanza(raw: dict) -> str:
    """_json(raw) + "\n" for a semigroupoid stanza (`semigroupoid_to_raw`): each
    name is quoted once, and each list is one format string, its entry repeated,
    over a flat tuple of the quoted names, so no string is made per entry."""
    q = {name: _quote(name) for name in raw["vertices"]}
    q.update((a["id"], _quote(a["id"])) for a in raw["arrows"])

    def block(entry: str, names: tuple) -> str:
        n = len(names) // entry.count("%s")
        return ("[\n    " + ",\n    ".join([entry] * n) + "\n  ]") % names if n else "[]"

    fields = {k: _json(v, "\n  ") for k, v in raw.items() if k not in ("vertices", "arrows", "prod")}
    fields["vertices"] = block("%s", tuple(q[v] for v in raw["vertices"]))
    fields["arrows"] = block('{\n      "id": %s,\n      "rng": %s,\n      "src": %s\n    }',
                             tuple(q[a[k]] for a in raw["arrows"] for k in ("id", "rng", "src")))
    fields["prod"] = block("[\n      %s,\n      %s,\n      %s\n    ]",
                           tuple(q[x] for triple in raw["prod"] for x in triple))
    return "{\n  " + ",\n  ".join(_quote(k) + ": " + fields[k] for k in sorted(fields)) + "\n}\n"


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(report) + "\n"
    lines = [f"sectional {report['command']} report"]
    if "selector" in report:
        lines.append(f"selector: {report['selector']}  seed: {report.get('seed')}")
    if "timestamp" in report:
        lines.append(f"timestamp: {report['timestamp']}")
    for wsrep in report.get("workspaces", []):
        lines.append(f"-- {wsrep['path'] or '<stdin>'} (ring {wsrep['ring']})")
        for task in wsrep["tasks"]:
            mark = {"pass": "PASS", "fail": "FAIL", "capability": "SKIP"}[task["status"]]
            extra = ""
            if task.get("data"):
                keys = [
                    f"{k}={v}" for k, v in sorted(task["data"].items())
                    if not isinstance(v, (dict, list))
                ]
                if keys:
                    extra = "  [" + ", ".join(keys) + "]"
            lines.append(f"  [{mark}] task {task['index']}: {task['summary']}{extra}")
            if task.get("witness"):
                lines.append(f"         witness: {tuple(task['witness'])}")
            if task.get("message"):
                lines.append(f"         {task['message']}")
        lines.append(f"   ok: {wsrep['ok']}")
    lines.append(f"overall: {'ok' if report['ok'] else 'FAILED'}")
    return "\n".join(lines) + "\n"


def _report(command: str, fmt: str, workspaces: list[dict], **extra) -> int:
    """Print the report envelope around the per-workspace reports; the exit
    code is 0 when every workspace passed, else 1."""
    report = {"command": command, "tool": "sectional", "version": __version__,
              "workspaces": workspaces, "ok": all(w["ok"] for w in workspaces), **extra}
    sys.stdout.write(_render(report, fmt))
    return 0 if report["ok"] else 1


def _cmd_validate(args) -> int:
    ws, ring = _open(args.file, args.ring)
    builder = Builder(ws, ring)
    tasks = []
    for summary, check in structure_checks(builder):
        index = len(tasks)

        def run():
            check()
            return TaskResult(index, "validate", summary, "pass")

        tasks.append(run_guarded(index, "validate", summary, run).to_json())

    return _report("validate", args.format, [{
        "path": ws.path,
        "ring": ring.describe(),
        "tasks": tasks,
        "ok": all(t["status"] == "pass" for t in tasks),
    }])


def _cmd_build(args) -> int:
    ws, ring = _open(args.input, args.ring)
    task = next((t for t in ws.tasks if t.kind == "build" and t.id == args.name), None)
    if task is None:
        raise WorkspaceError(f"{args.input}: no build task with id {args.name!r}")

    result = execute_task(Builder(ws, ring), task, 0)
    if result.status != "pass":
        print(f"build failed: {result.message or result.witness}", file=sys.stderr)
        return 1
    payload = _stanza(result.data["structure"])
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise WorkspaceError(f"{args.out}: {exc.strerror or exc}")
    print(f"wrote {args.out} ({result.data['arrows']} arrows)")
    return 0


def _cmd_verify(args) -> int:
    opened = [_open(path, args.ring) for path in args.input]
    reports = [
        run_workspace(ws, selector=args.selector, seed=args.seed,
                      ring_override=ring, timing=not args.no_timestamp)
        for ws, ring in opened
    ]
    if args.selector != "all" and all(r["matched_tasks"] == 0 for r in reports):
        raise WorkspaceError(f"no verify tasks match selector {args.selector!r}")

    extra = {} if args.no_timestamp else {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    return _report("verify", args.format, reports,
                   selector=args.selector, seed=args.seed, **extra)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    parse_args leaves it unchanged, so every later main call reuses it."""
    parser = argparse.ArgumentParser(
        prog="sectional",
        description="exact workbench for finite semigroupoids, bundles, and "
                    "their sectional algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate every structure in a file")
    p_val.add_argument("file")
    p_val.add_argument("--ring", default=None, help="override the coefficient ring")
    p_val.add_argument("--format", choices=("json", "text"), default="text")
    p_val.set_defaults(func=_cmd_validate)

    p_build = sub.add_parser("build", help="run a build task and write the result")
    p_build.add_argument("name", help="id of a build task in the input file")
    p_build.add_argument("--input", required=True)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--ring", default=None)
    p_build.set_defaults(func=_cmd_build)

    p_ver = sub.add_parser("verify", help="run verification tasks")
    p_ver.add_argument("selector", choices=THEOREMS + ("all",))
    p_ver.add_argument("--input", required=True, nargs="+")
    p_ver.add_argument("--ring", default=None)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--format", choices=("json", "text"), default="text")
    p_ver.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp and wall-time fields so reports "
                            "are byte-identical across runs")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (WorkspaceError, StructureError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
