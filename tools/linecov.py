"""Lines of src/sectional/ that tier-1 does not run, against an allowlist.

Usage: PYTHONPATH=src python tools/linecov.py

Runs the tier-1 suite (pytest.main with CI's tier-1 arguments) under
sys.settrace and threading.settrace, stdlib only, and records each line of
src/sectional/ that executes. The executable lines are those of each module's
compiled code objects. Hypothesis runs with a fixed seed, no example database
and no deadline (the tracer slows every example), so two runs with the same
Hypothesis version trace the same lines; a Hypothesis upgrade can change the
examples it generates, and with them the lines that run.

tools/linecov_allow.json lists the lines that may stay unrun, each keyed by
file, enclosing function (the code object's qualified name) and stripped
text, with one of the reasons in REASONS. The run fails (exit 1) on an unrun
line that no entry names, on an entry whose lines all ran or that names no
line, and on an entry whose text matches more than one executable line of
its function, since the key could not tell those lines apart; it also fails
when pytest fails. Only frames of the traced files
are traced line by line, and a code object stops being traced once each of
its lines has run.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.realpath(os.path.join(ROOT, "src", "sectional"))
ALLOW = os.path.join(ROOT, "tools", "linecov_allow.json")
TIER1 = ["-q", "--continue-on-collection-errors", "-W", "error::ResourceWarning",
         "-W", "error::pytest.PytestUnraisableExceptionWarning", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", os.path.join(ROOT, "tests")]
REASONS = (
    "runs only in a subprocess",
    "an InternalConsistencyError raise",
    "reached only by bench/tracer.py",
    "a Python-API argument guard that no file reaches",
)


def _code_lines(code, qualname=None):
    """(qualified name, line) for each line of code and the code nested in it."""
    qualname = getattr(code, "co_qualname", qualname or code.co_name)
    for _, _, line in code.co_lines():
        if line:        # None, or 0 for a module's first instruction
            yield qualname, line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_lines(const, f"{qualname}.{const.co_name}")


def executable_lines(path: str) -> dict[int, str]:
    """line -> enclosing function of each executable line of the file; the
    innermost code object that owns a line names it."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    out: dict[int, str] = {}
    for qualname, line in _code_lines(code, "<module>"):
        out[line] = qualname
    return out


class LineTracer:
    """The lines that run in the traced files; a code object whose lines have
    all run is no longer traced."""

    def __init__(self, files):
        self.ran: dict[str, set[int]] = {f: set() for f in files}
        self.left: dict = {}
        self.traced: dict[str, str | None] = {}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        path = self.traced.get(code.co_filename, "")
        if path == "":
            path = os.path.realpath(code.co_filename)
            path = self.traced[code.co_filename] = path if path in self.ran else None
        if path is None:
            return None
        left = self.left.get(code)
        if left is None:
            left = self.left[code] = {line for _, _, line in code.co_lines() if line is not None}
        ran = self.ran[path]
        # a call reports its def line (a resumed generator, its yield)
        ran.add(frame.f_lineno)
        left.discard(frame.f_lineno)
        if not left:
            return None

        def local(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                ran.add(line)
                left.discard(line)
                if not left:
                    return None
            return local

        return local

    def start(self):
        threading.settrace(self)
        sys.settrace(self)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)


def source_lines(paths) -> list[tuple[str, str, str, int, str]]:
    """(path, file, function, line, stripped text) per executable line."""
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for line, qualname in sorted(executable_lines(path).items()):
            out.append((path, os.path.basename(path), qualname, line, text[line - 1].strip()))
    return out


def check(missed, allow, lines) -> list[str]:
    """The problems: an unrun line no entry names, an entry with a reason
    outside REASONS, an entry whose text matches more than one executable
    line of its function (it could not tell them apart), and an entry that
    names no unrun line. missed and lines are (file, function, line, text)."""
    problems = []
    used = set()
    keys = [(e["file"], e["function"], e["text"]) for e in allow]
    matches = Counter((file, function, text) for file, function, _, text in lines)
    for i, entry in enumerate(allow):
        if entry.get("reason") not in REASONS:
            problems.append(f"entry {keys[i]} has no allowed reason: {entry.get('reason')!r}")
        if matches[keys[i]] > 1:
            problems.append(f"entry {keys[i]} matches {matches[keys[i]]} lines of its function")
    for file, function, line, text in missed:
        key = (file, function, text)
        if key in keys:
            used.add(key)
        else:
            problems.append(f"unrun and not allowed: {file}:{line} in {function}: {text}")
    for key in keys:
        if key not in used:
            problems.append(f"allowed but runs (or is gone): {key[0]} in {key[1]}: {key[2]}")
    return problems


def main() -> int:
    import pytest
    from hypothesis import settings

    settings.register_profile("linecov", database=None, deadline=None)
    settings.load_profile("linecov")
    paths = sorted(os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE) if f.endswith(".py"))
    # the package is imported under the tracer, so its module-level lines count
    if any(name == "sectional" or name.startswith("sectional.") for name in sys.modules):
        raise SystemExit("linecov: sectional was imported before tracing started")
    tracer = LineTracer(paths)
    tracer.start()
    try:
        code = pytest.main(TIER1)
    finally:
        tracer.stop()
    rows = source_lines(paths)
    lines = [row[1:] for row in rows]
    missed = [row[1:] for row in rows if row[3] not in tracer.ran[row[0]]]
    with open(ALLOW, encoding="utf-8") as fh:
        allow = json.load(fh)
    problems = check(missed, allow, lines)
    total = len(lines)
    print(f"linecov: {total - len(missed)} of {total} executable lines ran; "
          f"{len(missed)} unrun, {len(allow)} allowlist entries")
    for problem in problems:
        print(f"linecov: {problem}")
    return 1 if problems or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
