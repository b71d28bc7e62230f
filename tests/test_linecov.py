"""tools/linecov.py's allowlist check on made-up lines.

An entry is keyed by file, function and stripped text, so it names every
executable line of its function with that text. `check` must refuse an
entry that names more than one, since it could not tell which of them may
stay unrun, as well as an unrun line that no entry names and an entry
whose line ran.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import linecov  # noqa: E402

RAISE = "raise StructureError(report)"
LINES = [("m.py", "f", 3, RAISE), ("m.py", "f", 7, RAISE), ("m.py", "f", 9, "return x"),
         ("m.py", "g", 2, RAISE)]


def _entry(text, function="f"):
    return {"file": "m.py", "function": function, "text": text,
            "reason": linecov.REASONS[0]}


def test_an_entry_naming_one_unrun_line_passes():
    assert linecov.check([LINES[2]], [_entry("return x")], LINES) == []
    # the same text in another function is another key
    assert linecov.check([LINES[3]], [_entry(RAISE, "g")], LINES) == []


def test_an_entry_matching_two_lines_of_its_function_fails():
    for missed in ([LINES[0]], LINES[:2]):
        assert linecov.check(missed, [_entry(RAISE)], LINES) == [
            f"entry ('m.py', 'f', {RAISE!r}) matches 2 lines of its function"]


def test_an_unnamed_unrun_line_and_a_named_line_that_ran_fail():
    assert linecov.check([LINES[2]], [], LINES) == [
        "unrun and not allowed: m.py:9 in f: return x"]
    assert linecov.check([], [_entry("return x")], LINES) == [
        "allowed but runs (or is gone): m.py in f: return x"]
