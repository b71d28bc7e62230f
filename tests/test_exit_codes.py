"""The exit-code contract on mutated fixtures: 0, 1 or 2, never a traceback.

Each example takes one fixture workspace, applies one or two mutations at
non-root nodes drawn from the whole JSON tree (drop a key, swap the value for one of
another type, or put an out-of-range int in place of an int) and runs
`validate` and `verify all` through `main()`. Whatever the mutation, the
command must return 0 (passed), 1 (a check failed) or 2 (invalid input).
Generated ints stay small, so no mutation can ask for a huge rank or
triple count.
"""

import contextlib
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sectional.cli import main

FIXTURES = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "fixtures"))
NAMES = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json"))

SWAPS = [None, True, 0, 1.5, "x", "", "1/0", [], {}, [1], ["x"], [[1]], {"x": 1},
         {"x": {}}]
OUT_OF_RANGE = [-2, -1, 0, 3, 99]


def _paths(node, path=()):
    """Every path into the JSON tree, the root (the empty path) included."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            yield from _paths(value, path + (idx,))


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _mutate(doc, path, how, value):
    """Apply one mutation at path (never the root)."""
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def mutated(draw, name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        doc = json.load(fh)
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(["drop", "swap", "int"]))
        paths = [p for p in _paths(doc) if p]
        if how == "int":
            paths = [p for p in paths if _is_int(_at(doc, p))] or paths
        path = draw(st.sampled_from(paths))
        value = draw(st.sampled_from(OUT_OF_RANGE if how == "int" else SWAPS))
        doc = _mutate(doc, path, how, json.loads(json.dumps(value)))
    return doc


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_fixture_exits_zero_one_or_two(name, data, tmp_path):
    doc = data.draw(mutated(name))
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _run(["validate", str(path), "--format", "json"]) in (0, 1, 2)
    assert _run(["verify", "all", "--input", str(path), "--no-timestamp",
                 "--format", "json"]) in (0, 1, 2)
