"""Reports over Q against the all-Fraction rationals they replaced.

`RationalRing` keeps a rational as an int when it is integral and as a
Fraction only otherwise, with the operator builtins as its arithmetic. The
class below is the ring as it stood before, every element a Fraction, kept
here only as the oracle. Each CLI run is made twice, once with each ring
(the oracle is patched in where `validate_ring` builds the rationals), and
the `--format json --no-timestamp` output must be byte-identical:

  - `tests/data/rational_twist.json`: rank-1 bundles over the pair groupoid
    P_3 twisted by the coboundary c(a, b) = f(a) f(b) / f(ab) of a function f
    with values such as 1/2, 3 and -1/4, under tensor, smash, crossed (with
    the fiber maps f(theta a) / f(a) and with their inverses, which do not
    intertwine), quotient over Z/2 with c(g, g) = 1/4, and convolution; a
    copy with one corrupted constant fails with an associativity witness;
  - every fixture, with its own ring and with `--ring q`;
  - `verify germ` on the chain action C_5, where every constant is 0 or 1.
"""

import json
import os
from fractions import Fraction

import pytest

import sectional.rings as rings_module
from sectional.cli import main
from sectional.rings import Ring

from structures import nested_chain_action

HERE = os.path.dirname(os.path.abspath(__file__))
TWIST = os.path.join(HERE, "data", "rational_twist.json")
FIXTURES = os.path.abspath(os.path.join(HERE, os.pardir, "fixtures"))
NAMES = sorted(name for name in os.listdir(FIXTURES) if name.endswith(".json"))


class FractionRationalRing(Ring):
    """The rationals with every element a Fraction, as before."""

    kind = "q"
    zero = Fraction(0)
    one = Fraction(1)
    built = []

    def __init__(self):
        self.built.append(self)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return not a

    @property
    def is_field(self):
        return True

    def unit_inverse(self, a):
        return None if self.is_zero(a) else 1 / Fraction(a)

    def coerce(self, x):
        if isinstance(x, bool):
            raise ValueError(f"not a rational literal: {x!r}")
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, Fraction):
            return x
        if isinstance(x, str) and "e" not in x.lower() and "_" not in x:
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError):
                pass
        raise ValueError(f"not a rational literal: {x!r}")

    def spec(self):
        return {"kind": "q"}

    def describe(self):
        return "Q"


def _both(argv, capsys, monkeypatch):
    """(exit code, stdout) of one CLI run with the ring and with the oracle."""
    code = main(argv)
    out = capsys.readouterr().out
    FractionRationalRing.built.clear()
    with monkeypatch.context() as patch:
        patch.setattr(rings_module, "RationalRing", FractionRationalRing)
        oracle_code = main(argv)
    oracle_out = capsys.readouterr().out
    return (code, out), (oracle_code, oracle_out)


def test_twisted_bundles_report_as_with_fractions(capsys, monkeypatch):
    argv = ["verify", "all", "--input", TWIST, "--format", "json", "--no-timestamp"]
    ours, oracle = _both(argv, capsys, monkeypatch)
    assert FractionRationalRing.built
    assert ours == oracle
    tasks = json.loads(ours[1])["workspaces"][0]["tasks"]
    assert ours[0] == 1
    assert [t["status"] for t in tasks] == ["pass", "fail", "pass", "pass", "pass", "fail",
                                            "pass", "pass", "fail"]
    assert tasks[-1]["message"].startswith("bundle: associativity at ('p01', 'p10', 'p02'")


def test_twisted_file_has_non_integral_constants():
    with open(TWIST, encoding="utf-8") as fh:
        bundle = json.load(fh)["bundles"]["twist"]
    values = [Fraction(x) for v in bundle["constants"].values() for x in v[0][0]]
    assert any(x.denominator != 1 for x in values)


def test_twisted_bundles_validate_as_with_fractions(capsys, monkeypatch):
    ours, oracle = _both(["validate", TWIST, "--format", "json"], capsys, monkeypatch)
    assert FractionRationalRing.built
    assert ours == oracle and ours[0] == 1


@pytest.mark.parametrize("ring", [None, "q"], ids=["own-ring", "q"])
@pytest.mark.parametrize("name", NAMES)
def test_fixture_reports_as_with_fractions(name, ring, capsys, monkeypatch):
    argv = ["verify", "all", "--input", os.path.join(FIXTURES, name), "--seed", "7",
            "--format", "json", "--no-timestamp"] + (["--ring", ring] if ring else [])
    ours, oracle = _both(argv, capsys, monkeypatch)
    assert ours == oracle


def test_chain_germ_reports_as_with_fractions(tmp_path, capsys, monkeypatch):
    actor, space, maps = nested_chain_action(5)
    path = tmp_path / "c5.json"
    path.write_text(json.dumps({
        "ring": {"kind": "q"},
        "semigroupoids": {"C5": actor, "X": space},
        "actions": {"chain": {"actor": "C5", "space": "X", "maps": maps}},
        "tasks": [{"kind": "verify", "theorem": "germ", "action": "chain"}],
    }))
    argv = ["verify", "germ", "--input", str(path), "--format", "json", "--no-timestamp"]
    ours, oracle = _both(argv, capsys, monkeypatch)
    assert FractionRationalRing.built
    assert ours == oracle and ours[0] == 0
    (task,) = json.loads(ours[1])["workspaces"][0]["tasks"]
    assert task["data"]["crossed_rank"] == 15 and task["data"]["ideal_rank"] == 10
