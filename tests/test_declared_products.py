"""A semigroupoid holds only its declared products, and validation costs what
the file declares.

Two 20,000-arrow files must validate under a 256 MB address-space cap, which
an n x n product table cannot meet; the idempotent commutation check must
make O(n) product lookups on n loops; and a file that lists its products in
descending order must still be refused with the lexicographically first
witness of each kind.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sectional.semigroupoids import (
    FiniteSemigroupoid,
    validate_inverse_semigroupoid,
    validate_semigroupoid,
)
from sectional.validation import StructureError

SRC = Path(__file__).resolve().parent.parent / "src"
CAP = 256 * 2 ** 20


def parallel(n):
    """n parallel arrows u -> v with no products."""
    return {
        "vertices": ["u", "v"],
        "arrows": [{"id": f"a{i}", "src": "u", "rng": "v"} for i in range(n)],
        "prod": [],
    }


def loops(n):
    """n idempotent loops, one per vertex, each its own inverse."""
    return {
        "vertices": [f"v{i}" for i in range(n)],
        "arrows": [{"id": f"e{i}", "src": f"v{i}", "rng": f"v{i}"} for i in range(n)],
        "prod": [[f"e{i}", f"e{i}", f"e{i}"] for i in range(n)],
        "inv": {f"e{i}": f"e{i}" for i in range(n)},
    }


@pytest.mark.parametrize("family", [parallel, loops])
def test_twenty_thousand_arrows_validate_under_a_256_mb_cap(tmp_path, family):
    resource = pytest.importorskip("resource")
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"semigroupoids": {"S": family(20_000)}}))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))

    proc = subprocess.run(
        [sys.executable, "-m", "sectional.cli", "validate", str(path), "--format", "json"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    tasks = json.loads(proc.stdout)["workspaces"][0]["tasks"]
    assert len(tasks) == (2 if family is loops else 1)
    assert {t["status"] for t in tasks} == {"pass"}


def test_idempotent_commutation_makes_linear_lookups(monkeypatch):
    n = 2_000
    raw = loops(n)
    sgpd = validate_semigroupoid(raw)
    calls = 0
    compose = FiniteSemigroupoid.compose

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return compose(self, a, b)

    monkeypatch.setattr(FiniteSemigroupoid, "compose", counted)
    inv = validate_inverse_semigroupoid(sgpd, raw["inv"])
    assert len(inv.idempotents) == n
    assert calls <= 10 * n


def test_products_declared_in_descending_order_keep_first_witnesses():
    # row x0 lacks the composable (x0,x0), sends (x0,x1) to z with the wrong
    # range, and declares (x0,y2) and (x0,y1) on non-composable pairs
    raw = {
        "id": "desc",
        "vertices": ["p", "q"],
        "arrows": [{"id": "x0", "src": "p", "rng": "p"}, {"id": "x1", "src": "p", "rng": "p"},
                   {"id": "y1", "src": "q", "rng": "q"}, {"id": "y2", "src": "q", "rng": "q"},
                   {"id": "z", "src": "p", "rng": "q"}],
        "prod": [["x0", "y2", "x0"], ["x0", "y1", "x0"], ["x0", "x1", "z"]],
    }
    with pytest.raises(StructureError) as refused:
        validate_semigroupoid(raw)
    report = refused.value.report
    assert [(f.kind, f.witness) for f in report.failures] == [
        ("undefined-product", ("x0", "x0")),
        ("range-compatibility", ("x0", "x1")),
        ("product-on-noncomposable", ("x0", "y1")),
    ]
