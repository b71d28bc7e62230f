"""Shared pytest wiring: acceptance criterion reporting, and the full walk over
every bundle the crossed and quotient pipelines build.

`theorems._semidirect_bundle` and `theorems.quotient_bundle` build their
bundles through `bundles.bundle_from_product`, which does not walk the
triples: `crossed_theorem` and `quotient_bundle` argue associativity from
their inputs' checks. So in every test, each bundle they return through the
`theorems` module (from `crossed_theorem`, `quotient_map_and_kernel`, or a
test calling `theorems.quotient_bundle`) is recorded, and after the test it
must pass `validate_bundle`, the walk the builder no longer runs. A test that
patches either builder replaces the recorder for its own run.
"""

import pytest

from sectional import theorems
from sectional.bundles import validate_bundle

ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    """Record a one-line pass/fail verdict for an acceptance criterion."""

    def _record(number: int, passed: bool, description: str) -> None:
        status = "PASS" if passed else "FAIL"
        ACCEPTANCE_LINES.append(f"criterion {number}: {status} - {description}")

    return _record


@pytest.fixture(autouse=True)
def built_bundles_pass_the_walk(monkeypatch):
    """Walk every semidirect and quotient bundle the test had built."""
    built = []

    def recorded(build, bundle_of):
        def call(*args):
            out = build(*args)
            built.append(bundle_of(out))
            return out
        return call

    monkeypatch.setattr(theorems, "_semidirect_bundle",
                        recorded(theorems._semidirect_bundle, lambda out: out))
    monkeypatch.setattr(theorems, "quotient_bundle",
                        recorded(theorems.quotient_bundle, lambda out: out.bundle))
    yield built
    for bundle in built:
        assert validate_bundle(bundle, bundle.ring, bundle.base) is bundle


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
