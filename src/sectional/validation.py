"""Shared validation plumbing: failure records, reports, and error types.

Every validator returns the object it validated or raises StructureError,
whose report lists each failure it found with its witness.
"""

from __future__ import annotations


class Failure:
    """One violated condition together with the smallest witness exhibiting it.

    `kind` is a stable machine-readable tag (e.g. "associativity",
    "range-compatibility", "structural"). Witness entries are element names,
    so reports stay readable after id renumbering. Two failures are equal
    when all three fields are.
    """

    def __init__(self, kind: str, witness: tuple, message: str):
        self.kind, self.witness, self.message = kind, witness, message

    def __eq__(self, other):
        return type(other) is type(self) and (
            (self.kind, self.witness, self.message) == (other.kind, other.witness, other.message))


class ValidationReport:
    def __init__(self, subject: str, failures: list[Failure] | None = None):
        self.subject = subject
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    @classmethod
    def single(cls, subject: str, kind: str, witness, message: str) -> "ValidationReport":
        """A report holding exactly one failure."""
        report = cls(subject)
        report.add(kind, witness, message)
        return report

    def add(self, kind: str, witness, message: str) -> None:
        self.failures.append(Failure(kind, tuple(witness), message))

    def has(self, kind: str) -> bool:
        return any(f.kind == kind for f in self.failures)

    def first(self, kind: str | None = None) -> Failure | None:
        for f in self.failures:
            if kind is None or f.kind == kind:
                return f
        return None

    def kinds(self) -> list[str]:
        return [f.kind for f in self.failures]

    def summary(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        f = self.failures[0]
        more = f" (+{len(self.failures) - 1} more)" if len(self.failures) > 1 else ""
        return f"{self.subject}: {f.kind} at {f.witness}: {f.message}{more}"


class SectionalError(Exception):
    """Base for all errors raised by this package."""


class CapabilityError(SectionalError):
    """The requested computation is not supported for this ring or mode."""


class StructureError(SectionalError):
    """An operation was handed an invalid structure; carries the report."""

    def __init__(self, report: ValidationReport):
        super().__init__(report.summary())
        self.report = report


class InternalConsistencyError(SectionalError):
    """Two routes that must agree disagreed; indicates a bug, not bad input."""


class StageError(SectionalError):
    """Failure inside a multi-stage pipeline, tagged with the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause

