"""Report containers shared by the verification suites and the CLI.

A report is a plain JSON-serializable record: tool version, the fully
resolved configuration that produced it, a list of checks with counts and
worst margins, and a list of scalar measurements (quantities that are
recorded rather than asserted).  Reports round-trip losslessly through
``dumps``/``loads``; the timestamp is the only field expected to differ
between identical runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone


@dataclass
class CheckResult:
    """One named check: how many cases ran, failed, or were skipped."""

    name: str
    count: int
    failures: int
    skipped: int = 0
    worst_margin: float | None = None
    argmax_location: dict | None = None

    def __post_init__(self):
        if self.failures + self.skipped > self.count:
            raise ValueError("failures + skipped exceeds count")


@dataclass
class Measurement:
    """A recorded scalar (no pass/fail semantics)."""

    name: str
    value: float
    location: dict | None = None


@dataclass
class VerificationReport:
    tool_version: str
    config_echo: dict
    checks: list = field(default_factory=list)
    measurements: list = field(default_factory=list)
    timestamp: str = ""

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.now(timezone.utc).isoformat()

    @property
    def total_failures(self) -> int:
        return sum(c.failures for c in self.checks)

    def to_dict(self) -> dict:
        """The report as plain JSON data; the field order is the key order."""
        return asdict(self)

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "VerificationReport":
        d = json.loads(text)
        return cls(**{**d, "checks": [CheckResult(**c) for c in d["checks"]],
                      "measurements": [Measurement(**m) for m in d["measurements"]]})
