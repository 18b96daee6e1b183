"""Structured verification reports.

Each check record carries an anchor (the statement id it certifies, or
"plumbing"/"observation"), a hypothesis status, and a verdict.  A
"violation" verdict always carries a reproducible witness.  JSON output
omits wall-clock timing so two runs on the same instance are
byte-identical.  It is one line, keys sorted, written by the json
module's C encoder; ``python -m json.tool`` pretty-prints it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

VERDICTS = ("pass", "skip", "violation", "inconclusive")
REPORT_VERSION = 2  # the JSON layout; 2: one line, theta-classes, provenance


@dataclass
class CheckRecord:
    check_id: str
    anchor: str
    hypothesis: str  # "met" | "unmet"
    verdict: str
    detail: str = ""
    witnesses: dict = field(default_factory=dict)
    seconds: float = 0.0

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "violation" and not self.witnesses:
            raise ValueError("violation verdicts must carry witnesses")


@dataclass
class VerificationReport:
    instance: str
    scope: str
    checks: list[CheckRecord] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)  # deterministic: no timings

    def add(self, record: CheckRecord) -> CheckRecord:
        self.checks.append(record)
        return record

    @property
    def violations(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.verdict == "violation"]

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0

    def check_ids(self) -> list[str]:
        return [c.check_id for c in self.checks]

    def to_json_dict(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "instance": self.instance,
            "scope": self.scope,
            "provenance": self.provenance,
            "checks": [
                {
                    "check_id": c.check_id,
                    "anchor": c.anchor,
                    "hypothesis": c.hypothesis,
                    "verdict": c.verdict,
                    "detail": c.detail,
                    "witnesses": c.witnesses,
                }
                for c in self.checks
            ],
            "violations": len(self.violations),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True) + "\n"

    def to_text(self) -> str:
        wid = max([len(c.check_id) for c in self.checks] + [8])
        lines = [
            f"instance: {self.instance}   scope: {self.scope}",
            f"{'check':<{wid}}  {'anchor':<22}  {'hyp':<5}  {'verdict':<12}  detail",
            "-" * (wid + 60),
        ]
        for c in self.checks:
            lines.append(
                f"{c.check_id:<{wid}}  {c.anchor:<22}  {c.hypothesis:<5}  {c.verdict:<12}  {c.detail}"
            )
        lines.append("-" * (wid + 60))
        lines.append(
            f"{len(self.checks)} checks, {len(self.violations)} violations"
        )
        return "\n".join(lines) + "\n"
