"""Run report: outcomes, audits, metrics with stable serialization."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass


@dataclass
class AuditResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class RunReport:
    scenario: str
    seed: int
    horizon: int
    end_tick: int
    outcomes: dict
    duplicates: dict
    settlements: dict
    audits: list[AuditResult]
    metrics: dict

    def passed(self) -> bool:
        return all(a.passed for a in self.audits)

    def failed_audits(self) -> list[AuditResult]:
        return [a for a in self.audits if not a.passed]

    def to_dict(self) -> dict:
        audits = {a.name: {"passed": a.passed, "detail": a.detail} for a in self.audits}
        return {**asdict(self), "audits": audits}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def summary_lines(self) -> list[str]:
        lines = [f"scenario {self.scenario} seed={self.seed} "
                 f"end_tick={self.end_tick}/{self.horizon}"]
        for a in self.audits:
            mark = "pass" if a.passed else "FAIL"
            line = f"audit {a.name}: {mark}"
            if a.detail and not a.passed:
                line += f" ({a.detail})"
            lines.append(line)
        return lines
