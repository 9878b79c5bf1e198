"""Execution entry points shared by the CLI and the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .engine import Simulation
from .errors import ParseError
from .report import RunReport
from .scenario import ScenarioConfig

RUN_LOG = "run.log"
REPORT = "report"
RESOLVER_DUMP = "resolver.dump"


def execute(config: ScenarioConfig,
            out_dir: Optional[Union[str, Path]] = None) -> tuple[RunReport, Simulation]:
    """Run a parsed scenario; optionally write the run artifacts (run.log,
    report, resolver.dump) into out_dir, which is made before the run, so
    an out_dir that cannot be made raises its OSError before any work."""
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    sim = Simulation(config)
    report = sim.run()
    if out_dir is not None:
        (out / RUN_LOG).write_text(sim.net.log.dumps(), encoding="utf-8")
        (out / REPORT).write_text(report.to_json(), encoding="utf-8")
        (out / RESOLVER_DUMP).write_text(
            "".join(f"{rec.subject} {rec.detail}\n" for rec in sim.resolver_dump),
            encoding="utf-8")
    return report, sim


@dataclass
class LogDivergence:
    line_no: int  # 1-based
    left: Optional[str]
    right: Optional[str]

    def render(self) -> str:
        left = self.left if self.left is not None else "<absent>"
        right = self.right if self.right is not None else "<absent>"
        return f"line {self.line_no}:\n- {left}\n+ {right}"


def replay_diff(path_a: Union[str, Path], path_b: Union[str, Path]) -> Optional[LogDivergence]:
    """First divergence between two event logs, or None when they are
    byte-identical.  OSError when a log cannot be read, ParseError when
    it is not UTF-8 text."""
    lines_a, lines_b = _log_lines(path_a), _log_lines(path_b)
    for i in range(max(len(lines_a), len(lines_b))):
        left = lines_a[i] if i < len(lines_a) else None
        right = lines_b[i] if i < len(lines_b) else None
        if left != right:
            return LogDivergence(i + 1, left, right)
    return None


def _log_lines(path: Union[str, Path]) -> list[str]:
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
