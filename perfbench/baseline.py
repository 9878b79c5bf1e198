"""Reproduce the ROADMAP Baseline scaling table with one command.

    python3 perfbench/baseline.py

Runs ``dense`` at n=1000 and 2000 and ``sparse`` at horizons of 100k
and 400k ticks, each twice with the default seed, and prints the best
time of each (run plus audits, and the audits alone, timed as a second
``audit.run_all`` over the finished simulation), the growth ratio of
each pair and the sparse cost per idle tick.  Linear cost would give ratios of 2 and 4.  Every result
line carries the ``src/interopsim`` line count.  This is a one-off
measurement, separate from the repeated ``run.py`` benchmark.
"""

from __future__ import annotations

import sys
from time import perf_counter

import run
import workloads

N = 1000
HORIZON = 100_000
REPEATS = 2
SEED = run.DEFAULT_SEED


def measure(program, raw: dict) -> tuple[float, float, int]:
    """Best run-plus-audits and audits-alone seconds, and the end tick."""
    scenario, engine = program
    from interopsim import audit
    best_run = best_audit = float("inf")
    for _ in range(REPEATS):
        sim = engine.Simulation(scenario.parse_scenario(raw))
        t0 = perf_counter()
        report = sim.run()
        t1 = perf_counter()
        audit.run_all(sim)
        t2 = perf_counter()
        if not report.passed():
            sys.exit(f"baseline: audits failed: {report.failed_audits()}")
        best_run = min(best_run, t1 - t0)
        best_audit = min(best_audit, t2 - t1)
    return best_run, best_audit, sim.end_tick


def main() -> int:
    program = run.import_program()
    lines = run.src_line_count()

    def row(label, raw):
        wall, audits, end_tick = measure(program, raw)
        print(f"{label:<22} run+audits {wall:8.3f} s   audits {audits:8.3f} s   "
              f"end_tick {end_tick:<7} src/interopsim={lines} lines", flush=True)
        return wall, end_tick

    print(f"best of {REPEATS}, seed {SEED}")
    small, _ = row(f"dense n={N}", workloads.dense(SEED, N))
    large, _ = row(f"dense n={2 * N}", workloads.dense(SEED, 2 * N))
    print(f"dense growth n -> 2n: x{large / small:.2f}")
    short, short_ticks = row(f"sparse H={HORIZON}", workloads.sparse(SEED, HORIZON))
    long, long_ticks = row(f"sparse H={4 * HORIZON}",
                           workloads.sparse(SEED, 4 * HORIZON))
    print(f"sparse growth H -> 4H: x{long / short:.2f}")
    per_tick = (long - short) / (long_ticks - short_ticks) * 1e6
    print(f"sparse cost per idle tick: {per_tick:.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
