"""interopsim benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                      # all four workloads
    python3 perfbench/run.py --record-expected    # re-record expected.json

Load is one closed loop in one thread: a workload iteration starts only
after the previous one has finished.  An iteration takes the generated
raw scenario mappings (``workloads.py``) through ``parse_scenario``,
``Simulation(...)`` and ``Simulation.run``, which returns a report with
all fourteen audits.  ``fault_sweep`` is a batch of 500 such runs per
iteration.  One untimed iteration comes first; it warms caches and is
the reference the timed repeats must reproduce byte for byte.

``--trace 0`` reports the end-to-end metrics, each the median over the
timed iterations (quartiles and sample count are printed above the
result line):

* ``wall_s`` -- one iteration, raw mapping to audited report;
* ``setup_s`` -- the ``parse_scenario`` plus ``Simulation(...)`` part;
* ``records_per_s`` / ``ticks_per_s`` -- event-log records and simulated
  ticks (``end_tick``) per second of ``wall_s``;
* ``peak_rss_mib`` -- peak resident memory of a separate process that
  runs one iteration of the workload and nothing else.

The four timings are host time scaled to a fixed reference speed.  On a
shared machine the speed of a single Python thread can change by a
factor of two within minutes, for the program and for other Python code
alike.  So ``calibrate()``, fixed work that shares no code with
interopsim, is timed between timed iterations and, within a batch,
every ``CALIBRATION_CHUNK`` runs.  The host time between two
calibrations is multiplied by ``CALIBRATION_REF_S`` over the mean of
the two.  A change to the program moves the scaled figure as it moves
host time; a change in machine speed mostly cancels.  The unscaled host
medians are printed too.

``--trace 1`` alternates untraced iterations with iterations under the
span tracer of ``tracing.py``, and reports the per-layer metrics of
``layer_metrics`` plus ``trace.overhead_ratio`` (the median over pairs
of traced over untraced ``wall_s``).  A layer the workload never calls
gives counts and times of 0, and its ratios and per-call means are
undefined: the printed lines say so, and the result line, which must
hold a number for every per-layer metric, writes them as 0.  The spans
of the last traced simulation are written to ``perfbench/out/``.

A run fails if it raises, if any audit fails, if a repeat's event log
differs from the first iteration's, or, for the default seed, if the
digest or counts differ from ``expected.json``.  The last line printed
is one JSON object: ``correct``, ``attempted`` and ``failed`` (counted
in simulation runs) and ``metrics``.  The exit status is 0 only when
nothing failed; it is 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"
DEFAULT_SEED = 0
MIN_ITERATIONS = 3
# host seconds calibrate() takes at the reference speed
CALIBRATION_REF_S = 0.06
# simulation runs between two calibrations inside one iteration, so that
# a fault_sweep batch (500 runs, over a second) is calibrated every ~0.3 s
CALIBRATION_CHUNK = 100
AUDIT_COUNT = 14

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import AUDITS, Tracer  # noqa: E402

# the one list of metric names and units
SPEC = ROOT / "BENCHMARK.json"


def import_program():
    """Import interopsim from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        from interopsim import engine, scenario
    except ImportError as exc:
        print(f"perfbench: cannot import interopsim from {SRC}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if SRC not in Path(engine.__file__).resolve().parents:
        print(f"perfbench: interopsim imported from {engine.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return scenario, engine


def calibration_kernel() -> int:
    """Fixed pure-Python work of the kinds interopsim does: small objects,
    string keys, dict lookups, exact fractions and a sort."""
    index = {}
    head = None
    acc = Fraction(0)
    for i in range(6000):
        key = f"n{i % 997}:{i}"
        head = index[key] = [key, i, head]
        if i % 7 == 0:
            acc += Fraction(i % 13 + 1, 3)
    total = 0
    while head is not None:
        total += index[head[0]][1]
        head = head[2]
    ranked = sorted(index.items(), key=lambda kv: (kv[1][1] % 101, kv[0]))
    return total + len(ranked) + int(acc)


def calibrate() -> float:
    """Host seconds of five calibration kernels, on a collected heap."""
    gc.collect()
    t0 = perf_counter()
    for _ in range(5):
        calibration_kernel()
    return perf_counter() - t0


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "interopsim").rglob("*.py")))


class Iteration:
    """One pass over a workload's mappings: timings, outputs, failures."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.setup = 0.0
        self.scaled_wall = 0.0
        self.scaled_setup = 0.0
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []
        self.counts = Counter()
        self.states: Counter = Counter()
        self.spans: dict[str, list[float]] = {}

    @property
    def digest(self) -> str:
        if len(self.digests) == 1:
            return self.digests[0]
        return hashlib.sha256("".join(self.digests).encode("ascii")).hexdigest()

    def summary(self) -> dict:
        return {"sha256": self.digest, "end_tick": self.counts["end_tick"],
                "events": self.counts["events"],
                "records": self.counts["records"],
                "states": dict(sorted(self.states.items()))}


def log_counts(records) -> Counter:
    """Per-layer counts read back from the event log."""
    c = Counter()
    for rec in records:
        kind, detail = rec.kind, rec.detail
        if kind == "drop":
            c["drops"] += 1
        elif kind == "peer" and detail.startswith("repair"):
            c["repairs"] += 1
        elif kind == "txn" and detail.startswith("attempt="):
            c["attempts"] += detail.endswith(" submit")
            c["timeouts"] += detail.endswith(" timeout")
        elif kind == "txn" and detail.endswith(" late=1"):
            c["late_confirms"] += 1
    return c


def run_iteration(program, raws, tracer=None, calibrations=None) -> Iteration:
    """Run each mapping once.  With ``calibrations``, whose last entry was
    measured just before this call, ``calibrate()`` is also timed after
    every ``CALIBRATION_CHUNK`` runs and after the last one, and each
    chunk's host time, scaled by its two flanking calibrations, is added
    to ``scaled_wall`` and ``scaled_setup``."""
    scenario, engine = program
    it = Iteration()
    chunk_start = [0.0, 0.0]  # it.wall and it.setup when the chunk began

    def close_chunk():
        calibrations.append(calibrate())
        scale = 2 * CALIBRATION_REF_S / (calibrations[-2] + calibrations[-1])
        it.scaled_wall += (it.wall - chunk_start[0]) * scale
        it.scaled_setup += (it.setup - chunk_start[1]) * scale
        chunk_start[:] = it.wall, it.setup

    gc.collect()
    for i, raw in enumerate(raws):
        if calibrations is not None and i and i % CALIBRATION_CHUNK == 0:
            close_chunk()
        it.attempted += 1
        try:
            t0 = perf_counter()
            sim = engine.Simulation(scenario.parse_scenario(raw))
            t1 = perf_counter()
            report = sim.run()
            t2 = perf_counter()
        except Exception:
            it.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        it.wall += t2 - t0
        it.setup += t1 - t0
        failed_audits = [a.name for a in report.failed_audits()]
        if failed_audits or len(report.audits) != AUDIT_COUNT:
            it.failed += 1
            print(f"perfbench: seed {report.seed}: audits failed: "
                  f"{failed_audits or len(report.audits)}", file=sys.stderr)
        records = sim.net.log.records
        it.digests.append(hashlib.sha256(sim.net.log.dumps().encode()).hexdigest())
        it.counts.update(end_tick=sim.end_tick, events=sim.events_executed,
                         records=len(records))
        for section, outcomes in report.outcomes.items():
            for outcome in outcomes.values():
                it.states[f"{section}.{outcome['state']}"] += 1
        if tracer is not None:
            tracer.fold(it.spans)
            it.counts.update(log_counts(records))
    if calibrations is not None:
        close_chunk()
    if tracer is not None:
        it.counts.update(tracer.counts)
        tracer.counts.update(dict.fromkeys(tracer.counts, 0))
    return it


def layer_metrics(it: Iteration) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.  ``_s`` values are self
    time (span time not covered by a child span), except
    ``scenario.parse_s``, ``engine.build_s``, ``chain.consensus_s`` and
    ``audit.total_s``, which are totals.  A ratio or per-call mean over
    no calls is undefined and is None here."""
    spans, c = it.spans, it.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else None

    def us_per_call(name):
        return total(name) / calls(name) * 1e6 if calls(name) else None

    m = {
        "scenario.parse_s": total("scenario.parse"),
        "engine.build_s": total("engine.build"),
        "engine.ticks": calls("simnet.drain"),
        "engine.quiescent_s": own("engine.quiescent"),
        "engine.quiescent_calls": calls("engine.quiescent"),
        "report.assemble_self_s": own("report.assemble"),
        "simnet.drain_self_s": own("simnet.drain"),
        "simnet.events": c["events"],
        "simnet.records": c["records"],
        "simnet.drops": c["drops"],
        "chain.consensus_s": total("chain.consensus"),
        "chain.consensus_calls": calls("chain.consensus"),
        "chain.confirmed": c["confirmed"],
        "chain.idle_consensus_ratio": ratio(c["consensus_idle"],
                                            calls("chain.consensus")),
        "survivor.on_confirmed_s": own("survivor.on_confirmed"),
        "survivor.attempts": c["attempts"],
        "survivor.timeouts": c["timeouts"],
        "survivor.late_confirms": c["late_confirms"],
        "gateway.on_confirmed_s": own("gateway.on_confirmed"),
        "gateway.step_all_s": own("gateway.step_all"),
        "gateway.steps": c["steps"],
        "gateway.live_step_ratio": ratio(c["live_steps"], c["steps"]),
        "gateway.vouch_s": own("gateway.vouch"),
        "gateway.vouch_calls": calls("gateway.vouch"),
        "gateway.vouch_retry_ratio": ratio(c["vouch_failed"],
                                           calls("gateway.vouch")),
        "gateway.verify_s": own("gateway.verify"),
        "gateway.verify_calls": calls("gateway.verify"),
        "gateway.repairs": c["repairs"],
        "gateway.read_s": own("gateway.read"),
        "gateway.read_calls": calls("gateway.read"),
        "identity.resolve_s": own("identity.resolve"),
        "identity.resolve_calls": calls("identity.resolve"),
        "identity.rebind_s": own("identity.rebind"),
        "identity.rebinds": calls("identity.rebind"),
        "identity.mint_s": own("identity.mint"),
        "valuenet.build_path_s": own("valuenet.build_path"),
        "valuenet.route_s": own("valuenet.route"),
        "valuenet.build_calls": calls("valuenet.build_path"),
        "valuenet.overloaded_ratio": ratio(c["overloaded"],
                                           calls("valuenet.build_path")),
        "valuenet.settle_s": own("valuenet.settle"),
        "valuenet.release_s": own("valuenet.release"),
        "valuenet.expire_s": own("valuenet.expire"),
        "valuenet.expire_calls": calls("valuenet.expire"),
        "valuenet.useful_expire_ratio": ratio(c["expire_useful"],
                                              calls("valuenet.expire")),
        "audit.total_s": total("audit.total"),
    }
    for name in AUDITS:
        m[f"audit.{name}_s"] = own(f"audit.{name}")
    for name in ("chain.consensus", "valuenet.route", "gateway.vouch",
                 "gateway.verify", "identity.resolve"):
        m[f"{name}_us_per_call"] = us_per_call(name)
    return m


def layer_shares(it: Iteration) -> dict[str, float]:
    """Share of traced wall time spent in each module's own code."""
    shares: Counter = Counter()
    for name, (_, _, own) in it.spans.items():
        layer = name.split(".")[0]
        shares["engine" if layer == "report" else layer] += own
    return {k: v / it.wall for k, v in shares.most_common()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def peak_rss_mib(workload: str, seed: int) -> float:
    """Peak RSS of a fresh process that runs one iteration; in one
    long-lived process the figure grows across repeats.  Call it before
    this process has done any work: Linux carries a parent's peak RSS
    at the moment of the child's start into the child's ``ru_maxrss``."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--seed", str(seed), "--rss-probe"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=False)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise RuntimeError(f"peak RSS probe for {workload} exited {child.returncode}")
    return float(child.stdout.strip().splitlines()[-1])


class Run:
    """The closed loop for one workload and seed."""

    def __init__(self, program, workload: str, seed: int) -> None:
        self.program = program
        self.workload = workload
        self.seed = seed
        self.raws = workloads.generate(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.reference = self.iterate()
        if seed == DEFAULT_SEED:
            self._check_expected(self.reference)

    def iterate(self, tracer=None, calibrations=None) -> Iteration:
        it = run_iteration(self.program, self.raws, tracer, calibrations)
        self.attempted += it.attempted
        self.failed += it.failed
        if self.reference is not None and it.digest != self.reference.digest:
            self.failed += it.attempted - it.failed
            print(f"perfbench: {self.workload} seed {self.seed}: a repeat's "
                  f"event log differs from the first run", file=sys.stderr)
        return it

    def _check_expected(self, it: Iteration) -> None:
        expected = json.loads(EXPECTED.read_text()).get(self.workload)
        if expected != it.summary():
            self.failed += it.attempted - it.failed
            print(f"perfbench: {self.workload} seed {DEFAULT_SEED}: outputs "
                  f"differ from expected.json:\n  expected {expected}\n"
                  f"  got      {it.summary()}", file=sys.stderr)

    def loop(self, seconds: float) -> list[Iteration]:
        """Timed iterations, calibrated between and within them."""
        its: list[Iteration] = []
        calibrations = [calibrate()]
        start = perf_counter()
        while len(its) < MIN_ITERATIONS or perf_counter() - start < seconds:
            its.append(self.iterate(calibrations=calibrations))
        return its


def end_to_end(run: Run, seconds: float, rss: float,
               units: dict[str, str]) -> tuple[dict, list[str]]:
    its = run.loop(seconds)
    samples = {
        "wall_s": [it.scaled_wall for it in its],
        "setup_s": [it.scaled_setup for it in its],
        "records_per_s": [it.counts["records"] / it.scaled_wall for it in its],
        "ticks_per_s": [it.counts["end_tick"] / it.scaled_wall for it in its],
    }
    lines = [f"host time median: wall {statistics.median(it.wall for it in its):.6g} s, "
             f"setup {statistics.median(it.setup for it in its):.6g} s; speed scale "
             f"median {statistics.median(it.scaled_wall / it.wall for it in its):.4g}"]
    metrics = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        metrics[name] = med
        lines.append(f"{name:<16} median {med:<12.6g} q1 {q1:<12.6g} "
                     f"q3 {q3:<12.6g} n={len(values)}  {units[name]}")
    metrics["peak_rss_mib"] = rss
    lines.append(f"{'peak_rss_mib':<16} {metrics['peak_rss_mib']:.6g} MiB "
                 f"(one-iteration process)")
    lines.append(f"setup share      {metrics['setup_s'] / metrics['wall_s']:.3f}"
                 f" of wall_s")
    return metrics, lines


def per_layer(run: Run, seconds: float,
              units: dict[str, str]) -> tuple[dict, list[str]]:
    tracer = Tracer()
    plain, traced = [], []
    start = perf_counter()
    # alternate, so both sides of the overhead ratio see the same load
    while len(traced) < MIN_ITERATIONS or perf_counter() - start < seconds:
        plain.append(run.iterate())
        with tracer:
            traced.append(run.iterate(tracer))
    per_it = [layer_metrics(it) for it in traced]
    # every traced iteration runs the same mappings, so a metric is
    # undefined (None) in all of them or in none
    metrics = {name: None if per_it[0][name] is None
               else statistics.median(m[name] for m in per_it)
               for name in per_it[0]}
    metrics["trace.overhead_ratio"] = statistics.median(
        t.wall / p.wall for t, p in zip(traced, plain))
    OUT.mkdir(exist_ok=True)
    base = tracer.last_spans[0][1] if tracer.last_spans else 0.0
    (OUT / f"spans-{run.workload}-{run.seed}.json").write_text(json.dumps(
        [[n, round(s - base, 9), round(e - base, 9), p]
         for n, s, e, p in tracer.last_spans]))
    shares = layer_shares(traced[len(traced) // 2])
    lines = [f"{name:<40} " + (f"{value:.6g} {units[name]}" if value is not None
                               else "undefined: no calls, reported as 0")
             for name, value in metrics.items()]
    lines.append("layer shares of traced wall_s: " + ", ".join(
        f"{k} {v:.3f}" for k, v in shares.items()))
    lines.append(f"traced iterations n={len(traced)}, untraced n={len(plain)}")
    return metrics, lines


def bench(program, workload: str, seed: int, seconds: float, trace: bool,
          rss: float | None):
    spec = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    run = Run(program, workload, seed)
    metrics, lines = (per_layer(run, seconds, units) if trace
                      else end_to_end(run, seconds, rss, units))
    print(f"== {workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"src/interopsim={src_line_count()} lines")
    for line in lines:
        print("  " + line)
    print(f"  run_fail_ratio   {run.failed}/{run.attempted} = "
          f"{run.failed / run.attempted:g}")
    # the result holds exactly the metrics BENCHMARK.json lists; a metric
    # the workload leaves undefined is written as 0, as the result must
    # hold a number for each
    return run, {name: {"value": metrics[name] or 0.0, "unit": unit}
                 for name, unit in units.items()}


def record_expected(program, names) -> None:
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for name in names:
        it = run_iteration(program, workloads.generate(name, DEFAULT_SEED))
        if it.failed:
            sys.exit(f"perfbench: {name} failed; expected.json not written")
        recorded[name] = it.summary()
    EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {', '.join(names)} in {EXPECTED}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.GENERATORS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="re-record expected.json for the default seed")
    parser.add_argument("--rss-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rss_probe and args.workload == "all":
        parser.error("--rss-probe needs one --workload")
    program = import_program()
    names = (list(workloads.GENERATORS) if args.workload == "all"
             else [args.workload])

    if args.rss_probe:
        run_iteration(program, workloads.generate(args.workload, args.seed))
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return 0
    if args.record_expected:
        record_expected(program, names)
        return 0

    rss = {name: None if args.trace else peak_rss_mib(name, args.seed)
           for name in names}
    attempted = failed = 0
    metrics = {}
    for name in names:
        run, m = bench(program, name, args.seed, args.seconds, bool(args.trace),
                       rss[name])
        attempted += run.attempted
        failed += run.failed
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
