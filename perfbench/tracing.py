"""Span tracing at interopsim's layer boundaries, applied from outside.

``Tracer.install`` replaces each boundary function with a wrapper that
records a span (name, start, end, parent) and, for some boundaries,
counts outcomes; ``Tracer.remove`` puts the originals back.  A plain
function is replaced in every interopsim module that holds it, because
``from .gateway import verify_attestation`` binds a second name that a
patch of ``gateway`` alone would miss.  Methods are replaced on their
class.  The audits are module globals that ``audit.run_all`` looks up
on each call, so replacing them there is enough.

Spans stay in memory for one simulation run; ``fold`` turns them into
per-name call counts, total time and self time (total minus the time
covered by direct child spans) and clears them.  The program's event
log never sees any of this.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (span name, module, attribute path); methods as "Class.method"
BOUNDARIES = [
    ("scenario.parse", "interopsim.scenario", "parse_scenario"),
    ("engine.build", "interopsim.engine", "Simulation.__init__"),
    ("engine.run", "interopsim.engine", "Simulation.run"),
    ("engine.quiescent", "interopsim.engine", "Simulation._quiescent"),
    ("report.assemble", "interopsim.engine", "Simulation._assemble_report"),
    ("simnet.drain", "interopsim.simnet", "SimNet.drain"),
    ("chain.consensus", "interopsim.chain", "BlockchainSystem.advance_consensus"),
    ("survivor.on_confirmed", "interopsim.survivor", "SurvivorLayer.on_confirmed"),
    ("gateway.on_confirmed", "interopsim.gateway", "TransferEngine.on_confirmed"),
    ("gateway.step_all", "interopsim.gateway", "TransferEngine.step_all"),
    ("gateway.vouch", "interopsim.gateway", "vouch"),
    ("gateway.verify", "interopsim.gateway", "verify_attestation"),
    ("gateway.read", "interopsim.gateway", "mediated_read"),
    ("identity.resolve", "interopsim.identity", "Resolver.resolve"),
    ("identity.rebind", "interopsim.identity", "Resolver.rebind_authority"),
    ("identity.mint", "interopsim.identity", "Resolver.mint_cross_id"),
    ("valuenet.build_path", "interopsim.valuenet", "ValueNetwork.build_path"),
    ("valuenet.route", "interopsim.valuenet", "ValueNetwork.route"),
    ("valuenet.settle", "interopsim.valuenet", "ValueNetwork.settle_path"),
    ("valuenet.release", "interopsim.valuenet", "ValueNetwork.release_path"),
    ("valuenet.expire", "interopsim.valuenet", "ValueNetwork.expire"),
    ("audit.total", "interopsim.audit", "run_all"),
]

# report name -> function name, in audit.run_all's order
AUDITS = {
    "clock_monotonic": "_clock_monotonic",
    "append_only_ledgers": "_append_only",
    "quorum_soundness": "_quorum_soundness",
    "confirm_latency": "_confirm_latency",
    "semantic_gating": "_semantic_gating",
    "idempotent_submission": "_idempotent_submission",
    "single_authority": "_single_authority",
    "no_lost_assets": "_no_lost_assets",
    "attestation_necessity": "_attestation_necessity",
    "masking_bijectivity": "_masking_bijectivity",
    "resolution_opacity": "_resolution_opacity",
    "no_partition_delivery": "_no_partition_delivery",
    "value_conservation": "_value_conservation",
    "reservation_consistency": "_reservation_consistency",
}
BOUNDARIES += [(f"audit.{name}", "interopsim.audit", fn)
               for name, fn in AUDITS.items()]

COUNTERS = ("consensus_idle", "confirmed", "steps", "live_steps",
            "vouch_failed", "overloaded", "expire_useful")


class Tracer:
    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self._names: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int] = []
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.last_spans: list[tuple[str, float, float, int]] = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        names, starts, ends = self._names, self._starts, self._ends
        parents, stack = self._parents, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = perf_counter()
                stack.pop()
                if after is not None:
                    after(args, None, exc)
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if after is not None:
                after(args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        from interopsim.errors import InsufficientGateways, Overloaded
        from interopsim.gateway import TERMINAL_STATES
        counts = self.counts

        def consensus(args, result, exc):
            if result is not None:
                counts["confirmed"] += len(result)
                counts["consensus_idle"] += not result

        def steps(args):
            transfers = args[0].transfers
            counts["steps"] += len(args[0].order)
            counts["live_steps"] += sum(
                transfers[tid].state not in TERMINAL_STATES for tid in args[0].order)

        def vouched(args, result, exc):
            counts["vouch_failed"] += isinstance(exc, InsufficientGateways)

        def built(args, result, exc):
            counts["overloaded"] += isinstance(exc, Overloaded)

        def expired(args, result, exc):
            counts["expire_useful"] += bool(result)

        return {"chain.consensus": (None, consensus),
                "gateway.step_all": (steps, None),
                "gateway.vouch": (None, vouched),
                "valuenet.build_path": (None, built),
                "valuenet.expire": (None, expired)}

    def install(self) -> None:
        import interopsim  # noqa: F401  (loads every module it re-exports)
        hooks = self._hooks()
        modules = [m for key, m in sys.modules.items()
                   if key == "interopsim" or key.startswith("interopsim.")]
        for name, module_name, attr in BOUNDARIES:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owners = [getattr(owner, cls_name)]
                original = getattr(owners[0], attr)
            else:
                original = getattr(owner, attr)
                owners = [m for m in modules if getattr(m, attr, None) is original]
            wrapper = self._wrap(name, original, *hooks.get(name, (None, None)))
            for o in owners:
                self._patched.append((o, attr, original))
                setattr(o, attr, wrapper)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- aggregation ---------------------------------------------------

    def fold(self, into: dict[str, list[float]]) -> None:
        """Add this run's spans to into[name] = [calls, total_s, self_s]
        and clear them, keeping them in last_spans for write-out."""
        names, starts, ends, parents = (self._names, self._starts,
                                        self._ends, self._parents)
        child = [0.0] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        for i, name in enumerate(names):
            dur = ends[i] - starts[i]
            agg = into.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child[i]
        self.last_spans = list(zip(names, starts, ends, parents))
        names.clear()
        starts.clear()
        ends.clear()
        parents.clear()
