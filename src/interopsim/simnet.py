"""Simulation substrate: tick clock, action queue, fault state, log.

Determinism contract, checked by the test suite:
  * integer tick clock, no wall time anywhere;
  * queued actions run ordered by (tick, schedule sequence), so two
    actions due on the same tick run in the order they were scheduled;
  * a single random.Random(seed) is the only entropy source and is
    consumed in execution order;
  * the event log is byte-identical across runs of the same scenario
    and seed.

The queue holds bare (tick, seq, fn, *args) entries, and schedule is
the only way onto it.  An entry is the call it makes: drain runs
fn(*args), where fn is a plain function over the action's own
arguments, never a bound method or a partial, so an entry adds one
object for the cyclic GC to track, its tuple.  An entry means nothing
to the queue: timers and deliveries are actions that log their own
record when they run.  A timer is _fire over (net, subject, fields,
action, *args); it logs kind=timer with fields and then calls
action(*args).  A delivery is _deliver over (net, subject, fields, src,
dst, action, *args), with src None for a local delivery.  It is judged
when it runs: one into or out of a partitioned chain, or across a cut
link, is dropped silently, logging kind=drop and never running;
otherwise it logs kind=deliver and calls action(*args).
The engine's finish empties the queue (drop_queued): what is left in
it never runs, and it would keep the net and the layers alive in a
reference cycle.

The network's fault state is what is cut off now and nothing else: one
set, cut_off, of the chain ids partitioned now and the frozenset pairs
of chain ids whose link is cut now.  The engine's fault path is its one
writer: it sets cut_off to the chains and links of the faults active
now.  The history of faults is in the log, as fault records, and the
audits read it there.  The substrate holds no entity registry and no
fault schema: the engine queues a scenario's faults as plain actions
and applies them.

Log records hold their detail as data: an ordered tuple of fields, each
a bare word or a (key, value) pair.  SimNet.record is the one writer of
the log, as schedule is of the queue: it stamps a record with the clock
and with its seq, the strictly increasing record index.  LogRecord.line()
is the one place that renders records, as "tick seq kind subject detail"
where detail joins the fields with spaces, a pair as key=value and a
list or tuple value with commas.  A delivery's fields start with its
route, src and dst or, for a local delivery, dst alone.  A ledger
record's subject is chain/ref, built by ledger_subject and split by
ledger_parts and nowhere else.  Nothing parses a rendered line back:
readers of the log, such as the audits, read the fields and the
subject's parts.

A (key, value) pair may be shared by several records, so readers
compare fields by value, never by identity.  A recurring pair is built
once by the layer that owns its value: the net keeps one src and one
dst pair per chain id, a transfer holds its own, and a state has a
constant pair.  A table that fills as a run logs (share_field) lives on
an object of that run, never at module level.  EventLog.dumps renders
RENDER_CHUNK records at a time, so it never holds a string per line.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional


RENDER_CHUNK = 1024  # records EventLog.dumps renders into one string


def share_field(table: dict, key: str, value) -> tuple:
    """The field (key, value), kept in table for later records to share."""
    field = table[value] = (key, value)
    return field


def ledger_subject(chain: str, ref: str) -> str:
    """The subject of a ledger record: entry ref on chain, as chain/ref."""
    return f"{chain}/{ref}"


def ledger_parts(subject: str) -> tuple[str, str]:
    """The (chain, ref) that ledger_subject joined; chain ids hold no "/"."""
    chain, _, ref = subject.partition("/")
    return chain, ref


@dataclass(slots=True)
class LogRecord:
    tick: int
    seq: int
    kind: str
    subject: str
    fields: tuple

    @property
    def detail(self) -> str:
        parts = []
        for field in self.fields:
            if field.__class__ is str:
                parts.append(field)
                continue
            key, value = field
            if isinstance(value, (list, tuple)):
                value = ",".join(map(str, value))
            parts.append(f"{key}={value}")
        return " ".join(parts)

    def line(self) -> str:
        head = f"{self.tick} {self.seq} {self.kind} {self.subject}"
        return f"{head} {self.detail}" if self.fields else head

    def get(self, key: str):
        """The value of the first pair named key, or None."""
        for field in self.fields:
            if field.__class__ is tuple and field[0] == key:
                return field[1]
        return None


class EventLog:
    """Append-only run log, the unit of replay comparison; SimNet.record writes it."""

    def __init__(self) -> None:
        self.records: list[LogRecord] = []

    def lines(self) -> list[str]:
        return [r.line() for r in self.records]

    def dumps(self) -> str:
        """The log as text, "".join(line + "\\n" for line in self.lines()),
        rendered RENDER_CHUNK records at a time, so no line outlives its chunk."""
        records = self.records
        return "".join(["".join([f"{r.line()}\n" for r in records[i:i + RENDER_CHUNK]])
                        for i in range(0, len(records), RENDER_CHUNK)])


class SimNet:
    """Clock, queue, fault state, RNG and log for one simulation run.
    It knows no entities: the engine decides what a fault does, and
    sets cut_off for the part that is the network's."""

    def __init__(self, seed: int, inter_chain_latency: int, latency_jitter: int) -> None:
        self.rng = random.Random(seed)
        self.now = 0
        self.log = EventLog()
        self.inter_chain_latency = inter_chain_latency
        self.latency_jitter = latency_jitter
        # (tick, seq, fn, *args), each the call fn(*args)
        self._queue: list[tuple[Any, ...]] = []
        self._next_event_seq = 0
        # the chain ids partitioned now and the frozenset pairs cut now
        self.cut_off: set = set()
        # chain id -> its ("src", id) and its ("dst", id) delivery field
        self.src_fields: dict[str, tuple] = {}
        self.dst_fields: dict[str, tuple] = {}

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., None], *args) -> None:
        """Call fn(*args) delay ticks from now, after every action already
        queued for that tick."""
        assert delay >= 0, "cannot schedule into the past"
        heapq.heappush(self._queue, (self.now + delay, self._next_event_seq, fn) + args)
        self._next_event_seq += 1

    def timer(self, subject: str, delay: int, fields: tuple,
              action: Callable[..., None], *args) -> None:
        """Call action(*args) delay ticks from now, behind a timer record
        of fields."""
        self.schedule(delay, _fire, self, subject, fields, action, *args)

    def deliver(self, src_chain: str, dst_chain: str, subject: str, fields: tuple,
                action: Callable[..., None], *args) -> None:
        """Schedule a cross-chain message that calls action(*args); dropped
        at execution time if either endpoint is partitioned or the link
        is cut then."""
        delay = self.inter_chain_latency
        if self.latency_jitter:
            delay += self.rng.randint(0, self.latency_jitter)
        self.schedule(delay, _deliver, self, subject, fields, src_chain, dst_chain,
                      action, *args)

    def local_deliver(self, chain_id: str, subject: str, fields: tuple,
                      action: Callable[..., None], *args) -> None:
        """App-to-chain submission path: no transport latency, but still
        dropped silently when the chain is partitioned at execution."""
        self.schedule(0, _deliver, self, subject, fields, None, chain_id, action, *args)

    # -- execution -----------------------------------------------------

    def record(self, kind: str, subject: str, *fields) -> LogRecord:
        """Log fields, each a bare word or a (key, value) pair, in order."""
        records = self.log.records
        rec = LogRecord(self.now, len(records), kind, subject, fields)
        records.append(rec)
        return rec

    def next_event_tick(self) -> Optional[int]:
        return self._queue[0][0] if self._queue else None

    def drop_queued(self) -> None:
        """Empty the queue without running what it holds.  Queued actions
        hold the layers that scheduled them, and this net through them."""
        self._queue.clear()

    def drain(self, tick: int) -> int:
        """Run every action due at tick, including ones scheduled at
        this tick by other actions; returns the number run."""
        assert tick >= self.now
        self.now = tick
        queue = self._queue
        executed = 0
        while queue and queue[0][0] <= tick:
            entry = heapq.heappop(queue)
            entry[2](*entry[3:])
            executed += 1
        return executed


def _fire(net: SimNet, subject: str, fields: tuple, action: Callable[..., None],
          *args) -> None:
    """A queued timer: log fields, then call action(*args)."""
    net.record("timer", subject, *fields)
    action(*args)


def _deliver(net: SimNet, subject: str, fields: tuple, src: Optional[str], dst: str,
             action: Callable[..., None], *args) -> None:
    """A queued delivery from src to dst, or a local one into dst when src
    is None: logged and run, or logged as a drop when dst, src or their
    link is cut off now."""
    cut_off = net.cut_off
    dropped = cut_off and (dst in cut_off or src is not None and (
        src in cut_off or frozenset((src, dst)) in cut_off))
    kind = "drop" if dropped else "deliver"
    dst_field = net.dst_fields.get(dst) or share_field(net.dst_fields, "dst", dst)
    if src is None:
        net.record(kind, subject, dst_field, *fields)
    else:
        src_field = net.src_fields.get(src) or share_field(net.src_fields, "src", src)
        net.record(kind, subject, src_field, dst_field, *fields)
    if not dropped:
        action(*args)
