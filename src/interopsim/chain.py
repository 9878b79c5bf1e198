"""Blockchain autonomous system abstraction.

A chain is a quorum-latency consensus model over an append-only ledger:
a submitted unit confirms once it has aged confirm_latency_ticks and the
live node population meets the quorum threshold, computed against the
total registered population.  Internal structure beyond node count and
liveness is deliberately out of scope; nodes never gossip here.

A unit is one record from submission on: submit queues the LedgerEntry
it will become, and advance_consensus stamps its confirmed_tick and
confirming nodes and appends it.  next_confirm_tick alone says when the
chain can next confirm.

The confirming set of an entry is the chain's live nodes, sorted, at the
tick it confirms.  Each confirmation between two liveness changes names
the same set, so the chain keeps the tuple: set_node_live, the one
writer of node liveness, drops it when liveness changes, and the next
confirmation rebuilds it.

The chain owns its reads: read applies the regime's read rule, and
entry, the one confirmed-entry lookup, tells a pending ref
(NotConfirmed) from one the chain never issued (NotFound).  Minting
and mediated reads go through them and restate neither.

Invariants enforced or surfaced for audit:
  * ledger is append-only (no removal API; marks are one-shot);
  * at most one authority mark and one void tombstone per entry;
  * idempotent submission: same idempotency_key never creates two
    entries on one chain;
  * unit semantic_type must match the chain's;
  * write and read permission checks per the chain's regime.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Any, Optional

from .errors import NotConfirmed, NotFound, PermissionDenied, SemanticMismatch


class SemanticType:
    """A chain's semantic types, each the text it is logged as."""

    PAYMENTS = "payments"
    ASSET_REGISTRY = "asset-registry"
    GENERIC_RECORD = "generic-record"


# every semantic type, in declaration order
SEMANTIC_TYPES = (SemanticType.PAYMENTS, SemanticType.ASSET_REGISTRY,
                  SemanticType.GENERIC_RECORD)


class Directionality:
    """A unit's directionality, as the text it is logged as."""

    UNI = "uni"
    BI = "bi"


@dataclass(frozen=True)
class PermissionRegime:
    """Four independent permissioning axes; node permissioning implies
    consensus permissioning (a known node set is a known quorum set)."""

    node_permissioned: bool = False
    consensus_permissioned: bool = False
    user_write_permissioned: bool = False
    user_read_permissioned: bool = False

    def __post_init__(self):
        if self.node_permissioned and not self.consensus_permissioned:
            raise ValueError("node permissioning subsumes consensus permissioning")


def slot_setters(cls) -> tuple:
    """The __set__ of each field's slot of a slotted dataclass, in field
    order.  A frozen dataclass's own __init__ stores each field through
    object.__setattr__; an __init__ that stores through these skips that
    lookup and stays frozen to every other writer."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class TransferUnit:
    """The datagram of the system: what a chain confirms."""

    payload_digest: str
    semantic_type: str
    directionality: str
    idempotency_key: str
    intended_peer: Optional[str] = None

    def __init__(self, payload_digest: str, semantic_type: str,
                 directionality: str, idempotency_key: str,
                 intended_peer: Optional[str] = None) -> None:
        if directionality == Directionality.BI and intended_peer is None:
            raise ValueError("bidirectional unit requires intended_peer")
        if directionality == Directionality.UNI and intended_peer is not None:
            raise ValueError("unidirectional unit must not name a peer")
        _set_digest(self, payload_digest)
        _set_semantic(self, semantic_type)
        _set_direction(self, directionality)
        _set_key(self, idempotency_key)
        _set_peer(self, intended_peer)


_set_digest, _set_semantic, _set_direction, _set_key, _set_peer = slot_setters(TransferUnit)


# Entry kinds. unit/lock/record go through consensus and are subject to
# the quorum and latency rules; genesis entries are scenario-seeded and
# attestation entries are direct gateway appends.
ENTRY_KIND_UNIT = "unit"
ENTRY_KIND_LOCK = "lock"
ENTRY_KIND_RECORD = "record"
ENTRY_KIND_GENESIS = "genesis"
ENTRY_KIND_ATTESTATION = "attestation"

CONSENSUS_KINDS = (ENTRY_KIND_UNIT, ENTRY_KIND_LOCK, ENTRY_KIND_RECORD)


@dataclass(slots=True)
class LedgerEntry:
    local_ref: str
    kind: str
    unit: Optional[TransferUnit]
    submitted_tick: int
    confirmed_tick: Optional[int]  # None while the entry is pending
    confirming_nodes: tuple[str, ...]
    payload: str = ""

    def canonical(self) -> str:
        unit = self.unit
        if unit is None:
            unit_part = "-"
        else:
            unit_part = (f"{unit.payload_digest}:{unit.semantic_type}:"
                         f"{unit.directionality}:{unit.idempotency_key}:"
                         f"{unit.intended_peer or '-'}")
        return (f"{self.local_ref}|{self.kind}|{unit_part}|{self.submitted_tick}|"
                f"{self.confirmed_tick}|{','.join(self.confirming_nodes)}|{self.payload}")


@dataclass
class Ledger:
    """Append-only confirmed entries plus one-shot marks and voids."""

    entries: list[LedgerEntry] = field(default_factory=list)
    marks: dict[str, Any] = field(default_factory=dict)
    voids: dict[str, int] = field(default_factory=dict)
    _by_ref: dict[str, LedgerEntry] = field(default_factory=dict)

    def append(self, entry: LedgerEntry) -> LedgerEntry:
        assert entry.local_ref not in self._by_ref, "duplicate local_ref"
        self.entries.append(entry)
        self._by_ref[entry.local_ref] = entry
        return entry

    def get(self, local_ref: str) -> Optional[LedgerEntry]:
        return self._by_ref.get(local_ref)

    def mark(self, local_ref: str, pointer: Any) -> None:
        if local_ref not in self._by_ref:
            raise NotFound(f"no entry {local_ref}")
        if local_ref in self.marks:
            raise ValueError(f"entry {local_ref} already marked")
        self.marks[local_ref] = pointer

    def void(self, local_ref: str, tick: int) -> None:
        if local_ref not in self._by_ref:
            raise NotFound(f"no entry {local_ref}")
        if local_ref in self.voids:
            raise ValueError(f"entry {local_ref} already voided")
        self.voids[local_ref] = tick


@dataclass(slots=True)
class SubmitReceipt:
    local_ref: str
    duplicate: bool


@dataclass(slots=True)
class ReadResult:
    entry: LedgerEntry
    mark: Any = None
    voided: bool = False


@dataclass
class ChainStatus:
    chain_id: str
    live_node_count: int
    pending_count: int
    mean_confirm_latency: float


# A local ref is "e" and the chain's ref counter (next_ref).  It never
# leaves the domain, and LOCAL_REF finds one as a word in any text: a
# name that shows outside the domain must not hold such a word.
LOCAL_REF = re.compile(r"\be\d+\b")
# A node id is the chain id, ".n" and an index (node_ids), and a chain id
# holds no ".", so NODE_ID_TAIL finds every place where a node id could
# be in a text: a name that shows outside the domain must not hold one.
NODE_ID_TAIL = re.compile(r"\.n\d")


def node_ids(chain_id: str, count: int) -> list[str]:
    """The ids of a chain's count nodes."""
    return [f"{chain_id}.n{i}" for i in range(1, count + 1)]


def gateway_ids(chain_id: str, count: int) -> list[str]:
    """The ids of a chain's count gateways."""
    return [f"{chain_id}.g{i}" for i in range(1, count + 1)]


def chain_of(member_id: str) -> str:
    """The chain that a node or gateway id names before its dot."""
    return member_id.split(".", 1)[0]


def has_member(chain_id: str, count: int, tail: str, member_id: str) -> bool:
    """Whether member_id is one of the ids that node_ids (tail ".n") or
    gateway_ids (".g") gives chain_id for count members, by its format
    and without listing them: the index's digits are counted before
    int() reads them."""
    index = member_id[len(chain_id) + len(tail):]
    return (member_id.startswith(chain_id + tail) and index.isdigit() and index.isascii()
            and index[0] != "0" and len(index) <= len(str(count)) and int(index) <= count)


class BlockchainSystem:
    """One autonomous system: node population, regime, ledger."""

    def __init__(self, chain_id: str, node_ids: list[str],
                 regime: PermissionRegime, quorum_fraction: Fraction,
                 confirm_latency_ticks: int, semantic_type: str,
                 writers: Optional[set[str]] = None,
                 readers: Optional[set[str]] = None) -> None:
        if not node_ids:
            raise ValueError("chain needs at least one node")
        # a Fraction's denominator is positive
        num, den = quorum_fraction.numerator, quorum_fraction.denominator
        if not 0 < num <= den:
            raise ValueError("quorum_fraction must be in (0, 1]")
        if confirm_latency_ticks < 1:
            raise ValueError("confirm_latency_ticks must be >= 1")
        self.chain_id = chain_id
        self.nodes: dict[str, bool] = {nid: True for nid in node_ids}
        # cached for quorum_met and advance_consensus: the population is
        # fixed, and liveness changes only through set_node_live
        self._threshold = -(-num * len(self.nodes) // den)  # the ceiling
        self._live = len(self.nodes)
        self._confirming: Optional[tuple[str, ...]] = None
        # every node, sorted: the confirming set of each genesis entry
        self._all_nodes = tuple(sorted(self.nodes))
        self.regime = regime
        self.confirm_latency_ticks = confirm_latency_ticks
        self.semantic_type = semantic_type
        self.writers: set[str] = set(writers or ())
        self.readers: set[str] = set(readers or ())
        self.ledger = Ledger()
        self.pending: list[LedgerEntry] = []  # in submission order
        # idempotency key -> the ref of its entry, pending or confirmed
        self.refs: dict[str, str] = {}
        self._ref_counter = 0

    # -- population ----------------------------------------------------

    def quorum_threshold(self) -> int:
        """Minimum confirming nodes, against total registered population."""
        return self._threshold

    def live_node_ids(self) -> list[str]:
        return sorted(nid for nid, live in self.nodes.items() if live)

    def live_count(self) -> int:
        return self._live

    def set_node_live(self, node_id: str, live: bool) -> None:
        if node_id not in self.nodes:
            raise NotFound(f"unknown node {node_id}")
        if self.nodes[node_id] != live:
            self._live += 1 if live else -1
            self._confirming = None
        self.nodes[node_id] = live

    def quorum_met(self) -> bool:
        return self._live >= self._threshold

    def next_confirm_tick(self) -> Optional[int]:
        """Earliest tick at which advance_consensus can confirm anything,
        given the current liveness; None when nothing can.  Pending
        entries are in submission order, so the first one matures first."""
        if not self.pending or not self.quorum_met():
            return None
        return self.pending[0].submitted_tick + self.confirm_latency_ticks

    # -- write path ----------------------------------------------------

    def next_ref(self) -> str:
        """The next local ref, in the LOCAL_REF format."""
        self._ref_counter += 1
        return f"e{self._ref_counter}"

    def submit(self, unit: TransferUnit, credential: str, now: int,
               kind: str = ENTRY_KIND_UNIT) -> SubmitReceipt:
        """Queue a unit for consensus.  Reachability is the transport
        layer's concern; this is the chain-side admission check."""
        if self.regime.user_write_permissioned and credential not in self.writers:
            raise PermissionDenied(f"{credential!r} may not write to {self.chain_id}")
        if unit.semantic_type != self.semantic_type:
            raise SemanticMismatch(
                f"{unit.semantic_type} unit on {self.semantic_type} chain")
        existing = self.refs.get(unit.idempotency_key)
        if existing is not None:
            return SubmitReceipt(existing, True)
        ref = self.next_ref()
        self.refs[unit.idempotency_key] = ref
        self.pending.append(LedgerEntry(ref, kind, unit, now, None, ()))
        return SubmitReceipt(ref, False)

    def advance_consensus(self, now: int) -> list[LedgerEntry]:
        """Confirm, in submission order, every pending entry that has aged
        past the confirm latency, provided the live population meets
        quorum, and return them; the aged ones lead the queue.  The quorum
        test and the loop's age test are the whole guard, so the engine,
        which reads next_confirm_tick after the call, reads it once per
        visit."""
        if not self.quorum_met():
            return []
        pending, oldest = self.pending, now - self.confirm_latency_ticks
        confirmed: list[LedgerEntry] = []
        for entry in pending:
            if entry.submitted_tick > oldest:
                break
            if self._confirming is None:
                self._confirming = tuple(self.live_node_ids())
            entry.confirmed_tick = now
            entry.confirming_nodes = self._confirming
            confirmed.append(self.ledger.append(entry))
        del pending[:len(confirmed)]
        return confirmed

    # -- direct appends (not consensus-path) ---------------------------

    def append_genesis(self, unit: TransferUnit) -> LedgerEntry:
        """Scenario-seeded asset entry, confirmed at tick 0 by the full
        node set before the run starts."""
        ref = self.next_ref()
        self.refs[unit.idempotency_key] = ref
        entry = LedgerEntry(ref, ENTRY_KIND_GENESIS, unit, 0, 0, self._all_nodes)
        return self.ledger.append(entry)

    def append_attestation(self, payload: str, now: int) -> LedgerEntry:
        """Gateway signatures recorded on the ledger as a direct append."""
        ref = self.next_ref()
        entry = LedgerEntry(ref, ENTRY_KIND_ATTESTATION, None, now, now, (), payload)
        return self.ledger.append(entry)

    # -- read path -----------------------------------------------------

    def entry(self, local_ref: str) -> LedgerEntry:
        """The confirmed entry local_ref; NotConfirmed while it is
        pending, NotFound when this chain never issued it."""
        entry = self.ledger.get(local_ref)
        if entry is None:
            if any(e.local_ref == local_ref for e in self.pending):
                raise NotConfirmed(f"{local_ref} pending on {self.chain_id}")
            raise NotFound(f"no confirmed entry {local_ref} on {self.chain_id}: "
                           f"the ref is unknown")
        return entry

    def read(self, local_ref: str, credential: str) -> ReadResult:
        if self.regime.user_read_permissioned and credential not in self.readers:
            raise PermissionDenied(f"{credential!r} may not read {self.chain_id}")
        entry = self.entry(local_ref)
        return ReadResult(entry, self.ledger.marks.get(local_ref),
                          local_ref in self.ledger.voids)

    def status(self, now: int) -> ChainStatus:
        """Aggregate, node-anonymous when the regime demands it."""
        if self.regime.node_permissioned:
            advertised = self.live_count()
        else:
            advertised = self.quorum_threshold() if self.quorum_met() else 0
        lats = [e.confirmed_tick - e.submitted_tick
                for e in self.ledger.entries if e.kind in CONSENSUS_KINDS]
        mean_lat = sum(lats) / len(lats) if lats else float(self.confirm_latency_ticks)
        return ChainStatus(self.chain_id, advertised, len(self.pending),
                           round(mean_lat, 2))
