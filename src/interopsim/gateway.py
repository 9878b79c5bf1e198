"""Gateways: the only cross-domain actors.

Everything that crosses a chain boundary goes through here: reachability
advertisements, threshold vouch attestations, delegated mediated reads,
peering agreements, and the four-phase cross-domain transfer protocol
(INITIATED -> SOURCE_LOCKED -> DEST_RECORDED -> VOUCHED -> FINALIZED,
with ABORTED reachable from any non-terminal state).

A gateway is its id, which names its chain (chain.gateway_ids and
chain_of own the format); the registry holds the rest, its liveness and
its key.  GatewayRegistry.live_gateways is the one order of a chain's
live gateways, lowest id first: a transfer pairs, and re-pairs after a
crash, with the first on each side (it aborts when a side has none
left), and a k-of-n vouch signs with the first k.

Each fact about a transfer is held once, by the party that owns it.  Its
lock and record are entries keyed lock:<id> and record:<id> on its two
chains, whose key tables (refs) hold their refs.  A CrossDomainTransfer
holds the rest: its state, which every step reads and no ledger holds
from VOUCHED on, its index in order, whether the record request went
out and the attestation came back (messages in flight), and the
attestations, the rebind proof, which a ledger holds only serialized.
Whether it holds the source lock, and so whether it is open, is the
engine's lock table, and that table and the due table hold it itself.
Whether its record has landed is the destination ledger; whether the
destination attestation was sent is whether the transfer has one.  A
chain pair's fees are the sum of its finalized transfers' agreement fees.
An advertisement's path and asset prefixes are the resolver's, and its
endpoints the registry's.

The signature scheme is deliberately abstract: a signature is the
sha256 of the gateway's registry key, "|" and the claim bytes, so
verification is a pure function of (attestation, registry) and any
single-byte tamper of the claim invalidates every signature.  Only a
registered gateway has a key, which GatewayRegistry.add derives once
from its id, and vouch is the one signer, a mediated read's included.
A Claim, which is immutable, encodes its bytes once, at construction,
for every signature, verification and serialization that reads them.
What is never kept is a result: each vouch hashes once per signer and
each verification once per signature, every time.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from typing import Optional

from .chain import (
    Directionality,
    ENTRY_KIND_LOCK,
    ENTRY_KIND_RECORD,
    LedgerEntry,
    TransferUnit,
    chain_of,
    slot_setters,
)
from .errors import (
    AlreadyTerminal,
    DuplicateAgreement,
    GrantExpired,
    GrantMismatch,
    InsufficientGateways,
    NoLiveGateways,
    NoPeering,
    NotAuthoritativeHere,
    NotFound,
    Unreachable,
)
from .identity import AuthoritativePointer, cross_id_parts, prefix
from .simnet import ledger_subject, share_field


class GatewayRegistry:
    """All gateways of the run, each known by its id, which names its
    chain (chain.chain_of), plus their liveness and signing keys.
    set_live is the one writer of gateway liveness, and it appends each
    change it makes to changes as (gateway_id, live), in order; the
    transfer engine's step phase reads the list and empties it."""

    def __init__(self) -> None:
        # gateway id -> whether it is up
        self.live: dict[str, bool] = {}
        # chain id -> its gateway ids, sorted
        self.by_chain: dict[str, list[str]] = {}
        # gateway id -> signing key, derived by add; stands in for a keypair
        self.keys: dict[str, bytes] = {}
        # (gateway_id, live) per liveness change not yet read
        self.changes: list[tuple[str, bool]] = []

    def add(self, gateway_id: str) -> None:
        """Register a live gateway under the chain its id names."""
        self.live[gateway_id] = True
        self.keys[gateway_id] = f"k-{gateway_id}".encode("ascii")
        insort(self.by_chain.setdefault(chain_of(gateway_id), []), gateway_id)

    def set_live(self, gateway_id: str, live: bool) -> None:
        """Crash (live False) or restart a gateway."""
        if gateway_id not in self.live:
            raise NotFound(f"unknown gateway {gateway_id}")
        if self.live[gateway_id] != live:
            self.live[gateway_id] = live
            self.changes.append((gateway_id, live))

    def live_gateways(self, chain_id: str) -> list[str]:
        """The chain's live gateways, lowest id first."""
        live = self.live
        return [gid for gid in self.by_chain.get(chain_id, ()) if live[gid]]


# -- attestations ------------------------------------------------------

@dataclass(frozen=True, slots=True, init=False)
class Claim:
    """What an attestation asserts about one chain's ledger.  Its bytes,
    encoded once at construction, are what every signature covers."""

    chain_id: str
    cross_id: str
    confirmed: bool
    entry_digest: str
    encoded: bytes = field(init=False, repr=False, compare=False)

    def __init__(self, chain_id: str, cross_id: str, confirmed: bool,
                 entry_digest: str) -> None:
        _set_claim_chain(self, chain_id)
        _set_claim_asset(self, cross_id)
        _set_claim_confirmed(self, confirmed)
        _set_claim_digest(self, entry_digest)
        _set_claim_encoded(self, self.to_bytes())

    def to_bytes(self) -> bytes:
        return f"{self.chain_id}|{self.cross_id}|{int(self.confirmed)}|{self.entry_digest}".encode("ascii")


(_set_claim_chain, _set_claim_asset, _set_claim_confirmed, _set_claim_digest,
 _set_claim_encoded) = slot_setters(Claim)

# the serialized threshold is an unsigned 16-bit field (struct "H"); the
# scenario validator rejects a larger one (ChainCfg._check)
MAX_THRESHOLD = 0xFFFF


@dataclass(frozen=True, slots=True, init=False)
class VouchAttestation:
    claim: Claim
    threshold_k: int
    signatures: tuple[tuple[str, str], ...]  # (gateway_id, sig hex), sorted
    issued_tick: int

    def __init__(self, claim: Claim, threshold_k: int,
                 signatures: tuple[tuple[str, str], ...], issued_tick: int) -> None:
        _set_att_claim(self, claim)
        _set_att_k(self, threshold_k)
        _set_att_signatures(self, signatures)
        _set_att_tick(self, issued_tick)

    def serialize(self) -> bytes:
        """Length-prefixed claim plus signer list; bit-exact across replays."""
        claim = self.claim.encoded
        signers = ",".join([f"{gid}:{sig}" for gid, sig in self.signatures])
        return (struct.pack(">HI", self.threshold_k, len(claim)) + claim
                + f"|{self.issued_tick}|{signers}".encode("ascii"))


_set_att_claim, _set_att_k, _set_att_signatures, _set_att_tick = slot_setters(VouchAttestation)


def entry_digest(entry: LedgerEntry) -> str:
    return hashlib.sha256(entry.canonical().encode("utf-8")).hexdigest()


def vouch(chain_id: str, registry: GatewayRegistry, claim: Claim, k: int,
          now: int) -> VouchAttestation:
    """k-of-n attestation by the first k of the chain's live gateways,
    so the signatures come sorted by gateway id.  The signers are found
    before anything is hashed, so a vouch that cannot meet k hashes
    nothing."""
    signers = registry.live_gateways(chain_id)[:k]
    if len(signers) < k:
        raise InsufficientGateways(
            f"{chain_id} has {len(signers)} live gateways, threshold {k}")
    keys, sha256, tail = registry.keys, hashlib.sha256, b"|" + claim.encoded
    return VouchAttestation(
        claim, k, tuple([(gid, sha256(keys[gid] + tail).hexdigest()) for gid in signers]), now)


def verify_attestation(att: VouchAttestation, registry: GatewayRegistry) -> bool:
    """Pure check: enough distinct registered gateways of the claimed
    chain signed these exact claim bytes.  Liveness is irrelevant."""
    claim = att.claim
    chain_id, tail = claim.chain_id, b"|" + claim.encoded
    keys, sha256 = registry.keys, hashlib.sha256
    valid = set()
    for gid, sig in att.signatures:
        key = keys.get(gid)
        if (key is not None and chain_of(gid) == chain_id
                and sha256(key + tail).hexdigest() == sig):
            valid.add(gid)
    return len(valid) >= att.threshold_k


# -- reachability advertisements ---------------------------------------

@dataclass(frozen=True)
class ReachabilityAdvertisement:
    """What a domain shows the outside: its resolver path, gateways,
    semantics, asset prefixes.  Never any intra-domain node identifier."""

    chain_path: str
    gateway_endpoints: tuple[str, ...]
    semantic_types: tuple[str, ...]
    reachable_assets: tuple[str, ...]
    issued_tick: int

    def transcript(self) -> tuple:
        """The advertisement as log fields."""
        return (("path", self.chain_path),
                ("endpoints", self.gateway_endpoints),
                ("semantics", self.semantic_types),
                ("assets", self.reachable_assets or "-"))


def advertise(chains: dict, registry: GatewayRegistry, resolver,
              now: int) -> dict[str, ReachabilityAdvertisement]:
    """Every chain's advertisement, keyed and ordered as chains is, from
    one pass over the resolver's homes."""
    prefixes: dict[str, list[str]] = {cid: [] for cid in chains}
    for p in resolver.homes():
        prefixes[p.home_chain].append(prefix(p.asset))
    return {cid: ReachabilityAdvertisement(
                resolver.path(cid),
                tuple(registry.live_gateways(cid)),
                (chain.semantic_type,), tuple(sorted(prefixes[cid])), now)
            for cid, chain in chains.items()}


# -- delegated reads ---------------------------------------------------

@dataclass(frozen=True)
class DelegationGrant:
    grant_id: str
    grantor: str
    grantee: str
    target: str
    expiry_tick: int


@dataclass(slots=True)
class MediatedReadView:
    cross_id: str
    chain_id: str
    payload_digest: str
    submitted_tick: int
    confirmed_tick: int
    mark: Optional[AuthoritativePointer]
    voided: bool
    attestation: VouchAttestation


def mediated_read(registry: GatewayRegistry, chain, resolver,
                  grant: DelegationGrant, cross_id: str, requester: str,
                  now: int) -> MediatedReadView:
    """Read on behalf of an outside party holding a delegation grant.

    The view is keyed by cross id only; local refs stay inside the
    domain.  The chain reads with the grantor's credential, so its own
    read rule re-checks the grantor at call time and a revoked grantor
    invalidates every grant they issued; a pending ref raises
    NotConfirmed and an unknown one NotFound, as chain.read does.  The
    chain's lowest live gateway vouches for the entry 1-of-n.
    """
    if grant.grantee != requester or grant.target != cross_id:
        raise GrantMismatch(f"grant {grant.grant_id} does not cover this request")
    if now >= grant.expiry_tick:
        raise GrantExpired(f"grant {grant.grant_id} expired at {grant.expiry_tick}")
    result = chain.read(resolver.local_ref_for(chain.chain_id, cross_id), grant.grantor)
    entry = result.entry
    claim = Claim(chain.chain_id, cross_id, True, entry_digest(entry))
    att = vouch(chain.chain_id, registry, claim, 1, now)
    digest = entry.unit.payload_digest if entry.unit else entry.payload
    return MediatedReadView(cross_id, chain.chain_id, digest,
                            entry.submitted_tick, entry.confirmed_tick,
                            result.mark, result.voided, att)


# -- peering -----------------------------------------------------------

def _sorted_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass
class PeeringAgreement:
    agreement_id: str
    chain_a: str
    chain_b: str
    compatible_semantics: frozenset
    fee_per_transfer: Fraction
    # chain_a and chain_b in sorted order
    pair: tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.pair = _sorted_pair(self.chain_a, self.chain_b)


class PeeringRegistry:
    """The peering agreements by id, and by (sorted pair, semantic) the
    one agreement that covers it: establish admits at most one."""

    def __init__(self) -> None:
        self.agreements: dict[str, PeeringAgreement] = {}
        self._covering: dict[tuple[tuple[str, str], str], PeeringAgreement] = {}

    def establish(self, agreement: PeeringAgreement) -> PeeringAgreement:
        keys = [(agreement.pair, s) for s in agreement.compatible_semantics]
        covered = self._covering
        clashes = {covered[key].agreement_id for key in keys if key in covered}
        if clashes:
            # name the earliest established of the agreements it overlaps
            first = next(aid for aid in self.agreements if aid in clashes)
            raise DuplicateAgreement(
                f"active agreement {first} already covers {agreement.pair}")
        self.agreements[agreement.agreement_id] = agreement
        covered.update(dict.fromkeys(keys, agreement))
        return agreement

    def covering(self, a: str, b: str, semantic: str) -> Optional[PeeringAgreement]:
        """The agreement between a and b that covers semantic."""
        return self._covering.get((_sorted_pair(a, b), semantic))


# -- cross-domain transfers --------------------------------------------

class TransferState:
    """A transfer's states, each the text it is logged as."""

    INITIATED = "INITIATED"
    SOURCE_LOCKED = "SOURCE_LOCKED"
    DEST_RECORDED = "DEST_RECORDED"
    VOUCHED = "VOUCHED"
    FINALIZED = "FINALIZED"
    ABORTED = "ABORTED"


TERMINAL_STATES = (TransferState.FINALIZED, TransferState.ABORTED)

# each state's ("state", s) field, which its transfer records share
STATE_FIELDS = {s: ("state", s) for s in (TransferState.INITIATED, TransferState.SOURCE_LOCKED,
                TransferState.DEST_RECORDED, TransferState.VOUCHED, *TERMINAL_STATES)}


@dataclass(slots=True)
class CrossDomainTransfer:
    transfer_id: str
    asset: str
    source_chain: str
    dest_chain: str
    beneficiary: str
    deadline_tick: int
    agreement_id: str
    paired_source: str
    paired_dest: str
    index: int  # its place in the engine's order
    # its asset, src and dst log fields and its ("transfer", transfer_id)
    # field, which all records about it share
    route_fields: tuple
    id_field: tuple
    state: str = TransferState.INITIATED
    record_request_sent: bool = False
    attestation_arrived: bool = False
    source_attestation: Optional[VouchAttestation] = None
    dest_attestation: Optional[VouchAttestation] = None
    abort_reason: str = ""
    final_tick: Optional[int] = None

    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def awaited_vouch(self) -> Optional[str]:
        """The chain whose gateways must vouch before this transfer can
        move on: the destination until its attestation is sent, then,
        once it has arrived, the source, whose vouch finalizes it when it
        succeeds; None when no vouch is due."""
        if self.state != TransferState.DEST_RECORDED:
            return None
        if self.dest_attestation is None:
            return self.dest_chain
        if self.attestation_arrived:
            return self.source_chain
        return None


class TransferEngine:
    """Drives every cross-domain transfer of a run.

    All state transitions are logged; the engine's per-tick step phase
    calls step_all after consensus so confirmations observed this tick
    can be acted on this tick.  It steps only the transfers that the
    stepping rule of the engine's module docstring names, and a
    confirmed lock or record finds its transfer by its key.
    """

    def __init__(self, net, chains: dict, registry: GatewayRegistry,
                 resolver, peerings: PeeringRegistry,
                 vouch_thresholds: dict[str, int]) -> None:
        self.net = net
        self.chains = chains
        self.registry = registry
        self.resolver = resolver
        self.peerings = peerings
        self.vouch_thresholds = vouch_thresholds
        self.transfers: dict[str, CrossDomainTransfer] = {}
        self.order: list[str] = []
        # (source chain, asset) -> the transfer that holds its lock
        self.locks: dict[tuple[str, str], CrossDomainTransfer] = {}
        # (deadline_tick + 1, index, transfer) of every transfer that is
        # not terminal, keyed by the tick rule (c) aborts it on; a
        # terminal one leaves when it reaches the top
        self._deadlines: list[tuple[int, int, CrossDomainTransfer]] = []
        # index -> transfer, of each one to step in this tick's step phase
        self._due: dict[int, CrossDomainTransfer] = {}
        # gateway id -> ("by", id), and threshold -> ("k", threshold)
        self._by_fields: dict[str, tuple] = {}
        self._k_fields: dict[int, tuple] = {}

    # -- helpers -------------------------------------------------------

    def _log(self, transfer: CrossDomainTransfer, actor: str, *extra) -> None:
        by = self._by_fields.get(actor) or share_field(self._by_fields, "by", actor)
        self.net.record("transfer", transfer.transfer_id, STATE_FIELDS[transfer.state],
                        *transfer.route_fields, by, *extra)

    # -- initiation ----------------------------------------------------

    def initiate(self, transfer_id: str, asset: str, source_chain: str,
                 dest_chain: str, beneficiary: str, deadline_tick: int,
                 now: int) -> CrossDomainTransfer:
        """Start transfer_id; raises ValueError for an id already started,
        whose lock key its first transfer holds.  The scenario validator
        keeps transfer ids unique."""
        if transfer_id in self.transfers:
            raise ValueError(f"transfer {transfer_id} already initiated")
        pointer = self.resolver.resolve(asset)
        if pointer.home_chain != source_chain:
            raise NotAuthoritativeHere(
                f"{asset} lives on {pointer.home_chain}, not {source_chain}")
        if source_chain in self.net.cut_off:
            raise Unreachable(f"{source_chain} is partitioned")
        semantic = self.chains[source_chain].semantic_type
        agreement = self.peerings.covering(source_chain, dest_chain, semantic)
        if agreement is None:
            raise NoPeering(f"no active {semantic} agreement for "
                            f"{source_chain}/{dest_chain}")
        src_live = self.registry.live_gateways(source_chain)
        dst_live = self.registry.live_gateways(dest_chain)
        if not src_live or not dst_live:
            raise NoLiveGateways(f"no live gateway pair for {source_chain}/{dest_chain}")

        src_gw = src_live[0]
        index = len(self.order)
        srcs, dsts = self.net.src_fields, self.net.dst_fields  # deliveries log these too
        route_fields = (("asset", asset),
                        srcs.get(source_chain) or share_field(srcs, "src", source_chain),
                        dsts.get(dest_chain) or share_field(dsts, "dst", dest_chain))
        transfer = CrossDomainTransfer(
            transfer_id, asset, source_chain, dest_chain, beneficiary,
            deadline_tick, agreement.agreement_id, src_gw, dst_live[0], index,
            route_fields, ("transfer", transfer_id))
        self.transfers[transfer_id] = transfer
        self.order.append(transfer_id)
        heappush(self._deadlines, (deadline_tick + 1, index, transfer))
        self._log(transfer, src_gw,
                  ("gw", f"{transfer.paired_source}:{transfer.paired_dest}"),
                  ("deadline", deadline_tick))

        lock_key = (source_chain, asset)
        if lock_key in self.locks:
            self.abort(transfer, now, "lock-held")
            return transfer
        self.locks[lock_key] = transfer

        chain = self.chains[source_chain]
        unit = TransferUnit(f"lock:{cross_id_parts(asset)[1][:12]}", chain.semantic_type,
                            Directionality.UNI, f"lock:{transfer_id}")
        receipt = chain.submit(unit, src_gw, now, ENTRY_KIND_LOCK)
        self.net.record("ledger", ledger_subject(source_chain, receipt.local_ref),
                        "submit", ("kind", "lock"), transfer.id_field)
        return transfer

    # -- confirmation callbacks ----------------------------------------

    def on_confirmed(self, chain_id: str, entry: LedgerEntry) -> None:
        """If entry is a transfer's lock or record, which its key names
        (kind:transfer_id), move that transfer, and mark it due for this
        tick's step phase when it moved."""
        if entry.kind != ENTRY_KIND_LOCK and entry.kind != ENTRY_KIND_RECORD:
            return
        t = self.transfers.get(entry.unit.idempotency_key.partition(":")[2])
        if t is None:
            return
        if entry.kind == ENTRY_KIND_LOCK:
            if t.state == TransferState.INITIATED:
                t.state = TransferState.SOURCE_LOCKED
                self._log(t, t.paired_source)
                self._due[t.index] = t
        elif t.state == TransferState.ABORTED:
            # the record, and t aborted before it landed: tombstone it now
            self._void_record(t, entry.local_ref)
        elif t.state == TransferState.SOURCE_LOCKED:
            t.state = TransferState.DEST_RECORDED
            self._log(t, t.paired_dest)
            self._due[t.index] = t

    # -- per-tick driving ----------------------------------------------

    def step_all(self, now: int) -> None:
        """Step, in initiation order, the transfers that can act on tick
        now: those on_confirmed moved, those whose deadline has passed,
        and those a gateway liveness change since the last step phase
        can move."""
        due, deadlines = self._due, self._deadlines
        while deadlines and deadlines[0][0] <= now:
            _, index, t = heappop(deadlines)
            due[index] = t  # its step aborts it, if open
        changes = self.registry.changes
        if changes:
            self._wake_on(changes)
            changes.clear()
        if due:
            for index in sorted(due):
                self.step(due[index], now)
            due.clear()

    def _wake_on(self, changes: list[tuple[str, bool]]) -> None:
        """Mark due every open transfer, a lock holder, that changes can
        move: one whose paired gateway went down, and one that waits for
        a vouch on a chain where a gateway came up."""
        down = {gid for gid, live in changes if not live}
        up = {chain_of(gid) for gid, live in changes if live}
        due = self._due
        for t in self.locks.values():
            if (t.paired_source in down or t.paired_dest in down
                    or (up and t.awaited_vouch() in up)):
                due[t.index] = t

    def next_abort_tick(self) -> Optional[int]:
        """The earliest abort tick, deadline_tick + 1, of a transfer that
        is not terminal: the tick on which rule (c) of the stepping rule
        aborts it.  None when every transfer is terminal."""
        deadlines = self._deadlines
        while deadlines and deadlines[0][2].terminal():
            heappop(deadlines)
        return deadlines[0][0] if deadlines else None

    def step(self, t: CrossDomainTransfer, now: int) -> None:
        if not self._may_act(t, now):
            return
        if t.state == TransferState.SOURCE_LOCKED and not t.record_request_sent:
            self._send_record_request(t, now)
            return
        awaited = t.awaited_vouch()
        if awaited == t.dest_chain:
            self._vouch_and_send(t, now)
        elif awaited == t.source_chain:
            # source-side vouch could not meet threshold earlier; retry
            self._try_finalize(t, now)

    def _may_act(self, t: CrossDomainTransfer, now: int) -> bool:
        """False when t is terminal, or aborts now because its deadline
        has passed or a side has no live gateway left."""
        if t.terminal():
            return False
        if now > t.deadline_tick:
            self.abort(t, now, "deadline")
            return False
        return self._repair_pairing(t, now)

    def _repair_pairing(self, t: CrossDomainTransfer, now: int) -> bool:
        """Re-pair crashed gateways to the lowest live ones; abort when a
        side has none.  Returns False when the transfer just aborted."""
        live = self.registry.live
        if live[t.paired_source] and live[t.paired_dest]:
            return True
        for side in ("source", "dest"):
            chain_id = t.source_chain if side == "source" else t.dest_chain
            current = t.paired_source if side == "source" else t.paired_dest
            if live[current]:
                continue
            live_ids = self.registry.live_gateways(chain_id)
            if not live_ids:
                self.abort(t, now, f"no-live-gateway-{side}")
                return False
            replacement = live_ids[0]
            if side == "source":
                t.paired_source = replacement
            else:
                t.paired_dest = replacement
            self.net.record("peer", t.transfer_id, "repair", ("side", side),
                            ("gw", replacement))
        return True

    def _send_record_request(self, t: CrossDomainTransfer, now: int) -> None:
        t.record_request_sent = True
        self.net.deliver(t.source_chain, t.dest_chain, t.transfer_id,
                         (("msg", "record-request"), t.id_field),
                         TransferEngine._arrive_record_request, self, t)

    def _arrive_record_request(self, t: CrossDomainTransfer) -> None:
        now = self.net.now
        if not self._may_act(t, now):
            return
        chain = self.chains[t.dest_chain]
        unit = TransferUnit(f"record:{cross_id_parts(t.asset)[1][:12]}", chain.semantic_type,
                            Directionality.BI, f"record:{t.transfer_id}", t.beneficiary)
        receipt = chain.submit(unit, t.paired_dest, now, ENTRY_KIND_RECORD)
        self.net.record("ledger", ledger_subject(t.dest_chain, receipt.local_ref),
                        "submit", ("kind", "record"), t.id_field)

    def _vouch(self, t: CrossDomainTransfer, side: tuple, chain_id: str, key: str,
               now: int) -> Optional[VouchAttestation]:
        """Vouch for t's entry key on one side, its ("side", name) field,
        append the attestation to that chain's ledger and log both; None
        when too few gateways are live to meet the threshold."""
        chain = self.chains[chain_id]
        claim = Claim(chain_id, t.asset, True, entry_digest(chain.ledger.get(chain.refs[key])))
        k = self.vouch_thresholds[chain_id]
        try:
            att = vouch(chain_id, self.registry, claim, k, now)
        except InsufficientGateways:
            return None
        encoded = att.serialize().hex()
        ledger_entry = chain.append_attestation(encoded, now)
        self.net.record("ledger", ledger_subject(chain_id, ledger_entry.local_ref),
                        "append", ("kind", "attestation"), t.id_field)
        self.net.record("vouch", t.transfer_id, side,
                        self._k_fields.get(k) or share_field(self._k_fields, "k", k),
                        ("att", encoded))
        return att

    def _vouch_and_send(self, t: CrossDomainTransfer, now: int) -> None:
        t.dest_attestation = self._vouch(t, ("side", "dest"), t.dest_chain,
                                         f"record:{t.transfer_id}", now)
        if t.dest_attestation is None:
            return  # retried when a dest gateway comes up, until the deadline
        self.net.deliver(t.dest_chain, t.source_chain, t.transfer_id,
                         (("msg", "attestation"), t.id_field),
                         TransferEngine._arrive_attestation, self, t)

    def _arrive_attestation(self, t: CrossDomainTransfer) -> None:
        now = self.net.now
        t.attestation_arrived = True  # read only while t is not terminal
        if self._may_act(t, now):
            self._try_finalize(t, now)

    def _try_finalize(self, t: CrossDomainTransfer, now: int) -> None:
        t.source_attestation = self._vouch(t, ("side", "source"), t.source_chain,
                                           f"lock:{t.transfer_id}", now)
        if t.source_attestation is None:
            return  # retried when a source gateway comes up, until the deadline
        t.state = TransferState.VOUCHED
        self._log(t, t.paired_source)
        self._finalize(t, now)

    def _finalize(self, t: CrossDomainTransfer, now: int) -> None:
        source_ref = self.resolver.local_ref_for(t.source_chain, t.asset)
        # the resolver's new home pointer is also the source entry's mark
        pointer = self.resolver.rebind_authority(
            t.asset, t.source_chain, t.dest_chain,
            (t.source_attestation, t.dest_attestation), now)
        self.chains[t.source_chain].ledger.mark(source_ref, pointer)
        to = ("to", t.dest_chain)
        self.net.record("ledger", ledger_subject(t.source_chain, source_ref),
                        "mark", to, t.id_field)
        self.net.record("resolver", t.asset, "rebind", ("from", t.source_chain), to)
        record_ref = self.chains[t.dest_chain].refs[f"record:{t.transfer_id}"]
        self.resolver.bind_existing(t.dest_chain, t.asset, record_ref)
        del self.locks[(t.source_chain, t.asset)]
        agreement = self.peerings.agreements[t.agreement_id]
        t.state = TransferState.FINALIZED
        t.final_tick = now
        self._log(t, t.paired_source, ("fee", agreement.fee_per_transfer))

    # -- abort ---------------------------------------------------------

    def abort(self, t: CrossDomainTransfer, now: int, reason: str) -> None:
        if t.terminal():
            raise AlreadyTerminal(f"{t.transfer_id} is {t.state}")
        t.state = TransferState.ABORTED
        t.abort_reason = reason
        t.final_tick = now
        lock_key = (t.source_chain, t.asset)
        if self.locks.get(lock_key) is t:  # not so on a lock-held abort
            del self.locks[lock_key]
        self._log(t, t.paired_source, ("reason", reason))
        # a record still pending is voided when it lands (on_confirmed)
        record_ref = self.chains[t.dest_chain].refs.get(f"record:{t.transfer_id}")
        if self.chains[t.dest_chain].ledger.get(record_ref) is not None:
            self._void_record(t, record_ref)

    def _void_record(self, t: CrossDomainTransfer, ref: str) -> None:
        self.chains[t.dest_chain].ledger.void(ref, self.net.now)
        self.net.record("ledger", ledger_subject(t.dest_chain, ref),
                        "void", t.id_field)
