"""Survivability layer: timeout-driven fallback across candidate chains.

An application transaction is a set of sub-transactions, each with an
ordered candidate chain list.  Submission is fire-and-forget: the unit
is handed to the current candidate (silently lost if that chain is
partitioned) and a timer drives fallback to the next candidate.  The
application never learns which chain confirmed except through the audit
call; the caller-visible outcome record carries state, tick and attempt
count only.

A sub-transaction counts its attempts and keeps nothing else about
them: attempt i went to candidates[i], and how it ended is in the log,
as the txn records of its timeout and of each confirmation.

Duplicates are tolerated by design: a chain that heals after the layer
has moved on may still confirm the old submission.  Every confirmation
is recorded and the surplus is surfaced via poll_duplicates.

Timing rule: a timer due the same tick as a confirmation fires first
(timers drain before the consensus phase), so the attempt times out and
the confirmation then lands as a late confirmation of the same sub.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .chain import TransferUnit
from .errors import (EmptyCandidates, InteropError, NotFound, SemanticMismatch,
                     ValidationError)
from .simnet import ledger_subject, share_field

DEFAULT_TIMEOUT_FACTOR = 3

TXN_PENDING = "PENDING"
TXN_CONFIRMED = "CONFIRMED"
TXN_FAILED = "FAILED"


def txn_id_problem(txn_id: str) -> Optional[str]:
    """Why txn_id cannot be an app txn id, or None.  A unit is keyed
    <txn>/<sub>, so an id free of "/" and ":" shares no key with another
    unit, nor with a lock:<id>, record:<id> or genesis:<id> entry."""
    if "/" in txn_id or ":" in txn_id:
        return f"{txn_id!r} holds '/' or ':', which unit keys use as separators"
    return None


@dataclass(slots=True)
class SubTxn:
    sub_id: str
    unit: TransferUnit
    candidates: list[str]
    timeout_override: Optional[int] = None
    credential: str = "anon"
    attempts: int = 0  # attempt i went to candidates[i]
    confirmations: list[tuple[str, str, int]] = field(default_factory=list)
    state: str = TXN_PENDING


@dataclass(slots=True)
class AppTransaction:
    txn_id: str
    subs: dict[str, SubTxn]
    state: str = TXN_PENDING
    final_tick: Optional[int] = None

    def terminal(self) -> bool:
        return self.state != TXN_PENDING


@dataclass
class OutcomeRecord:
    """What the caller sees: no chain identities."""

    state: str
    final_tick: Optional[int]
    attempts: int


class SurvivorLayer:
    def __init__(self, net, chains: dict) -> None:
        self.net = net
        self.chains = chains
        self.txns: dict[str, AppTransaction] = {}
        # idempotency key -> the app txn and sub whose unit it keys
        self._by_key: dict[str, tuple[AppTransaction, SubTxn]] = {}
        self._fields: dict[str, tuple] = {}  # chain id -> its ("chain", id) field

    # -- submission ----------------------------------------------------

    def submit_app_txn(self, txn_id: str, subs: list[SubTxn]) -> str:
        problem = txn_id_problem(txn_id)
        if problem:
            raise ValidationError(problem)
        for sub in subs:
            if not sub.candidates:
                raise EmptyCandidates(f"{txn_id}/{sub.sub_id} has no candidates")
            for cid in sub.candidates:
                if cid not in self.chains:
                    raise NotFound(f"unknown candidate chain {cid}")
                if self.chains[cid].semantic_type != sub.unit.semantic_type:
                    raise SemanticMismatch(
                        f"candidate {cid} is {self.chains[cid].semantic_type}, "
                        f"unit is {sub.unit.semantic_type}")
        txn = AppTransaction(txn_id, {s.sub_id: s for s in subs})
        self.txns[txn_id] = txn
        for sub in subs:
            self._by_key[sub.unit.idempotency_key] = (txn, sub)
            self._start_attempt(txn, sub)
        return txn_id

    def _timeout_for(self, sub: SubTxn, chain_id: str) -> int:
        if sub.timeout_override is not None:
            return sub.timeout_override
        return DEFAULT_TIMEOUT_FACTOR * self.chains[chain_id].confirm_latency_ticks

    def _start_attempt(self, txn: AppTransaction, sub: SubTxn) -> None:
        idx = sub.attempts
        chain_id = sub.candidates[idx]
        sub.attempts += 1
        subject = f"{txn.txn_id}/{sub.sub_id}"
        attempt = ("attempt", idx + 1)  # shared by the attempt's three records
        chain = self._fields.get(chain_id) or share_field(self._fields, "chain", chain_id)
        self.net.record("txn", subject, attempt, chain, "submit")
        self.net.local_deliver(chain_id, subject, (("msg", "submit"), attempt),
                               SurvivorLayer._submit, self, chain_id, sub, subject)
        self.net.timer(subject, self._timeout_for(sub, chain_id), ("timeout", attempt),
                       SurvivorLayer._on_timeout, self, txn, sub, idx)

    def _submit(self, chain_id: str, sub: SubTxn, subject: str) -> None:
        """The delivered submission of sub's unit to chain_id."""
        try:
            receipt = self.chains[chain_id].submit(sub.unit, sub.credential, self.net.now)
        except InteropError as exc:
            self.net.record("reject", subject, ("chain", chain_id),
                            ("error", type(exc).__name__))
            return
        self.net.record("ledger", ledger_subject(chain_id, receipt.local_ref),
                        "submit", ("kind", "unit"), ("txn", subject))

    # -- progress ------------------------------------------------------

    def _on_timeout(self, txn: AppTransaction, sub: SubTxn, idx: int) -> None:
        if sub.state != TXN_PENDING or idx != sub.attempts - 1:
            return  # stale timer
        subject = f"{txn.txn_id}/{sub.sub_id}"
        chain_id = sub.candidates[idx]
        chain = self._fields.get(chain_id) or share_field(self._fields, "chain", chain_id)
        self.net.record("txn", subject, ("attempt", idx + 1), chain, "timeout")
        if idx + 1 < len(sub.candidates):
            self._start_attempt(txn, sub)
        else:
            sub.state = TXN_FAILED
            self._refresh_txn_state(txn, self.net.now)

    def on_confirmed(self, chain_id: str, entry) -> None:
        """Consensus callback; every confirmation is recorded, and one
        that lands after its sub ended, confirmed or failed, as late."""
        hit = self._by_key.get(entry.unit.idempotency_key)
        if hit is None:
            return
        txn, sub = hit
        now = self.net.now
        sub.confirmations.append((chain_id, entry.local_ref, now))
        subject = f"{txn.txn_id}/{sub.sub_id}"
        chain = self._fields.get(chain_id) or share_field(self._fields, "chain", chain_id)
        fields = ("confirmed", chain, ("ref", entry.local_ref))
        if sub.state != TXN_PENDING:
            self.net.record("txn", subject, *fields, ("late", 1))
            return
        self.net.record("txn", subject, *fields)
        sub.state = TXN_CONFIRMED
        self._refresh_txn_state(txn, now)

    def _refresh_txn_state(self, txn: AppTransaction, now: int) -> None:
        if txn.terminal():
            return
        states = {sub.state for sub in txn.subs.values()}
        if TXN_FAILED in states:
            txn.state = TXN_FAILED
        elif states == {TXN_CONFIRMED}:
            txn.state = TXN_CONFIRMED
        else:
            return
        txn.final_tick = now
        self.net.record("txn", txn.txn_id, ("state", txn.state),
                        ("attempts", self._attempt_count(txn)))

    def _attempt_count(self, txn: AppTransaction) -> int:
        return sum(sub.attempts for sub in txn.subs.values())

    # -- caller surface ------------------------------------------------

    def poll_status(self, txn_id: str) -> OutcomeRecord:
        txn = self._get(txn_id)
        return OutcomeRecord(txn.state, txn.final_tick, self._attempt_count(txn))

    def audit(self, txn_id: str) -> dict[str, SubTxn]:
        """Full per-chain truth; the only place chain identities leak."""
        return dict(self._get(txn_id).subs)

    def poll_duplicates(self, txn_id: str) -> list[tuple[str, str, str]]:
        """(sub_id, chain, ref) for every confirmation beyond the first."""
        txn = self._get(txn_id)
        out = []
        for sid in sorted(txn.subs):
            for chain_id, ref, _ in txn.subs[sid].confirmations[1:]:
                out.append((sid, chain_id, ref))
        return out

    def _get(self, txn_id: str) -> AppTransaction:
        if txn_id not in self.txns:
            raise NotFound(f"unknown app transaction {txn_id}")
        return self.txns[txn_id]
