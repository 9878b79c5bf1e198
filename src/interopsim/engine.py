"""Simulation orchestrator: builds the world from a scenario config,
drives the tick loop, collects workload outcomes.

Per-tick phases of run_tick, in contractual order (golden logs depend
on it):
  1. drain every action due this tick (deliveries, timers, faults,
     probes), including actions those actions schedule for the same tick;
  2. consensus phase: chains in id order confirm aged pending units
     (skipped entirely while a chain is partitioned, and for a chain
     with no pending unit, which has nothing to confirm), confirmation
     callbacks update survivor and transfer state;
  3. transfer step phase: transfers in initiation order act on what
     drain and the consensus phase just told them;
  4. reservation expiry sweep.

The step phase follows the stepping rule.  On tick t it steps, in
initiation order, only the transfers that can act:
  (a) a transfer whose state on_confirmed changed this tick;
  (b) a transfer that is not terminal and that a gateway liveness change
      since the last step phase can move: a crash of its paired source
      or destination gateway, or a restart on the chain whose vouch it
      waits for (CrossDomainTransfer.awaited_vouch);
  (c) a transfer whose deadline_tick has passed, which the step aborts.
No other transfer can act.  A transfer moves to SOURCE_LOCKED or
DEST_RECORDED only in on_confirmed, and that tick's step sends the
record request or vouches for the record.  Beyond that, what a step
can do depends on gateway liveness alone, which GatewayRegistry.set_live
changes and lists as (gateway, live).  A pairing needs _repair_pairing
only when its own gateway fails: each step and each arrival leaves both
paired gateways live.  A vouch that raised InsufficientGateways, and so
the _try_finalize retry, fails again until its chain has more live
gateways: a crash cannot help a waiting vouch, and a crash of a gateway
that is not paired changes nothing until the transfer next vouches, on
a step that (a) makes due or on the attestation's arrival, with the
liveness of that moment.  A failed vouch logs nothing and draws nothing
from the RNG.  So every step the rule skips would have been a
step that changes nothing, and the log is the one a loop that steps
every open transfer writes.  The step phase finds (b) by one scan of
the lock table: a transfer holds its lock from initiation (or aborts
at once as lock-held) until it aborts or finalizes.

The loop is event-driven.  It processes tick 0, and after each
processed tick t it moves the clock straight to max(t + 1, w), where w
is the earliest wake-up, a running minimum over:
  * the next queued action;
  * for each chain that has a pending unit, is not partitioned and
    meets quorum, the tick its oldest pending unit matures
    (BlockchainSystem.next_confirm_tick), which run_tick's consensus
    phase reads as it visits the chain, so _next_wake visits none;
  * the transfer engine's next abort tick, the deadline_tick + 1 of a
    transfer that is not terminal, on which rule (c) aborts it
    (TransferEngine.next_abort_tick);
  * the earliest expiry_tick of a reserved payment path.
With no wake-up left the clock moves past the horizon.

Skipping the ticks in between is safe because no phase can act on
them.  Nothing is queued for them.  A chain confirms nothing before its
wake-up unless its partition or quorum changes, and both change only
through queued fault events; a chain with no pending unit gains one
only from a queued action.  No transfer is due by the stepping rule:
confirmations happen on processed ticks, liveness changes only through
queued fault events, and each passed deadline has its wake-up.  No
reservation expires between expiry wake-ups.  So a skipped tick would
log nothing and draw nothing from the RNG, and the log is the one a
loop over every tick writes; tests/test_engine.py checks both rules
against that loop.

The run ends at quiescence (no queued actions, no pending units, all
workload terminal, no open reservations) or at the horizon, whichever
comes first; end_tick is that tick.  An open app transaction always has
the timeout of its current attempt queued, so _quiescent needs no
survivor clause.  A quiescent world has no wake-up left, so run checks
quiescence only when _next_wake finds none.  The resolver dump that
closes the log is stamped with the clock, and a run that does not
quiesce may have processed its last tick well before the horizon, so
finish sets the clock to end_tick first, where a loop over every tick
leaves it.

Faults take one path, schedule_faults, the one writer of fault state:
a target is down while any fault that names it is active.

A Simulation owns its layers: the net, the chains, the registries, the
resolver, the survivor layer, the transfer engine and the value
network.  Nothing they hold refers back to the Simulation: the
resolver's verifier is bound to the gateway registry, and a queued
fault phase calls the module-level _fire_fault.  The net,
which the other layers hold, refers to them and to the Simulation only
through queued actions, and finish drops the actions still queued,
which no run executes.  So a finished world holds no reference cycle,
and reference counting frees it at its last reference without the
cyclic garbage collector.
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import Optional

from . import audit as audit_mod
from .chain import (
    CONSENSUS_KINDS,
    BlockchainSystem,
    Directionality,
    TransferUnit,
    chain_of,
)
from .errors import (
    GrantMismatch,
    InteropError,
    Unreachable,
)
from .gateway import (
    DelegationGrant,
    GatewayRegistry,
    PeeringAgreement,
    PeeringRegistry,
    TransferEngine,
    TransferState,
    advertise,
    mediated_read,
    verify_attestation,
)
from .identity import Resolver
from .report import RunReport
from .scenario import WORKLOAD_SECTIONS, FaultCfg, ScenarioConfig
from .simnet import LogRecord, SimNet, ledger_subject
from .survivor import SubTxn, SurvivorLayer
from .valuenet import Connector, ValueNetwork, _text


# each consensus entry kind's ("confirm", kind) field; only ever read
CONFIRM_FIELDS = {kind: ("confirm", kind) for kind in CONSENSUS_KINDS}


def payload_digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class Simulation:
    """One isolated run; no state shared between instances."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.net = SimNet(config.seed, config.inter_chain_latency, config.latency_jitter)
        self.chains: dict[str, BlockchainSystem] = {}
        self.registry = GatewayRegistry()
        self.resolver = Resolver(
            self.net.rng, partial(verify_attestation, registry=self.registry))
        self.peerings = PeeringRegistry()
        self.grants: dict[str, DelegationGrant] = {}
        self.assets: dict[str, str] = {}
        self.vouch_thresholds: dict[str, int] = {}
        self.end_tick = 0
        self.events_executed = 0
        self.resolver_dump: list[LogRecord] = []  # the log's closing records
        # workload outcomes keyed by section then id
        self.outcomes: dict[str, dict[str, dict]] = {
            section: {} for section in WORKLOAD_SECTIONS}
        self._build_world()
        self.survivor = SurvivorLayer(self.net, self.chains)
        self.transfers = TransferEngine(self.net, self.chains, self.registry,
                                        self.resolver, self.peerings,
                                        self.vouch_thresholds)
        self._seed_assets()
        self._emit_adverts()
        self._schedule_all()

    # -- construction --------------------------------------------------

    def _build_world(self) -> None:
        cfg = self.config
        # in chain-id order, which run_tick, the adverts and the report take
        for c in sorted(cfg.chains, key=lambda c: c.chain_id):
            gateway_ids = c.gateway_ids()
            # gateways operate inside their own domain
            chain = BlockchainSystem(
                c.chain_id, c.node_ids(), c.regime,
                c.quorum, c.confirm_latency, c.semantic,
                writers={*c.writers, *gateway_ids}, readers={*c.readers, *gateway_ids})
            self.chains[c.chain_id] = chain
            self.vouch_thresholds[c.chain_id] = c.threshold()
            self.resolver.register_chain(c.chain_id, c.path)
            for gid in gateway_ids:
                self.registry.add(gid)
        for p in cfg.peerings:
            self.peerings.establish(PeeringAgreement(
                p.peering_id, p.chains[0], p.chains[1],
                frozenset(p.semantics), p.fee))
        denoms = {c.chain_id: c.denom for c in cfg.chains if c.denom}
        connectors = [Connector(cc.connector_id, tuple(cc.chains), cc.reserves, cc.rates)
                      for cc in cfg.connectors]
        self.valuenet = ValueNetwork(denoms, connectors, cfg.reservation_ttl)

    def _seed_assets(self) -> None:
        """Genesis entries confirmed before the run, then the grants,
        which target the cross ids just minted."""
        chains, assets = self.chains, self.assets
        mint, record = self.resolver.mint_cross_id, self.net.record
        for a in self.config.assets:
            chain = chains[a.chain]
            ref = chain.append_genesis(TransferUnit(
                payload_digest(a.payload), chain.semantic_type,
                Directionality.UNI, f"genesis:{a.asset_id}")).local_ref
            cid = assets[a.asset_id] = mint(chain, ref, 0)
            record("ledger", ledger_subject(a.chain, ref), "genesis", ("asset", cid))
            record("resolver", cid, "register", ("home", a.chain))
        for g in self.config.grants:
            self.grants[g.grant_id] = DelegationGrant(
                g.grant_id, g.grantor, g.grantee, self.assets[g.asset], g.expiry)

    def _emit_adverts(self) -> None:
        for cid, adv in advertise(self.chains, self.registry, self.resolver, 0).items():
            self.net.record("advert", cid, *adv.transcript())

    def _schedule_all(self) -> None:
        cfg = self.config
        # faults first so a fault at tick T lands before workload at T
        schedule_faults(self.net, self.chains, self.registry, cfg.faults)
        for items, id_field, kind, start in (
                (cfg.app_txns, "txn_id", "app_txn", Simulation._start_app_txn),
                (cfg.transfers, "transfer_id", "transfer", Simulation._start_transfer),
                (cfg.payments, "payment_id", "payment", Simulation._start_payment),
                (cfg.reads, "read_id", "read", Simulation._start_read),
                (cfg.resolves, "resolve_id", "resolve", Simulation._start_resolve)):
            fields = ("start", ("kind", kind))
            for item in items:
                self.net.timer(getattr(item, id_field), item.at, fields, start, self, item)
        for pr in cfg.probes:
            self.net.schedule(pr.at, Simulation._start_probe, self, pr)

    # -- workload actions ----------------------------------------------

    def _attempt(self, step, kind: str, subject: str, section: Optional[str] = None,
                 state: tuple = ("state", "ERROR"), log: tuple = ("state", "error")):
        """step() with its InteropError caught: the error is logged under
        kind and subject, in the fields log names by key (state is the
        state pair, result holds the error) or gives as pairs, and, for a
        workload section, kept as subject's outcome in state[1].  Returns
        step's result, or None."""
        try:
            return step()
        except InteropError as exc:
            error = type(exc).__name__
            if section is not None:
                self.outcomes[section][subject] = {"state": state[1], "error": error}
            values = {"state": state, "error": ("error", error), "result": ("result", error)}
            self.net.record(kind, subject, *(
                key if key.__class__ is tuple else values[key] for key in log))
            return None

    def _start_app_txn(self, cfg):
        subs = []
        for s in cfg.subs:
            semantic = self.chains[s.candidates[0]].semantic_type
            unit = TransferUnit(payload_digest(s.payload), semantic,
                                Directionality.UNI, f"{cfg.txn_id}/{s.sub_id}")
            subs.append(SubTxn(s.sub_id, unit, list(s.candidates), s.timeout, cfg.app))
        self._attempt(lambda: self.survivor.submit_app_txn(cfg.txn_id, subs),
                      "txn", cfg.txn_id, "app_txns", ("state", "REJECTED"))

    def _start_transfer(self, cfg):
        self._attempt(lambda: self.transfers.initiate(
            cfg.transfer_id, self.assets[cfg.asset], cfg.source, cfg.dest,
            cfg.beneficiary, cfg.deadline, self.net.now),
            "transfer", cfg.transfer_id, "transfers", ("state", "REJECTED"))

    def _start_payment(self, cfg):
        path = self._attempt(lambda: self.valuenet.build_path(
            cfg.payment_id, cfg.source, cfg.dest, cfg.amount,
            cfg.denom_in, cfg.denom_out, self.net.now),
            "path", cfg.payment_id, "payments", ("state", "REJECTED"))
        if path is None:
            return
        # shared with the record of its settlement
        amount_out, denom_out = ("amount_out", path.amount_out), ("denom_out", path.denom_out)
        self.net.record("path", cfg.payment_id, ("state", path.state),
                        ("route", path.route_ids()),
                        ("amount_in", path.amount_in), ("denom_in", path.denom_in),
                        amount_out, denom_out, ("expiry", path.expiry_tick))
        if cfg.settle_after is not None:
            self.net.timer(cfg.payment_id, cfg.settle_after, ("settle", "due"),
                           Simulation._settle, self, cfg.payment_id, amount_out, denom_out)
        elif cfg.release_after is not None:
            self.net.timer(cfg.payment_id, cfg.release_after, ("release", "due"),
                           Simulation._release, self, cfg.payment_id)

    def _settle(self, path_id, amount_out, denom_out):
        path = self._attempt(lambda: self.valuenet.settle_path(path_id, self.net.now),
                             "path", path_id)
        if path is not None:
            self.net.record("path", path_id, ("state", path.state), amount_out, denom_out,
                            ("receiver", path.receiver_chain))

    def _release(self, path_id):
        path = self._attempt(lambda: self.valuenet.release_path(path_id, self.net.now),
                             "path", path_id)
        if path is not None:
            self.net.record("path", path_id, ("state", path.state))

    def _start_read(self, cfg):
        view = self._attempt(lambda: self._mediated_read(cfg), "read", cfg.read_id,
                             "reads", log=("result",))
        if view is None:
            return
        self.outcomes["reads"][cfg.read_id] = {
            "state": "OK", "chain": view.chain_id,
            "digest": view.payload_digest, "voided": view.voided}
        self.net.record("read", cfg.read_id, ("asset", view.cross_id),
                        ("chain", view.chain_id), ("digest", view.payload_digest),
                        ("confirmed", view.confirmed_tick),
                        ("via", view.attestation.signatures[0][0]))

    def _mediated_read(self, cfg):
        cid = self.assets[cfg.asset]
        home = self.resolver.resolve(cid).home_chain
        self._entry_gateways(home)  # raises Unreachable when there is no way in
        grant = self.grants.get(cfg.grant) if cfg.grant else None
        if grant is None:
            raise GrantMismatch("no delegation grant presented")
        return mediated_read(self.registry, self.chains[home], self.resolver,
                             grant, cid, cfg.requester, self.net.now)

    def _start_resolve(self, cfg):
        found = self._attempt(lambda: self.resolve_endpoint(self.assets[cfg.asset]),
                              "resolve", cfg.resolve_id, "resolves", log=("result",))
        if found is None:
            return
        pointer, endpoints = found
        self.outcomes["resolves"][cfg.resolve_id] = {
            "state": "OK", "home": pointer.home_chain, "endpoints": list(endpoints)}
        self.net.record("resolve", cfg.resolve_id, ("asset", pointer.asset),
                        ("home", pointer.home_chain), ("endpoints", endpoints))

    def _start_probe(self, cfg):
        via = self._attempt(lambda: self._entry_gateways(cfg.chain)[0], "probe",
                            cfg.probe_id, "probes", log=(("chain", cfg.chain), "result"))
        if via is None:
            return
        status = self.chains[cfg.chain].status(self.net.now)
        self.outcomes["probes"][cfg.probe_id] = {
            "state": "OK", "live": status.live_node_count,
            "pending": status.pending_count,
            "latency": f"{status.mean_confirm_latency:.2f}"}
        self.net.record("probe", cfg.probe_id, ("chain", cfg.chain), ("via", via),
                        ("live", status.live_node_count),
                        ("pending", status.pending_count),
                        ("latency", f"{status.mean_confirm_latency:.2f}"),
                        ("reachable", 1))

    # -- resolution ----------------------------------------------------

    def _entry_gateways(self, chain_id: str) -> list[str]:
        """The live gateways of chain_id, lowest id first: an outside
        party's only way in.  Unreachable when the chain is partitioned
        or has no live gateway."""
        if chain_id in self.net.cut_off:
            raise Unreachable(f"{chain_id} is partitioned")
        live = self.registry.live_gateways(chain_id)
        if not live:
            raise Unreachable(f"{chain_id} has no live gateway")
        return live

    def resolve_endpoint(self, cross_id: str):
        """Resolution as an outside party sees it: pointer plus the home
        chain's live gateway endpoints, never node addresses."""
        pointer = self.resolver.resolve(cross_id)
        endpoints = tuple(self._entry_gateways(pointer.home_chain))
        return pointer, endpoints

    # -- main loop -----------------------------------------------------

    def run(self) -> RunReport:
        horizon = self.config.horizon
        tick = 0
        while tick <= horizon:
            executed, earliest = run_tick(self.net, self.chains, self.survivor,
                                          self.transfers, self.valuenet, tick)
            self.events_executed += executed
            wake = self._next_wake(earliest)
            if wake is None and self._quiescent():
                break
            tick = horizon + 1 if wake is None else max(tick + 1, wake)
        return self.finish(min(tick, horizon))

    def _next_wake(self, earliest: Optional[int]) -> Optional[int]:
        """Earliest tick at which some phase can act (see the module
        docstring), or None when none can until a fault changes that;
        earliest is the chains' wake-up, which run_tick found."""
        wake = earliest
        for w in (self.net.next_event_tick(), self.transfers.next_abort_tick(),
                  self.valuenet.next_expiry()):
            if w is not None and (wake is None or w < wake):
                wake = w
        return wake

    def _quiescent(self) -> bool:
        """Whether the world has finished.  run calls this only when
        _next_wake found no wake-up, so no action is queued and no
        transfer deadline or reservation expiry is open; what is left is
        a pending unit that cannot confirm, stranded on a partitioned
        chain or one below quorum (see the module docstring)."""
        return not any(c.pending for c in self.chains.values())

    def finish(self, end_tick: int) -> RunReport:
        """End-of-run steps: set end_tick and the clock to it, log the
        resolver dump, assemble the report, and drop the actions still
        queued, which no run will ever execute."""
        self.end_tick = end_tick
        self.net.now = end_tick
        self._emit_resolver_dump()
        report = self._assemble_report()
        self.net.drop_queued()
        return report

    def _emit_resolver_dump(self) -> None:
        self.resolver_dump = [self.net.record("resolver", cid, *fields)
                              for cid, fields in self.resolver.dump()]

    # -- reporting -----------------------------------------------------

    def _assemble_report(self) -> RunReport:
        self._collect_outcomes()
        duplicates = {}
        for t in self.config.app_txns:
            if t.txn_id in self.survivor.txns:
                dups = self.survivor.poll_duplicates(t.txn_id)
                if dups:
                    duplicates[t.txn_id] = [f"{s}:{c}/{r}" for s, c, r in dups]
        fees, agreements = {}, self.peerings.agreements
        for t in self.transfers.transfers.values():
            if t.state == TransferState.FINALIZED:
                agreement = agreements[t.agreement_id]
                fees[agreement.pair] = fees.get(agreement.pair, 0) + agreement.fee_per_transfer
        # a sum of fees may have more digits than str() renders
        settlements = {f"{a}|{b}": _text(fee.as_integer_ratio())
                       for (a, b), fee in sorted(fees.items())}
        audits = audit_mod.run_all(self)
        metrics = {
            "events_executed": self.events_executed,
            "ledger_entries": {cid: len(c.ledger.entries)
                               for cid, c in self.chains.items()},
            "log_records": len(self.net.log.records),
        }
        return RunReport(
            scenario=self.config.name, seed=self.config.seed,
            horizon=self.config.horizon, end_tick=self.end_tick,
            outcomes=self.outcomes, duplicates=duplicates,
            settlements=settlements, audits=audits, metrics=metrics)

    def _collect_outcomes(self) -> None:
        for t in self.config.app_txns:
            if t.txn_id in self.outcomes["app_txns"]:
                continue  # rejected at submission
            status = self.survivor.poll_status(t.txn_id)
            self.outcomes["app_txns"][t.txn_id] = {
                "state": status.state, "tick": status.final_tick,
                "attempts": status.attempts}
        for x in self.config.transfers:
            if x.transfer_id in self.outcomes["transfers"]:
                continue
            t = self.transfers.transfers[x.transfer_id]
            entry = {"state": t.state, "tick": t.final_tick}
            if t.abort_reason:
                entry["reason"] = t.abort_reason
            self.outcomes["transfers"][x.transfer_id] = entry
        for p in self.config.payments:
            if p.payment_id in self.outcomes["payments"]:
                continue
            path = self.valuenet.paths[p.payment_id]
            self.outcomes["payments"][p.payment_id] = {
                "state": path.state, "tick": path.final_tick,
                "amount_out": path.amount_out, "denom_out": path.denom_out,
                "route": path.route_ids()}


def schedule_faults(net: SimNet, chains: dict[str, BlockchainSystem],
                    registry: GatewayRegistry, faults: list[FaultCfg]) -> None:
    """Queue each fault's apply phase at its at tick, and its heal phase
    at until when set.  A fault is active from its apply phase until its
    first heal phase after that, its until or a heal that names it; a
    heal fault is never active.  Either phase logs the fault record, runs
    the heal phase of each fault it names (so a heal of a heal heals that
    one's faults), and then, as the one writer of fault state, sets its
    targets from the faults active now: net.cut_off is their chains and
    links, and a node or gateway is live exactly when none names it."""
    by_id = {f.fault_id: f for f in faults}
    active: dict[str, FaultCfg] = {}  # the faults active now, by id
    state = (net, chains, registry, by_id, active)
    for f in faults:
        net.schedule(f.at - net.now, _fire_fault, *state, f, False)
        if f.until is not None:
            net.schedule(f.until - net.now, _fire_fault, *state, f, True)


def _fire_fault(net: SimNet, chains: dict[str, BlockchainSystem],
                registry: GatewayRegistry, by_id: dict[str, FaultCfg],
                active: dict[str, FaultCfg], fault: FaultCfg, heal: bool) -> None:
    """One phase of fault, as schedule_faults describes it."""
    fields = [("kind", fault.kind), ("phase", "heal" if heal else "apply")]
    target = fault.chains or fault.nodes or fault.gateways or fault.faults
    if target:
        fields.append(("target", target))
    if fault.links:
        fields.append(("links", [f"{a}-{b}" for a, b in fault.links]))
    net.record("fault", fault.fault_id, *fields)
    for fid in fault.faults:
        _fire_fault(net, chains, registry, by_id, active, by_id[fid], True)
    if heal:
        active.pop(fault.fault_id, None)
    elif fault.kind != "heal":
        active[fault.fault_id] = fault
    if fault.chains or fault.links:
        net.cut_off = {t for f in active.values()
                       for t in (*f.chains, *map(frozenset, f.links))}
    for nid in fault.nodes:
        chains[chain_of(nid)].set_node_live(
            nid, not any(nid in f.nodes for f in active.values()))
    for gid in fault.gateways:
        registry.set_live(gid, not any(gid in f.gateways for f in active.values()))


def run_tick(net: SimNet, chains: dict[str, BlockchainSystem],
             survivor: SurvivorLayer, transfers: TransferEngine,
             valuenet: ValueNetwork, tick: int) -> tuple[int, Optional[int]]:
    """Run the four phases of one tick; returns the events executed and
    the earliest next_confirm_tick of the chains, or None.  chains must
    be in chain-id order, the order of the consensus phase, as
    Simulation builds its chain table.  The consensus phase is the one
    per-tick visitor of that table, and what it reads after advancing a
    chain holds to the end of the tick: no phase after it submits a unit
    (a record request is a queued delivery, an attestation a direct
    append), and only drain changes partitions and quorum."""
    executed = net.drain(tick)
    earliest = None
    for cid, chain in chains.items():
        if not chain.pending or cid in net.cut_off:
            continue
        # advance_consensus is its own guard, so a visit reads
        # next_confirm_tick once, after it
        for entry in chain.advance_consensus(tick):
            net.record("ledger", ledger_subject(cid, entry.local_ref),
                       CONFIRM_FIELDS[entry.kind],
                       ("submitted", entry.submitted_tick),
                       ("nodes", len(entry.confirming_nodes)))
            survivor.on_confirmed(cid, entry)
            transfers.on_confirmed(cid, entry)
        due = chain.next_confirm_tick()
        if due is not None and (earliest is None or due < earliest):
            earliest = due
    transfers.step_all(tick)
    for pid in valuenet.expire(tick):
        net.record("path", pid, ("state", "EXPIRED"))
    return executed, earliest
