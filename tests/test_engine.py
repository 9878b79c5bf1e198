"""End-to-end engine tests over the bundled scenarios: protocol timing
checkpoints, workload outcomes, report assembly, run audits."""

import copy
import gc
import heapq
import json
import pickle
import struct
import sys
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial
from types import FunctionType, MethodType, SimpleNamespace

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from interopsim import engine as engine_mod
from interopsim import simnet as simnet_mod
from interopsim.chain import ENTRY_KIND_ATTESTATION, BlockchainSystem
from interopsim.engine import Simulation, run_tick, schedule_faults
from interopsim.errors import ValidationError
from interopsim.gateway import GatewayRegistry, TransferEngine, TransferState, entry_digest
from interopsim.runner import execute
from interopsim.scenario import FaultCfg, parse_scenario
from interopsim.simnet import SimNet
from interopsim.valuenet import PathState

from conftest import BUNDLED_SCENARIOS, REPO_ROOT, SCENARIO_DIR, bundled, make_chain
from test_acceptance import _random_fault_config
from test_scenario import ROBUSTNESS
from worlds import world

sys.path.append(str(REPO_ROOT / "perfbench"))
from workloads import dense  # noqa: E402


def log_lines(sim, kind=None, subject=None):
    out = []
    for rec in sim.net.log.records:
        if kind and rec.kind != kind:
            continue
        if subject and rec.subject != subject:
            continue
        out.append(rec)
    return out


class TestFig4Transfer:
    def test_transfer_finalizes_on_the_deterministic_schedule(self):
        report, sim = execute(bundled("fig4_transfer"))
        assert report.outcomes["transfers"]["x1"] == {
            "state": "FINALIZED", "tick": 10}
        t = sim.transfers.transfers["x1"]
        # milestone ticks with chain latency 3 and link latency 2
        milestones = {rec.get("state"): rec.tick
                      for rec in log_lines(sim, "transfer", "x1")}
        assert milestones == {"INITIATED": 0, "SOURCE_LOCKED": 3,
                              "DEST_RECORDED": 8, "VOUCHED": 10,
                              "FINALIZED": 10}
        assert t.state is TransferState.FINALIZED

    def test_resolve_after_transfer_points_at_destination(self):
        report, _ = execute(bundled("fig4_transfer"))
        resolve = report.outcomes["resolves"]["q1"]
        assert resolve["state"] == "OK"
        assert resolve["home"] == "bc2"
        assert resolve["endpoints"] == ["bc2.g1", "bc2.g2", "bc2.g3"]

    def test_read_sees_the_moved_asset_through_a_grant(self):
        report, _ = execute(bundled("fig4_transfer"))
        read = report.outcomes["reads"]["r1"]
        assert read["state"] == "OK"
        assert read["chain"] == "bc2", "the read follows the asset's new home"
        assert not read["voided"]

    def test_settlement_tally_reports_the_fee(self):
        report, sim = execute(bundled("fig4_transfer"))
        assert report.settlements == {"bc1|bc2": "2"}
        [t] = sim.transfers.transfers.values()
        assert t.state == TransferState.FINALIZED
        assert sim.peerings.agreements[t.agreement_id].fee_per_transfer == Fraction(2)

    def test_probe_reports_aggregate_only(self):
        report, sim = execute(bundled("fig4_transfer"))
        probe = report.outcomes["probes"]["pr1"]
        assert probe["state"] == "OK"
        [rec] = log_lines(sim, "probe", "pr1")
        assert "via=bc2.g1" in rec.detail
        for nid in sim.chains["bc2"].nodes:
            assert nid not in rec.detail, "probe transcript leaks a node id"

    def test_resolver_dump_is_appended_to_the_log(self):
        _, sim = execute(bundled("fig4_transfer"))
        asset = str(sim.assets["deed1"])
        tail = [r for r in sim.net.log.records if r.kind == "resolver"
                and r.subject == asset and "history=" in r.detail]
        assert tail, "the final resolver dump must appear in the event log"
        assert tail[-1].detail == "home=bc2 history=->bc1@0;bc1>bc2@10"

    def test_all_audits_pass(self):
        report, _ = execute(bundled("fig4_transfer"))
        assert report.passed(), [a.name for a in report.failed_audits()]
        assert len(report.audits) == 14


class TestGatewayCrash:
    def test_single_crash_repairs_and_finalizes(self):
        report, sim = execute(bundled("gateway_crash"))
        assert report.outcomes["transfers"]["x1"]["state"] == "FINALIZED"
        t = sim.transfers.transfers["x1"]
        assert t.paired_source == "bc1.g2", \
            "after bc1.g1 crashes the transfer re-pairs to bc1.g2"
        assert report.passed(), [a.name for a in report.failed_audits()]

    def test_double_crash_aborts_with_authority_at_source(self):
        raw = yaml.safe_load(
            (SCENARIO_DIR / "gateway_crash.yaml").read_text())
        raw["faults"].append({"id": "f2", "kind": "gateway_crash", "at": 6,
                              "gateways": ["bc1.g2"]})
        report, sim = execute(parse_scenario(raw, name="double_crash"))
        outcome = report.outcomes["transfers"]["x1"]
        assert outcome["state"] == "ABORTED"
        assert outcome["reason"] == "deadline"
        asset = sim.assets["deed1"]
        assert sim.resolver.resolve(asset).home_chain == "bc1", \
            "an aborted transfer must leave authority at the source"
        assert report.passed(), [a.name for a in report.failed_audits()]


class TestAbortPartition:
    def test_destination_partition_aborts_and_voids_nothing_durable(self):
        report, sim = execute(bundled("abort_partition"))
        outcome = report.outcomes["transfers"]["x1"]
        assert outcome["state"] == "ABORTED"
        assert outcome["reason"] == "deadline"
        asset = sim.assets["deed1"]
        assert sim.resolver.resolve(asset).home_chain == "bc1"
        assert report.outcomes["probes"]["pr1"] == {
            "state": "ERROR", "error": "Unreachable"}
        assert report.outcomes["resolves"]["q1"]["home"] == "bc1"
        assert report.passed(), [a.name for a in report.failed_audits()]


class TestReachability:
    @pytest.mark.parametrize("fault", [
        {"kind": "partition", "chains": ["bc1"]},
        {"kind": "gateway_crash", "gateways": ["bc1.g1", "bc1.g2"]}])
    def test_a_home_chain_out_of_reach_fails_reads_resolves_and_probes(self, fault):
        config = parse_scenario({
            "horizon": 10,
            "chains": [{"id": "bc1", "nodes": 4, "gateways": 2,
                        "semantic": "asset-registry", "confirm_latency": 2}],
            "assets": [{"id": "a1", "chain": "bc1"}],
            "grants": [{"id": "g1", "grantor": "app_x", "grantee": "app_y",
                        "asset": "a1", "expiry": 10}],
            "reads": [{"id": "r1", "at": 2, "asset": "a1", "requester": "app_y",
                       "grant": "g1"}],
            "resolves": [{"id": "q1", "at": 2, "asset": "a1"}],
            "probes": [{"id": "pr1", "at": 2, "chain": "bc1"}],
            "faults": [dict(fault, id="f1", at=1)]})
        report, sim = execute(config)
        unreachable = {"state": "ERROR", "error": "Unreachable"}
        assert [report.outcomes["reads"]["r1"], report.outcomes["resolves"]["q1"],
                report.outcomes["probes"]["pr1"]] == [unreachable] * 3
        results = {rec.kind: rec.get("result") for rec in sim.net.log.records
                   if rec.kind in ("read", "resolve", "probe")}
        assert results == dict.fromkeys(("read", "resolve", "probe"), "Unreachable")
        assert report.passed(), [a.name for a in report.failed_audits()]


class TestFaultShapes:
    """Fault shapes that no bundled scenario holds: a partition of a
    chain and a link at once, one node crash across two chains, an
    open-ended gateway crash ended by a heal, and a heal of a heal."""

    def run_world(self):
        config = parse_scenario({
            "horizon": 10,
            "chains": [{"id": cid, "nodes": 4, "gateways": 2, "quorum": "2/3",
                        "semantic": "generic-record", "confirm_latency": 2}
                       for cid in ("bc1", "bc2", "bc3")],
            "faults": [
                {"id": "f1", "kind": "partition", "at": 1, "chains": ["bc3"],
                 "links": [["bc1", "bc2"]]},
                {"id": "f2", "kind": "node_crash", "at": 2, "until": 6,
                 "nodes": ["bc1.n1", "bc1.n2", "bc2.n2", "bc2.n3"]},
                {"id": "f3", "kind": "gateway_crash", "at": 3, "gateways": ["bc1.g1"]},
                {"id": "h1", "kind": "heal", "at": 4, "faults": ["f1"]},
                {"id": "h2", "kind": "heal", "at": 5, "faults": ["h1", "f3"]}],
            "probes": [{"id": f"pr{i}", "at": at, "chain": cid}
                       for i, (at, cid) in enumerate(
                           [(3, "bc1"), (3, "bc2"), (3, "bc3"), (4, "bc3"), (7, "bc1")], 1)]},
            name="fault_shapes")
        return execute(config)

    def test_fault_records(self):
        _, sim = self.run_world()
        assert [r.line() for r in log_lines(sim, "fault")] == [
            "1 3 fault f1 kind=partition phase=apply target=bc3 links=bc1-bc2",
            "2 4 fault f2 kind=node_crash phase=apply target=bc1.n1,bc1.n2,bc2.n2,bc2.n3",
            "3 5 fault f3 kind=gateway_crash phase=apply target=bc1.g1",
            "4 9 fault h1 kind=heal phase=apply target=f1",
            "4 10 fault f1 kind=partition phase=heal target=bc3 links=bc1-bc2",
            "5 12 fault h2 kind=heal phase=apply target=h1,f3",
            "5 13 fault h1 kind=heal phase=heal target=f1",
            "5 14 fault f1 kind=partition phase=heal target=bc3 links=bc1-bc2",
            "5 15 fault f3 kind=gateway_crash phase=heal target=bc1.g1",
            "6 16 fault f2 kind=node_crash phase=heal target=bc1.n1,bc1.n2,bc2.n2,bc2.n3"]

    def test_liveness_and_episodes(self):
        report, sim = self.run_world()
        # an open chain advertises its quorum threshold (3 of 4), or 0
        # while it falls short
        probes = {rec.subject: (rec.get("via") or rec.get("result"), rec.get("live"))
                  for rec in log_lines(sim, "probe")}
        assert probes == {"pr1": ("bc1.g2", 0), "pr2": ("bc2.g1", 0),
                          "pr3": ("Unreachable", None), "pr4": ("bc3.g1", 3),
                          "pr5": ("bc1.g1", 3)}
        # pr3 finds bc3 cut off at tick 3 and pr4 finds it restored at
        # tick 4; the second heal of f1, at tick 5, leaves nothing cut off
        assert sim.net.cut_off == set()
        assert all(all(c.nodes.values()) for c in sim.chains.values())
        assert all(sim.registry.live.values())
        assert report.end_tick == 7
        assert report.passed(), [a.name for a in report.failed_audits()]


class TestOverlappingFaults:
    """A target is down while any fault that names it is active: the
    first heal of two overlapping faults on one target leaves it down
    until the other heals, and a heal ends only the faults it names."""

    @staticmethod
    def chain(cid, semantic="generic-record", gateways=2):
        return {"id": cid, "nodes": 4, "gateways": gateways, "quorum": "2/3",
                "semantic": semantic, "confirm_latency": 2, "vouch_threshold": 1}

    @staticmethod
    def down_by_tick(faults, read, ticks=8):
        """read() after each tick 0..ticks-1 of faults on the engine's
        fault path, over chain bc1 and its two gateways."""
        net = SimNet(0, 1, 0)
        chains = {"bc1": make_chain("bc1")}
        registry = GatewayRegistry()
        for gid in ("bc1.g1", "bc1.g2"):
            registry.add(gid)
        schedule_faults(net, chains, registry, faults)
        seen = []
        for tick in range(ticks):
            net.drain(tick)
            seen.append(read(net, chains["bc1"], registry))
        return seen

    def test_a_chain_stays_partitioned_until_its_last_partition_heals(self):
        report, sim = execute(parse_scenario({
            "horizon": 40, "chains": [self.chain("bc1"), self.chain("bc2")],
            "app_txns": [{"id": "t1", "at": 12,
                          "subs": [{"id": "s1", "candidates": ["bc1", "bc2"]}]}],
            "probes": [{"id": "pr1", "at": 12, "chain": "bc1"}],
            "faults": [
                {"id": "f1", "kind": "partition", "at": 2, "until": 10, "chains": ["bc1"]},
                {"id": "f2", "kind": "partition", "at": 5, "until": 15, "chains": ["bc1"]}]}))
        # f1's heal at tick 10 leaves bc1 cut off by f2 until tick 15
        assert [r.line() for r in log_lines(sim, subject="t1/s1")][:2] == [
            "12 6 txn t1/s1 attempt=1 chain=bc1 submit",
            "12 8 drop t1/s1 dst=bc1 msg=submit attempt=1"]
        assert not log_lines(sim, "ledger", "bc1/e1")
        assert [r.line() for r in log_lines(sim, "probe")] == [
            "12 7 probe pr1 chain=bc1 result=Unreachable"]
        assert report.outcomes["app_txns"]["t1"] == {
            "state": "CONFIRMED", "tick": 20, "attempts": 2}
        assert report.passed(), [a.name for a in report.failed_audits()]

    def test_a_gateway_stays_down_until_its_last_crash_heals(self):
        report, sim = execute(parse_scenario({
            "horizon": 40,
            "chains": [self.chain("bc1", "asset-registry"),
                       self.chain("bc2", "asset-registry", gateways=1)],
            "assets": [{"id": "a1", "chain": "bc1"}],
            "peerings": [{"id": "pa1", "chains": ["bc1", "bc2"],
                          "semantics": ["asset-registry"]}],
            "transfers": [{"id": "x1", "at": 12, "asset": "a1", "from": "bc1",
                           "to": "bc2", "deadline": 30}],
            "probes": [{"id": f"pr{at}", "at": at, "chain": "bc2"} for at in (12, 19, 20)],
            "faults": [
                {"id": "g1", "kind": "gateway_crash", "at": 3, "until": 8,
                 "gateways": ["bc2.g1"]},
                {"id": "g2", "kind": "gateway_crash", "at": 6, "until": 20,
                 "gateways": ["bc2.g1"]}]}))
        # g1's heal at tick 8 leaves bc2.g1, bc2's only gateway, down
        # under g2 until tick 20
        assert report.outcomes["transfers"]["x1"] == {
            "state": "REJECTED", "error": "NoLiveGateways"}
        assert {r.subject: r.get("via") or r.get("result")
                for r in log_lines(sim, "probe")} == {
            "pr12": "Unreachable", "pr19": "Unreachable", "pr20": "bc2.g1"}
        assert report.passed(), [a.name for a in report.failed_audits()]

    def test_a_link_stays_cut_until_its_last_cut_heals(self):
        # one link, named in either order
        blocked = self.down_by_tick([
            FaultCfg("f1", "partition", 1, links=[("bc1", "bc2")], until=4),
            FaultCfg("f2", "partition", 2, links=[("bc2", "bc1")], until=6)],
            lambda net, chain, registry: frozenset(("bc1", "bc2")) in net.cut_off)
        assert blocked == [False, True, True, True, True, True, False, False]

    def test_a_node_stays_down_until_its_last_crash_heals(self):
        live = self.down_by_tick([
            FaultCfg("f1", "node_crash", 1, nodes=["bc1.n1", "bc1.n2"], until=4),
            FaultCfg("f2", "node_crash", 2, nodes=["bc1.n2"], until=6)],
            lambda net, chain, registry: chain.live_count())
        assert live == [4, 2, 2, 2, 3, 3, 4, 4]

    def test_a_heal_ends_only_the_faults_it_names(self):
        down = self.down_by_tick([
            FaultCfg("f1", "partition", 1, chains=["bc1"]),
            FaultCfg("f2", "partition", 2, chains=["bc1"]),
            FaultCfg("f3", "gateway_crash", 1, gateways=["bc1.g1"]),
            FaultCfg("f4", "gateway_crash", 2, gateways=["bc1.g1"]),
            FaultCfg("h1", "heal", 3, faults=["f1", "f3"]),
            # a heal of h1 heals f1 and f3 again, which ends nothing
            FaultCfg("h2", "heal", 4, faults=["h1"]),
            FaultCfg("h3", "heal", 6, faults=["f2", "f4"])],
            lambda net, chain, registry: ("bc1" in net.cut_off,
                                          not registry.live["bc1.g1"]))
        assert down == [(False, False)] + [(True, True)] * 5 + [(False, False)] * 2

    def test_a_heal_before_its_fault_applies_ends_nothing(self):
        partitioned = self.down_by_tick([
            FaultCfg("f1", "partition", 3, chains=["bc1"], until=5),
            FaultCfg("h1", "heal", 1, faults=["f1"])],
            lambda net, chain, registry: "bc1" in net.cut_off)
        assert partitioned == [False, False, False, True, True, False, False, False]


class TestIlpPath:
    def test_payment_outcomes(self):
        report, _ = execute(bundled("ilp_path"))
        payments = report.outcomes["payments"]
        assert payments["p1"]["state"] == "SETTLED"
        assert payments["p1"]["amount_out"] == "25"
        assert payments["p2"] == {
            "state": "SETTLED", "tick": 4, "amount_out": "8",
            "denom_out": "gbp", "route": ["c1", "c2"]}
        assert payments["p3"] == {"state": "REJECTED", "error": "Overloaded"}
        assert payments["p4"]["state"] == "RELEASED"

    def test_value_network_is_external_to_the_ledgers(self):
        # the same world with the payments removed produces byte-equal
        # chain ledgers: connectors never touch consensus state
        full = bundled("ilp_path")
        raw = yaml.safe_load((SCENARIO_DIR / "ilp_path.yaml").read_text())
        raw.pop("payments")
        stripped = parse_scenario(raw, name="ilp_path")
        _, sim_full = execute(full)
        _, sim_none = execute(stripped)
        for cid in sim_full.chains:
            full, none = sim_full.chains[cid].ledger, sim_none.chains[cid].ledger
            assert (full.entries, full.marks, full.voids) \
                == (none.entries, none.marks, none.voids), \
                f"{cid}: payments leaked into the chain ledger"

    def test_all_audits_pass(self):
        report, _ = execute(bundled("ilp_path"))
        assert report.passed(), [a.name for a in report.failed_audits()]


class TestReportShape:
    def test_report_serializes_to_stable_json(self):
        report, _ = execute(bundled("fig2_fallback"))
        text = report.to_json()
        data = json.loads(text)
        assert data["scenario"] == "fig2_fallback"
        assert data["seed"] == 42
        assert data["end_tick"] == 20
        assert set(data["audits"]) == {
            "clock_monotonic", "append_only_ledgers", "quorum_soundness",
            "confirm_latency", "semantic_gating", "idempotent_submission",
            "single_authority", "no_lost_assets", "attestation_necessity",
            "masking_bijectivity", "resolution_opacity",
            "no_partition_delivery", "value_conservation",
            "reservation_consistency"}
        assert text == json.dumps(data, indent=2, sort_keys=True) + "\n", \
            "report JSON must round-trip byte-identically"

    def test_summary_lines_name_every_audit(self):
        report, _ = execute(bundled("fig2_fallback"))
        lines = report.summary_lines()
        assert lines[0].startswith("scenario fig2_fallback seed=42")
        assert sum(1 for l in lines if l.startswith("audit ")) == 14
        assert all(": pass" in l for l in lines[1:])

    def test_seed_override_changes_the_seed_not_the_outcome_shape(self):
        config = bundled("fig2_fallback")
        report, _ = execute(replace(config, seed=777))
        assert report.seed == 777
        assert report.outcomes["app_txns"]["t1"]["state"] == "CONFIRMED"

    def test_metrics_count_events_and_entries(self):
        report, sim = execute(bundled("fig4_transfer"))
        metrics = report.metrics
        assert metrics["events_executed"] == sim.events_executed > 0
        assert metrics["ledger_entries"]["bc1"] == len(
            sim.chains["bc1"].ledger.entries)
        assert metrics["log_records"] == len(sim.net.log.records)


class TestBundledAuditsAndDeterminism:
    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_every_bundled_scenario_passes_all_audits(self, name):
        report, _ = execute(bundled(name))
        assert report.passed(), \
            f"{name}: {[a.name for a in report.failed_audits()]}"

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_reruns_are_byte_identical(self, name):
        _, sim_a = execute(bundled(name))
        _, sim_b = execute(bundled(name))
        assert sim_a.net.log.dumps() == sim_b.net.log.dumps(), \
            f"{name}: same scenario and seed must replay identically"

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_report_json_is_deterministic(self, name):
        report_a, _ = execute(bundled(name))
        report_b, _ = execute(bundled(name))
        assert report_a.to_json() == report_b.to_json()

    def test_chain_declaration_order_changes_nothing(self):
        # the chain table is built in chain-id order, whatever the file's
        raws = {name: yaml.safe_load((SCENARIO_DIR / f"{name}.yaml").read_text())
                for name in BUNDLED_SCENARIOS}
        raws.update((f"world-{seed}", world(seed)) for seed in range(100))
        differ = []
        for name, raw in raws.items():
            backwards = sorted(raw["chains"], key=lambda c: c["id"], reverse=True)
            runs = [execute(parse_scenario(r, name=name))
                    for r in (raw, {**raw, "chains": backwards})]
            (report, sim), (report_b, sim_b) = runs
            if (sim.net.log.dumps() != sim_b.net.log.dumps()
                    or report.to_json() != report_b.to_json()):
                differ.append(name)
        assert differ == []


# -- event-driven loop ------------------------------------------------


def _sparse_world(jitter=0):
    """Four chains: one app transaction at tick 0, then nothing until a
    transfer initiated at tick 240 of a 300-tick horizon."""
    chains = [{"id": f"bc{i}", "nodes": 4, "gateways": 3, "quorum": "2/3",
               "confirm_latency": 2, "semantic": "asset-registry"}
              for i in range(4)]
    return parse_scenario({
        "horizon": 300, "seed": 7, "chains": chains,
        "links": {"latency_jitter": jitter},
        "peerings": [{"id": "pa1", "chains": ["bc0", "bc1"],
                      "semantics": ["asset-registry"], "fee": "1"}],
        "assets": [{"id": "a0", "chain": "bc0", "payload": "deed-0"}],
        "app_txns": [{"id": "t0", "at": 0,
                      "subs": [{"id": "s1", "candidates": ["bc2", "bc3"]}]}],
        "transfers": [{"id": "x0", "at": 240, "asset": "a0", "from": "bc0",
                       "to": "bc1", "beneficiary": "app_y",
                       "deadline": 270}]}, name="sparse-small")


def _expiring_payments_world(probe=True):
    """Reservations that settle, release, expire in the sweep, expire on a
    late settle, or never get built; plus, with probe, a probe long after
    the rest."""
    denoms = {"pay1": "usd", "pay2": "eur", "pay3": "gbp"}
    chains = [{"id": cid, "nodes": 3, "gateways": 1, "quorum": "2/3",
               "confirm_latency": 2, "semantic": "payments", "denom": d}
              for cid, d in denoms.items()]
    pay = {"from": "pay1", "to": "pay3", "denom_in": "usd", "denom_out": "gbp"}
    return parse_scenario({
        "horizon": 90, "seed": 3, "chains": chains,
        "valuenet": {"reservation_ttl": 6},
        "connectors": [
            {"id": "c1", "chains": ["pay1", "pay2"], "reserves": {"eur": "60"},
             "rates": [{"from": "usd", "to": "eur", "rate": "5/4"}]},
            {"id": "c2", "chains": ["pay2", "pay3"], "reserves": {"gbp": "40"},
             "rates": [{"from": "eur", "to": "gbp", "rate": "4/5"}]}],
        "payments": [
            dict(pay, id="p1", at=0, amount="8", settle_after=2),
            dict(pay, id="p2", at=1, amount="8"),
            dict(pay, id="p3", at=3, amount="8", release_after=1),
            dict(pay, id="p4", at=4, amount="8", settle_after=6),
            dict(pay, id="p5", at=5, amount="90"),
            dict(pay, id="p6", at=20, amount="8")],
        "probes": [{"id": "pr1", "at": 70, "chain": "pay2"}] if probe else []},
        name="payments-expiry")


def _stranded_unit_world():
    """A unit submitted to a chain that is partitioned from the next tick
    to the end: its app transaction fails, and the unit stays pending."""
    return parse_scenario({
        "horizon": 40, "seed": 5,
        "chains": [{"id": "bc1", "nodes": 4, "gateways": 1, "quorum": "2/3",
                    "confirm_latency": 4, "semantic": "generic-record"}],
        "app_txns": [{"id": "t0", "at": 0, "subs": [
            {"id": "s1", "candidates": ["bc1"], "timeout": 2}]}],
        "faults": [{"id": "f1", "kind": "partition", "at": 1,
                    "chains": ["bc1"]}]}, name="stranded-unit")


def _stuck_world(horizon):
    """One transfer stuck behind a partition of its destination for the
    whole run, with its deadline at horizon - 1, and an app transaction
    on a third chain every five ticks, so that the ticks processed grow
    with the horizon."""
    chains = [{"id": cid, "nodes": 4, "gateways": 2, "quorum": "2/3",
               "confirm_latency": 2, "semantic": "asset-registry"}
              for cid in ("bc1", "bc2", "bc3")]
    return parse_scenario({
        "horizon": horizon, "chains": chains,
        "peerings": [{"chains": ["bc1", "bc2"], "semantics": ["asset-registry"]}],
        "assets": [{"id": "a1", "chain": "bc1"}],
        "transfers": [{"id": "x1", "at": 0, "asset": "a1", "from": "bc1",
                       "to": "bc2", "deadline": horizon - 1}],
        "app_txns": [{"id": f"t{i}", "at": at, "subs": [{"candidates": ["bc3"]}]}
                     for i, at in enumerate(range(0, horizon - 5, 5))],
        "faults": [{"id": "f1", "kind": "partition", "at": 0, "chains": ["bc2"]}]},
        name=f"stuck-{horizon}")


def _flap_world(n, gateway):
    """The stuck world of dense(0, n): every deadline at horizon - 1 and
    bc9 partitioned for the whole run, in place of dense's short
    partitions, which at small n would make the step count grow faster
    than n.  On top, a gateway flap every 10 ticks from tick 5: bc{k % 9}
    crashes its gateway g{gateway} for 5 ticks.  A transfer pairs with
    g1 while it is live, and never with g3."""
    raw = dense(0, n)
    horizon = raw["horizon"]
    for x in raw["transfers"]:
        x["deadline"] = horizon - 1
    raw["faults"] = [{"id": "f-bc9", "kind": "partition", "at": 0, "chains": ["bc9"]}]
    raw["faults"] += [{"id": f"flap{k}", "kind": "gateway_crash", "at": at,
                       "until": at + 5, "gateways": [f"bc{k % 9}.g{gateway}"]}
                      for k, at in enumerate(range(5, horizon, 10))]
    return parse_scenario(raw, name=f"flap-{n}-g{gateway}")


def _next_wake_reference(sim):
    """The earliest wake-up as a minimum over a list of every candidate,
    None ones included, as _next_wake once computed it."""
    wakes = [chain.next_confirm_tick() for cid, chain in sim.chains.items()
             if cid not in sim.net.cut_off]
    wakes.append(sim.net.next_event_tick())
    wakes.append(sim.transfers.next_abort_tick())
    wakes.append(sim.valuenet.next_expiry())
    return min((w for w in wakes if w is not None), default=None)


def _quiet(sim):
    """The quiescence rule read straight from the state."""
    return (sim.net.next_event_tick() is None
            and not any(c.pending for c in sim.chains.values())
            and all(t.terminal() for t in sim.transfers.transfers.values())
            and all(txn.terminal() for txn in sim.survivor.txns.values())
            and all(p.state is not PathState.RESERVED
                    for p in sim.valuenet.paths.values()))


def _step_every_open_transfer(engine):
    """A step phase that polls: every transfer that is not terminal, in
    initiation order, on every tick it runs."""
    def step_all(now):
        for tid in engine.order:
            t = engine.transfers[tid]
            if not t.terminal():
                engine.step(t, now)
    return step_all


def _tick_through(sim, start, stop):
    """Drive sim through run_tick on every tick from start up to stop,
    until _quiet holds: the tick it held on, or None if none."""
    for tick in range(start, stop):
        sim.events_executed += run_tick(sim.net, sim.chains, sim.survivor,
                                        sim.transfers, sim.valuenet, tick)[0]
        if _quiet(sim):
            return tick
    return None


def _run_every_tick(config):
    """The same world driven through run_tick on every tick, with a step
    phase that polls every open transfer, until _quiet holds or the
    horizon, then the same end-of-run steps as Simulation.run."""
    sim = Simulation(config)
    sim.transfers.step_all = _step_every_open_transfer(sim.transfers)
    end = _tick_through(sim, 0, config.horizon + 1)
    return sim.finish(config.horizon if end is None else end), sim


def _skipping_changes(config):
    """Differences between the event-driven run, which skips ticks and
    steps only the transfers the stepping rule names, and the reference
    run, which processes every tick, steps every open transfer and stops
    by the reference rule."""
    report, sim = execute(config)
    ref_report, ref = _run_every_tick(config)
    problems = []
    if sim.end_tick != ref.end_tick:
        problems.append(f"{config.name}: end_tick {sim.end_tick}, "
                        f"reference {ref.end_tick}")
    if sim.net.log.dumps() != ref.net.log.dumps():
        problems.append(f"{config.name}: event logs differ")
    if report.to_json() != ref_report.to_json():
        problems.append(f"{config.name}: reports differ")
    return problems


class TestEventDrivenLoop:
    def test_skipping_changes_nothing_on_criterion_3_worlds(self):
        problems = []
        for seed in range(100):
            problems += _skipping_changes(_random_fault_config(seed))
        assert problems == []

    @pytest.mark.parametrize("jitter", [0, 3])
    def test_skipping_changes_nothing_on_a_sparse_world(self, jitter):
        assert _skipping_changes(_sparse_world(jitter)) == []

    def test_skipping_changes_nothing_with_expiring_reservations(self):
        config = _expiring_payments_world()
        report, _ = execute(config)
        states = {pid: p["state"]
                  for pid, p in report.outcomes["payments"].items()}
        assert states == {"p1": "SETTLED", "p2": "EXPIRED", "p3": "RELEASED",
                          "p4": "EXPIRED", "p5": "REJECTED", "p6": "EXPIRED"}
        assert _skipping_changes(config) == []

    def test_a_reservation_due_to_expire_holds_the_run_open(self):
        config = _expiring_payments_world(probe=False)
        report, _ = execute(config)
        assert report.outcomes["payments"]["p6"]["state"] == "EXPIRED"
        assert report.end_tick == 26, "p6 reserves at 20 with a ttl of 6"
        assert _skipping_changes(config) == []

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_skipping_changes_nothing_on_bundled_worlds(self, name):
        assert _skipping_changes(bundled(name)) == []

    def test_a_unit_stranded_on_a_partitioned_chain_holds_the_run_open(self):
        config = _stranded_unit_world()
        report, _ = execute(config)
        assert report.outcomes["app_txns"]["t0"]["state"] == "FAILED"
        assert report.end_tick == config.horizon
        assert _skipping_changes(config) == []

    def test_step_work_does_not_grow_with_idle_processed_ticks(self, monkeypatch):
        steps, ticks = [], []
        step, drain = TransferEngine.step, SimNet.drain

        def counting_step(engine, t, now):
            steps.append(now)
            return step(engine, t, now)

        def counting_drain(net, tick):
            ticks.append(tick)
            return drain(net, tick)

        monkeypatch.setattr(TransferEngine, "step", counting_step)
        monkeypatch.setattr(SimNet, "drain", counting_drain)
        counts = {}
        for horizon in (100, 200):
            del steps[:], ticks[:]
            report, _ = execute(_stuck_world(horizon))
            assert report.outcomes["transfers"]["x1"] == {
                "state": "ABORTED", "tick": horizon, "reason": "deadline"}
            counts[horizon] = (len(steps), len(ticks))
        assert counts[200][1] > counts[100][1] * 1.8, "the world must keep ticking"
        # x1 steps when its lock confirms (it sends the record request,
        # which the partition drops) and when its deadline has passed
        assert counts[100][0] == counts[200][0] == 2, counts

    @pytest.mark.parametrize("gateway", [1, 3])
    def test_step_work_grows_linearly_under_gateway_flaps(self, gateway, monkeypatch):
        """A liveness change wakes only the transfers it can move, so the
        flaps, whose number grows with n, add no step per open transfer;
        and the consensus phase calls only chains with a pending unit,
        so its calls grow with the work too, as do the queue pushes and
        the records written."""
        assert _skipping_changes(_flap_world(40, gateway)) == []
        steps, calls, pushes = [], [], []
        step, advance = TransferEngine.step, BlockchainSystem.advance_consensus
        schedule = SimNet.schedule

        def counting_step(engine, t, now):
            steps.append(now)
            return step(engine, t, now)

        def counting_advance(chain, now):
            calls.append(now)
            return advance(chain, now)

        def counting_schedule(net, delay, fn, *args):
            pushes.append(delay)
            return schedule(net, delay, fn, *args)

        monkeypatch.setattr(TransferEngine, "step", counting_step)
        monkeypatch.setattr(BlockchainSystem, "advance_consensus", counting_advance)
        monkeypatch.setattr(SimNet, "schedule", counting_schedule)
        counts = []
        for n in (40, 80, 160):
            del steps[:], calls[:], pushes[:]
            _, sim = execute(_flap_world(n, gateway))
            counts.append((len(steps), len(calls), len(pushes),
                           len(sim.net.log.records)))
        for work in zip(*counts):
            assert all(b <= 2.1 * a for a, b in zip(work, work[1:])), counts

    def test_next_wake_is_the_minimum_and_consensus_skips_idle_chains(self, monkeypatch):
        wrong, idle = [], []
        next_wake = Simulation._next_wake
        advance = BlockchainSystem.advance_consensus

        def checked_next_wake(sim, earliest):
            wake, reference = next_wake(sim, earliest), _next_wake_reference(sim)
            if wake != reference:
                wrong.append((sim.config.name, sim.net.now, wake, reference))
            return wake

        def checked_advance(chain, now):
            if not chain.pending:
                idle.append((chain.chain_id, now))
            return advance(chain, now)

        monkeypatch.setattr(Simulation, "_next_wake", checked_next_wake)
        monkeypatch.setattr(BlockchainSystem, "advance_consensus", checked_advance)
        configs = [bundled(name) for name in BUNDLED_SCENARIOS]
        configs += [parse_scenario(world(seed), name=f"world-{seed}") for seed in range(100)]
        for config in configs:
            execute(config)
        assert wrong == [] and idle == []

    def test_a_consensus_visit_reads_next_confirm_tick_once(self, monkeypatch):
        """advance_consensus is its own guard, so the consensus phase
        reads next_confirm_tick once per chain it visits."""
        visits, reads = [], []
        advance, next_tick = BlockchainSystem.advance_consensus, BlockchainSystem.next_confirm_tick

        def counting_advance(chain, now):
            visits.append(now)
            return advance(chain, now)

        def counting_next_tick(chain):
            reads.append(chain.chain_id)
            return next_tick(chain)

        monkeypatch.setattr(BlockchainSystem, "advance_consensus", counting_advance)
        monkeypatch.setattr(BlockchainSystem, "next_confirm_tick", counting_next_tick)
        for name in BUNDLED_SCENARIOS:
            execute(bundled(name))
        assert visits and len(reads) == len(visits)

    def test_next_wake_reads_no_chain(self, monkeypatch):
        """run_tick's consensus phase is the one per-tick visitor of the
        chain table: with the table emptied while _next_wake runs, every
        run writes the same log."""
        configs = [bundled(name) for name in BUNDLED_SCENARIOS]
        configs += [parse_scenario(world(seed), name=f"world-{seed}") for seed in range(100)]
        logs = [execute(config)[1].net.log.dumps() for config in configs]
        next_wake = Simulation._next_wake

        def chainless_next_wake(sim, earliest):
            chains, sim.chains = sim.chains, {}
            try:
                return next_wake(sim, earliest)
            finally:
                sim.chains = chains

        monkeypatch.setattr(Simulation, "_next_wake", chainless_next_wake)
        assert [execute(config)[1].net.log.dumps() for config in configs] == logs

    def test_only_wake_up_ticks_are_processed(self, monkeypatch):
        ticks = []
        drain = SimNet.drain

        def counting_drain(net, tick):
            ticks.append(tick)
            return drain(net, tick)

        monkeypatch.setattr(SimNet, "drain", counting_drain)
        report, sim = execute(_sparse_world())
        assert report.outcomes["transfers"]["x0"]["state"] == "FINALIZED"
        # t0 submits at 0 and confirms at 2, its spent timeout timer fires
        # at 6; x0 locks 240-242, records 244-246 and finalizes when the
        # attestation arrives at 248
        assert ticks == [0, 2, 6, 240, 242, 244, 246, 248]
        assert sim.net.now == sim.end_tick == 248


# -- ownership --------------------------------------------------------


def test_a_finished_world_is_freed_by_reference_counting(monkeypatch):
    """With the cyclic garbage collector off, a finished Simulation dies
    at its last del, also when the run ended at the horizon with actions
    still queued, and while its report lives on."""
    queued_at_horizon = []
    finish = Simulation.finish

    def recording_finish(sim, end_tick):
        if end_tick == sim.config.horizon and sim.net.next_event_tick() is not None:
            queued_at_horizon.append(sim.config.name)
        return finish(sim, end_tick)

    monkeypatch.setattr(Simulation, "finish", recording_finish)
    configs = [bundled(name) for name in BUNDLED_SCENARIOS]
    configs += [parse_scenario(world(seed), name=f"world-{seed}") for seed in range(100)]
    survivors, reports = [], []
    gc.disable()
    try:
        for config in configs:
            sim = Simulation(config)
            reports.append(sim.run())
            ref = weakref.ref(sim)
            del sim
            if ref() is not None:
                survivors.append(config.name)
    finally:
        gc.enable()
    assert survivors == []
    assert "world-2" in queued_at_horizon, queued_at_horizon
    assert all(report.passed() for report in reports)


def _entry_problems(entry):
    """How a queue entry differs from the call it makes: an exact tuple
    (tick, seq, fn, *args) whose fn is a plain function, with no partial
    and no bound method among its arguments."""
    if type(entry) is not tuple:
        return [f"{entry!r} is no tuple"]
    fn, *args = entry[2:]
    if not isinstance(fn, FunctionType):
        return [f"its fn {fn!r} is no plain function"]
    return [f"{fn.__name__} holds {arg!r}" for arg in args
            if isinstance(arg, (partial, MethodType))]


@pytest.mark.parametrize("name", [*BUNDLED_SCENARIOS, "world-18"])
def test_every_queued_action_is_one_tuple_of_a_plain_function(monkeypatch, name):
    """Each queue entry of a built world, and each entry queued while it
    runs, is the call it makes: one tuple of a plain function and its
    arguments, the one object for the cyclic GC to track while it waits."""
    config = (parse_scenario(world(18), name=name) if name == "world-18"
              else bundled(name))
    pushed = []

    def heappush(queue, entry):
        pushed.append(entry)
        heapq.heappush(queue, entry)

    monkeypatch.setattr(simnet_mod, "heapq", SimpleNamespace(
        heappush=heappush, heappop=heapq.heappop))
    sim = Simulation(config)
    built = list(sim.net._queue)
    assert built and [p for entry in built for p in _entry_problems(entry)] == []
    sim.run()
    assert len(pushed) > len(built)
    assert [p for entry in pushed for p in _entry_problems(entry)] == []


def test_a_built_queue_tracks_one_object_per_entry():
    """The tuples, partials and bound methods reachable from a built
    queue, each counted once, are one per entry, its own tuple, apart
    from the field tuples that several entries share."""
    sim = Simulation(parse_scenario(world(18), name="world-18"))
    queue = sim.net._queue
    assert sim.config.payments and queue
    reached, objects = Counter(), {}  # by id: the entries that reach it, itself
    for entry in queue:
        seen, stack = {id(entry): entry}, [entry]
        while stack:
            for ref in gc.get_referents(stack.pop()):
                if (type(ref) in (tuple, partial, MethodType) and gc.is_tracked(ref)
                        and id(ref) not in seen):
                    seen[id(ref)] = ref
                    stack.append(ref)
        reached.update(seen.keys())
        objects.update(seen)
    own = sorted(key for key, count in reached.items() if count == 1)
    assert own == sorted(map(id, queue)), (len(own), len(queue))
    shared = [objects[key] for key, count in reached.items() if count > 1]
    assert all(type(obj) is tuple and not any(map(callable, obj)) for obj in shared), shared


# by record kind, the field keys whose pairs the writer builds once per
# value and hands every record that logs that value
SHARED_KEYS = {
    "transfer": {"state", "asset", "src", "dst", "by"},
    "deliver": {"src", "dst", "msg", "transfer"},
    "drop": {"src", "dst", "msg", "transfer"},
    "ledger": {"confirm", "transfer"},
}


def test_equal_log_fields_are_one_object():
    """In a transfer-heavy world's log, equal pairs of SHARED_KEYS in the
    transfer, deliver, drop and ledger records are one object, and the
    log holds fewer pair objects than records."""
    sim = Simulation(parse_scenario(dense(0, 60)))
    sim.run()
    records = sim.net.log.records
    pairs, equal = set(), {}  # ids of every pair; pair -> the ids of its equals
    for rec in records:
        shared = SHARED_KEYS.get(rec.kind, ())
        for field in rec.fields:
            if field.__class__ is tuple:
                pairs.add(id(field))
                if field[0] in shared:
                    equal.setdefault(field, set()).add(id(field))
    assert set(SHARED_KEYS) <= {rec.kind for rec in records}
    assert {pair: len(ids) for pair, ids in equal.items() if len(ids) > 1} == {}
    assert len(pairs) < len(records), (len(pairs), len(records))


def test_the_lock_table_holds_exactly_the_open_transfers(monkeypatch):
    """After every processed tick, the transfers in the lock table are
    the transfers that are not terminal: the step phase finds the
    transfers a liveness change can move by one scan of that table.
    And each open transfer's progress is what its two chains show, read
    by the lock:<id> and record:<id> keys: its lock is confirmed once it
    leaves INITIATED, its record exactly while it is DEST_RECORDED, and
    the destination ledger holds an attestation over that record's
    digest exactly when the transfer holds its destination attestation."""
    mismatches, locks_seen, states_seen = [], [], set()
    # chain id -> (entries scanned, the digests its attestations claim),
    # for the run in progress: a ledger only grows
    claimed = {}

    def claimed_digests(chain):
        scanned, digests = claimed.get(chain.chain_id, (0, set()))
        for e in chain.ledger.entries[scanned:]:
            if e.kind == ENTRY_KIND_ATTESTATION:
                raw = bytes.fromhex(e.payload)
                _, size = struct.unpack(">HI", raw[:6])
                digests.add(raw[6:6 + size].decode("ascii").rsplit("|", 1)[1])
        claimed[chain.chain_id] = (len(chain.ledger.entries), digests)
        return digests

    def ledger_view(t, chains):
        source, dest = chains[t.source_chain], chains[t.dest_chain]
        lock = source.ledger.get(source.refs.get(f"lock:{t.transfer_id}"))
        record = dest.ledger.get(dest.refs.get(f"record:{t.transfer_id}"))
        attested = record is not None and entry_digest(record) in claimed_digests(dest)
        return lock is not None, record is not None, attested

    def checked_tick(net, chains, survivor, transfers, valuenet, tick):
        result = run_tick(net, chains, survivor, transfers, valuenet, tick)
        held = {t.transfer_id for t in transfers.locks.values()}
        open_ids = {tid for tid, t in transfers.transfers.items() if not t.terminal()}
        if held != open_ids:
            mismatches.append((tick, sorted(held ^ open_ids)))
        for tid in sorted(open_ids):
            t = transfers.transfers[tid]
            states_seen.add(t.state)
            progress = (t.state != TransferState.INITIATED,
                        t.state == TransferState.DEST_RECORDED,
                        t.dest_attestation is not None)
            if ledger_view(t, chains) != progress:
                mismatches.append((tick, tid, t.state, ledger_view(t, chains)))
        locks_seen.append(len(held))
        return result

    monkeypatch.setattr(engine_mod, "run_tick", checked_tick)
    configs = [bundled(name) for name in BUNDLED_SCENARIOS]
    configs += [parse_scenario(world(seed), name=f"world-{seed}") for seed in range(100)]
    for config in configs:
        claimed.clear()
        Simulation(config).run()
        assert mismatches == [], (config.name, mismatches)
    assert sum(locks_seen) > 1000, "the check saw transfers in flight"
    assert states_seen == {TransferState.INITIATED, TransferState.SOURCE_LOCKED,
                           TransferState.DEST_RECORDED}, states_seen


# -- generated worlds -------------------------------------------------


@settings(ROBUSTNESS, max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_generated_worlds_run_audit_replay_and_skip_nothing(seed):
    try:
        config = parse_scenario(world(seed), name=f"world-{seed}")
    except ValidationError as exc:
        assert exc.problems
        return
    report, sim = execute(config)
    assert len(report.audits) == 14
    assert report.passed(), [(a.name, a.detail) for a in report.failed_audits()]
    _, again = execute(config)
    assert again.net.log.dumps() == sim.net.log.dumps()
    assert _skipping_changes(config) == []


# -- forks --------------------------------------------------------------


def _forks_change(config, fork_tick):
    """Differences from the uninterrupted run of two forks of one world,
    driven tick by tick up to fork_tick: a deepcopy and a pickle round
    trip, each then driven on to the end."""
    report, sim = execute(config)
    expected = (sim.net.log.dumps(), report.to_json())
    horizon = config.horizon
    driven = Simulation(config)
    held = _tick_through(driven, 0, fork_tick)
    problems = []
    for how, fork in (("deepcopy", copy.deepcopy(driven)),
                      ("pickle", pickle.loads(pickle.dumps(driven)))):
        end = held if held is not None else _tick_through(fork, fork_tick, horizon + 1)
        fork_report = fork.finish(horizon if end is None else end)
        if (fork.net.log.dumps(), fork_report.to_json()) != expected:
            problems.append(f"{config.name}: {how} fork at tick {fork_tick} differs")
    return problems


@settings(ROBUSTNESS, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.floats(0, 1))
def test_a_forked_world_runs_on_as_the_world_does(seed, at):
    try:
        config = parse_scenario(world(seed), name=f"world-{seed}")
    except ValidationError as exc:
        assert exc.problems
        return
    assert _forks_change(config, round(at * config.horizon)) == []
