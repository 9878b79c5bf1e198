"""Survivability layer tests: timeout-driven fallback, duplicate
tolerance across healed chains, rejection handling, outcome opacity."""

from dataclasses import replace

import pytest

from interopsim.chain import SemanticType
from interopsim.errors import (
    EmptyCandidates,
    NotFound,
    SemanticMismatch,
    ValidationError,
)
from interopsim.runner import execute
from interopsim.scenario import parse_scenario
from interopsim import simnet
from interopsim.simnet import SimNet
from interopsim.survivor import (
    SubTxn,
    SurvivorLayer,
    TXN_CONFIRMED,
    TXN_FAILED,
)

from conftest import bundled, make_chain, make_unit


def two_generic_chains(horizon=40, latency=4, **extra):
    raw = {
        "horizon": horizon,
        "chains": [
            {"id": "bc1", "nodes": 4, "gateways": 1, "quorum": "2/3",
             "confirm_latency": latency, "semantic": "generic-record",
             "regime": {"node": True, "consensus": True}},
            {"id": "bc2", "nodes": 4, "gateways": 1, "quorum": "2/3",
             "confirm_latency": latency, "semantic": "generic-record",
             "regime": {"node": True, "consensus": True}},
        ],
    }
    raw.update(extra)
    return raw


def run_raw(raw, name="case"):
    return execute(parse_scenario(raw, name=name))


def fates(sim, subject="t1/s1"):
    """The detail of each txn record of subject but its submits: the
    timeout of each attempt that timed out, and each confirmation."""
    return [r.detail for r in sim.net.log.records
            if r.kind == "txn" and r.subject == subject
            and not r.detail.endswith(" submit")]


class TestFallbackSchedule:
    def test_partitioned_primary_falls_back_and_confirms(self):
        # submission at t0 is dropped (bc1 isolated), timeout at t10
        # starts attempt 2 on bc2, which confirms at t10 + latency 4
        report, sim = execute(bundled("fig2_fallback"))
        outcome = report.outcomes["app_txns"]["t1"]
        assert outcome == {"state": TXN_CONFIRMED, "tick": 14, "attempts": 2}
        [sub] = sim.survivor.audit("t1").values()
        assert sub.attempts == 2 and sub.candidates == ["bc1", "bc2"]
        assert fates(sim) == ["attempt=1 chain=bc1 timeout",
                              "confirmed chain=bc2 ref=e1"]
        assert sub.confirmations == [("bc2", "e1", 14)]

    def test_dropped_submission_never_reaches_the_ledger(self):
        _, sim = execute(bundled("fig2_fallback"))
        assert sim.chains["bc1"].ledger.entries == []
        assert sim.chains["bc1"].pending == [], \
            "a dropped submission must not linger as pending"

    def test_all_candidates_partitioned_exhausts_to_failed(self):
        raw = two_generic_chains(
            faults=[{"id": "f1", "kind": "partition", "at": 0,
                     "chains": ["bc1", "bc2"]}],
            app_txns=[{"id": "t1", "at": 0, "subs": [
                {"id": "s1", "candidates": ["bc1", "bc2"], "payload": "x",
                 "timeout": 10}]}])
        report, sim = run_raw(raw)
        outcome = report.outcomes["app_txns"]["t1"]
        assert outcome["state"] == TXN_FAILED
        assert outcome["tick"] == 20, "failure lands at the sum of the timeouts"
        assert outcome["attempts"] == 2
        [sub] = sim.survivor.audit("t1").values()
        assert sub.attempts == 2
        assert fates(sim) == ["attempt=1 chain=bc1 timeout",
                              "attempt=2 chain=bc2 timeout"]

    def test_default_timeout_is_three_times_confirm_latency(self):
        raw = two_generic_chains(
            faults=[{"id": "f1", "kind": "partition", "at": 0,
                     "chains": ["bc1"]}],
            app_txns=[{"id": "t1", "at": 0, "subs": [
                {"id": "s1", "candidates": ["bc1", "bc2"], "payload": "x"}]}])
        report, _ = run_raw(raw)
        # bc1 latency 4 gives timeout 12; bc2 confirms 4 ticks later
        assert report.outcomes["app_txns"]["t1"]["tick"] == 16


class TestDuplicateTolerance:
    def heal_raw(self):
        # submission lands on bc1 at t0, bc1 isolates at t1 so consensus
        # halts; timeout 10 moves on to bc2; bc1 heals at t12 and
        # confirms the old submission just before bc2 does at t14
        return two_generic_chains(
            faults=[{"id": "f1", "kind": "partition", "at": 1, "until": 12,
                     "chains": ["bc1"]}],
            app_txns=[{"id": "t1", "at": 0, "subs": [
                {"id": "s1", "candidates": ["bc1", "bc2"], "payload": "x",
                 "timeout": 10}]}])

    def test_healed_chain_confirms_first_and_preempts_the_fallback(self):
        report, sim = run_raw(self.heal_raw())
        outcome = report.outcomes["app_txns"]["t1"]
        assert outcome["state"] == TXN_CONFIRMED
        assert outcome["tick"] == 12, "the healed chain wins the race"
        [sub] = sim.survivor.audit("t1").values()
        # attempt 2 never times out: bc1's confirmation preempts it
        assert fates(sim) == ["attempt=1 chain=bc1 timeout",
                              "confirmed chain=bc1 ref=e1",
                              "confirmed chain=bc2 ref=e1 late=1"]
        assert [c[0] for c in sub.confirmations] == ["bc1", "bc2"]

    def test_surplus_confirmation_is_surfaced_not_hidden(self):
        report, sim = run_raw(self.heal_raw())
        assert sim.survivor.poll_duplicates("t1") == [("s1", "bc2", "e1")]
        assert report.duplicates == {"t1": ["s1:bc2/e1"]}
        late = [r for r in sim.net.log.records
                if r.kind == "txn" and "late=1" in r.detail]
        assert len(late) == 1, "the second confirmation must be logged late"

    def test_per_chain_dedup_still_holds_across_the_duplicate(self):
        _, sim = run_raw(self.heal_raw())
        for cid in ("bc1", "bc2"):
            keys = [e.unit.idempotency_key
                    for e in sim.chains[cid].ledger.entries
                    if e.unit is not None]
            assert len(keys) == len(set(keys)) == 1, \
                f"{cid} must hold exactly one entry for the sub-transaction"


class TestSameTickRace:
    def test_timeout_due_with_confirmation_fires_first(self):
        # timeout equals latency: the timer at t4 outranks the t4
        # confirmation, so attempt 1 times out and the confirmation
        # arrives for a sub that already moved on
        raw = two_generic_chains(
            app_txns=[{"id": "t1", "at": 0, "subs": [
                {"id": "s1", "candidates": ["bc1", "bc2"], "payload": "x",
                 "timeout": 4}]}])
        report, sim = run_raw(raw)
        [sub] = sim.survivor.audit("t1").values()
        assert sub.attempts == 2
        # a timer due the tick of confirmation fires before consensus, and
        # the old chain's confirmation lands this tick and preempts
        assert fates(sim) == ["attempt=1 chain=bc1 timeout",
                              "confirmed chain=bc1 ref=e1",
                              "confirmed chain=bc2 ref=e1 late=1"]
        assert report.outcomes["app_txns"]["t1"]["tick"] == 4
        assert sim.survivor.poll_duplicates("t1") == [("s1", "bc2", "e1")], \
            "bc2 still confirms the second attempt later as a duplicate"


class TestRejectionPath:
    def test_rejected_submission_waits_for_timeout_then_falls_back(self):
        raw = two_generic_chains(
            app_txns=[{"id": "t1", "at": 0, "app": "app_x", "subs": [
                {"id": "s1", "candidates": ["bc1", "bc2"], "payload": "x",
                 "timeout": 6}]}])
        raw["chains"][0]["regime"]["write"] = True
        raw["chains"][0]["writers"] = ["someone_else"]
        report, sim = run_raw(raw)
        rejects = [r for r in sim.net.log.records if r.kind == "reject"]
        assert len(rejects) == 1
        assert "error=PermissionDenied" in rejects[0].detail
        assert report.outcomes["app_txns"]["t1"] == {
            "state": TXN_CONFIRMED, "tick": 10, "attempts": 2}


class TestMultiSub:
    def test_txn_confirms_only_when_every_sub_confirms(self):
        raw = two_generic_chains(
            app_txns=[{"id": "t1", "at": 0, "subs": [
                {"id": "s1", "candidates": ["bc1"], "payload": "x"},
                {"id": "s2", "candidates": ["bc2"], "payload": "y"}]}])
        report, _ = run_raw(raw)
        assert report.outcomes["app_txns"]["t1"] == {
            "state": TXN_CONFIRMED, "tick": 4, "attempts": 2}

    def test_one_failed_sub_fails_the_whole_txn(self):
        raw = two_generic_chains(
            faults=[{"id": "f1", "kind": "partition", "at": 0,
                     "chains": ["bc2"]}],
            app_txns=[{"id": "t1", "at": 0, "subs": [
                {"id": "s1", "candidates": ["bc1"], "payload": "x"},
                {"id": "s2", "candidates": ["bc2"], "payload": "y",
                 "timeout": 8}]}])
        report, sim = run_raw(raw)
        assert report.outcomes["app_txns"]["t1"]["state"] == TXN_FAILED
        subs = sim.survivor.audit("t1")
        assert subs["s1"].state == TXN_CONFIRMED
        assert subs["s2"].state == TXN_FAILED


class TestValidationAndSurface:
    def layer(self):
        net = SimNet(0, 2, 0)
        chains = {"bc1": make_chain("bc1", latency=1),
                  "pay1": make_chain("pay1", latency=1,
                                     semantic=SemanticType.PAYMENTS)}
        return SurvivorLayer(net, chains), net

    def test_empty_candidates_rejected(self):
        layer, _ = self.layer()
        sub = SubTxn("s1", make_unit(), [])
        with pytest.raises(EmptyCandidates, match="t1/s1"):
            layer.submit_app_txn("t1", [sub])

    def test_unknown_candidate_rejected(self):
        layer, _ = self.layer()
        sub = SubTxn("s1", make_unit(), ["bc9"])
        with pytest.raises(NotFound, match="unknown candidate"):
            layer.submit_app_txn("t1", [sub])

    def test_semantic_mismatch_rejected_up_front(self):
        layer, _ = self.layer()
        sub = SubTxn("s1", make_unit(), ["pay1"])
        with pytest.raises(SemanticMismatch, match="pay1 is payments"):
            layer.submit_app_txn("t1", [sub])

    @pytest.mark.parametrize("txn_id", ["a/b", "lock:a"])
    def test_an_id_whose_unit_keys_could_collide_is_rejected(self, txn_id):
        layer, _ = self.layer()
        message = f"{txn_id!r} holds '/' or ':', which unit keys use as separators"
        with pytest.raises(ValidationError) as exc:
            layer.submit_app_txn(txn_id, [SubTxn("s1", make_unit(), ["bc1"])])
        assert exc.value.problems == [message]
        assert txn_id not in layer.txns
        # the scenario validator states the same rule, in the same words
        with pytest.raises(ValidationError) as exc:
            parse_scenario(two_generic_chains(app_txns=[
                {"id": txn_id, "subs": [{"id": "s1", "candidates": ["bc1"]}]}]))
        assert exc.value.problems == [f"app_txns[0].id: {message}"]

    def test_a_config_edited_after_validation_keeps_one_unit_per_key(self):
        # renamed after validation, app txn a/b's sub c would key a/b/c,
        # the key of app txn a's sub b/c
        config = parse_scenario(two_generic_chains(app_txns=[
            {"id": "x", "subs": [{"id": "c", "candidates": ["bc1"]}]},
            {"id": "a", "subs": [{"id": "b/c", "candidates": ["bc1"]}]}]))
        config = replace(config, app_txns=[replace(config.app_txns[0], txn_id="a/b"),
                                           config.app_txns[1]])
        report, sim = execute(config)
        assert report.outcomes["app_txns"]["a/b"] == {
            "state": "REJECTED", "error": "ValidationError"}
        assert report.outcomes["app_txns"]["a"]["state"] == TXN_CONFIRMED
        assert [r.line() for r in sim.net.log.records if r.kind == "ledger"] == [
            "0 7 ledger bc1/e1 submit kind=unit txn=a/b/c",
            "4 8 ledger bc1/e1 confirm=unit submitted=0 nodes=4"]
        assert report.passed(), [a.name for a in report.failed_audits()]

    def test_outcome_record_carries_no_chain_identities(self):
        report, sim = execute(bundled("fig2_fallback"))
        record = sim.survivor.poll_status("t1")
        assert set(vars(record)) == {"state", "final_tick", "attempts"}, \
            "the caller-visible outcome must stay chain-anonymous"
        assert record.state == TXN_CONFIRMED

    def test_audit_is_the_only_window_into_chains(self):
        _, sim = execute(bundled("fig2_fallback"))
        subs = sim.survivor.audit("t1")
        assert subs["s1"].confirmations[0][0] == "bc2"

    def test_queued_submission_and_timeout_are_single_tuples(self):
        net = SimNet(0, 2, 0)
        layer = SurvivorLayer(net, {"bc1": make_chain("bc1")})
        layer.submit_app_txn("t1", [SubTxn("s1", make_unit(), ["bc1"])])
        sub = layer.txns["t1"].subs["s1"]
        submission, timeout = sorted(net._queue)
        assert type(submission) is type(timeout) is tuple
        assert submission[2] is simnet._deliver
        assert submission[8:] == (SurvivorLayer._submit, layer, "bc1", sub, "t1/s1")
        assert timeout[2] is simnet._fire
        assert timeout[6:] == (SurvivorLayer._on_timeout, layer, layer.txns["t1"], sub, 0)

    def test_poll_unknown_txn_raises(self):
        layer, _ = self.layer()
        with pytest.raises(NotFound, match="unknown app transaction"):
            layer.poll_status("ghost")
