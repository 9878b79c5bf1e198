"""Simulation substrate tests: ordering, partitions, fault injection,
log format and byte-identical determinism."""

import random

import pytest

from interopsim.engine import run_scenario
from interopsim.errors import UnknownTarget
from interopsim.scenario import parse_scenario
from interopsim.simnet import (
    EventLog,
    FaultKind,
    FaultSpec,
    LogRecord,
    SimNet,
    ledger_parts,
    ledger_subject,
)


def make_net(seed=0, **kw):
    net = SimNet(seed, **kw)
    net.register_entities(["bc1", "bc2"], ["bc1.n1", "bc2.n1"],
                          ["bc1.g1", "bc2.g1"])
    return net


class TestOrdering:
    def test_same_tick_events_run_in_schedule_order(self):
        net = make_net()
        seen = []
        net.timer("b", lambda: seen.append("first"), 5)
        net.timer("a", lambda: seen.append("second"), 5)
        net.drain(5)
        assert seen == ["first", "second"], \
            "same-tick events must run in the order they were scheduled"

    def test_drain_executes_same_tick_cascades(self):
        net = make_net()
        seen = []

        def outer():
            seen.append("outer")
            net.timer("inner", lambda: seen.append("inner"), 0)

        net.timer("outer", outer, 3)
        executed = net.drain(3)
        assert seen == ["outer", "inner"], "zero-delay follow-up must run this tick"
        assert executed == 2

    def test_earlier_tick_before_later_regardless_of_schedule_order(self):
        net = make_net()
        seen = []
        net.timer("late", lambda: seen.append("late"), 9)
        net.timer("early", lambda: seen.append("early"), 2)
        for tick in range(10):
            net.drain(tick)
        assert seen == ["early", "late"]


class TestDeliveries:
    def test_deliver_applies_inter_chain_latency(self):
        net = make_net(inter_chain_latency=4)
        seen = []
        net.deliver("bc1", "bc2", "m", lambda: seen.append(net.now))
        for tick in range(6):
            net.drain(tick)
        assert seen == [4], f"delivery should land at tick 4, got {seen}"

    def test_partition_at_execution_time_drops_in_flight_message(self):
        # the message is sent before the partition exists but arrives after
        net = make_net(inter_chain_latency=3)
        seen = []
        net.deliver("bc1", "bc2", "m", lambda: seen.append("landed"))
        net.inject(FaultSpec("f1", FaultKind.PARTITION, 1, target=("bc2",)))
        for tick in range(5):
            net.drain(tick)
        assert seen == [], "in-flight message into a partition must be dropped"
        kinds = [r.kind for r in net.log.records]
        assert "drop" in kinds and "deliver" not in kinds, \
            f"drop must be logged instead of deliver: {kinds}"

    def test_link_cut_drops_only_that_pair(self):
        net = make_net(inter_chain_latency=1)
        net.register_entities(["bc1", "bc2", "bc3"], [], [])
        seen = []
        net.inject(FaultSpec("f1", FaultKind.PARTITION, 0,
                             links=(("bc1", "bc2"),)))
        net.deliver("bc1", "bc2", "cut", lambda: seen.append("cut"))
        net.deliver("bc1", "bc3", "open", lambda: seen.append("open"))
        for tick in range(3):
            net.drain(tick)
        assert seen == ["open"], "only the cut pair drops traffic"

    def test_heal_reopens_delivery_and_closes_history(self):
        net = make_net(inter_chain_latency=1)
        net.inject(FaultSpec("f1", FaultKind.PARTITION, 0, target=("bc2",),
                             until_tick=5))
        net.drain(0)
        net.drain(5)
        assert not net.chain_partitioned("bc2")
        assert net.partition_history == {"bc2": [[0, 5]]}, \
            "history episode must record both boundaries"
        seen = []
        net.deliver("bc1", "bc2", "m", lambda: seen.append("ok"))
        net.drain(6)
        assert seen == ["ok"]

    def test_a_target_has_one_episode_at_a_time(self):
        net = make_net()
        for fault in (
                FaultSpec("f1", FaultKind.PARTITION, 0, target=("bc2",), until_tick=3),
                # bc2 is already partitioned: no second episode
                FaultSpec("f2", FaultKind.PARTITION, 1, target=("bc2",)),
                FaultSpec("f3", FaultKind.PARTITION, 5, target=("bc2",),
                          links=(("bc1", "bc2"),)),
                # heals f3 before it starts: nothing to close
                FaultSpec("h1", FaultKind.HEAL, 4, target=("f3",))):
            net.inject(fault)
        for tick in range(6):
            net.drain(tick)
        assert net.partition_history == {"bc2": [[0, 3], [5, None]]}
        assert net.cut_history == {frozenset(("bc1", "bc2")): [[5, None]]}
        assert net.chain_partitioned("bc2") and not net.chain_partitioned("bc1")

    def test_local_deliver_dropped_when_destination_partitioned(self):
        net = make_net()
        seen = []
        net.inject(FaultSpec("f1", FaultKind.PARTITION, 0, target=("bc1",)))
        net.local_deliver("bc1", "sub", lambda: seen.append("in"))
        net.drain(0)
        assert seen == [], "submission into a partitioned chain is lost"

    def test_latency_jitter_draws_from_the_run_rng(self):
        net = make_net(seed=3, inter_chain_latency=2, latency_jitter=3)
        arrival = []
        net.deliver("bc1", "bc2", "m", lambda: arrival.append(net.now))
        expected = 2 + random.Random(3).randint(0, 3)
        for tick in range(8):
            net.drain(tick)
        assert arrival == [expected], \
            "jitter must come from the seeded run RNG"


class TestFaultValidation:
    def test_unknown_chain_rejected(self):
        net = make_net()
        with pytest.raises(UnknownTarget, match="unknown chain"):
            net.inject(FaultSpec("f1", FaultKind.PARTITION, 0, target=("bc9",)))

    def test_unknown_node_rejected(self):
        net = make_net()
        with pytest.raises(UnknownTarget, match="unknown node"):
            net.inject(FaultSpec("f1", FaultKind.NODE_CRASH, 0,
                                 target=("bc1.n9",)))

    def test_unknown_gateway_rejected(self):
        net = make_net()
        with pytest.raises(UnknownTarget, match="unknown gateway"):
            net.inject(FaultSpec("f1", FaultKind.GATEWAY_CRASH, 0,
                                 target=("bc1.g9",)))

    def test_heal_of_unknown_fault_rejected(self):
        net = make_net()
        with pytest.raises(UnknownTarget, match="unknown fault"):
            net.inject(FaultSpec("h1", FaultKind.HEAL, 0, target=("nope",)))

    def test_heal_fault_reverses_named_partition(self):
        net = make_net()
        net.inject(FaultSpec("f1", FaultKind.PARTITION, 0, target=("bc1",)))
        net.inject(FaultSpec("h1", FaultKind.HEAL, 4, target=("f1",)))
        net.drain(0)
        assert net.chain_partitioned("bc1")
        net.drain(4)
        assert not net.chain_partitioned("bc1"), "heal fault must lift the partition"


class TestLogFormat:
    def test_record_line_shape(self):
        log = EventLog()
        log.append(3, "ledger", "bc1/e1", (("confirm", "unit"),))
        assert log.lines() == ["3 0 ledger bc1/e1 confirm=unit"]

    def test_ledger_subject_splits_back_into_chain_and_ref(self):
        subject = ledger_subject("bc-1", "e12")
        assert subject == "bc-1/e12"
        assert ledger_parts(subject) == ("bc-1", "e12")

    def test_seq_is_global_record_index(self):
        log = EventLog()
        for i in range(5):
            log.append(i, "k", "s", ())
        assert [r.seq for r in log.records] == [0, 1, 2, 3, 4]

    def test_record_renders_words_pairs_and_lists(self):
        rec = LogRecord(4, 7, "txn", "t1/s1", (("attempt", 1), ("chain", "bc1"), "submit"))
        assert rec.line() == "4 7 txn t1/s1 attempt=1 chain=bc1 submit", \
            "a bare word may follow pairs"
        rec = LogRecord(0, 0, "path", "p1", (("route", ["c2", "c1"]), ("to", ("a", "b"))))
        assert rec.detail == "route=c2,c1 to=a,b", "lists keep their order"
        assert rec.get("to") == ("a", "b") and rec.get("from") is None
        assert LogRecord(2, 3, "k", "s", ()).line() == "2 3 k s", \
            "no fields means no trailing space"

    def test_timer_events_are_logged_with_detail(self):
        net = make_net()
        net.timer("t1", lambda: None, 2, "timeout", ("attempt", 1))
        net.timer("t2", lambda: None, 2)
        net.drain(2)
        lines = net.log.lines()
        assert "2 0 timer t1 timeout attempt=1" in lines
        assert "2 1 timer t2 fire" in lines, "bare timers log the word fire"


class TestDeterminism:
    def _drive(self, seed):
        net = make_net(seed=seed, inter_chain_latency=2, latency_jitter=2)
        for i in range(10):
            net.deliver("bc1", "bc2", f"m{i}", lambda: None)
            net.timer(f"t{i}", lambda: None, net.rng.randint(0, 6))
        net.inject(FaultSpec("f1", FaultKind.PARTITION, 3, target=("bc2",),
                             until_tick=6))
        for tick in range(12):
            net.drain(tick)
        return net.log.dumps()

    def test_same_seed_same_log_bytes(self):
        assert self._drive(7) == self._drive(7), \
            "two runs with one seed must produce byte-identical logs"

    def test_different_seed_diverges(self):
        # jittered delays differ, so the logs should not be identical
        assert self._drive(7) != self._drive(8)


class TestEmptyScenario:
    def test_empty_world_quiesces_at_tick_zero(self):
        config = parse_scenario({"horizon": 50}, name="empty")
        report, sim = run_scenario(config)
        assert report.end_tick == 0, "nothing scheduled means immediate quiescence"
        assert sim.net.log.records == [], "no events means an empty log"
        assert report.passed(), [a.name for a in report.failed_audits()]
