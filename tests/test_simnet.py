"""Simulation substrate tests: ordering, partitions, fault injection,
log format and byte-identical determinism."""

import random

from interopsim import simnet
from interopsim.engine import schedule_faults
from interopsim.runner import execute
from interopsim.scenario import FaultCfg, parse_scenario
from interopsim.simnet import (
    RENDER_CHUNK,
    EventLog,
    LogRecord,
    SimNet,
    ledger_parts,
    ledger_subject,
)


def make_net(seed=0, inter_chain_latency=2, latency_jitter=0):
    return SimNet(seed, inter_chain_latency, latency_jitter)


def cut_off_at(net, tick, *targets):
    """Queue, for tick, the cut_off that the engine's fault path would
    set: targets, chain ids and frozenset pairs, and nothing else."""
    net.schedule(tick - net.now, setattr, net, "cut_off", set(targets))


class TestOrdering:
    def test_same_tick_events_run_in_schedule_order(self):
        net = make_net()
        seen = []
        net.timer("b", 5, ("fire",), seen.append, "first")
        net.timer("a", 5, ("fire",), seen.append, "second")
        net.drain(5)
        assert seen == ["first", "second"], \
            "same-tick events must run in the order they were scheduled"

    def test_drain_executes_same_tick_cascades(self):
        net = make_net()
        seen = []

        def outer():
            seen.append("outer")
            net.timer("inner", 0, ("fire",), seen.append, "inner")

        net.timer("outer", 3, ("fire",), outer)
        executed = net.drain(3)
        assert seen == ["outer", "inner"], "zero-delay follow-up must run this tick"
        assert executed == 2

    def test_earlier_tick_before_later_regardless_of_schedule_order(self):
        net = make_net()
        seen = []
        net.timer("late", 9, ("fire",), seen.append, "late")
        net.timer("early", 2, ("fire",), seen.append, "early")
        for tick in range(10):
            net.drain(tick)
        assert seen == ["early", "late"]


class TestDeliveries:
    def test_deliver_applies_inter_chain_latency(self):
        net = make_net(inter_chain_latency=4)
        seen = []
        net.deliver("bc1", "bc2", "m", (), lambda: seen.append(net.now))
        for tick in range(6):
            net.drain(tick)
        assert seen == [4], f"delivery should land at tick 4, got {seen}"

    def test_partition_at_execution_time_drops_in_flight_message(self):
        # the message is sent before the partition exists but arrives after
        net = make_net(inter_chain_latency=3)
        seen = []
        net.deliver("bc1", "bc2", "m", (), seen.append, "landed")
        cut_off_at(net, 1, "bc2")
        for tick in range(5):
            net.drain(tick)
        assert seen == [], "in-flight message into a partition must be dropped"
        kinds = [r.kind for r in net.log.records]
        assert "drop" in kinds and "deliver" not in kinds, \
            f"drop must be logged instead of deliver: {kinds}"

    def test_link_cut_drops_only_that_pair(self):
        net = make_net(inter_chain_latency=1)
        seen = []
        cut_off_at(net, 0, frozenset(("bc1", "bc2")))
        net.deliver("bc1", "bc2", "cut", (), seen.append, "cut")
        net.deliver("bc1", "bc3", "open", (), seen.append, "open")
        for tick in range(3):
            net.drain(tick)
        assert seen == ["open"], "only the cut pair drops traffic"

    def test_heal_reopens_delivery(self):
        net = make_net(inter_chain_latency=1)
        schedule_faults(net, {}, None, [
            FaultCfg("f1", "partition", 0, chains=["bc2"], until=5)])
        net.drain(0)
        assert net.cut_off == {"bc2"}
        net.drain(5)
        assert net.cut_off == set(), "the net keeps no closed fault"
        seen = []
        net.deliver("bc1", "bc2", "m", (), seen.append, "ok")
        net.drain(6)
        assert seen == ["ok"]

    def test_a_target_has_one_episode_at_a_time(self):
        # two faults that name bc2 overlap: bc2 is cut off over the union
        # of their windows, one episode that only the last heal ends
        net = make_net()
        cut_off = []
        schedule_faults(net, {}, None, [
            FaultCfg("f1", "partition", 0, chains=["bc2"], until=3),
            FaultCfg("f2", "partition", 1, chains=["bc2"], links=[("bc1", "bc2")],
                     until=5)])
        for tick in range(6):
            net.drain(tick)
            cut_off.append(set(net.cut_off))
        pair = frozenset(("bc1", "bc2"))
        assert cut_off == [{"bc2"}, {"bc2", pair}, {"bc2", pair}, {"bc2", pair},
                           {"bc2", pair}, set()]

    def test_cut_off_drops_traffic_of_a_chain_or_a_link_both_ways(self):
        routes = [("bc1", "bc2"), ("bc2", "bc1"), ("bc1", "bc3"), ("bc2", "bc3"),
                  (None, "bc2")]
        for cut, dropped in (("bc2", {"bc1>bc2", "bc2>bc1", "bc2>bc3", "None>bc2"}),
                             (frozenset(("bc1", "bc2")), {"bc1>bc2", "bc2>bc1"})):
            net = make_net(inter_chain_latency=1)
            net.cut_off = {cut}
            seen = []
            for src, dst in routes:
                name = f"{src}>{dst}"
                if src is None:
                    net.local_deliver(dst, name, (), seen.append, name)
                else:
                    net.deliver(src, dst, name, (), seen.append, name)
            net.drain(0)
            net.drain(1)
            assert {r.subject for r in net.log.records if r.kind == "drop"} == dropped
            assert set(seen) == {f"{src}>{dst}" for src, dst in routes} - dropped

    def test_local_deliver_dropped_when_destination_partitioned(self):
        net = make_net()
        seen = []
        cut_off_at(net, 0, "bc1")
        net.local_deliver("bc1", "sub", (), seen.append, "in")
        net.drain(0)
        assert seen == [], "submission into a partitioned chain is lost"

    def test_a_queued_delivery_is_one_tuple_of_deliver(self):
        # one tuple of the module function and the action's own
        # arguments: no closure, no bound method, no partial
        net = make_net()
        sub = object()
        net.deliver("bc1", "bc2", "m", (("msg", "x"),), list.append, sub, 1)
        net.local_deliver("bc1", "sub", (), list.append, sub, 2)
        local, remote = sorted(net._queue)
        assert type(local) is type(remote) is tuple
        assert remote == (2, 0, simnet._deliver, net, "m", (("msg", "x"),), "bc1", "bc2",
                          list.append, sub, 1)
        assert local == (0, 1, simnet._deliver, net, "sub", (), None, "bc1",
                         list.append, sub, 2), "src None marks a local delivery"

    def test_a_delivery_logs_its_route_before_its_fields(self):
        net = make_net(inter_chain_latency=0)
        net.cut_off = {"bc3"}
        net.deliver("bc1", "bc2", "m", (("msg", "x"),), lambda: None)
        net.deliver("bc1", "bc3", "n", (("msg", "y"),), lambda: None)
        net.local_deliver("bc1", "sub", (("attempt", 1),), lambda: None)
        net.drain(0)
        assert net.log.lines() == ["0 0 deliver m src=bc1 dst=bc2 msg=x",
                                   "0 1 drop n src=bc1 dst=bc3 msg=y",
                                   "0 2 deliver sub dst=bc1 attempt=1"]

    def test_latency_jitter_draws_from_the_run_rng(self):
        net = make_net(seed=3, inter_chain_latency=2, latency_jitter=3)
        arrival = []
        net.deliver("bc1", "bc2", "m", (), lambda: arrival.append(net.now))
        expected = 2 + random.Random(3).randint(0, 3)
        for tick in range(8):
            net.drain(tick)
        assert arrival == [expected], \
            "jitter must come from the seeded run RNG"


class TestFaultValidation:
    # the schema rejects a fault that names an unknown chain, node,
    # gateway or fault (test_scenario.py::test_fault_targets_must_exist)

    def test_heal_fault_reverses_named_partition(self):
        net = make_net()
        schedule_faults(net, {}, None, [
            FaultCfg("f1", "partition", 0, chains=["bc1"]),
            FaultCfg("h1", "heal", 4, faults=["f1"])])
        net.drain(0)
        assert "bc1" in net.cut_off
        net.drain(4)
        assert "bc1" not in net.cut_off, "heal fault must lift the partition"


class TestLogFormat:
    def test_record_line_shape(self):
        net = make_net()
        net.drain(3)
        net.record("ledger", "bc1/e1", ("confirm", "unit"))
        assert net.log.lines() == ["3 0 ledger bc1/e1 confirm=unit"]

    def test_dumps_ends_every_line_with_a_newline(self):
        net = make_net()
        net.drain(3)
        net.record("ledger", "bc1/e1", ("confirm", "unit"))
        net.drain(4)
        net.record("k", "s")
        log = net.log
        assert log.dumps() == "3 0 ledger bc1/e1 confirm=unit\n4 1 k s\n"
        assert log.dumps() == "".join(line + "\n" for line in log.lines())

    def test_dumps_renders_a_log_of_several_chunks_and_an_empty_log(self):
        net = make_net()
        for i in range(2 * RENDER_CHUNK + 1):
            net.drain(i // 3)
            net.record("k", f"s{i}", ("n", i), "w", ("route", ["bc1", "bc2"]))
        log = net.log
        assert log.dumps() == "".join(line + "\n" for line in log.lines())
        assert EventLog().dumps() == ""

    def test_ledger_subject_splits_back_into_chain_and_ref(self):
        subject = ledger_subject("bc-1", "e12")
        assert subject == "bc-1/e12"
        assert ledger_parts(subject) == ("bc-1", "e12")

    def test_seq_is_global_record_index(self):
        net = make_net()
        for i in range(5):
            net.drain(i)
            rec = net.record("k", "s")
            assert rec is net.log.records[-1], "record returns the record it appended"
            assert (rec.seq, rec.tick) == (len(net.log.records) - 1, net.now)
        assert [r.seq for r in net.log.records] == [0, 1, 2, 3, 4]

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
        net.timer("t1", 2, ("timeout", ("attempt", 1)), lambda: None)
        net.timer("t2", 2, ("fire",), lambda: None)
        net.drain(2)
        lines = net.log.lines()
        assert "2 0 timer t1 timeout attempt=1" in lines
        assert "2 1 timer t2 fire" in lines


class TestDeterminism:
    def _drive(self, seed):
        net = make_net(seed=seed, inter_chain_latency=2, latency_jitter=2)
        for i in range(10):
            net.deliver("bc1", "bc2", f"m{i}", (), lambda: None)
            net.timer(f"t{i}", net.rng.randint(0, 6), ("fire",), lambda: None)
        cut_off_at(net, 3, "bc2")
        cut_off_at(net, 6)
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
        report, sim = execute(config)
        assert report.end_tick == 0, "nothing scheduled means immediate quiescence"
        assert sim.net.log.records == [], "no events means an empty log"
        assert report.passed(), [a.name for a in report.failed_audits()]
