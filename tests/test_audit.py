"""Each post-run audit fails on a real violation, and only that audit.

Every test runs a small world to its end, checks that all fourteen
audits pass, corrupts the finished Simulation in exactly one way and
asserts that the intended audit is the only one that fails, with a
detail that names the corrupted item.
"""

from dataclasses import replace

import pytest

from interopsim import audit, engine, survivor
from interopsim.chain import LOCAL_REF, SemanticType
from interopsim.engine import Simulation
from interopsim.errors import ValidationError
from interopsim.gateway import TransferState
from interopsim.scenario import parse_scenario
from interopsim.simnet import LogRecord, ledger_parts

from conftest import SCENARIO_DIR, bundled
from worlds import world as generated_world


def registry(cid, nodes=4):
    return {"id": cid, "nodes": nodes, "gateways": 3, "quorum": "2/3",
            "confirm_latency": 2, "semantic": "asset-registry",
            "vouch_threshold": 2}


def world(nodes=4):
    """Three asset registries, declared out of order so that the order
    of a detail shows; three assets on bc1 and bc2, two of which cross
    over; a resolve; and a partition and a link cut that heal at tick 4,
    just before the first delivery lands."""
    return {
        "horizon": 40, "seed": 11,
        "chains": [registry("bc2"), registry("bc1", nodes), registry("bc3")],
        "assets": [{"id": "a1", "chain": "bc1"}, {"id": "a2", "chain": "bc2"},
                   {"id": "a3", "chain": "bc1"}],
        "peerings": [{"id": "pa1", "chains": ["bc1", "bc2"],
                      "semantics": ["asset-registry"], "fee": "1"}],
        "transfers": [
            {"id": "x1", "at": 0, "asset": "a1", "from": "bc1", "to": "bc2",
             "deadline": 25},
            {"id": "x2", "at": 1, "asset": "a2", "from": "bc2", "to": "bc1",
             "deadline": 25}],
        "resolves": [{"id": "q1", "at": 20, "asset": "a1"}],
        "faults": [
            {"id": "f1", "kind": "partition", "at": 0, "until": 4,
             "chains": ["bc3"]},
            {"id": "f2", "kind": "partition", "at": 0, "until": 4,
             "links": [["bc1", "bc3"]]}],
    }


def finished(config):
    sim = Simulation(config)
    sim.run()
    assert failures(sim) == {}
    return sim


def failures(sim):
    return {r.name: r.detail for r in audit.run_all(sim) if not r.passed}


def only_failure(sim, name):
    """The detail of the one failing audit, which must be name."""
    failed = failures(sim)
    assert list(failed) == [name], failed
    return failed[name]


@pytest.fixture
def sim():
    return finished(parse_scenario(world()))


@pytest.fixture
def payments():
    return finished(bundled("ilp_path"))


def transfer(sim, tid):
    return sim.transfers.transfers[tid]


def entry(sim, chain_id, key):
    """The entry that key names on chain_id, by the chain's key table."""
    chain = sim.chains[chain_id]
    return chain.ledger.get(chain.refs[key])


def append(sim, kind, subject, *fields):
    """Log one more record at the last tick, so that seq and tick stay
    in order: finish leaves the clock at the tick of its last record."""
    assert sim.net.now == sim.net.log.records[-1].tick
    return sim.net.record(kind, subject, *fields)


def first_delivery(sim, chain_id):
    return next(r for r in sim.net.log.records
                if r.kind == "deliver" and chain_id in r.detail)


def fault(sim, fault_id):
    return next(f for f in sim.config.faults if f.fault_id == fault_id)


def never_heal(sim, fault_id):
    """Log fault_id's heal record as a second apply."""
    rec = next(r for r in sim.net.log.records if r.kind == "fault"
               and r.subject == fault_id and r.get("phase") == "heal")
    rec.fields = tuple(("phase", "apply") if f == ("phase", "heal") else f
                       for f in rec.fields)


class TestWorld:
    def test_world_moves_two_of_three_assets(self, sim):
        assert {t.transfer_id: t.state for t in sim.transfers.transfers.values()} \
            == {"x1": "FINALIZED", "x2": "FINALIZED"}
        assert len(sim.resolver.assets()) == 3
        assert [(r.tick, r.subject, r.get("phase")) for r in sim.net.log.records
                if r.kind == "fault"] == [(0, "f1", "apply"), (0, "f2", "apply"),
                                          (4, "f1", "heal"), (4, "f2", "heal")]
        assert first_delivery(sim, "bc2").tick == 4
        assert sim.net.cut_off == set()

    def test_passing_details(self, sim):
        details = {r.name: r.detail for r in audit.run_all(sim)}
        assert details["clock_monotonic"] == f"{len(sim.net.log.records)} records"
        assert details["single_authority"] == "3 assets"
        assert details["no_lost_assets"] == "2 transfers terminal"
        assert details["resolution_opacity"] == "4 transcripts"


class TestLogAudits:
    def test_clock_monotonic_catches_a_backdated_record(self, sim):
        last = sim.net.log.records[-1]
        assert last.kind == "resolver"
        last.tick = 0
        assert only_failure(sim, "clock_monotonic") == \
            f"tick went backwards at record {last.seq}"

    def test_clock_monotonic_catches_a_wrong_seq(self, sim):
        last = sim.net.log.records[-1]
        last.seq += 1
        assert only_failure(sim, "clock_monotonic") == \
            f"record {last.seq - 1} has seq {last.seq}"

    def test_append_only_catches_reordered_entries(self, sim):
        entries = sim.chains["bc2"].ledger.entries
        entries[0], entries[1] = entries[1], entries[0]
        detail = only_failure(sim, "append_only_ledgers")
        assert detail.startswith("bc2: ledger ['e2', 'e1'")

    def test_append_only_catches_an_unlogged_entry(self, sim):
        genesis = next(r for r in sim.net.log.records
                       if r.kind == "ledger" and r.fields[0] == "genesis")
        genesis.fields = ("submit",) + genesis.fields[1:]
        chain_id, ref = ledger_parts(genesis.subject)
        detail = only_failure(sim, "append_only_ledgers")
        assert detail.startswith(f"{chain_id}: ledger ['{ref}'")


class TestLedgerAudits:
    def test_quorum_soundness_catches_too_few_confirmations(self, sim):
        lock = entry(sim, "bc1", "lock:x1")
        lock.confirming_nodes = lock.confirming_nodes[:1]
        assert only_failure(sim, "quorum_soundness") == \
            f"bc1/{lock.local_ref}: 1 confirming < threshold 3"

    def test_quorum_soundness_catches_an_unknown_node(self, sim):
        lock = entry(sim, "bc1", "lock:x1")
        lock.confirming_nodes = lock.confirming_nodes[:-1] + ("bc2.n1",)
        assert only_failure(sim, "quorum_soundness") == \
            f"bc1/{lock.local_ref}: unknown confirming node"

    def test_confirm_latency_catches_a_backdated_confirmation(self, sim):
        record = entry(sim, "bc2", "record:x1")
        record.confirmed_tick = record.submitted_tick + 1
        assert only_failure(sim, "confirm_latency") == \
            f"bc2/{record.local_ref}: confirmed after 1 < latency 2"

    def test_semantic_gating_catches_a_foreign_unit(self, sim):
        lock = entry(sim, "bc1", "lock:x1")
        lock.unit = replace(lock.unit, semantic_type=SemanticType.PAYMENTS)
        assert only_failure(sim, "semantic_gating") == \
            f"bc1/{lock.local_ref}: semantic mismatch"

    def test_idempotent_submission_catches_a_reused_key(self, sim):
        lock = entry(sim, "bc1", "lock:x1")
        record = entry(sim, "bc1", "record:x2")
        record.unit = replace(record.unit, idempotency_key=lock.unit.idempotency_key)
        assert only_failure(sim, "idempotent_submission") == \
            f"bc1: duplicate key {lock.unit.idempotency_key}"

    def test_idempotent_submission_catches_one_entry_for_two_units(self, monkeypatch):
        # renamed after validation, app txn lock:a's sub b and transfer
        # a/b's lock both key lock:a/b; a survivor layer without the
        # unit-key rule takes lock:a, so the chain merges the app unit
        # into the lock entry, and only the two submit records show it
        monkeypatch.setattr(survivor, "txn_id_problem", lambda txn_id: None)
        config = parse_scenario({
            "horizon": 40, "seed": 11,
            "chains": [registry("bc1"), registry("bc2")],
            "assets": [{"id": "a1", "chain": "bc1"}],
            "peerings": [{"id": "pa1", "chains": ["bc1", "bc2"],
                          "semantics": ["asset-registry"]}],
            "app_txns": [{"id": "lockx", "subs": [{"id": "b", "candidates": ["bc1"]}]}],
            "transfers": [{"id": "ab", "asset": "a1", "from": "bc1", "to": "bc2",
                           "deadline": 25}]})
        config = replace(config,
                         app_txns=[replace(config.app_txns[0], txn_id="lock:a")],
                         transfers=[replace(config.transfers[0], transfer_id="a/b")])
        sim = Simulation(config)
        report = sim.run()
        assert report.outcomes["app_txns"]["lock:a"]["state"] == "CONFIRMED"
        assert report.outcomes["transfers"]["a/b"]["state"] == "FINALIZED"
        submits = [r.line() for r in sim.net.log.records
                   if r.kind == "ledger" and r.fields[0] == "submit"]
        assert submits[:2] == ["0 8 ledger bc1/e2 submit kind=lock transfer=a/b",
                               "0 10 ledger bc1/e2 submit kind=unit txn=lock:a/b"]
        assert only_failure(sim, "idempotent_submission") == \
            "bc1/e2: one entry for two units, record 10"


class TestAuthorityAudits:
    def test_single_authority_catches_a_cleared_mark(self, sim):
        x1 = transfer(sim, "x1")
        source = sim.chains["bc1"].ledger
        del source.marks[sim.resolver.local_ref_for("bc1", x1.asset)]
        assert only_failure(sim, "single_authority") == \
            f"{x1.asset}: authoritative entries on ['bc1', 'bc2'], home bc2"

    def test_single_authority_catches_a_masked_ref_off_the_ledger(self, sim):
        x2 = transfer(sim, "x2")
        # remap the asset on bc2 to a ref the ledger never held, in both
        # directions, so that the mask tables stay a bijection
        ref = sim.resolver.local_ref_for("bc2", x2.asset)
        sim.resolver.mask_tables()["bc2"]["e99"] = \
            sim.resolver.mask_tables()["bc2"].pop(ref)
        sim.resolver._unmask["bc2"][x2.asset] = "e99"
        assert only_failure(sim, "single_authority") == \
            f"{x2.asset}: masked ref bc2/e99 off ledger"

    def test_single_authority_catches_a_broken_forward_chain(self, sim):
        x2 = transfer(sim, "x2")
        history = sim.resolver._history[x2.asset]
        history[1] = replace(history[1], forwarded_from="bc3")
        assert only_failure(sim, "single_authority") == \
            f"{x2.asset}: broken forward chain"

    def test_no_lost_assets_catches_a_held_lock(self, sim):
        x2 = transfer(sim, "x2")
        sim.transfers.locks[("bc2", x2.asset)] = x2
        assert only_failure(sim, "no_lost_assets") == \
            "x2: terminal but still holds the source lock"

    def test_no_lost_assets_catches_a_record_left_standing(self):
        # x3 aborts with its record pending on bc3, and the record is
        # voided when it lands
        sim = finished(bundled("cut_heal"))
        bc3 = sim.chains["bc3"]
        del bc3.ledger.voids[bc3.refs["record:x3"]]
        assert only_failure(sim, "no_lost_assets") == \
            "x3: aborted but record not voided"

    def test_no_lost_assets_catches_an_unfinished_transfer(self, sim):
        transfer(sim, "x1").state = TransferState.VOUCHED
        assert only_failure(sim, "no_lost_assets") == "x1: still VOUCHED at end of run"

    def test_attestation_necessity_catches_a_forged_signature(self, sim):
        x2 = transfer(sim, "x2")
        att = x2.dest_attestation
        (gid, sig), *rest = att.signatures
        forged = ("0" if sig[0] != "0" else "1") + sig[1:]
        x2.dest_attestation = replace(att, signatures=((gid, forged), *rest))
        assert only_failure(sim, "attestation_necessity") == \
            "x2: dest attestation fails verification"

    def test_attestation_necessity_catches_a_missing_vouch_record(self, sim):
        vouch = next(r for r in sim.net.log.records
                     if r.kind == "vouch" and r.subject == "x1"
                     and r.get("side") == "source")
        vouch.fields = (("side", "dest"),) + vouch.fields[1:]
        assert only_failure(sim, "attestation_necessity") == \
            "x1: finalized without both vouch records"

    def test_masking_bijectivity_catches_a_wrong_unmask(self, sim):
        x1 = transfer(sim, "x1")
        ref = sim.resolver.local_ref_for("bc2", x1.asset)
        sim.resolver._unmask["bc2"][x1.asset] = "e99"
        assert only_failure(sim, "masking_bijectivity") == \
            f"bc2: {x1.asset} does not map back to {ref}"


class TestTranscriptAudits:
    @pytest.mark.parametrize("nodes", [4, 10])
    def test_resolution_opacity_reads_node_ids_as_substrings(self, nodes):
        # bc1.n1 leaks inside bc1.n10, whether or not bc1.n10 is a node,
        # and the detail names the first leaked id in sorted order
        sim = finished(parse_scenario(world(nodes)))
        rec = append(sim, "advert", "bc1", ("path", "bc1"), ("endpoints", ["bc1.n10"]))
        assert only_failure(sim, "resolution_opacity") == \
            f"record {rec.seq} leaks node id bc1.n1"

    def test_resolution_opacity_catches_a_local_ref(self, sim):
        rec = append(sim, "resolve", "q9", ("home", "bc2"), ("ref", "e2"))
        assert only_failure(sim, "resolution_opacity") == \
            f"record {rec.seq} leaks a local ref"

    # the audit replays the fault records against the config, so each
    # case plants its violation there: a chain or link the run never cut
    # off, and a heal record logged as an apply

    def test_no_partition_delivery_catches_a_delivery_into_a_partition(self, sim):
        rec = first_delivery(sim, "bc2")
        assert "dst=bc2" in rec.detail
        fault(sim, "f1").chains.append("bc2")
        never_heal(sim, "f1")
        assert only_failure(sim, "no_partition_delivery") == \
            f"record {rec.seq}: delivery into partitioned bc2"

    def test_no_partition_delivery_catches_a_delivery_out_of_a_partition(self, sim):
        rec = first_delivery(sim, "bc2")
        assert "src=bc1" in rec.detail
        fault(sim, "f1").chains.append("bc1")
        never_heal(sim, "f1")
        assert only_failure(sim, "no_partition_delivery") == \
            f"record {rec.seq}: delivery out of partitioned bc1"

    def test_no_partition_delivery_catches_a_delivery_across_a_cut(self, sim):
        rec = first_delivery(sim, "bc2")
        fault(sim, "f2").links.append(("bc1", "bc2"))
        never_heal(sim, "f2")
        assert only_failure(sim, "no_partition_delivery") == \
            f"record {rec.seq}: delivery across cut link bc1-bc2"

    def test_no_partition_delivery_holds_a_chain_until_its_last_fault_heals(self, sim):
        # f1 and f2 both name bc2 and f1 never heals, so f2's heal record,
        # which follows f1's second apply, leaves bc2 cut off
        rec = first_delivery(sim, "bc2")
        fault(sim, "f1").chains.append("bc2")
        fault(sim, "f2").chains.append("bc2")
        never_heal(sim, "f1")
        assert only_failure(sim, "no_partition_delivery") == \
            f"record {rec.seq}: delivery into partitioned bc2"

    def test_no_partition_delivery_ends_an_episode_at_its_heal(self, sim):
        # both heal records precede the first delivery, at its tick
        fault(sim, "f1").chains.append("bc2")
        fault(sim, "f2").links.append(("bc1", "bc2"))
        assert failures(sim) == {}


class TestNetworkMutants:
    """A fault path that fails to cut off what a fault names fails the
    audit, which judges each delivery from the log and the config."""

    def mutant_run(self, monkeypatch, scenario, spare):
        """Run scenario on a fault path that takes each fault's spare
        targets, its "chains" or its "links", back out of net.cut_off."""
        real = engine._fire_fault

        def fire_fault(net, chains, registry, by_id, active, fault, heal):
            real(net, chains, registry, by_id, active, fault, heal)
            net.cut_off.difference_update(
                fault.chains if spare == "chains" else map(frozenset, fault.links))

        monkeypatch.setattr(engine, "_fire_fault", fire_fault)
        sim = Simulation(bundled(scenario))
        sim.run()
        return sim

    def failing_delivery(self, sim, detail):
        head, _, reason = detail.partition(": ")
        rec = sim.net.log.records[int(head.removeprefix("record "))]
        assert rec.kind == "deliver"
        return rec, reason

    def test_a_net_that_never_cuts_a_link(self, monkeypatch):
        sim = self.mutant_run(monkeypatch, "cut_heal", spare="links")
        rec, reason = self.failing_delivery(
            sim, only_failure(sim, "no_partition_delivery"))
        src, dst = rec.get("src"), rec.get("dst")
        assert reason == f"delivery across cut link {src}-{dst}"

    def test_a_net_that_never_isolates_a_chain(self, monkeypatch):
        sim = self.mutant_run(monkeypatch, "abort_partition", spare="chains")
        rec, reason = self.failing_delivery(
            sim, only_failure(sim, "no_partition_delivery"))
        assert reason in (f"delivery into partitioned {rec.get('dst')}",
                          f"delivery out of partitioned {rec.get('src')}")


class TestValueAudits:
    def test_value_conservation_catches_a_minted_reserve(self, payments):
        n, d = payments.valuenet.reserves[("c1", "eur")]
        payments.valuenet.reserves[("c1", "eur")] = (n + d, d)
        detail = only_failure(payments, "value_conservation")
        assert detail.startswith("eur: reserve delta")

    def test_value_conservation_catches_a_negative_reserve(self, payments):
        # ilp_path leaves 65 eur with c1 and 10 with c2; moving 11 from c2
        # to c1 keeps the eur sum and leaves c2 short
        reserves = payments.valuenet.reserves
        assert (reserves[("c1", "eur")], reserves[("c2", "eur")]) == ((65, 1), (10, 1))
        reserves[("c1", "eur")], reserves[("c2", "eur")] = (76, 1), (-1, 1)
        assert payments.valuenet.conservation_errors() == []
        detail = only_failure(payments, "value_conservation")
        assert detail == "c2: negative eur reserve"

    def test_reservation_consistency_catches_an_outstanding_hold(self, payments):
        payments.valuenet.holds[("c2", "gbp")] = (3, 1)
        detail = only_failure(payments, "reservation_consistency")
        assert detail == ("holds {('c2', 'gbp'): Fraction(3, 1)} "
                          "do not match open reservations {}")


def reference_opacity(sim):
    """resolution_opacity as a loop over the records: every node id and
    the local-ref pattern against each transcript line in turn."""
    node_ids = sorted(nid for chain in sim.chains.values() for nid in chain.nodes)
    scanned = 0
    for rec in sim.net.log.records:
        if rec.kind not in ("advert", "resolve"):
            continue
        scanned += 1
        text = rec.line()
        for nid in node_ids:
            if nid in text:
                return False, f"record {rec.seq} leaks node id {nid}"
        if LOCAL_REF.search(text):
            return False, f"record {rec.seq} leaks a local ref"
    return True, f"{scanned} transcripts"


def generated(seed):
    try:
        return parse_scenario(generated_world(seed), name=f"world-{seed}")
    except ValidationError:
        return None


# transcripts to log after a run: (kind, subject, fields), and whether
# the reference loop finds a leak in them
LEAKS = {
    "id inside a longer word": (
        [("advert", "bc1", ("endpoints", ["xbc2.n31"]))], True),
    "leak only in a later transcript": (
        [("advert", "bc1", ("path", "bc1")), ("resolve", "q8", ("home", "bc2")),
         ("resolve", "q9", ("home", "bc2"), ("endpoints", ["bc2.g1", "bc3.n4"]))],
        True),
    "two ids, the later one in sorted order first": (
        [("resolve", "q9", ("endpoints", ["bc3.n1", "bc1.n2"]))], True),
    "ref at the start of the detail": (
        [("resolve", "q9", "e3", ("home", "bc2"))], True),
    "ref at the end of a line": (
        [("resolve", "q9", ("home", "bc2"), ("ref", "e12")),
         ("advert", "bc1", ("path", "bc1"))], True),
    "ref at the end of the last line": (
        [("advert", "bc1", ("path", "bc1")), ("resolve", "q9", ("ref", "e4"))], True),
    "ref and node id in one record": (
        [("resolve", "q9", ("ref", "e4"), ("endpoints", ["bc2.n1"]))], True),
    "ref before a dot": (
        [("resolve", "q9", ("ref", "e4.bc1"))], True),
    "e12x is not a ref": (
        [("resolve", "q9", ("ref", "e12x")), ("advert", "bc1", ("path", "xe12"))],
        False),
    "node id in a record that is no transcript": (
        [("probe", "pr1", ("via", "bc1.n1"), ("ref", "e1"))], False),
    "ref as a key": (
        [("resolve", "q9", ("e5", "x"))], True),
    "a tail that names no node": (
        [("advert", "bc1", ("endpoints", ["bc9.n7"]))], False),
    "ref as a subject": (
        [("resolve", "e7", ("home", "bc2"))], True),
}


class TestOpacityMatchesTheRecordLoop:
    """_resolution_opacity scans the joined transcripts once and walks
    the records only on a hit; it must give the loop's result and
    detail on every input."""

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")),
                             ids=lambda p: p.stem)
    def test_bundled_scenarios(self, path):
        sim = Simulation(bundled(path.stem))
        sim.run()
        assert audit._resolution_opacity(sim) == reference_opacity(sim)

    def test_generated_worlds(self):
        for seed in range(300):
            config = generated(seed)
            if config is None:
                continue
            sim = Simulation(config)
            sim.run()
            assert audit._resolution_opacity(sim) == reference_opacity(sim), seed

    @pytest.mark.parametrize("case", sorted(LEAKS))
    def test_synthetic_leaks(self, sim, case):
        records, leaks = LEAKS[case]
        for kind, subject, *fields in records:
            append(sim, kind, subject, *fields)
        expected = reference_opacity(sim)
        assert expected[0] is not leaks
        assert audit._resolution_opacity(sim) == expected

    def test_ids_of_several_lengths(self):
        # bc10.n4 is longer than the other node ids and holds none of them
        raw = world()
        raw["chains"].append(registry("bc10"))
        sim = finished(parse_scenario(raw))
        rec = append(sim, "advert", "bc10", ("endpoints", ["bc10.n4x"]))
        expected = (False, f"record {rec.seq} leaks node id bc10.n4")
        assert reference_opacity(sim) == expected
        assert audit._resolution_opacity(sim) == expected


@pytest.mark.parametrize("count", [10, 40, 160])
def test_a_passing_opacity_audit_renders_no_line(monkeypatch, count):
    # C chains in a ring, each asset moved to the next chain and
    # resolved: a passing audit reads words, and renders lines only
    # when they hold a node id's tail or a local ref
    ids = [f"bc{i}" for i in range(count)]
    sim = Simulation(parse_scenario({
        "horizon": 60, "seed": 3, "chains": [registry(cid) for cid in ids],
        "assets": [{"id": f"a{i}", "chain": cid} for i, cid in enumerate(ids)],
        "peerings": [{"id": f"pa{i}", "chains": [cid, ids[i - 1]],
                      "semantics": ["asset-registry"], "fee": "1"}
                     for i, cid in enumerate(ids)],
        "transfers": [{"id": f"x{i}", "at": i % 5, "asset": f"a{i}", "from": cid,
                       "to": ids[i - 1], "deadline": 40} for i, cid in enumerate(ids)],
        "resolves": [{"id": f"q{i}", "at": 30, "asset": f"a{i}"}
                     for i in range(count)]}))
    sim.run()
    lines = []
    line = LogRecord.line
    monkeypatch.setattr(LogRecord, "line", lambda rec: lines.append(rec) or line(rec))
    assert audit._resolution_opacity(sim) == (True, f"{2 * count} transcripts")
    assert lines == []
    assert reference_opacity(sim)[0] and len(lines) == 2 * count


def test_run_all_looks_each_audit_up_when_called(sim, monkeypatch):
    # the benchmark's tracer wraps the audits by module attribute name
    monkeypatch.setattr(audit, "_single_authority", lambda sim: (False, "stub"))
    assert failures(sim) == {"single_authority": "stub"}
