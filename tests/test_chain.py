"""Chain model tests: permission regimes, submission gates, quorum and
latency behavior, direct appends, reads and aggregate status."""

from copy import deepcopy

import pytest

from interopsim.chain import (
    CONSENSUS_KINDS,
    Directionality,
    ENTRY_KIND_ATTESTATION,
    ENTRY_KIND_GENESIS,
    PermissionRegime,
    SemanticType,
    SubmitReceipt,
    TransferUnit,
    chain_of,
    gateway_ids,
    node_ids,
)
from interopsim.errors import NotConfirmed, NotFound, PermissionDenied, SemanticMismatch

from conftest import confirm_unit, make_chain, make_unit


class TestRegimeAndUnits:
    def test_node_permissioned_requires_consensus_permissioned(self):
        with pytest.raises(ValueError, match="subsumes"):
            PermissionRegime(node_permissioned=True, consensus_permissioned=False)

    def test_all_sixteen_minus_invalid_combinations_construct(self):
        built = 0
        for bits in range(16):
            flags = [bool(bits & (1 << i)) for i in range(4)]
            node, consensus, write, read = flags
            if node and not consensus:
                with pytest.raises(ValueError):
                    PermissionRegime(node, consensus, write, read)
            else:
                PermissionRegime(node, consensus, write, read)
                built += 1
        assert built == 12, "4 of 16 flag combinations are contradictory"

    def test_bidirectional_unit_requires_peer(self):
        with pytest.raises(ValueError, match="requires intended_peer"):
            TransferUnit("d", SemanticType.GENERIC_RECORD,
                         Directionality.BI, "k")

    def test_unidirectional_unit_must_not_name_peer(self):
        with pytest.raises(ValueError, match="must not name"):
            TransferUnit("d", SemanticType.GENERIC_RECORD,
                         Directionality.UNI, "k", intended_peer="app_y")


class TestSubmissionGates:
    def test_write_permission_enforced(self):
        chain = make_chain(regime=PermissionRegime(user_write_permissioned=True),
                           writers=["app_x"])
        with pytest.raises(PermissionDenied, match="may not write"):
            chain.submit(make_unit(), "stranger", 0)
        receipt = chain.submit(make_unit(), "app_x", 0)
        assert not receipt.duplicate

    def test_semantic_mismatch_rejected(self):
        chain = make_chain(semantic=SemanticType.PAYMENTS)
        with pytest.raises(SemanticMismatch, match="generic-record unit on payments"):
            chain.submit(make_unit(semantic=SemanticType.GENERIC_RECORD), "anon", 0)

    def test_duplicate_key_returns_same_ref_and_leaves_ledger_unchanged(self):
        chain = make_chain(latency=1)
        first = chain.submit(make_unit("dup"), "anon", 0)
        entry = None
        for e in chain.advance_consensus(1):
            entry = e
        ledger = chain.ledger
        before = deepcopy((ledger.entries, ledger.marks, ledger.voids))
        again = chain.submit(make_unit("dup"), "anon", 5)
        assert again.duplicate and again.local_ref == first.local_ref
        chain.advance_consensus(10)
        assert (ledger.entries, ledger.marks, ledger.voids) == before, \
            "resubmission must not change the ledger at all"
        assert entry is not None and len(chain.ledger.entries) == 1

    def test_duplicate_detected_even_while_pending(self):
        chain = make_chain()
        first = chain.submit(make_unit("dup"), "anon", 0)
        again = chain.submit(make_unit("dup"), "anon", 0)
        assert again.duplicate and again.local_ref == first.local_ref
        assert len(chain.pending) == 1

    def test_refs_are_sequential_per_chain(self):
        chain = make_chain()
        refs = [chain.submit(make_unit(f"k{i}"), "anon", 0).local_ref
                for i in range(3)]
        assert refs == ["e1", "e2", "e3"]


class TestConsensusTiming:
    def test_confirms_exactly_at_submit_plus_latency(self):
        chain = make_chain(latency=3)
        chain.submit(make_unit(), "anon", 2)
        for tick in range(3, 5):
            assert chain.advance_consensus(tick) == [], \
                f"nothing may confirm before the latency elapses (tick {tick})"
        confirmed = chain.advance_consensus(5)
        assert [e.confirmed_tick for e in confirmed] == [5]
        assert confirmed[0].submitted_tick == 2

    def test_quorum_threshold_is_ceiling_of_total_population(self):
        # 4 nodes at 2/3 needs ceil(8/3) = 3 live nodes
        chain = make_chain(nodes=4, quorum="2/3")
        assert chain.quorum_threshold() == 3
        assert make_chain(nodes=3, quorum="2/3").quorum_threshold() == 2
        assert make_chain(nodes=5, quorum="1/2").quorum_threshold() == 3

    def test_consensus_halts_below_quorum_and_resumes_after(self):
        # hand-run crash schedule: 4 nodes, threshold 3; two crash at
        # tick 1, one recovers at tick 6; latency 2, submitted tick 0
        chain = make_chain(nodes=4, quorum="2/3", latency=2)
        chain.submit(make_unit(), "anon", 0)
        chain.set_node_live("bc1.n1", False)
        chain.set_node_live("bc1.n2", False)
        for tick in range(1, 6):
            assert chain.advance_consensus(tick) == [], \
                f"tick {tick}: 2 live of 4 is below threshold 3"
        chain.set_node_live("bc1.n1", True)
        confirmed = chain.advance_consensus(6)
        assert len(confirmed) == 1, "quorum restored, aged unit confirms"
        assert confirmed[0].confirmed_tick == 6
        assert confirmed[0].confirming_nodes == ("bc1.n1", "bc1.n3", "bc1.n4"), \
            "entry records the sorted live set at confirmation time"

    def test_confirming_set_meets_threshold_for_all_consensus_entries(self):
        chain = make_chain(nodes=5, quorum="3/5", latency=1)
        for i in range(4):
            chain.submit(make_unit(f"k{i}"), "anon", i)
            chain.advance_consensus(i + 1)
        for e in chain.ledger.entries:
            assert e.kind in CONSENSUS_KINDS
            assert len(e.confirming_nodes) >= chain.quorum_threshold()


    def test_nothing_confirms_while_the_oldest_unit_is_young(self):
        chain = make_chain(latency=3)
        chain.submit(make_unit("k1"), "anon", 2)
        chain.submit(make_unit("k2"), "anon", 4)
        before = list(chain.pending)
        assert chain.advance_consensus(4) == []
        assert chain.pending == before
        assert [e.local_ref for e in chain.advance_consensus(5)] == ["e1"]
        assert chain.pending == before[1:]

    def test_a_unit_is_one_record_from_submission_to_the_ledger(self):
        chain = make_chain(latency=3)
        receipt = chain.submit(make_unit("k1"), "anon", 2)
        assert receipt == SubmitReceipt("e1", duplicate=False)
        [queued] = chain.pending
        assert (queued.local_ref, queued.confirmed_tick, queued.confirming_nodes) \
            == ("e1", None, ())
        with pytest.raises(NotConfirmed):
            chain.entry("e1")
        [confirmed] = chain.advance_consensus(5)
        assert confirmed is queued and chain.ledger.get("e1") is queued
        assert chain.entry("e1") is queued and chain.pending == []
        assert (queued.confirmed_tick, queued.confirming_nodes) == (5, tuple(chain.nodes))

    def test_a_crash_between_confirmations_leaves_the_node_out(self):
        chain = make_chain(nodes=4, quorum="1/2", latency=1)
        first = confirm_unit(chain, make_unit("k1"), submit_tick=0)
        chain.set_node_live("bc1.n2", False)
        second = confirm_unit(chain, make_unit("k2"), submit_tick=2)
        chain.set_node_live("bc1.n2", True)
        third = confirm_unit(chain, make_unit("k3"), submit_tick=4)
        assert first.confirming_nodes == ("bc1.n1", "bc1.n2", "bc1.n3", "bc1.n4")
        assert second.confirming_nodes == ("bc1.n1", "bc1.n3", "bc1.n4")
        assert third.confirming_nodes == first.confirming_nodes


class TestDirectAppends:
    def test_genesis_is_confirmed_at_tick_zero_by_full_node_set(self):
        chain = make_chain(nodes=4)
        entry = chain.append_genesis(make_unit("genesis:a1"))
        assert entry.kind == ENTRY_KIND_GENESIS
        assert entry.confirmed_tick == 0
        assert entry.confirming_nodes == tuple(sorted(chain.nodes))
        assert chain.ledger.get(entry.local_ref) is entry

    def test_genesis_key_participates_in_idempotency(self):
        chain = make_chain()
        chain.append_genesis(make_unit("genesis:a1"))
        receipt = chain.submit(make_unit("genesis:a1"), "anon", 0)
        assert receipt.duplicate, "genesis keys must block resubmission"

    def test_attestation_append_skips_consensus_and_latency(self):
        chain = make_chain(latency=5)
        entry = chain.append_attestation("deadbeef", now=7)
        assert entry.kind == ENTRY_KIND_ATTESTATION
        assert entry.submitted_tick == entry.confirmed_tick == 7
        assert entry.unit is None and entry.payload == "deadbeef"
        assert chain.pending == [], "attestations never sit in the pending queue"


class TestLedgerMarks:
    def test_mark_is_one_shot(self):
        chain = make_chain(latency=1)
        entry = confirm_unit(chain, make_unit())
        chain.ledger.mark(entry.local_ref, "pointer")
        with pytest.raises(ValueError, match="already marked"):
            chain.ledger.mark(entry.local_ref, "other")

    def test_void_is_one_shot_and_requires_entry(self):
        chain = make_chain(latency=1)
        entry = confirm_unit(chain, make_unit())
        chain.ledger.void(entry.local_ref, 4)
        with pytest.raises(ValueError, match="already voided"):
            chain.ledger.void(entry.local_ref, 5)
        with pytest.raises(NotFound):
            chain.ledger.void("e99", 5)


class TestReadsAndStatus:
    def test_read_permission_enforced(self):
        chain = make_chain(regime=PermissionRegime(user_read_permissioned=True),
                           readers=["app_x"], latency=1)
        entry = confirm_unit(chain, make_unit(), credential="anon")
        with pytest.raises(PermissionDenied, match="may not read"):
            chain.read(entry.local_ref, "stranger")
        result = chain.read(entry.local_ref, "app_x")
        assert result.entry is entry and not result.voided

    @pytest.mark.parametrize("ref, error, match", [
        ("e1", NotConfirmed, "pending"),
        ("e2", NotFound, "no confirmed entry"),
    ], ids=["pending", "unknown"])
    def test_read_unknown_ref_raises(self, ref, error, match):
        chain = make_chain()
        chain.submit(make_unit(), "anon", 0)  # e1, pending
        with pytest.raises(error, match=match):
            chain.read(ref, "anon")
        with pytest.raises(error, match=match):
            chain.entry(ref)

    def test_node_permissioned_status_reports_exact_live_count(self):
        chain = make_chain(nodes=4, regime=PermissionRegime(
            node_permissioned=True, consensus_permissioned=True))
        chain.set_node_live("bc1.n1", False)
        assert chain.status(0).live_node_count == 3

    def test_anonymous_status_reports_quorum_floor_only(self):
        chain = make_chain(nodes=10, quorum="2/3")
        status = chain.status(0)
        assert status.live_node_count == 7, \
            "anonymous-membership chains advertise only the quorum floor"
        for nid in list(chain.nodes)[:4]:
            chain.set_node_live(nid, False)
        assert chain.status(0).live_node_count == 0, \
            "below quorum the floor claim is no longer supportable"

    def test_mean_latency_covers_consensus_entries_only(self):
        chain = make_chain(latency=2)
        chain.submit(make_unit("a"), "anon", 0)
        chain.advance_consensus(2)
        chain.submit(make_unit("b"), "anon", 2)
        chain.advance_consensus(5)  # this one aged 3
        chain.append_attestation("ff", 9)  # zero-age direct append, excluded
        assert chain.status(9).mean_confirm_latency == 2.5

    def test_status_with_empty_ledger_reports_configured_latency(self):
        chain = make_chain(latency=4)
        assert chain.status(0).mean_confirm_latency == 4.0


class TestConstruction:
    def test_quorum_fraction_bounds(self):
        with pytest.raises(ValueError, match="quorum_fraction"):
            make_chain(quorum="0")
        with pytest.raises(ValueError, match="quorum_fraction"):
            make_chain(quorum="3/2")
        assert make_chain(quorum="1").quorum_threshold() == 4

    def test_at_least_one_node(self):
        with pytest.raises(ValueError, match="at least one node"):
            make_chain(nodes=0)

    def test_latency_minimum(self):
        with pytest.raises(ValueError, match="confirm_latency"):
            make_chain(latency=0)

    def test_fraction_quorum_exact(self):
        chain = make_chain(nodes=3, quorum="1/3")
        assert chain.quorum_threshold() == 1


class TestMemberIds:
    @pytest.mark.parametrize("chain_id", ["bc1", "x", "trade-hub_2", "pay10"])
    def test_chain_of_gives_back_the_chain_of_every_built_id(self, chain_id):
        members = node_ids(chain_id, 12) + gateway_ids(chain_id, 12)
        assert len(set(members)) == 24
        assert {chain_of(m) for m in members} == {chain_id}
