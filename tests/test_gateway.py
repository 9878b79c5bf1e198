"""Gateway tests: threshold attestations, reachability advertisements,
mediated reads, peering registry, and the cross-domain transfer
protocol driven tick by tick."""

import hashlib
import random
import re
import struct
import sys
from collections import Counter

import pytest
import yaml

from interopsim import audit, engine, gateway
from interopsim.chain import SEMANTIC_TYPES, BlockchainSystem, SemanticType, gateway_ids
from interopsim.errors import (
    DuplicateAgreement,
    GrantExpired,
    GrantMismatch,
    InsufficientGateways,
    NoLiveGateways,
    NoPeering,
    NotAuthoritativeHere,
    NotFound,
    PermissionDenied,
    Unreachable,
)
from interopsim.gateway import (
    Claim,
    DelegationGrant,
    GatewayRegistry,
    PeeringAgreement,
    PeeringRegistry,
    TransferEngine,
    TransferState,
    VouchAttestation,
    advertise,
    mediated_read,
    verify_attestation,
    vouch,
)
from interopsim.simnet import LogRecord
from interopsim.identity import Resolver, prefix
from interopsim.chain import PermissionRegime
from interopsim.scenario import FaultCfg, parse_scenario
from fractions import Fraction

from conftest import (
    REPO_ROOT,
    TransferWorld,
    bundled,
    confirm_unit,
    make_chain,
    make_unit,
)

sys.path.append(str(REPO_ROOT / "perfbench"))
from workloads import dense, fault_world  # noqa: E402


def registry_of(chain_to_count):
    registry = GatewayRegistry()
    for cid, count in chain_to_count.items():
        for gid in gateway_ids(cid, count):
            registry.add(gid)
    return registry


def sample_claim(chain_id="bc1"):
    return Claim(chain_id, f"{chain_id}/" + "A" * 26, True, "ab" * 32)


class TestVouching:
    def test_vouch_signs_with_lowest_live_gateways(self):
        registry = registry_of({"bc1": 3})
        att = vouch("bc1", registry, sample_claim(), 2, now=4)
        assert [gid for gid, _ in att.signatures] == ["bc1.g1", "bc1.g2"]
        assert att.threshold_k == 2 and att.issued_tick == 4

    def test_vouch_skips_crashed_gateways(self):
        registry = registry_of({"bc1": 3})
        registry.set_live("bc1.g1", False)
        att = vouch("bc1", registry, sample_claim(), 2, now=0)
        assert [gid for gid, _ in att.signatures] == ["bc1.g2", "bc1.g3"]

    def test_set_live_records_each_change_in_order(self):
        registry = registry_of({"bc1": 2})
        registry.set_live("bc1.g1", False)
        registry.set_live("bc1.g1", False)
        registry.set_live("bc1.g2", True)
        registry.set_live("bc1.g1", True)
        assert registry.changes == [("bc1.g1", False), ("bc1.g1", True)], \
            "a call that changes nothing records nothing"

    def test_vouch_below_threshold_raises(self):
        registry = registry_of({"bc1": 3})
        registry.set_live("bc1.g1", False)
        registry.set_live("bc1.g3", False)
        with pytest.raises(InsufficientGateways, match="1 live gateways, threshold 2"):
            vouch("bc1", registry, sample_claim(), 2, now=0)

    def test_verification_ignores_liveness(self):
        # an attestation stays valid even if every signer crashes later
        registry = registry_of({"bc1": 3})
        att = vouch("bc1", registry, sample_claim(), 2, now=0)
        for gid in registry.by_chain["bc1"]:
            registry.set_live(gid, False)
        assert verify_attestation(att, registry), \
            "verification is a pure function of signatures and registry"

    def test_foreign_gateway_signatures_do_not_count(self):
        registry = registry_of({"bc1": 2, "bc2": 2})
        claim = sample_claim("bc1")
        sigs = tuple(sorted(
            (gid, reference_signature(gid, claim))
            for gid in ("bc1.g1", "bc2.g1")))
        att = VouchAttestation(claim, 2, sigs, 0)
        assert not verify_attestation(att, registry), \
            "a bc2 gateway cannot vouch for bc1's ledger"

    def test_unregistered_gateway_signatures_do_not_count(self):
        # bc1.g9 names bc1 and signs by the scheme, but was never added
        registry = registry_of({"bc1": 2})
        claim = sample_claim("bc1")
        sigs = tuple((gid, reference_signature(gid, claim)) for gid in ("bc1.g1", "bc1.g9"))
        assert verify_attestation(VouchAttestation(claim, 1, sigs, 0), registry)
        assert not verify_attestation(VouchAttestation(claim, 2, sigs, 0), registry), \
            "only a registered gateway's signature counts"

    def test_set_live_on_an_unknown_gateway_raises(self):
        registry = registry_of({"bc1": 2})
        for live in (False, True):
            with pytest.raises(NotFound, match="unknown gateway bc1.g9"):
                registry.set_live("bc1.g9", live)
        assert registry.changes == [] and "bc1.g9" not in registry.live

    def test_duplicate_signer_does_not_amplify(self):
        registry = registry_of({"bc1": 2})
        claim = sample_claim()
        sig = reference_signature("bc1.g1", claim)
        att = VouchAttestation(claim, 2, (("bc1.g1", sig), ("bc1.g1", sig)), 0)
        assert not verify_attestation(att, registry), \
            "threshold counts distinct signers, not signature lines"

    def test_every_single_byte_claim_mutation_invalidates(self):
        registry = registry_of({"bc1": 3})
        claim = sample_claim()
        att = vouch("bc1", registry, claim, 2, now=0)
        assert verify_attestation(att, registry)
        base = claim.to_bytes()
        rejected = 0
        for pos in range(len(base)):
            mutated = bytearray(base)
            mutated[pos] ^= 0x01
            text = mutated.decode("ascii", errors="replace")
            parts = text.split("|")
            if len(parts) != 4:
                rejected += 1  # structural damage cannot even parse
                continue
            forged_claim = Claim(parts[0], parts[1], parts[2] == "1", parts[3])
            forged = VouchAttestation(forged_claim, att.threshold_k,
                                      att.signatures, att.issued_tick)
            if forged_claim.to_bytes() == base:
                continue  # mutation round-tripped to the original
            assert not verify_attestation(forged, registry), \
                f"bit flip at byte {pos} still verifies"
            rejected += 1
        assert rejected >= len(base) - 2, \
            "almost every single-byte mutation must be rejected"

    def test_serialization_is_bit_exact_and_deterministic(self):
        registry = registry_of({"bc1": 3})
        att1 = vouch("bc1", registry, sample_claim(), 2, now=9)
        att2 = vouch("bc1", registry, sample_claim(), 2, now=9)
        assert att1.serialize() == att2.serialize()
        blob = att1.serialize()
        assert blob[:2] == (2).to_bytes(2, "big"), "threshold leads the header"
        claim_len = int.from_bytes(blob[2:6], "big")
        assert blob[6:6 + claim_len] == sample_claim().to_bytes()


def reference_bytes(claim):
    return f"{claim.chain_id}|{claim.cross_id}|{int(claim.confirmed)}|{claim.entry_digest}".encode()


def reference_signature(gateway_id, claim):
    """The signature scheme written out: sha256 of the gateway's key,
    "|" and the claim bytes."""
    return hashlib.sha256(f"k-{gateway_id}".encode() + b"|" + reference_bytes(claim)).hexdigest()


class TestSignatureScheme:
    """Pins every signature, serialization and verification to the
    scheme written out in reference_signature."""

    def test_seeded_claims_match_the_reference(self):
        rng = random.Random(7)
        registry = registry_of({"bc1": 3})
        gids = ["bc1.g1", "bc1.g2", "bc1.g3"]
        for i in range(40):
            for gid in gids:
                registry.set_live(gid, rng.random() < 0.8)
            live = [gid for gid in gids if registry.live[gid]]
            suffix = "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ234567") for _ in range(26))
            claim = Claim("bc1", f"bc1/{suffix}", rng.random() < 0.5,
                          f"{rng.getrandbits(256):064x}")
            k = rng.randint(1, 3)
            if len(live) < k:
                with pytest.raises(InsufficientGateways):
                    vouch("bc1", registry, claim, k, now=i)
                continue
            expected = tuple((gid, reference_signature(gid, claim)) for gid in live[:k])
            att = vouch("bc1", registry, claim, k, now=i)
            assert att.signatures == expected, "k lowest live signers, sorted by id"
            text = reference_bytes(claim)
            assert claim.encoded == text
            signers = ",".join(f"{gid}:{sig}" for gid, sig in expected)
            assert att.serialize() == (struct.pack(">HI", k, len(text)) + text + b"|"
                                       + str(i).encode() + b"|" + signers.encode())
            assert verify_attestation(att, registry)
            assert verify_attestation(VouchAttestation(claim, k, expected, i), registry)
            forged = ((expected[0][0], reference_signature(expected[0][0], sample_claim())),
                      *expected[1:])
            assert not verify_attestation(VouchAttestation(claim, k, forged, i), registry)

    def test_a_claim_compares_and_prints_by_its_four_fields(self):
        claim = sample_claim()
        assert claim == sample_claim() and hash(claim) == hash(sample_claim())
        assert claim != sample_claim("bc2")
        assert repr(claim) == (f"Claim(chain_id='bc1', cross_id='bc1/{'A' * 26}', "
                               f"confirmed=True, entry_digest='{'ab' * 32}')")


def rendered(adv):
    """The advertisement as its log record reads."""
    return LogRecord(0, 0, "advert", adv.chain_path, adv.transcript()).detail


class TestAdvertisements:
    def test_transcript_lists_endpoints_semantics_and_prefixes(self):
        world = TransferWorld()
        asset = world.seed_asset()
        adv = advertise(world.chains, world.registry, world.resolver, 0)["bc1"]
        transcript = rendered(adv)
        assert "endpoints=bc1.g1,bc1.g2,bc1.g3" in transcript
        assert "semantics=asset-registry" in transcript
        assert prefix(asset) in transcript
        assert asset not in transcript, \
            "advertisements carry truncated prefixes, not full identifiers"

    def test_transcript_never_names_nodes_or_local_refs(self):
        world = TransferWorld()
        world.seed_asset()
        adverts = advertise(world.chains, world.registry, world.resolver, 0)
        for cid, chain in world.chains.items():
            transcript = rendered(adverts[cid])
            for nid in chain.nodes:
                assert nid not in transcript, f"advert leaks node {nid}"
            assert not re.search(r"\be\d+\b", transcript), \
                "advert leaks a chain-local transaction ref"

    def test_crashed_gateways_leave_the_endpoint_list(self):
        world = TransferWorld()
        world.registry.set_live("bc1.g2", False)
        adv = advertise(world.chains, world.registry, world.resolver, 0)["bc1"]
        assert adv.gateway_endpoints == ("bc1.g1", "bc1.g3")

    def test_only_homed_assets_are_advertised(self):
        world = TransferWorld()
        a1 = world.seed_asset("bc1", "genesis:a1")
        a2 = world.seed_asset("bc2", "genesis:a2")
        adverts = advertise(world.chains, world.registry, world.resolver, 0)
        assert list(adverts) == list(world.chains), "one advert per chain, in its order"
        assert adverts["bc1"].reachable_assets == (prefix(a1),)
        assert adverts["bc2"].reachable_assets == (prefix(a2),)

    def test_set_up_reads_the_homes_once(self, monkeypatch):
        reads = []
        homes = Resolver.homes

        def counted(resolver):
            reads.append(resolver)
            return homes(resolver)

        monkeypatch.setattr(Resolver, "homes", counted)
        sim = engine.Simulation(parse_scenario(dense(0, n=60)))
        assert len(sim.chains) > 1 and len(sim.assets) == 60
        assert reads == [sim.resolver], "every chain's advert comes from one pass"

    def test_the_advert_shows_the_chain_path(self):
        chain = {"nodes": 3, "gateways": 1, "confirm_latency": 2,
                 "semantic": "generic-record"}
        sim = engine.Simulation(parse_scenario({
            "horizon": 10,
            "chains": [{"id": "bc1", **chain}, {"id": "bc2", "path": "trade.hub", **chain}],
            "assets": [{"id": "a1", "chain": "bc2"}]}))
        adverts = {rec.subject: rec.detail for rec in sim.net.log.records
                   if rec.kind == "advert"}
        shown = prefix(sim.assets["a1"])
        assert shown.startswith("trade.hub/")
        assert adverts == {
            "bc1": "path=bc1 endpoints=bc1.g1 semantics=generic-record assets=-",
            "bc2": f"path=trade.hub endpoints=bc2.g1 semantics=generic-record "
                   f"assets={shown}"}


def read_fixture():
    """Read-permissioned chain with two gateways, one confirmed asset,
    and a grant from the privileged reader app_x to app_y."""
    rng = random.Random(2)
    registry = registry_of({"bc1": 2})
    resolver = Resolver(rng, lambda att: verify_attestation(att, registry))
    chain = make_chain("bc1", latency=1,
                       regime=PermissionRegime(user_read_permissioned=True),
                       readers=["app_x"])
    resolver.register_chain("bc1")
    entry = confirm_unit(chain, make_unit())
    asset = resolver.mint_cross_id(chain, entry.local_ref)
    grant = DelegationGrant("g1", "app_x", "app_y", str(asset), expiry_tick=100)
    return registry, chain, resolver, grant, asset


class TestMediatedRead:
    def test_valid_grant_yields_cross_keyed_view(self):
        registry, chain, resolver, grant, asset = read_fixture()
        view = mediated_read(registry, chain, resolver, grant, asset, "app_y", now=10)
        assert view.cross_id == str(asset)
        assert view.chain_id == "bc1"
        assert view.payload_digest == "d1"
        assert not view.voided and view.mark is None
        assert verify_attestation(view.attestation, registry), \
            "the 1-of-n read attestation must verify"
        claim = view.attestation.claim
        assert view.attestation.threshold_k == 1
        assert view.attestation.signatures == (
            ("bc1.g1", reference_signature("bc1.g1", claim)),)

    def test_a_crashed_lowest_gateway_leaves_the_read_to_the_next(self):
        registry, chain, resolver, grant, asset = read_fixture()
        registry.set_live("bc1.g1", False)
        view = mediated_read(registry, chain, resolver, grant, asset, "app_y", now=10)
        claim = view.attestation.claim
        assert view.attestation.signatures == (
            ("bc1.g2", reference_signature("bc1.g2", claim)),)
        assert verify_attestation(view.attestation, registry)
        registry.set_live("bc1.g2", False)
        with pytest.raises(InsufficientGateways):
            mediated_read(registry, chain, resolver, grant, asset, "app_y", now=10)

    def test_wrong_requester_is_a_mismatch(self):
        registry, chain, resolver, grant, asset = read_fixture()
        with pytest.raises(GrantMismatch, match="does not cover"):
            mediated_read(registry, chain, resolver, grant, asset, "app_z", now=10)

    def test_wrong_asset_is_a_mismatch(self):
        registry, chain, resolver, grant, asset = read_fixture()
        other = "bc1/" + "Z" * 26
        with pytest.raises(GrantMismatch):
            mediated_read(registry, chain, resolver, grant, other, "app_y", now=10)

    def test_expiry_boundary_is_inclusive(self):
        registry, chain, resolver, grant, asset = read_fixture()
        mediated_read(registry, chain, resolver, grant, asset, "app_y", now=99)
        with pytest.raises(GrantExpired, match="expired at 100"):
            mediated_read(registry, chain, resolver, grant, asset, "app_y", now=100)

    def test_revoked_grantor_invalidates_the_grant(self):
        registry, chain, resolver, grant, asset = read_fixture()
        chain.readers.discard("app_x")
        with pytest.raises(PermissionDenied, match="may not read"):
            mediated_read(registry, chain, resolver, grant, asset, "app_y", now=10)

    def test_mismatch_outranks_expiry(self):
        # a stranger presenting an expired grant learns only that the
        # grant does not cover them, not whether it is expired
        registry, chain, resolver, grant, asset = read_fixture()
        with pytest.raises(GrantMismatch):
            mediated_read(registry, chain, resolver, grant, asset, "app_z", now=500)

    def test_view_reflects_mark_and_void(self):
        registry, chain, resolver, grant, asset = read_fixture()
        ref = resolver.local_ref_for("bc1", asset)
        chain.ledger.mark(ref, "pointer-to-bc2")
        chain.ledger.void(ref, 8)
        view = mediated_read(registry, chain, resolver, grant, asset, "app_y", now=10)
        assert view.mark == "pointer-to-bc2" and view.voided


class TestPeering:
    def agreement(self, aid="pa1", semantics=(SemanticType.ASSET_REGISTRY,),
                  fee="2"):
        return PeeringAgreement(aid, "bc1", "bc2", frozenset(semantics),
                                Fraction(fee))

    def test_overlapping_active_agreement_rejected(self):
        reg = PeeringRegistry()
        reg.establish(self.agreement())
        with pytest.raises(DuplicateAgreement, match="pa1 already covers"):
            reg.establish(self.agreement("pa2"))

    def test_disjoint_semantics_may_coexist(self):
        reg = PeeringRegistry()
        reg.establish(self.agreement())
        reg.establish(self.agreement("pa2", semantics=(SemanticType.PAYMENTS,)))
        assert len(reg.agreements) == 2

    def test_fee_tally_is_exact(self):
        # three transfers of three assets finalize over one pair, each
        # earning a fee of 1/3
        raw = yaml.safe_load((REPO_ROOT / "scenarios" / "fig4_transfer.yaml").read_text())
        raw["peerings"][0]["fee"] = "1/3"
        raw["assets"] = [{"id": f"deed{i}", "chain": "bc1"} for i in (1, 2, 3)]
        raw["transfers"] = [{**raw["transfers"][0], "id": f"x{i}", "asset": f"deed{i}"}
                            for i in (1, 2, 3)]
        report = engine.Simulation(parse_scenario(raw)).run()
        assert [o["state"] for o in report.outcomes["transfers"].values()] == \
            ["FINALIZED"] * 3
        assert report.settlements == {"bc1|bc2": "1"}, \
            "three thirds must sum to exactly one"

    def test_covering_matches_a_scan_in_id_order(self):
        chains = ["bc1", "bc2", "bc3", "bc4"]
        semantics = list(SEMANTIC_TYPES)
        for seed in range(50):
            rng = random.Random(seed)
            reg = PeeringRegistry()
            for i in rng.sample(range(40), rng.randint(0, 25)):
                a, b = rng.sample(chains, 2)
                kinds = rng.sample(semantics, rng.randint(1, len(semantics)))
                try:
                    reg.establish(PeeringAgreement(
                        f"pa{i}", a, b, frozenset(kinds), Fraction(1)))
                except DuplicateAgreement:
                    pass
            for a in chains:
                for b in chains:
                    for semantic in semantics:
                        expected = next(
                            (reg.agreements[aid] for aid in sorted(reg.agreements)
                             if {a, b} == {reg.agreements[aid].chain_a,
                                           reg.agreements[aid].chain_b}
                             and semantic in reg.agreements[aid].compatible_semantics),
                            None)
                        assert reg.covering(a, b, semantic) is expected, \
                            (seed, a, b, semantic)


class TestTransferProtocol:
    def test_happy_path_timing_and_states(self):
        # latency 3 per chain, inter-chain latency 2:
        # lock confirms t3, record request lands t5, record confirms t8,
        # attestation lands t10, finalized t10
        world = TransferWorld()
        asset = world.seed_asset()
        t = world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 30, 0)
        assert t.state is TransferState.INITIATED
        assert (t.paired_source, t.paired_dest) == ("bc1.g1", "bc2.g1")
        world.run_until(2)
        assert t.state is TransferState.INITIATED
        world.run_until(3)
        assert t.state is TransferState.SOURCE_LOCKED
        world.run_until(7)
        assert t.state is TransferState.SOURCE_LOCKED
        world.run_until(8)
        assert t.state is TransferState.DEST_RECORDED
        world.run_until(9)
        assert t.state is TransferState.DEST_RECORDED
        world.run_until(10)
        assert t.state is TransferState.FINALIZED
        assert t.final_tick == 10

    def test_finalization_effects(self):
        world = TransferWorld()
        asset = world.seed_asset()
        t = world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 30, 0)
        world.run_until(10)
        assert t.state is TransferState.FINALIZED
        # authority moved
        assert world.resolver.resolve(asset).home_chain == "bc2"
        # source entry marked with a pointer to the destination
        src_ref = world.resolver.local_ref_for("bc1", asset)
        mark = world.chains["bc1"].ledger.marks[src_ref]
        assert mark.home_chain == "bc2" and mark.forwarded_from == "bc1"
        # destination mask binds the same cross id to the record
        record_ref = world.chains["bc2"].refs["record:x1"]
        assert world.resolver.local_ref_for("bc2", asset) == record_ref
        # both attestations on-ledger and verifiable
        for cid, att in (("bc1", t.source_attestation),
                         ("bc2", t.dest_attestation)):
            kinds = [e.kind for e in world.chains[cid].ledger.entries]
            assert "attestation" in kinds, f"{cid} has no attestation entry"
            assert verify_attestation(att, world.registry)
        # the fee its agreement charges, which the report sums
        assert world.peerings.agreements[t.agreement_id].fee_per_transfer == Fraction(2)
        # lock released
        assert world.engine.locks == {}

    def test_initiate_rejects_an_id_already_started(self):
        # x1's lock key, lock:x1, stays taken on bc1 after x1 aborts, so a
        # second x1 could never lock: it is refused before any state changes
        world = TransferWorld()
        asset = world.seed_asset()
        t = world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 4, 0)
        world.run_until(6)
        assert t.state is TransferState.ABORTED
        records = len(world.net.log.records)
        with pytest.raises(ValueError, match="transfer x1 already initiated"):
            world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 30, 6)
        assert world.engine.transfers == {"x1": t}
        assert len(world.engine.order) == len(world.engine.transfers) == 1
        assert len(world.net.log.records) == records, "a refused id logs nothing"

    def test_initiate_rejects_wrong_home(self):
        world = TransferWorld()
        asset = world.seed_asset("bc2")
        with pytest.raises(NotAuthoritativeHere, match="lives on bc2"):
            world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 30, 0)

    def test_initiate_rejects_partitioned_source(self):
        world = TransferWorld()
        asset = world.seed_asset()
        world.schedule_faults(FaultCfg("f1", "partition", 0, chains=["bc1"]))
        world.net.drain(0)
        with pytest.raises(Unreachable, match="partitioned"):
            world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 30, 0)

    def test_initiate_requires_matching_peering(self):
        world = TransferWorld()
        asset = world.seed_asset()
        world.engine.peerings = PeeringRegistry()  # a registry with no agreement
        with pytest.raises(NoPeering, match="no active asset-registry agreement"):
            world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 30, 0)

    def test_initiate_requires_live_gateways_both_sides(self):
        world = TransferWorld()
        asset = world.seed_asset()
        for gid in world.registry.by_chain["bc2"]:
            world.registry.set_live(gid, False)
        with pytest.raises(NoLiveGateways):
            world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 30, 0)

    def test_lock_conflict_second_transfer_aborts(self):
        world = TransferWorld()
        asset = world.seed_asset()
        t1 = world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 30, 0)
        t2 = world.engine.initiate("x2", asset, "bc1", "bc2", "app_z", 30, 0)
        assert t1.state is TransferState.INITIATED
        assert t2.state is TransferState.ABORTED
        assert t2.abort_reason == "lock-held"
        world.run_until(10)
        assert t1.state is TransferState.FINALIZED, \
            "the lock holder must be unaffected by the loser"

    def test_lock_released_on_abort_allows_retry(self):
        world = TransferWorld()
        asset = world.seed_asset()
        t1 = world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 2, 0)
        world.run_until(3)  # deadline 2 passes before the lock confirms
        assert t1.state is TransferState.ABORTED
        assert t1.abort_reason == "deadline"
        t2 = world.engine.initiate("x2", asset, "bc1", "bc2", "app_y", 30,
                                   world.net.now)
        world.run_until(world.net.now + 12)
        assert t2.state is TransferState.FINALIZED, \
            "after an abort the asset must be transferable again"

    def test_deadline_abort_with_confirmed_record_voids_it(self):
        world = TransferWorld()
        asset = world.seed_asset()
        t = world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 9, 0)
        world.run_until(8)
        assert t.state is TransferState.DEST_RECORDED
        world.run_until(10)
        assert t.state is TransferState.ABORTED
        bc2 = world.chains["bc2"]
        assert bc2.refs["record:x1"] in bc2.ledger.voids, \
            "a dest record surviving an abort must carry a void tombstone"
        assert world.resolver.resolve(asset).home_chain == "bc1", \
            "authority never moves on an aborted transfer"

    def test_pairing_is_lowest_live_exhaustive(self):
        # every crash subset that leaves at least one gateway per side
        # pairs the lowest live ids; full crash refuses to initiate
        for crashed_src in range(4):
            for crashed_dst in range(4):
                world = TransferWorld()
                asset = world.seed_asset()
                for i in range(1, crashed_src + 1):
                    world.registry.set_live(f"bc1.g{i}", False)
                for i in range(1, crashed_dst + 1):
                    world.registry.set_live(f"bc2.g{i}", False)
                if crashed_src == 3 or crashed_dst == 3:
                    with pytest.raises(NoLiveGateways):
                        world.engine.initiate("x1", asset, "bc1", "bc2",
                                              "app_y", 30, 0)
                    continue
                t = world.engine.initiate("x1", asset, "bc1", "bc2",
                                          "app_y", 30, 0)
                assert t.paired_source == f"bc1.g{crashed_src + 1}"
                assert t.paired_dest == f"bc2.g{crashed_dst + 1}"

    def test_crash_mid_transfer_repairs_to_next_gateway(self):
        world = TransferWorld()
        asset = world.seed_asset()
        t = world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 30, 0)
        world.schedule_faults(FaultCfg("f1", "gateway_crash", 4, gateways=["bc1.g1"]))
        world.run_until(12)
        assert t.state is TransferState.FINALIZED
        assert t.paired_source == "bc1.g2", "transfer must re-pair after the crash"
        repairs = [r for r in world.net.log.records if r.kind == "peer"]
        assert any("side=source gw=bc1.g2" in r.detail for r in repairs)

    def test_two_crashes_drop_below_threshold_and_abort(self):
        world = TransferWorld()
        asset = world.seed_asset()
        t = world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 15, 0)
        world.schedule_faults(FaultCfg("f1", "gateway_crash", 4,
                                       gateways=["bc1.g1", "bc1.g2"]))
        world.run_until(20)
        assert t.state is TransferState.ABORTED, \
            "1 live gateway cannot meet threshold 2, deadline must fire"
        assert t.abort_reason == "deadline"
        assert world.resolver.resolve(asset).home_chain == "bc1"

    def test_a_heal_unblocks_a_stalled_vouch(self):
        world = TransferWorld()
        asset = world.seed_asset()
        t = world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 30, 0)
        # the record lands at 8 with one live gateway on bc2 of the two
        # the vouch needs; the crash ends at 12
        world.schedule_faults(FaultCfg("f1", "gateway_crash", 6,
                                       gateways=["bc2.g1", "bc2.g2"], until=12))
        world.run_until(11)
        assert t.state is TransferState.DEST_RECORDED
        assert t.dest_attestation is None
        world.run_until(20)
        vouches = [(r.tick, r.get("side")) for r in world.net.log.records
                   if r.kind == "vouch"]
        assert vouches == [(12, "dest"), (14, "source")], \
            "the vouch must be retried on the tick of the heal"
        assert t.state is TransferState.FINALIZED and t.final_tick == 14
        assert world.resolver.resolve(asset).home_chain == "bc2"

    def test_a_heal_unblocks_a_stalled_source_vouch(self):
        world = TransferWorld()
        asset = world.seed_asset()
        t = world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 30, 0)
        # the attestation arrives at 10 with one live gateway on bc1 of
        # the two the vouch needs; the crash ends at 13
        world.schedule_faults(FaultCfg("f1", "gateway_crash", 9,
                                       gateways=["bc1.g1", "bc1.g2"], until=13))
        world.run_until(12)
        assert t.state is TransferState.DEST_RECORDED and t.attestation_arrived
        assert t.source_attestation is None
        world.run_until(20)
        vouches = [(r.tick, r.get("side")) for r in world.net.log.records
                   if r.kind == "vouch"]
        assert vouches == [(8, "dest"), (13, "source")], \
            "the source vouch must be retried on the tick of the heal"
        assert t.state is TransferState.FINALIZED and t.final_tick == 13

    def test_a_liveness_change_steps_only_the_transfers_it_can_move(self, monkeypatch):
        steps = []
        step = TransferEngine.step

        def recording_step(engine, t, now):
            steps.append(now)
            return step(engine, t, now)

        monkeypatch.setattr(TransferEngine, "step", recording_step)
        world = TransferWorld()
        asset = world.seed_asset()
        t = world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 30, 0)
        world.schedule_faults(
            # neither a paired gateway down nor an up change it waits for
            FaultCfg("f1", "gateway_crash", 4, gateways=["bc2.g3"], until=5),
            # its paired source gateway down: it re-pairs
            FaultCfg("f2", "gateway_crash", 6, gateways=["bc1.g1"]))
        world.run_until(12)
        assert t.state is TransferState.FINALIZED and t.paired_source == "bc1.g2"
        # the lock confirms at 3 and the record at 8
        assert steps == [3, 6, 8]

    def test_transfer_log_records_protocol_milestones(self):
        world = TransferWorld()
        asset = world.seed_asset()
        world.engine.initiate("x1", asset, "bc1", "bc2", "app_y", 30, 0)
        world.run_until(10)
        states = [rec.get("state") for rec in world.net.log.records
                  if rec.kind == "transfer" and rec.subject == "x1"]
        assert states == ["INITIATED", "SOURCE_LOCKED", "DEST_RECORDED",
                          "VOUCHED", "FINALIZED"], \
            f"protocol milestones out of order: {states}"


# -- work on the attestation path ---------------------------------------


GATE_WORLDS = {
    "fig4_transfer": lambda: bundled("fig4_transfer"),
    "dense-50": lambda: parse_scenario(dense(0, 50)),
    "dense-100": lambda: parse_scenario(dense(0, 100)),
    # partitions and gateway crashes: vouch retries and re-pairings
    "fault-19": lambda: parse_scenario(fault_world(19)),
}


@pytest.mark.parametrize("world", GATE_WORLDS)
def test_attestation_path_derives_each_value_once(world, monkeypatch):
    """Each claim is encoded once, each vouch and each verification
    hashes once per signer and no more, and the sorted live node set is
    built once per chain and node liveness change."""
    counts = Counter()
    sha256, set_node_live = hashlib.sha256, BlockchainSystem.set_node_live
    vouch_, verify = gateway.vouch, gateway.verify_attestation

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counting_set_node_live(chain, node_id, live):
        counts["liveness changes"] += chain.nodes[node_id] != live
        return set_node_live(chain, node_id, live)

    def counting_vouch(chain_id, registry, claim, k, now):
        before = counts["sha256"]
        try:
            att = vouch_(chain_id, registry, claim, k, now)
        except InsufficientGateways:
            counts["failed vouches"] += 1
            assert counts["sha256"] == before, "a vouch that fails hashes nothing"
            raise
        counts["vouches"] += 1
        assert counts["sha256"] - before == k
        return att

    def counting_verify(att, registry):
        before = counts["sha256"]
        valid = verify(att, registry)
        counts["verifications"] += 1
        assert counts["sha256"] - before == len(att.signatures)
        return valid

    monkeypatch.setattr(hashlib, "sha256", counting("sha256", sha256))
    monkeypatch.setattr(gateway.Claim, "__init__", counting("claims", gateway.Claim.__init__))
    monkeypatch.setattr(gateway.Claim, "to_bytes", counting("encodings", gateway.Claim.to_bytes))
    monkeypatch.setattr(BlockchainSystem, "live_node_ids",
                        counting("sorts", BlockchainSystem.live_node_ids))
    monkeypatch.setattr(BlockchainSystem, "set_node_live", counting_set_node_live)
    monkeypatch.setattr(gateway, "vouch", counting_vouch)
    monkeypatch.setattr(engine, "verify_attestation", counting_verify)
    monkeypatch.setattr(audit, "verify_attestation", counting_verify)

    sim = engine.Simulation(GATE_WORLDS[world]())
    assert sim.run().passed()
    finalized = sum(t.state == TransferState.FINALIZED
                    for t in sim.transfers.transfers.values())
    assert finalized > 0 and counts["vouches"] >= 2 * finalized
    assert counts["failed vouches"] > 0 or world != "fault-19", counts
    # the resolver's rebind and the audit each verify both attestations
    assert counts["verifications"] == 4 * finalized
    assert counts["encodings"] == counts["claims"], counts
    # these worlds crash no node, so each chain sorts once
    assert counts["sorts"] == counts["liveness changes"] + len(sim.chains), counts
