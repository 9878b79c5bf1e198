"""Identifier masking and resolver tests: opacity of minted suffixes,
bijectivity, single-home resolution, proofed rebinding, history audit."""

import base64
import copy
import gc
import pickle
import random
import re
from dataclasses import FrozenInstanceError, fields

import pytest

from interopsim.chain import Directionality, SemanticType, TransferUnit, gateway_ids
from interopsim.engine import Simulation
from interopsim.errors import (
    InvalidProof,
    NotConfirmed,
    NotFound,
    StaleAuthority,
)
from interopsim.gateway import (
    Claim,
    GatewayRegistry,
    VouchAttestation,
    entry_digest,
    verify_attestation,
    vouch,
)
from interopsim.identity import (
    AuthoritativePointer,
    Resolver,
    _base32,
    cross_id_parts,
    prefix,
)

from conftest import bundled, confirm_unit, make_chain, make_unit

SUFFIX_RE = re.compile(r"^[A-Z2-7]{26}$")


def fresh_resolver(seed=0, chains=("bc1",)):
    """A resolver with chains registered under their own ids; its
    verifier accepts nothing, as these tests never rebind."""
    resolver = Resolver(random.Random(seed), lambda att: False)
    for chain_id in chains:
        resolver.register_chain(chain_id)
    return resolver


def minted(resolver, chain, n, start=0):
    """Mint n cross ids over freshly confirmed entries; returns the
    (local_ref, cross_id) pairs."""
    pairs = []
    for i in range(n):
        entry = confirm_unit(chain, make_unit(f"k{start + i}"),
                             submit_tick=(start + i) * 2)
        pairs.append((entry.local_ref,
                      resolver.mint_cross_id(chain, entry.local_ref)))
    return pairs


class TestMinting:
    def test_cross_id_renders_as_path_slash_suffix(self):
        cid = "trade.bc1/ABC234DEF567GHI234JKL567MN"
        assert cross_id_parts(cid) == ("trade.bc1", "ABC234DEF567GHI234JKL567MN")
        assert prefix(cid) == "trade.bc1/ABC234DE"
        assert prefix(cid, 3) == "trade.bc1/ABC"

    @pytest.mark.parametrize("path, suffix", [
        ("bc1", "A" * 26), ("trade.bc1", "ABC234DEF567GHI234JKL567MN"), ("", "")])
    def test_cross_id_hashes_compares_and_prints_by_its_fields(self, path, suffix):
        # a cross id is its text: it hashes, compares and keys as that
        # text, and its two parts are read back from it
        cid = f"{path}/{suffix}"
        text = "/".join((path, suffix))
        assert type(cid) is str and cid == text and hash(cid) == hash(text)
        assert cid != f"{path}/{suffix}B" and cid != (path, suffix)
        assert cross_id_parts(cid) == (path, suffix)
        assert {cid: 1}[text] == 1 and {text: 1}[cid] == 1
        for copied in (copy.copy(cid), copy.deepcopy(cid), pickle.loads(pickle.dumps(cid))):
            assert type(copied) is str and copied == cid and hash(copied) == hash(text)
            assert cross_id_parts(copied) == (path, suffix)

    @pytest.mark.parametrize("name", ["round_trip", "fig4_transfer"])
    def test_every_cross_id_a_run_mints_is_an_untracked_str(self, name):
        # an exact str is not tracked by the cyclic GC, so a tuple that
        # holds only cross ids and other text is not tracked either
        sim = Simulation(bundled(name))
        sim.run()
        minted_ids = [*sim.assets.values(), *sim.resolver.assets(),
                      *(cid for mask in sim.resolver.mask_tables().values()
                        for cid in mask.values()),
                      *(t.asset for t in sim.transfers.transfers.values())]
        assert sim.transfers.transfers and minted_ids
        for cid in minted_ids:
            assert type(cid) is str and not gc.is_tracked(cid), repr(cid)
            assert cross_id_parts(cid)[0] in sim.chains

    @pytest.mark.parametrize("cls, kwargs", [
        (AuthoritativePointer, {"asset": "bc1/" + "A" * 26, "home_chain": "bc2",
                                "forwarded_from": "bc1", "rebind_tick": 7}),
        (TransferUnit, {"payload_digest": "d", "semantic_type": SemanticType.GENERIC_RECORD,
                        "directionality": Directionality.BI, "idempotency_key": "k",
                        "intended_peer": "app_y"}),
        (Claim, {"chain_id": "bc1", "cross_id": "bc1/" + "A" * 26, "confirmed": True,
                 "entry_digest": "ab" * 32}),
        (VouchAttestation, {"claim": Claim("bc1", "bc1/" + "A" * 26, True, "ab" * 32),
                            "threshold_k": 2,
                            "signatures": (("bc1.g1", "cd" * 32), ("bc1.g2", "ef" * 32)),
                            "issued_tick": 7}),
    ], ids=["AuthoritativePointer", "TransferUnit", "Claim", "VouchAttestation"])
    def test_frozen_values_store_their_fields_and_stay_frozen(self, cls, kwargs):
        # each stores its fields through its slots; the dataclass still
        # owns assignment, equality, hashing and repr
        value = cls(**kwargs)
        assert value == cls(*kwargs.values()) and hash(value) == hash(cls(**kwargs))
        assert [getattr(value, f.name) for f in fields(cls) if f.init] == list(kwargs.values())
        assert repr(value) == f"{cls.__name__}(" + ", ".join(
            f"{k}={v!r}" for k, v in kwargs.items()) + ")"
        first = next(iter(kwargs))
        with pytest.raises(FrozenInstanceError):
            setattr(value, first, kwargs[first])
        with pytest.raises(FrozenInstanceError):
            delattr(value, first)
        assert value != cls(**{**kwargs, first: "other"})

    def test_a_claim_holds_its_encoding_frozen_and_out_of_sight(self):
        claim = Claim("bc1", "bc1/" + "A" * 26, True, "ab" * 32)
        assert claim.encoded == claim.to_bytes() == (
            b"bc1|bc1/" + b"A" * 26 + b"|1|" + b"ab" * 32)
        assert "encoded" not in repr(claim)
        # equality and hashing ignore the encoding, which the fields fix
        assert hash(claim) == hash(("bc1", "bc1/" + "A" * 26, True, "ab" * 32))
        with pytest.raises(FrozenInstanceError):
            claim.encoded = b""
        with pytest.raises(FrozenInstanceError):
            del claim.encoded

    @pytest.mark.parametrize("ref, error, match", [
        ("e1", NotConfirmed, "pending"),
        ("e99", NotFound, "unknown"),
    ], ids=["pending", "unknown"])
    def test_mint_requires_confirmed_entry(self, ref, error, match):
        chain = make_chain()
        resolver = fresh_resolver()
        chain.submit(make_unit(), "anon", 0)  # e1, pending
        with pytest.raises(error, match=match):
            resolver.mint_cross_id(chain, ref)
        with pytest.raises(error, match=match):
            chain.read(ref, "anon")  # the chain's own read says the same

    def test_mint_is_idempotent_per_ref(self):
        chain = make_chain(latency=1)
        resolver = fresh_resolver()
        entry = confirm_unit(chain, make_unit())
        first = resolver.mint_cross_id(chain, entry.local_ref)
        assert resolver.mint_cross_id(chain, entry.local_ref) is first

    def test_mint_registers_home_and_history(self):
        chain = make_chain(latency=1)
        resolver = fresh_resolver()
        entry = confirm_unit(chain, make_unit())
        cid = resolver.mint_cross_id(chain, entry.local_ref, now=3)
        pointer = resolver.resolve(cid)
        assert pointer.home_chain == "bc1"
        assert pointer.forwarded_from is None
        history = resolver.audit(cid)
        assert history == [pointer], "a fresh asset has a single-hop history"

    def test_registered_path_is_used_in_cross_ids(self):
        chain = make_chain(latency=1)
        resolver = fresh_resolver(chains=())
        resolver.register_chain("bc1", "trade.bc1")
        entry = confirm_unit(chain, make_unit())
        cid = resolver.mint_cross_id(chain, entry.local_ref)
        assert cross_id_parts(cid)[0] == resolver.path("bc1") == "trade.bc1"

    def test_a_chain_registers_once(self):
        resolver = fresh_resolver()
        with pytest.raises(ValueError, match="bc1 already registered"):
            resolver.register_chain("bc1", "trade.bc1")
        assert resolver.path("bc1") == "bc1"

    def test_an_unregistered_chain_raises_not_found(self):
        resolver = fresh_resolver()
        chain = make_chain("bc2", latency=1)
        entry = confirm_unit(chain, make_unit())
        with pytest.raises(NotFound, match="bc2 is not registered"):
            resolver.mint_cross_id(chain, entry.local_ref)
        [(_, cid)] = minted(resolver, make_chain(latency=1), 1)
        with pytest.raises(NotFound, match="bc2 is not registered"):
            resolver.bind_existing("bc2", cid, "e7")


class TestSuffixOpacity:
    """The opaque suffix must carry no information about the local ref."""

    def test_thousand_mints_are_well_formed_and_distinct(self):
        chain = make_chain(latency=1)
        resolver = fresh_resolver(seed=11)
        pairs = minted(resolver, chain, 1000)
        suffixes = [cross_id_parts(cid)[1] for _, cid in pairs]
        assert len(set(suffixes)) == 1000, "suffix collision in 1000 mints"
        for s in suffixes:
            assert SUFFIX_RE.match(s), f"malformed suffix {s!r}"

    def test_suffix_never_embeds_the_local_ref(self):
        chain = make_chain(latency=1)
        resolver = fresh_resolver(seed=5)
        for ref, cid in minted(resolver, chain, 300):
            suffix = cross_id_parts(cid)[1]
            assert ref.upper() not in suffix, f"suffix {suffix} leaks ref {ref}"

    def test_same_ref_different_rng_gives_unrelated_suffixes(self):
        # two runs, same chain state and ref, different seeds: if the
        # suffix were derived from the ref the outputs would correlate
        overlaps = []
        for seed_pair in [(1, 2), (3, 4), (5, 6)]:
            out = []
            for seed in seed_pair:
                chain = make_chain(latency=1)
                resolver = fresh_resolver(seed)
                entry = confirm_unit(chain, make_unit())
                out.append(cross_id_parts(
                    resolver.mint_cross_id(chain, entry.local_ref))[1])
            a, b = out
            common = max((len(a[i:i + 7]) for i in range(len(a))
                          if a[i:i + 7] and a[i:i + 7] in b), default=0)
            overlaps.append(common)
        assert all(o < 7 for o in overlaps), \
            f"suffixes for one ref share long substrings across seeds: {overlaps}"

    @pytest.mark.parametrize("raw", [bytes(16), b"\xff" * 16])
    def test_suffix_encoder_matches_base32_at_the_extremes(self, raw):
        assert _base32(raw) == base64.b32encode(raw).decode("ascii").rstrip("=")

    def test_suffix_encoder_matches_base32_on_random_bytes(self):
        rng = random.Random(32)
        for _ in range(10_000):
            raw = rng.randbytes(16)
            assert _base32(raw) == base64.b32encode(raw).decode("ascii").rstrip("="), raw

    def test_a_suffix_takes_sixteen_bytes_from_the_rng(self):
        resolver, rng = fresh_resolver(seed=7), random.Random(7)
        chain = make_chain(latency=1)
        for _, cid in minted(resolver, chain, 20):
            raw = rng.randbytes(16)
            assert cross_id_parts(cid)[1] == base64.b32encode(raw).decode().rstrip("=")


class TestBijectivity:
    def test_mask_tables_invert_exactly(self):
        chain = make_chain(latency=1)
        resolver = fresh_resolver()
        for ref, cid in minted(resolver, chain, 50):
            assert resolver.local_ref_for("bc1", cid) == ref
            assert resolver.mask_tables()["bc1"][ref] == cid

    def test_bind_existing_extends_the_destination_mask(self):
        chain = make_chain(latency=1)
        resolver = fresh_resolver(chains=("bc1", "bc2"))
        [(ref, cid)] = minted(resolver, chain, 1)
        resolver.bind_existing("bc2", cid, "e7")
        assert resolver.local_ref_for("bc2", cid) == "e7"
        assert resolver.mask_tables()["bc2"]["e7"] == cid
        # the original chain's mask is untouched
        assert resolver.local_ref_for("bc1", cid) == ref

    def test_bind_existing_rejects_collisions(self):
        chain = make_chain(latency=1)
        resolver = fresh_resolver(chains=("bc1", "bc2"))
        [(_, cid)] = minted(resolver, chain, 1)
        resolver.bind_existing("bc2", cid, "e7")
        with pytest.raises(ValueError, match="mask collision"):
            resolver.bind_existing("bc2", cid, "e8")

    def test_bind_existing_moves_an_asset_that_came_home(self):
        resolver, _, asset, atts = rebind_fixture()
        left_from = resolver.local_ref_for("bc1", asset)
        resolver.rebind_authority(asset, "bc1", "bc2", (atts["bc1"], atts["bc2"]), now=7)
        resolver.bind_existing("bc2", asset, "e7")
        with pytest.raises(ValueError, match="mask collision"):
            resolver.bind_existing("bc1", asset, "e9")  # its home is still bc2
        resolver.rebind_authority(asset, "bc2", "bc1", (atts["bc2"], atts["bc1"]), now=9)
        resolver.bind_existing("bc1", asset, "e9")
        assert resolver.mask_tables()["bc1"] == {"e9": asset}
        assert resolver.local_ref_for("bc1", asset) == "e9" != left_from

    def test_unmasked_lookups_raise(self):
        resolver = fresh_resolver()
        stranger = "bc1/" + "A" * 26
        with pytest.raises(NotFound):
            resolver.local_ref_for("bc1", stranger)


def rebind_fixture():
    """Two chains, one minted asset plus valid vouch attestations for a
    bc1 -> bc2 rebind."""
    rng = random.Random(9)
    registry = GatewayRegistry()
    resolver = Resolver(rng, lambda att: verify_attestation(att, registry))
    chains = {}
    for cid in ("bc1", "bc2"):
        chain = make_chain(cid, latency=1, semantic=SemanticType.ASSET_REGISTRY)
        chains[cid] = chain
        resolver.register_chain(cid)
        for gid in gateway_ids(cid, 3):
            registry.add(gid)
    entry = confirm_unit(chains["bc1"],
                         make_unit(semantic=SemanticType.ASSET_REGISTRY))
    asset = resolver.mint_cross_id(chains["bc1"], entry.local_ref)
    dest_entry = confirm_unit(chains["bc2"],
                              make_unit(semantic=SemanticType.ASSET_REGISTRY))
    atts = {}
    for cid, e in (("bc1", entry), ("bc2", dest_entry)):
        claim = Claim(cid, str(asset), True, entry_digest(e))
        atts[cid] = vouch(cid, registry, claim, 2, now=5)
    return resolver, registry, asset, atts


class TestRebinding:
    def test_valid_proof_moves_home_and_appends_history(self):
        resolver, _, asset, atts = rebind_fixture()
        pointer = resolver.rebind_authority(asset, "bc1", "bc2",
                                            (atts["bc1"], atts["bc2"]), now=7)
        assert pointer.home_chain == "bc2"
        assert pointer.forwarded_from == "bc1"
        assert resolver.resolve(asset) == pointer
        history = resolver.audit(asset)
        assert [p.home_chain for p in history] == ["bc1", "bc2"]
        assert history[1].forwarded_from == history[0].home_chain, \
            "each hop must forward from the previous home"

    def test_replayed_rebind_is_stale_not_invalid(self):
        resolver, _, asset, atts = rebind_fixture()
        proof = (atts["bc1"], atts["bc2"])
        resolver.rebind_authority(asset, "bc1", "bc2", proof, now=7)
        with pytest.raises(StaleAuthority, match="home is bc2"):
            resolver.rebind_authority(asset, "bc1", "bc2", proof, now=8)

    def test_staleness_is_checked_before_the_proof(self):
        resolver, _, asset, atts = rebind_fixture()
        resolver.rebind_authority(asset, "bc1", "bc2",
                                  (atts["bc1"], atts["bc2"]), now=7)
        with pytest.raises(StaleAuthority):
            resolver.rebind_authority(asset, "bc1", "bc2", "not a proof", now=8)

    def test_swapped_attestations_rejected(self):
        resolver, _, asset, atts = rebind_fixture()
        with pytest.raises(InvalidProof, match="names bc2, expected bc1"):
            resolver.rebind_authority(asset, "bc1", "bc2",
                                      (atts["bc2"], atts["bc1"]), now=7)

    def test_attestation_for_wrong_asset_rejected(self):
        resolver, registry, asset, atts = rebind_fixture()
        other = Claim("bc1", "bc1/" + "B" * 26, True, "0" * 64)
        wrong = vouch("bc1", registry, other, 2, now=5)
        with pytest.raises(InvalidProof, match="different asset"):
            resolver.rebind_authority(asset, "bc1", "bc2",
                                      (wrong, atts["bc2"]), now=7)

    def test_tampered_signature_rejected(self):
        resolver, _, asset, atts = rebind_fixture()
        att = atts["bc1"]
        bad_sigs = tuple((gid, "0" * 64) for gid, _ in att.signatures)
        forged = type(att)(att.claim, att.threshold_k, bad_sigs, att.issued_tick)
        with pytest.raises(InvalidProof, match="failed verification"):
            resolver.rebind_authority(asset, "bc1", "bc2",
                                      (forged, atts["bc2"]), now=7)

    def test_malformed_proof_rejected(self):
        resolver, _, asset, _ = rebind_fixture()
        with pytest.raises(InvalidProof, match="attestation pair"):
            resolver.rebind_authority(asset, "bc1", "bc2", None, now=7)

    def test_unknown_asset_rejected(self):
        resolver, _, _, atts = rebind_fixture()
        ghost = "bc1/" + "C" * 26
        with pytest.raises(NotFound, match="unknown asset"):
            resolver.rebind_authority(ghost, "bc1", "bc2",
                                      (atts["bc1"], atts["bc2"]), now=7)


class TestDump:
    def test_dump_lines_are_sorted_and_show_history(self):
        resolver, _, asset, atts = rebind_fixture()
        resolver.rebind_authority(asset, "bc1", "bc2",
                                  (atts["bc1"], atts["bc2"]), now=7)
        dump = resolver.dump()
        assert [cid for cid, _ in dump] == resolver.assets()
        [fields] = [fields for cid, fields in dump if cid == asset]
        assert fields == (("home", "bc2"), ("history", "->bc1@0;bc1>bc2@7"))

    def test_dump_covers_every_asset(self):
        chain = make_chain(latency=1)
        resolver = fresh_resolver()
        pairs = minted(resolver, chain, 5)
        assert [cid for cid, _ in resolver.dump()] \
            == sorted((cid for _, cid in pairs), key=str)
