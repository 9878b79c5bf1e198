"""Shared fixtures: small hand-built worlds plus bundled scenario access.

The builders here construct protocol objects directly (no YAML, no
engine) so unit tests can drive one module at a time.  Integration
tests load the bundled scenario files instead.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from interopsim.chain import (
    BlockchainSystem,
    Directionality,
    PermissionRegime,
    SemanticType,
    TransferUnit,
    gateway_ids,
    node_ids,
)
from interopsim.gateway import (
    GatewayRegistry,
    PeeringAgreement,
    PeeringRegistry,
    TransferEngine,
    verify_attestation,
)
from interopsim.engine import run_tick, schedule_faults
from interopsim.identity import Resolver
from interopsim.scenario import load_scenario
from interopsim.simnet import SimNet
from interopsim.survivor import SurvivorLayer
from interopsim.valuenet import ValueNetwork

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
GOLDEN_DIR = REPO_ROOT / "goldens"

BUNDLED_SCENARIOS = [
    "fig2_fallback",
    "fig4_transfer",
    "ilp_path",
    "gateway_crash",
    "abort_partition",
    "round_trip",
    "cut_heal",
]


@pytest.fixture
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


def bundled(name: str):
    """Load a bundled scenario config by stem name."""
    return load_scenario(SCENARIO_DIR / f"{name}.yaml")


def make_chain(chain_id="bc1", nodes=4, quorum="2/3", latency=3,
               semantic=SemanticType.GENERIC_RECORD, regime=None,
               writers=(), readers=()):
    """One chain with bc style node ids, open regime by default."""
    regime = regime or PermissionRegime()
    return BlockchainSystem(chain_id, node_ids(chain_id, nodes), regime,
                            Fraction(quorum), latency, semantic,
                            writers=set(writers), readers=set(readers))


def make_unit(key="k1", semantic=SemanticType.GENERIC_RECORD, peer=None,
              digest="d1"):
    direction = Directionality.BI if peer else Directionality.UNI
    return TransferUnit(digest, semantic, direction, key, peer)


def confirm_unit(chain, unit, credential="anon", submit_tick=0):
    """Submit and hand-run consensus until the unit confirms; returns
    the ledger entry."""
    receipt = chain.submit(unit, credential, submit_tick)
    entry = None
    tick = submit_tick
    while entry is None:
        tick += 1
        for e in chain.advance_consensus(tick):
            if e.local_ref == receipt.local_ref:
                entry = e
        assert tick < submit_tick + 10 * chain.confirm_latency_ticks, \
            "unit never confirmed"
    return entry


class TransferWorld:
    """Two asset-registry chains joined by a peering, with a seeded
    asset and a transfer engine, driven tick by tick through the
    engine's run_tick with an empty survivor layer and value network;
    its faults take the engine's fault path, schedule_faults."""

    def __init__(self, seed=1, gateways=3, latency=3, threshold=2,
                 inter_chain_latency=2, fee="2"):
        self.net = SimNet(seed, inter_chain_latency, latency_jitter=0)
        self.registry = GatewayRegistry()
        self.resolver = Resolver(
            self.net.rng, lambda att: verify_attestation(att, self.registry))
        self.peerings = PeeringRegistry()
        self.chains = {}
        for cid in ("bc1", "bc2"):
            chain = make_chain(cid, nodes=4, latency=latency,
                               semantic=SemanticType.ASSET_REGISTRY)
            self.chains[cid] = chain
            self.resolver.register_chain(cid)
            for gid in gateway_ids(cid, gateways):
                self.registry.add(gid)
        self.peerings.establish(PeeringAgreement(
            "pa1", "bc1", "bc2", frozenset({SemanticType.ASSET_REGISTRY}),
            Fraction(fee)))
        self.engine = TransferEngine(
            self.net, self.chains, self.registry, self.resolver,
            self.peerings, {"bc1": threshold, "bc2": threshold})
        self.survivor = SurvivorLayer(self.net, self.chains)
        self.valuenet = ValueNetwork({}, [], reservation_ttl=50)

    def seed_asset(self, chain_id="bc1", key="genesis:deed1"):
        chain = self.chains[chain_id]
        unit = make_unit(key, SemanticType.ASSET_REGISTRY, digest="deed")
        entry = chain.append_genesis(unit)
        return self.resolver.mint_cross_id(chain, entry.local_ref, 0)

    def schedule_faults(self, *faults):
        """Queue faults, each a FaultCfg, on the engine's fault path."""
        schedule_faults(self.net, self.chains, self.registry, list(faults))

    def run_until(self, end_tick):
        """Run every tick from the clock's current one to end_tick."""
        for tick in range(self.net.now, end_tick + 1):
            run_tick(self.net, self.chains, self.survivor, self.engine,
                     self.valuenet, tick)


@pytest.fixture
def transfer_world():
    return TransferWorld()
