"""Deterministic simulator and protocol library for gateway-mediated
blockchain interoperability: autonomous chain systems, identifier
masking and resolution, vouched cross-domain transfers, a connector
value network, and a timeout-driven survivability layer."""

from .chain import (
    BlockchainSystem,
    ChainStatus,
    Directionality,
    LedgerEntry,
    PermissionRegime,
    SemanticType,
    TransferUnit,
)
from .engine import Simulation
from .gateway import (
    CrossDomainTransfer,
    DelegationGrant,
    GatewayRegistry,
    PeeringAgreement,
    ReachabilityAdvertisement,
    TransferState,
    VouchAttestation,
    advertise,
    mediated_read,
    verify_attestation,
    vouch,
)
from .identity import AuthoritativePointer, Resolver
from .report import AuditResult, RunReport
from .runner import execute, replay_diff
from .scenario import ScenarioConfig, load_scenario, parse_scenario
from .simnet import EventLog, SimNet
from .survivor import AppTransaction, OutcomeRecord, SubTxn, SurvivorLayer
from .valuenet import Connector, PathState, PaymentPath, ValueNetwork

__version__ = "0.1.0"
