"""Release acceptance gate: the eight criteria, one verdict line each.

Every test prints exactly one `[acceptance]` PASS/FAIL line for its
criterion (run with `pytest tests/test_acceptance.py -s` to see all
eight; under capture the lines surface for failures).  The criteria:

  1. fallback reroute: the partitioned-primary app transaction confirms
     on the second candidate chain, exactly 2 attempts, exactly tick 14;
  2. vouched transfer: finalizes, authority moves to the destination,
     the source ledger keeps the lock, the mark, and an attestation, and
     both attestations verify;
  3. safety under faults: 500 seeded runs with random partitions and
     gateway crashes, single-authority and no-lost-asset audits pass in
     100% of runs;
  4. delegated read: no grant fails, valid grant succeeds, expired
     grant fails (exhaustive over the three cases);
  5. connector properties: a failed reservation leaves zero residual
     holds (checked after every failure across 200 random sequences)
     and per-denomination conservation is exact;
  6. determinism: every bundled scenario replays byte-identically and
     replay_diff finds no divergence;
  7. opacity: no node identifier appears in any advertisement or
     resolve transcript of any bundled scenario;
  8. gateway resilience: one crash out of three still finalizes, two
     crashes abort with authority retained at the source.
"""

import random
from fractions import Fraction

from interopsim.chain import (
    ENTRY_KIND_ATTESTATION,
    ENTRY_KIND_LOCK,
    PermissionRegime,
    SemanticType,
)
from interopsim.errors import NoRoute, Overloaded
from interopsim.gateway import verify_attestation
from interopsim.runner import execute, replay_diff
from interopsim.scenario import (
    AssetCfg,
    ChainCfg,
    FaultCfg,
    GrantCfg,
    PeeringCfg,
    ReadCfg,
    ScenarioConfig,
    TransferCfg,
    load_scenario,
)
from interopsim.valuenet import Connector, ValueNetwork

from conftest import BUNDLED_SCENARIOS, SCENARIO_DIR


def _verdict(num: int, label: str, problems: list) -> None:
    """Print the single pass/fail line for a criterion, then assert."""
    status = "FAIL" if problems else "PASS"
    print(f"[acceptance] criterion {num} ({label}): {status}")
    assert not problems, f"criterion {num} ({label}): " + "; ".join(
        str(p) for p in problems[:5])


def _bundled(name: str) -> ScenarioConfig:
    return load_scenario(SCENARIO_DIR / f"{name}.yaml")


# -- criterion 1: fallback reroute -------------------------------------


def test_criterion_1_fallback_reroute():
    report, sim = execute(_bundled("fig2_fallback"))
    problems = []
    out = report.outcomes["app_txns"]["t1"]
    if out["state"] != "CONFIRMED":
        problems.append(f"state {out['state']}, want CONFIRMED")
    if out["attempts"] != 2:
        problems.append(f"{out['attempts']} attempts, want exactly 2")
    if out["tick"] != 14:
        problems.append(f"confirmed at tick {out['tick']}, want exactly 14")
    confirmed_on = [c[0] for c in sim.survivor.audit("t1")["s1"].confirmations]
    if confirmed_on != ["bc2"]:
        problems.append(f"confirmed on {confirmed_on}, want ['bc2']")
    _verdict(1, "fallback reroute", problems)


# -- criterion 2: vouched transfer correctness -------------------------


def test_criterion_2_transfer_correctness():
    report, sim = execute(_bundled("fig4_transfer"))
    problems = []
    out = report.outcomes["transfers"]["x1"]
    if out["state"] != "FINALIZED":
        problems.append(f"state {out['state']}, want FINALIZED")
    cid = sim.assets["deed1"]
    home = sim.resolver.resolve(cid).home_chain
    if home != "bc2":
        problems.append(f"post-run authority {home}, want bc2")
    source_ledger = sim.chains["bc1"].ledger
    kinds = [e.kind for e in source_ledger.entries]
    if ENTRY_KIND_LOCK not in kinds:
        problems.append("no lock entry on the source ledger")
    if ENTRY_KIND_ATTESTATION not in kinds:
        problems.append("no attestation entry on the source ledger")
    mark_targets = [p.home_chain for p in source_ledger.marks.values()]
    if mark_targets != ["bc2"]:
        problems.append(f"source marks point at {mark_targets}, want ['bc2']")
    transfer = sim.transfers.transfers["x1"]
    for side, att in (("source", transfer.source_attestation),
                      ("dest", transfer.dest_attestation)):
        if att is None or not verify_attestation(att, sim.registry):
            problems.append(f"{side} attestation does not verify")
    _verdict(2, "vouched transfer correctness", problems)


# -- criterion 3: safety under randomized faults -----------------------


def _random_fault_config(seed: int) -> ScenarioConfig:
    """Two asset registries, three gateways each, ten concurrent
    transfers, plus seed-dependent partitions and gateway crashes."""
    rng = random.Random(seed)
    regime = PermissionRegime(node_permissioned=True,
                              consensus_permissioned=True)
    chains = [
        ChainCfg(cid, nodes=4, gateways=3, quorum=Fraction(2, 3),
                 confirm_latency=2, semantic=SemanticType.ASSET_REGISTRY,
                 regime=regime, vouch_threshold=2)
        for cid in ("bc1", "bc2")]
    assets, transfers = [], []
    for i in range(10):
        home = "bc1" if i % 2 == 0 else "bc2"
        dest = "bc2" if home == "bc1" else "bc1"
        assets.append(AssetCfg(f"a{i}", home, f"payload-{i}"))
        start = rng.randint(0, 3)
        transfers.append(TransferCfg(
            f"x{i}", at=start, asset=f"a{i}", source=home, dest=dest,
            beneficiary="app_y", deadline=start + rng.randint(15, 22)))
    faults = []
    for cid in rng.sample(["bc1", "bc2"], rng.randint(0, 2)):
        at = rng.randint(0, 12)
        until = None if rng.random() < 0.2 else at + rng.randint(3, 15)
        faults.append(FaultCfg(f"f{len(faults)}", "partition", at,
                               chains=[cid], until=until))
    all_gateways = [f"{c}.g{g}" for c in ("bc1", "bc2") for g in (1, 2, 3)]
    for gid in rng.sample(all_gateways, rng.randint(0, 3)):
        at = rng.randint(0, 12)
        until = None if rng.random() < 0.2 else at + rng.randint(3, 15)
        faults.append(FaultCfg(f"f{len(faults)}", "gateway_crash", at,
                               gateways=[gid], until=until))
    if not faults:
        faults.append(FaultCfg("f0", "partition", 2, chains=["bc1"], until=9))
    return ScenarioConfig(
        name=f"fault-sweep-{seed}", horizon=45, seed=seed,
        chains=chains, assets=assets,
        peerings=[PeeringCfg("pa1", ("bc1", "bc2"),
                             [SemanticType.ASSET_REGISTRY], Fraction(1))],
        transfers=transfers, faults=faults)


def test_criterion_3_safety_under_faults():
    runs = 500
    failures = []
    watched = ("single_authority", "no_lost_assets")
    for seed in range(runs):
        report, _ = execute(_random_fault_config(seed))
        for audit in report.audits:
            if audit.name in watched and not audit.passed:
                failures.append(f"seed {seed}: {audit.name}: {audit.detail}")
    _verdict(3, f"safety audits over {runs} randomized fault runs", failures)


# -- criterion 4: delegated read ---------------------------------------


def test_criterion_4_delegated_read():
    regime = PermissionRegime(user_write_permissioned=True,
                              user_read_permissioned=True)
    config = ScenarioConfig(
        name="delegated-read", horizon=10,
        chains=[ChainCfg("bc1", nodes=3, gateways=1, quorum=Fraction(2, 3),
                         confirm_latency=2,
                         semantic=SemanticType.ASSET_REGISTRY, regime=regime,
                         writers=["alice"], readers=["alice"])],
        assets=[AssetCfg("a1", "bc1", "doc-1")],
        grants=[GrantCfg("g_live", "alice", "bob", "a1", expiry=50),
                GrantCfg("g_old", "alice", "bob", "a1", expiry=3)],
        reads=[ReadCfg("r_none", 5, "a1", "bob"),
               ReadCfg("r_live", 5, "a1", "bob", grant="g_live"),
               ReadCfg("r_old", 5, "a1", "bob", grant="g_old")])
    report, _ = execute(config)
    problems = []
    reads = report.outcomes["reads"]
    if reads["r_none"] != {"state": "ERROR", "error": "GrantMismatch"}:
        problems.append(f"grantless read gave {reads['r_none']}")
    if reads["r_live"].get("state") != "OK":
        problems.append(f"valid grant read gave {reads['r_live']}")
    if reads["r_old"] != {"state": "ERROR", "error": "GrantExpired"}:
        problems.append(f"expired grant read gave {reads['r_old']}")
    _verdict(4, "delegated read, 3 cases", problems)


# -- criterion 5: connector reservation and conservation ---------------


def _payment_network(rng: random.Random) -> ValueNetwork:
    """Three chains, three connectors, seed-dependent modest reserves
    so oversized reservations routinely overload."""
    reserves = [(rng.randint(10, 40), 1) for _ in range(3)]
    connectors = [
        Connector("c1", ("p1", "p2"), {"eur": reserves[0]}, {("usd", "eur"): (5, 4)}),
        Connector("c2", ("p2", "p3"), {"gbp": reserves[1]}, {("eur", "gbp"): (4, 5)}),
        Connector("c3", ("p1", "p3"), {"gbp": reserves[2]}, {("usd", "gbp"): (1, 1)}),
    ]
    return ValueNetwork({"p1": "usd", "p2": "eur", "p3": "gbp"},
                        connectors, reservation_ttl=100)


def test_criterion_5_connector_properties():
    chains = ["p1", "p2", "p3"]
    denom_of = {"p1": "usd", "p2": "eur", "p3": "gbp"}
    problems = []
    total_failed_builds = 0
    for seed in range(200):
        rng = random.Random(seed)
        net = _payment_network(rng)
        initial = {}
        for conn in net.connectors.values():
            for denom, amount in conn.reserves.items():
                initial[denom] = initial.get(denom, Fraction(0)) + Fraction(*amount)
        paid_in: dict[str, Fraction] = {}
        requested: dict[str, Fraction] = {}  # each built path's amount
        next_id = 0

        def conserved() -> list:
            bad = []
            current: dict[str, Fraction] = {}
            for (_, denom), amount in net.reserves.items():
                current[denom] = current.get(denom, Fraction(0)) + Fraction(*amount)
            for path in net.paths.values():  # what the receivers were credited
                if path.state == "SETTLED":
                    current[path.denom_out] = (current.get(path.denom_out, Fraction(0))
                                               + Fraction(*path.hops[-1].amount_out))
            for denom in set(initial) | set(current) | set(paid_in):
                want = initial.get(denom, Fraction(0)) + paid_in.get(denom, Fraction(0))
                if current.get(denom, Fraction(0)) != want:
                    bad.append(f"seed {seed}: {denom} holds {current.get(denom)}, "
                               f"want {want}")
            return bad

        for _ in range(rng.randint(8, 16)):
            open_paths = [pid for pid, p in net.paths.items()
                          if p.state == "RESERVED"]
            op = rng.choice(["build", "build", "settle", "release"])
            if op == "build" or not open_paths:
                src, dst = rng.sample(chains, 2)
                amount = Fraction(rng.randint(1, 70), rng.choice([1, 2, 4]))
                pid = f"s{seed}-p{next_id}"
                next_id += 1
                holds_before = dict(net.holds)
                try:
                    net.build_path(pid, src, dst, amount.as_integer_ratio(),
                                   denom_of[src], denom_of[dst], now=0)
                    requested[pid] = amount
                except (Overloaded, NoRoute):
                    total_failed_builds += 1
                    if net.holds != holds_before:
                        problems.append(
                            f"seed {seed}: failed build of {pid} left "
                            f"residual holds {net.holds}")
                    if pid in net.paths:
                        problems.append(
                            f"seed {seed}: failed build of {pid} registered")
            elif op == "settle":
                pid = rng.choice(open_paths)
                net.settle_path(pid, now=1)
                paid = net.paths[pid]
                paid_in[paid.denom_in] = (paid_in.get(paid.denom_in, Fraction(0))
                                          + requested[pid])
                problems.extend(conserved())
            else:
                net.release_path(rng.choice(open_paths), now=1)
        for pid, path in net.paths.items():
            if path.state == "RESERVED":
                net.release_path(pid, now=2)
        problems.extend(conserved())
        if net.holds:
            problems.append(f"seed {seed}: residual holds after drain "
                            f"{net.holds}")
    if total_failed_builds < 100:
        problems.append(f"only {total_failed_builds} failed builds exercised; "
                        "sweep is not probing the overload path")
    _verdict(5, "connector reservation and conservation", problems)


# -- criterion 6: determinism ------------------------------------------


def test_criterion_6_determinism(tmp_path):
    problems = []
    for name in BUNDLED_SCENARIOS:
        dirs = (tmp_path / f"{name}-a", tmp_path / f"{name}-b")
        for out in dirs:
            execute(_bundled(name), out_dir=out)
        log_a = (dirs[0] / "run.log").read_bytes()
        log_b = (dirs[1] / "run.log").read_bytes()
        if log_a != log_b:
            problems.append(f"{name}: replay logs differ")
        divergence = replay_diff(dirs[0] / "run.log", dirs[1] / "run.log")
        if divergence is not None:
            problems.append(f"{name}: replay_diff reports line "
                            f"{divergence.line_no}")
    _verdict(6, "byte-identical replay of all bundled scenarios", problems)


# -- criterion 7: opacity ----------------------------------------------


def test_criterion_7_opacity():
    import re

    bare_node = re.compile(r"\bn\d+\b")
    problems = []
    for name in BUNDLED_SCENARIOS:
        config = _bundled(name)
        node_ids = [n for c in config.chains for n in c.node_ids()]
        _, sim = execute(config)
        for rec in sim.net.log.records:
            if rec.kind not in ("advert", "resolve", "resolver"):
                continue
            line = rec.line()
            for nid in node_ids:
                if nid in line:
                    problems.append(f"{name}: node id {nid} in {line!r}")
            if bare_node.search(line):
                problems.append(f"{name}: node-shaped token in {line!r}")
    _verdict(7, "no node identifiers in adverts or resolve transcripts",
             problems)


# -- criterion 8: gateway resilience -----------------------------------


def test_criterion_8_gateway_resilience():
    problems = []
    # one crash out of three: the transfer re-pairs and still finalizes
    report, sim = execute(_bundled("gateway_crash"))
    out = report.outcomes["transfers"]["x1"]
    if out["state"] != "FINALIZED":
        problems.append(f"one crash: state {out['state']}, want FINALIZED")
    home = sim.resolver.resolve(sim.assets["deed1"]).home_chain
    if home != "bc2":
        problems.append(f"one crash: authority {home}, want bc2")

    # two crashes drop the source below the 2-of-3 vouch threshold
    config = _bundled("gateway_crash")
    config.faults.append(FaultCfg("f2", "gateway_crash", 6,
                                  gateways=["bc1.g2"]))
    report, sim = execute(config)
    out = report.outcomes["transfers"]["x1"]
    if out["state"] != "ABORTED":
        problems.append(f"two crashes: state {out['state']}, want ABORTED")
    home = sim.resolver.resolve(sim.assets["deed1"]).home_chain
    if home != "bc1":
        problems.append(f"two crashes: authority {home}, want bc1 (source)")
    _verdict(8, "gateway resilience at the 2-of-3 threshold", problems)
