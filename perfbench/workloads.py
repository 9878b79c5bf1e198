"""Seeded generators of raw scenario mappings for the benchmark workloads.

Each generator returns the mapping a scenario YAML file would load to
(only str, int, list and dict values), so feeding it through
``parse_scenario`` puts validation cost where a user pays it.  The same
seed always gives the same mapping.

Workloads, and why each was chosen:

* ``dense`` -- the ROADMAP dense world: ten all-to-all peered chains,
  ``n`` assets that each transfer once, ``n`` app transactions and one
  short partition per chain.  Loads gateway, survivor, identity and,
  above all, the audits, whose cost grows faster than the workload.
* ``sparse`` -- ten chains, one app transaction at tick 0 and one
  transfer near the end of a long horizon.  Almost every tick is idle,
  so it isolates the per-tick cost of the engine loop and consensus;
  gains in audit, gateway or valuenet should not move it.
* ``payments`` -- a ring-with-chords connector mesh of twelve payments
  chains.  Payments settle, release, expire or are rejected as
  Overloaded; delegated reads (some with a mismatched grant), resolves
  and probes load the read side of gateway and identity.  No transfers.
* ``fault_sweep`` -- a batch of the acceptance criterion-3 worlds (two
  chains, ten transfers, random partitions and gateway crashes).  The
  only workload that reaches the gateway fault path (re-pairing and
  vouch retries), and the one where set-up is the largest share.
"""

from __future__ import annotations

import random

DENSE_N = 500
DENSE_CHAINS = 10
SPARSE_HORIZON = 6000
SPARSE_CHAINS = 10
PAYMENT_CHAINS = 12
PAYMENTS = 1500
PAYMENT_TTL = 30
FAULT_SWEEP_BATCH = 500


def _asset_chain(chain_id: str, nodes: int, gateways: int, **extra) -> dict:
    chain = {"id": chain_id, "nodes": nodes, "gateways": gateways,
             "quorum": "2/3", "confirm_latency": 2,
             "semantic": "asset-registry"}
    chain.update(extra)
    return chain


def _all_to_all_peerings(chain_ids: list[str]) -> list[dict]:
    return [{"id": f"pa-{a}-{b}", "chains": [a, b],
             "semantics": ["asset-registry"], "fee": "1"}
            for i, a in enumerate(chain_ids) for b in chain_ids[i + 1:]]


def dense(seed: int, n: int = DENSE_N) -> dict:
    rng = random.Random(seed)
    chains = [f"bc{i}" for i in range(DENSE_CHAINS)]
    assets, transfers = [], []
    for i in range(n):
        home, dest = rng.sample(chains, 2)
        at = rng.randrange(n)
        assets.append({"id": f"a{i}", "chain": home, "payload": f"deed-{i}"})
        transfers.append({"id": f"x{i}", "at": at, "asset": f"a{i}",
                          "from": home, "to": dest, "beneficiary": "app_y",
                          "deadline": at + 30})
    app_txns = [{"id": f"t{i}", "at": rng.randrange(n), "app": "app_x",
                 "subs": [{"id": "s1", "candidates": rng.sample(chains, 2),
                           "payload": f"rec-{i}"}]}
                for i in range(n)]
    faults = []
    for cid in chains:
        at = rng.randrange(n)
        faults.append({"id": f"f-{cid}", "kind": "partition", "at": at,
                       "until": at + rng.randint(2, 10), "chains": [cid]})
    return {"horizon": 2 * n, "seed": seed,
            "chains": [_asset_chain(c, 5, 3) for c in chains],
            "peerings": _all_to_all_peerings(chains),
            "assets": assets, "transfers": transfers,
            "app_txns": app_txns, "faults": faults}


def sparse(seed: int, horizon: int = SPARSE_HORIZON) -> dict:
    rng = random.Random(seed)
    chains = [f"bc{i}" for i in range(SPARSE_CHAINS)]
    home, dest, first, second = rng.sample(chains, 4)
    at = horizon - 40 + rng.randint(0, 5)
    return {"horizon": horizon, "seed": seed,
            "chains": [_asset_chain(c, 4, 3) for c in chains],
            "peerings": [{"id": "pa1", "chains": [home, dest],
                          "semantics": ["asset-registry"], "fee": "1"}],
            "assets": [{"id": "a0", "chain": home, "payload": "deed-0"}],
            "app_txns": [{"id": "t0", "at": 0,
                          "subs": [{"id": "s1", "candidates": [first, second]}]}],
            "transfers": [{"id": "x0", "at": at, "asset": "a0", "from": home,
                           "to": dest, "beneficiary": "app_y",
                           "deadline": at + 30}]}


def _rate(rng: random.Random) -> tuple[str, str]:
    """A rate and its exact inverse, so round trips conserve value."""
    num, den = rng.choice([(1, 1), (5, 4), (4, 3), (3, 2), (6, 5)])
    if rng.random() < 0.5:
        num, den = den, num
    return f"{num}/{den}", f"{den}/{num}"


def payments(seed: int, count: int = PAYMENTS) -> dict:
    rng = random.Random(seed)
    ids = [f"pay{i}" for i in range(PAYMENT_CHAINS)]
    denom = {cid: f"d{i}" for i, cid in enumerate(ids)}
    chains = [{"id": cid, "nodes": 3, "gateways": 2, "quorum": "2/3",
               "confirm_latency": 2, "semantic": "payments",
               "denom": denom[cid]} for cid in ids]
    # ring plus chords: every chain is at most three hops from any other
    edges = [(i, (i + 1) % PAYMENT_CHAINS) for i in range(PAYMENT_CHAINS)]
    edges += [(i, (i + 4) % PAYMENT_CHAINS) for i in range(0, PAYMENT_CHAINS, 2)]
    connectors = []
    for k, (i, j) in enumerate(edges):
        a, b = ids[i], ids[j]
        forward, backward = _rate(rng)
        connectors.append({
            "id": f"c{k:02d}", "chains": [a, b],
            "reserves": {denom[a]: str(rng.randint(150, 300)),
                         denom[b]: str(rng.randint(150, 300))},
            "rates": [{"from": denom[a], "to": denom[b], "rate": forward},
                      {"from": denom[b], "to": denom[a], "rate": backward}]})
    window = count // 5
    pays = []
    for i in range(count):
        src, dst = rng.sample(ids, 2)
        pay = {"id": f"p{i}", "at": rng.randrange(window), "from": src,
               "to": dst, "amount": str(rng.randint(5, 60)),
               "denom_in": denom[src], "denom_out": denom[dst]}
        mode = rng.random()
        if mode < 0.45:
            pay["settle_after"] = rng.randint(1, 6)
        elif mode < 0.7:
            pay["release_after"] = rng.randint(1, 6)
        pays.append(pay)
    assets = [{"id": f"doc{i}", "chain": ids[i % PAYMENT_CHAINS],
               "payload": f"doc-{i}"} for i in range(2 * PAYMENT_CHAINS)]
    grants = [{"id": f"g{i}", "grantor": "owner", "grantee": f"user{i}",
               "asset": a["id"], "expiry": window + PAYMENT_TTL}
              for i, a in enumerate(assets)]
    reads = []
    for i in range(count // 5):
        k = rng.randrange(len(assets))
        # one read in five presents another asset's grant: GrantMismatch
        g = (k + 1) % len(assets) if rng.random() < 0.2 else k
        reads.append({"id": f"r{i}", "at": rng.randrange(window),
                      "asset": assets[k]["id"], "requester": f"user{k}",
                      "grant": f"g{g}"})
    resolves = [{"id": f"q{i}", "at": rng.randrange(window),
                 "asset": rng.choice(assets)["id"]} for i in range(count // 5)]
    probes = [{"id": f"pr{i}", "at": rng.randrange(window),
               "chain": rng.choice(ids)} for i in range(count // 20)]
    return {"horizon": window + PAYMENT_TTL + 10, "seed": seed,
            "valuenet": {"reservation_ttl": PAYMENT_TTL},
            "chains": chains, "connectors": connectors, "payments": pays,
            "assets": assets, "grants": grants, "reads": reads,
            "resolves": resolves, "probes": probes}


def fault_world(seed: int) -> dict:
    """One criterion-3 world: two asset registries with three gateways
    each, ten concurrent transfers, seed-dependent partitions and gateway
    crashes.  Draws from the RNG in the acceptance test's order, so a
    seed gives the same world as that test."""
    rng = random.Random(seed)
    regime = {"node": True, "consensus": True}
    chains = [_asset_chain(cid, 4, 3, regime=regime, vouch_threshold=2)
              for cid in ("bc1", "bc2")]
    assets, transfers = [], []
    for i in range(10):
        home = "bc1" if i % 2 == 0 else "bc2"
        dest = "bc2" if home == "bc1" else "bc1"
        assets.append({"id": f"a{i}", "chain": home, "payload": f"payload-{i}"})
        start = rng.randint(0, 3)
        transfers.append({"id": f"x{i}", "at": start, "asset": f"a{i}",
                          "from": home, "to": dest, "beneficiary": "app_y",
                          "deadline": start + rng.randint(15, 22)})
    faults = []

    def fault(kind: str, key: str, target: str) -> None:
        at = rng.randint(0, 12)
        until = None if rng.random() < 0.2 else at + rng.randint(3, 15)
        item = {"id": f"f{len(faults)}", "kind": kind, "at": at, key: [target]}
        if until is not None:
            item["until"] = until
        faults.append(item)

    for cid in rng.sample(["bc1", "bc2"], rng.randint(0, 2)):
        fault("partition", "chains", cid)
    all_gateways = [f"{c}.g{g}" for c in ("bc1", "bc2") for g in (1, 2, 3)]
    for gid in rng.sample(all_gateways, rng.randint(0, 3)):
        fault("gateway_crash", "gateways", gid)
    if not faults:
        faults.append({"id": "f0", "kind": "partition", "at": 2, "until": 9,
                       "chains": ["bc1"]})
    return {"horizon": 45, "seed": seed, "chains": chains, "assets": assets,
            "peerings": [{"id": "pa1", "chains": ["bc1", "bc2"],
                          "semantics": ["asset-registry"], "fee": "1"}],
            "transfers": transfers, "faults": faults}


def fault_sweep(seed: int, size: int = FAULT_SWEEP_BATCH) -> list[dict]:
    """A batch of criterion-3 worlds; seed 0 gives the acceptance
    test's seeds 0..499."""
    return [fault_world(s) for s in range(seed * size, (seed + 1) * size)]


GENERATORS = {"dense": dense, "sparse": sparse, "payments": payments,
              "fault_sweep": fault_sweep}


def generate(name: str, seed: int) -> list[dict]:
    """The workload as a list of raw scenario mappings (one, except for
    fault_sweep)."""
    batch = GENERATORS[name](seed)
    return batch if isinstance(batch, list) else [batch]
