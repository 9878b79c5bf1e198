"""Seeded whole-system worlds for property tests.

world(seed) returns a raw scenario mapping, the input parse_scenario
reads, so a world exercises the schema as well as the simulator.  Each
world mixes what the transfer step phase and the fault path have to
get right together:
  * 2-4 asset-registry chains, all pairs peered, with mixed sizes,
    quorums, latencies and vouch thresholds;
  * latency jitter on the inter-chain links;
  * assets that move in chains of transfers, some of which come back
    to the chain they started from, with deadlines short and long;
  * partitions of chains and cuts of links, node crashes and gateway
    crashes, each with or without an until, and heals that name earlier
    faults;
  * app transactions, resolves and probes that run while all that
    happens;
  * in about half the worlds, a value network: 2-4 payments chains,
    some sharing a denomination, joined by connectors that quote each
    rate one way or both ways, and payments that settle, settle too
    late, release, expire, overload a connector or find no route.

The same seed always gives the same mapping.  Most worlds are valid;
a world the schema rejects is a valid outcome of a property that draws
from here.
"""

import random

from interopsim.chain import gateway_ids, node_ids


def world(seed: int) -> dict:
    rng = random.Random(seed)
    horizon = rng.randint(30, 70)
    chain_ids = [f"bc{i}" for i in range(1, rng.randint(2, 4) + 1)]
    chains = []
    for cid in chain_ids:
        chain = {"id": cid, "nodes": rng.randint(3, 5), "gateways": rng.randint(1, 4),
                 "quorum": rng.choice(["1/2", "2/3", "3/4"]),
                 "confirm_latency": rng.randint(1, 3), "semantic": "asset-registry"}
        if rng.random() < 0.5:
            chain["vouch_threshold"] = rng.randint(1, chain["gateways"])
        chains.append(chain)
    peerings = [{"chains": [a, b], "semantics": ["asset-registry"],
                 "fee": str(rng.randint(0, 3))}
                for i, a in enumerate(chain_ids) for b in chain_ids[i + 1:]]
    assets, transfers = [], []
    for i in range(rng.randint(1, 3)):
        home = rng.choice(chain_ids)
        assets.append({"id": f"a{i}", "chain": home})
        transfers += _moves(rng, f"a{i}", home, chain_ids, horizon, len(transfers))
    scenario = {
        "horizon": horizon, "seed": rng.randint(0, 999),
        "links": {"inter_chain_latency": rng.randint(1, 3),
                  "latency_jitter": rng.choice([0, 0, 1, 3])},
        "chains": chains, "assets": assets, "peerings": peerings,
        "app_txns": [{"id": f"t{i}", "at": rng.randint(0, horizon),
                      "subs": [{"candidates": rng.sample(chain_ids, rng.randint(1, 2)),
                                "timeout": rng.randint(2, 8)}]}
                     for i in range(rng.randint(0, 4))],
        "transfers": transfers,
        "faults": _faults(rng, chains, horizon),
        "resolves": [{"at": rng.randint(0, horizon), "asset": a["id"]}
                     for a in rng.sample(assets, rng.randint(0, len(assets)))],
        "probes": [{"at": rng.randint(0, horizon), "chain": rng.choice(chain_ids)}
                   for _ in range(rng.randint(0, 2))],
    }
    # drawn last, so the rest of a world does not depend on whether it
    # has a value network
    if rng.random() < 0.5:
        _value_network(rng, scenario)
    return scenario


def _moves(rng, asset, home, chain_ids, horizon, first):
    """Transfers that move asset hop by hop, each starting after the last
    one's deadline or, now and then, while it is still open; about one
    world in three sends the asset home on its last hop."""
    out, at, here = [], rng.randint(0, 6), home
    for n in range(rng.randint(1, 3)):
        deadline = at + rng.randint(4, 20)
        if deadline >= horizon:
            break
        if n and here != home and rng.random() < 0.35:
            dest = home
        else:
            dest = rng.choice([c for c in chain_ids if c != here])
        out.append({"id": f"x{first + len(out)}", "at": at, "asset": asset,
                    "from": here, "to": dest, "deadline": deadline})
        here = dest
        at = deadline + 1 if rng.random() < 0.8 else at + rng.randint(1, 4)
    return out


def _faults(rng, chains, horizon):
    """Faults of every kind, some with an until, then heals of some of
    them."""
    chain_ids = [c["id"] for c in chains]
    faults = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(["partition", "link_cut", "node_crash", "gateway_crash"])
        at = rng.randint(0, horizon - 1)
        fault = {"id": f"f{len(faults) + 1}", "kind": kind, "at": at}
        if kind == "partition":
            fault["chains"] = rng.sample(chain_ids, 1)
        elif kind == "link_cut":
            fault.update(kind="partition", links=[rng.sample(chain_ids, 2)])
        elif kind == "node_crash":
            chain = rng.choice(chains)
            fault["nodes"] = rng.sample(node_ids(chain["id"], chain["nodes"]),
                                        rng.randint(1, 2))
        else:
            fault["gateways"] = [rng.choice(gateway_ids(c["id"], c["gateways"]))
                                 for c in rng.sample(chains, rng.randint(1, 2))]
        if rng.random() < 0.6:
            fault["until"] = rng.randint(at + 1, horizon)
        faults.append(fault)
    for fault in list(faults):
        if rng.random() < 0.3:
            faults.append({"id": f"h{len(faults) + 1}", "kind": "heal",
                           "at": rng.randint(fault["at"], horizon),
                           "faults": [fault["id"]]})
    return faults


def _value_network(rng, scenario):
    """Add payments chains, connectors and payments to scenario.  Small
    reserves and a short reservation ttl make overloads and expiries
    common; a rate quoted one way only leaves some pairs unroutable."""
    horizon = scenario["horizon"]
    ids = [f"pay{i}" for i in range(1, rng.randint(2, 4) + 1)]
    denom = {cid: rng.choice(["usd", "eur", "gbp"]) for cid in ids}
    scenario["chains"] += [
        {"id": cid, "nodes": 3, "gateways": rng.randint(1, 2), "quorum": "2/3",
         "confirm_latency": rng.randint(1, 3), "semantic": "payments",
         "denom": denom[cid]} for cid in ids]
    connectors = []
    for k in range(rng.randint(1, 4)):
        adjacent = rng.sample(ids, rng.randint(2, min(3, len(ids))))
        rates = {}
        for i, a in enumerate(adjacent):
            for b in adjacent[i + 1:]:
                pairs = [(a, b), (b, a)] if rng.random() < 0.5 else [rng.choice([(a, b), (b, a)])]
                for x, y in pairs:
                    rates[denom[x], denom[y]] = rng.choice(["1", "5/4", "4/5", "3/2"])
        connectors.append({
            "id": f"c{k}", "chains": adjacent,
            "reserves": {denom[c]: str(rng.randint(10, 80)) for c in adjacent},
            "rates": [{"from": x, "to": y, "rate": r} for (x, y), r in rates.items()]})
    ttl = rng.randint(2, 12)
    payments = []
    for i in range(rng.randint(1, 6)):
        src, dst = rng.sample(ids, 2)
        pay = {"id": f"p{i}", "at": rng.randint(0, horizon - 1), "from": src, "to": dst,
               "amount": str(rng.randint(1, 40)),
               "denom_in": denom[src], "denom_out": denom[dst]}
        mode = rng.random()
        if mode < 0.4:
            pay["settle_after"] = rng.randint(1, ttl + 3)
        elif mode < 0.7:
            pay["release_after"] = rng.randint(1, ttl + 3)
        payments.append(pay)
    scenario.update(valuenet={"reservation_ttl": ttl}, connectors=connectors,
                    payments=payments)
