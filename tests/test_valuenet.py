"""Value network tests: routing against a brute-force oracle, exact
rational amounts, atomic reservation, settlement conservation, expiry."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bundled
from interopsim import valuenet
from interopsim.engine import Simulation
from interopsim.scenario import MAX_DIGITS, parse_scenario
from interopsim.errors import AlreadyTerminal, NoRoute, Overloaded, PathExpired
from interopsim.valuenet import Connector, Hop, PathState, ValueNetwork


def F(x):
    return Fraction(x)


def V(x):
    """x as the network holds it: (numerator, denominator), reduced."""
    return Fraction(x).as_integer_ratio()


def available(net, connector_id, denom):
    """What (connector_id, denom) can still hold: its live reserve less
    its open hold, both read from the network's tables."""
    key = (connector_id, denom)
    return Fraction(*net.reserves.get(key, (0, 1))) - Fraction(*net.holds.get(key, (0, 1)))


def linear_network(ttl=50):
    """pay1(usd) -c1- pay2(eur) -c2- pay3(gbp), as in the bundled
    ilp_path scenario."""
    denoms = {"pay1": "usd", "pay2": "eur", "pay3": "gbp"}
    connectors = [
        Connector("c1", ("pay1", "pay2"),
                  {"eur": V(100)}, {("usd", "eur"): V("5/4")}),
        Connector("c2", ("pay2", "pay3"),
                  {"gbp": V(50)}, {("eur", "gbp"): V("4/5")}),
    ]
    return ValueNetwork(denoms, connectors, reservation_ttl=ttl)


def brute_force_route(net, sender, receiver):
    """Oracle: enumerate every simple path whose hops all quote the
    needed rate; return the (hops, conn_seq, chain_seq) minimum."""
    if sender == receiver:
        return None
    if sender not in net.chain_denoms or receiver not in net.chain_denoms:
        return None
    best = None

    def walk(chain, visited, conn_seq, chain_seq, path):
        nonlocal best
        if chain == receiver:
            key = (len(path), conn_seq, chain_seq)
            if best is None or key < best[0]:
                best = (key, list(path))
            return
        for cid in sorted(net.connectors):
            conn = net.connectors[cid]
            if chain not in conn.adjacent_chains:
                continue
            for nxt in sorted(conn.adjacent_chains):
                if nxt in visited:
                    continue
                if nxt not in net.chain_denoms:
                    continue
                if conn.rate(net.chain_denoms[chain],
                             net.chain_denoms[nxt]) is None:
                    continue
                walk(nxt, visited | {nxt}, conn_seq + (cid,),
                     chain_seq + (nxt,), path + [(cid, nxt)])

    walk(sender, {sender}, (), (sender,), [])
    return best[1] if best else None


def random_network(seed):
    """3-5 chains and 2-5 connectors, each adjacent to a random subset
    of the chains and quoting each rate with probability 0.6."""
    rng = random.Random(seed)
    chains = [f"p{i}" for i in range(rng.randint(3, 5))]
    denoms = {c: f"d{c}" for c in chains}
    connectors = []
    for i in range(rng.randint(2, 5)):
        adj = tuple(sorted(rng.sample(chains, rng.randint(2, len(chains)))))
        rates = {}
        for x in adj:
            for y in adj:
                if x != y and rng.random() < 0.6:
                    rates[(denoms[x], denoms[y])] = V(1)
        reserves = {denoms[c]: V(1000) for c in adj}
        connectors.append(Connector(f"c{i}", adj, reserves, rates))
    return ValueNetwork(denoms, connectors, reservation_ttl=50), chains


def diamond_network():
    """Two 2-hop routes a->b->d (via cw, cx) and a->c->d (via cy, cz),
    each quoted both ways, with 10 of every denomination in reserve."""
    denoms = {"a": "da", "b": "db", "c": "dc", "d": "dd"}
    connectors = [
        Connector(cid, (x, y), {denoms[x]: V(10), denoms[y]: V(10)},
                  {(denoms[x], denoms[y]): V(1), (denoms[y], denoms[x]): V(1)})
        for cid, x, y in (("cw", "a", "b"), ("cx", "b", "d"),
                          ("cy", "a", "c"), ("cz", "c", "d"))]
    return ValueNetwork(denoms, connectors, reservation_ttl=50)


def counting(method, ops, kind):
    def counted(*args):
        ops[kind] += 1
        return method(*args)
    return counted


def count_fraction_use(monkeypatch):
    """Counts, until monkeypatch is undone, of Fraction constructions
    (new), numerator and denominator reads (read) and calls of Fraction's
    arithmetic and comparison operators (operator)."""
    ops = {"new": 0, "read": 0, "operator": 0}
    monkeypatch.setattr(Fraction, "__new__", counting(Fraction.__new__, ops, "new"))
    for name in ("numerator", "denominator"):
        monkeypatch.setattr(Fraction, name, property(
            counting(getattr(Fraction, name).fget, ops, "read")))
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                 "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__bool__"):
        monkeypatch.setattr(Fraction, name, counting(getattr(Fraction, name), ops, "operator"))
    return ops


def reference_conservation(net):
    """conservation_errors as one Fraction operation per term."""
    delta, settled = {}, {}
    for c in net.connectors.values():
        for denom, amount in c.reserves.items():
            delta[denom] = delta.get(denom, F(0)) - Fraction(*amount)
    for (_, denom), amount in net.reserves.items():
        delta[denom] = delta.get(denom, F(0)) + Fraction(*amount)
    for h in (h for p in net.paths.values() if p.state == PathState.SETTLED for h in p.hops):
        settled[h.denom_in] = settled.get(h.denom_in, F(0)) + Fraction(*h.amount_in)
        settled[h.denom_out] = settled.get(h.denom_out, F(0)) - Fraction(*h.amount_out)
    return [f"{d}: reserve delta {delta[d]} != settled net {settled.get(d, F(0))}"
            for d in sorted(delta) if delta[d] != settled.get(d, F(0))]


def all_routes(net):
    return {(s, r): net.route(s, r) for s in net.chain_denoms for r in net.chain_denoms}


class TestRouting:
    def test_direct_hop(self):
        net = linear_network()
        assert net.route("pay1", "pay2") == [("c1", "pay2")]

    def test_two_hop_chain(self):
        net = linear_network()
        assert net.route("pay1", "pay3") == [("c1", "pay2"), ("c2", "pay3")]

    def test_no_reverse_rate_means_no_route(self):
        net = linear_network()
        assert net.route("pay2", "pay1") is None, \
            "c1 quotes usd->eur only, the reverse edge must not exist"

    def test_diamond_tie_breaks_on_connector_sequence(self):
        denoms = {"a": "da", "b": "db", "c": "dc", "d": "dd"}
        mk = lambda cid, pair, rin, rout: Connector(
            cid, pair, {rout[1]: V(1000)}, {(rin, rout[1]): V(1)}
        )
        # two 2-hop routes a->b->d (via cw, cx) and a->c->d (via cy, cz)
        connectors = [
            Connector("cw", ("a", "b"), {"db": V(10)}, {("da", "db"): V(1)}),
            Connector("cx", ("b", "d"), {"dd": V(10)}, {("db", "dd"): V(1)}),
            Connector("cy", ("a", "c"), {"dc": V(10)}, {("da", "dc"): V(1)}),
            Connector("cz", ("c", "d"), {"dd": V(10)}, {("dc", "dd"): V(1)}),
        ]
        net = ValueNetwork(denoms, connectors, reservation_ttl=50)
        assert net.route("a", "d") == [("cw", "b"), ("cx", "d")], \
            "(cw, cx) sorts before (cy, cz), so the b branch wins"

    def test_fewest_hops_beats_smaller_connector_ids(self):
        denoms = {"a": "da", "b": "db", "d": "dd"}
        connectors = [
            Connector("c1", ("a", "b"), {"db": V(10)}, {("da", "db"): V(1)}),
            Connector("c2", ("b", "d"), {"dd": V(10)}, {("db", "dd"): V(1)}),
            Connector("c9", ("a", "d"), {"dd": V(10)}, {("da", "dd"): V(1)}),
        ]
        net = ValueNetwork(denoms, connectors, reservation_ttl=50)
        assert net.route("a", "d") == [("c9", "d")], \
            "one hop via c9 beats two hops via c1, c2"

    def test_route_matches_brute_force_on_random_graphs(self):
        for seed in range(60):
            net, chains = random_network(seed)
            for src in chains:
                for dst in chains:
                    if src == dst:
                        continue
                    got = net.route(src, dst)
                    want = brute_force_route(net, src, dst)
                    assert got == want, (
                        f"seed {seed}: route {src}->{dst} gave {got}, "
                        f"oracle says {want}")


class TestRoutingTable:
    def test_routes_do_not_move_with_reserves(self):
        fresh = all_routes(diamond_network())
        net = diamond_network()
        assert all_routes(net) == fresh
        # drain cw's db: a->b->d stays the route, and the build overloads
        net.build_path("p1", "a", "b", V(10), "da", "db", 0)
        net.settle_path("p1", 1)
        with pytest.raises(Overloaded, match="cw cannot cover"):
            net.build_path("p2", "a", "d", V(1), "da", "dd", 2)
        net.build_path("p3", "d", "a", V(4), "dd", "da", 2)
        net.release_path("p3", 3)
        assert all_routes(net) == fresh
        later = diamond_network()
        later.build_path("p1", "a", "b", V(10), "da", "db", 0)
        later.settle_path("p1", 1)
        assert all_routes(later) == fresh, \
            "a table filled after reserves moved must give the same routes"

    def test_each_sender_is_searched_once_per_network(self, monkeypatch):
        searched = []
        search = ValueNetwork._search

        def counting_search(net, sender):
            searched.append((id(net), sender))
            return search(net, sender)

        monkeypatch.setattr(ValueNetwork, "_search", counting_search)
        net = diamond_network()
        for _ in range(2):
            all_routes(net)
            net.build_path(f"p{len(net.paths)}", "a", "d", V(1), "da", "dd", 0)
        assert sorted(s for _, s in searched) == ["a", "b", "c", "d"]
        other = diamond_network()
        other.route("a", "d")
        assert searched[-1] == (id(other), "a"), \
            "a second network keeps a table of its own"

    def test_one_search_matches_brute_force_for_every_receiver(self):
        for seed in range(60):
            net, chains = random_network(seed)
            src = chains[seed % len(chains)]
            want = {dst: brute_force_route(net, src, dst) for dst in chains}
            table = net._search(src)
            assert table == {dst: r for dst, r in want.items() if r is not None}, \
                f"seed {seed}: table from {src} disagrees with the oracle"


class TestReservation:
    def test_amounts_are_exact_rationals(self):
        net = linear_network()
        path = net.build_path("p1", "pay1", "pay2", V(20), "usd", "eur", 0)
        assert path.amount_out == "25" and path.hops[-1].amount_out == V(25)
        assert path.hops[0].amount_in == V(20)
        assert available(net, "c1", "eur") == F(75)

    def test_two_hop_compounding_is_exact(self):
        net = linear_network()
        path = net.build_path("p1", "pay1", "pay3", V(8), "usd", "gbp", 0)
        assert [h.amount_out for h in path.hops] == [V(10), V(8)], \
            "8 usd -> 10 eur -> 8 gbp with exact rationals"
        assert path.hops == (Hop("c1", "usd", "eur", V(8), V(10)),
                             Hop("c2", "eur", "gbp", V(10), V(8)))
        assert all(type(h) is Hop for h in path.hops)
        assert path.amount_out == "8" and path.denom_out == "gbp"

    def test_fractional_amounts_never_round(self):
        net = linear_network()
        path = net.build_path("p1", "pay1", "pay2", V("1/3"), "usd", "eur", 0)
        assert path.hops[-1].amount_out == V("5/12")
        assert path.amount_out == str(Fraction(*path.hops[-1].amount_out)) == "5/12"

    def test_overload_rejects_without_residue(self):
        net = linear_network()
        before = dict(net.holds)
        with pytest.raises(Overloaded, match="c1 cannot cover"):
            net.build_path("p1", "pay1", "pay2", V(200), "usd", "eur", 0)
        assert net.holds == before, "failed build must leave zero residue"
        assert net.paths == {}, "failed build must not register a path"

    def test_overload_on_second_hop_leaves_first_unheld(self):
        net = linear_network()
        # 80 usd -> 100 eur fits c1 exactly, but 80 gbp overloads c2
        with pytest.raises(Overloaded, match="c2 cannot cover"):
            net.build_path("p1", "pay1", "pay3", V(80), "usd", "gbp", 0)
        assert available(net, "c1", "eur") == F(100), \
            "the passing first hop must not stay held after the failure"

    def test_reject_release_retry_example(self):
        net = linear_network()
        net.build_path("p1", "pay1", "pay2", V(70), "usd", "eur", 0)
        with pytest.raises(Overloaded):
            net.build_path("p2", "pay1", "pay2", V(20), "usd", "eur", 1)
        net.release_path("p1", 2)
        path = net.build_path("p2", "pay1", "pay2", V(20), "usd", "eur", 3)
        assert path.state is PathState.RESERVED, \
            "released capacity must be reusable immediately"

    def test_same_connector_twice_accumulates_capacity_need(self):
        denoms = {"a": "x", "b": "y", "c": "x"}
        conn = Connector("c1", ("a", "b", "c"), {"x": V(10), "y": V(10)},
                         {("x", "y"): V(1), ("y", "x"): V(1)})
        net = ValueNetwork(denoms, [conn], reservation_ttl=50)
        path = net.build_path("p1", "a", "c", V(6), "x", "x", 0)
        assert path.route_ids() == ["c1", "c1"]
        # 6 held in y and 6 held in x; another 6-out-of-x must overload
        with pytest.raises(Overloaded):
            net.build_path("p2", "a", "c", V(6), "x", "x", 0)

    def test_exact_remaining_capacity_fits_and_a_thousandth_more_does_not(self):
        net = linear_network()
        net.build_path("p1", "pay1", "pay2", V(20), "usd", "eur", 0)
        # 25 of c1's 100 eur are held; 60 usd needs the other 75 exactly,
        # and 60.0008 usd needs 1/1000 eur more
        before = dict(net.holds)
        with pytest.raises(Overloaded, match="c1 cannot cover 75001/1000 eur"):
            net.build_path("p2", "pay1", "pay2", V("60.0008"), "usd", "eur", 0)
        assert net.holds == before and "p2" not in net.paths, \
            "an overloaded build must leave the holds as they were"
        net.build_path("p2", "pay1", "pay2", V(60), "usd", "eur", 0)
        assert net.holds == {("c1", "eur"): V(100)}
        assert available(net, "c1", "eur") == 0

    def test_one_key_twice_on_a_route_adds_to_the_open_hold(self, monkeypatch):
        # a fewest-hop route never uses one (connector, denomination) twice
        # (the connector would offer a shorter route), so force one:
        # a -c1-> b(y) -c2-> c -c1-> d(y)
        denoms = {"a": "x", "b": "y", "c": "z", "d": "y"}
        rates = {("x", "y"): V(1), ("y", "z"): V(1), ("z", "y"): V(1)}
        net = ValueNetwork(denoms, [
            Connector("c1", ("a", "b", "c", "d"), {"y": V(20)}, dict(rates)),
            Connector("c2", ("b", "c"), {"z": V(20)}, dict(rates))],
            reservation_ttl=50)
        monkeypatch.setattr(net, "route", lambda s, r: [
            ("c1", "b"), ("c2", "c"), ("c1", "d")])
        net.build_path("p1", "a", "d", V(4), "x", "y", 0)
        assert net.holds == {("c1", "y"): V(8), ("c2", "z"): V(4)}
        # 8 held + 6 + 6 = 20 fits c1's y exactly
        path = net.build_path("p2", "a", "d", V(6), "x", "y", 0)
        assert path.route_ids() == ["c1", "c2", "c1"]
        assert net.holds == {("c1", "y"): V(20), ("c2", "z"): V(10)}
        net.release_path("p1", 1)
        assert net.holds == {("c1", "y"): V(12), ("c2", "z"): V(6)}
        before = dict(net.holds)
        # 12 held + 5 fits on the first hop, and + 5 more does not
        with pytest.raises(Overloaded, match="c1 cannot cover 5 y"):
            net.build_path("p3", "a", "d", V(5), "x", "y", 2)
        assert net.holds == before

    def test_build_settle_release_and_expire_make_no_fraction(self, monkeypatch):
        denoms = {"a": "da", "b": "db", "c": "dc", "d": "dd"}
        net = ValueNetwork(denoms, [
            Connector(cid, (x, y), {denoms[y]: V(100)},
                      {(denoms[x], denoms[y]): V(rate)})
            for cid, x, y, rate in (("c1", "a", "b", "5/4"),
                                    ("c2", "b", "c", "4/3"),
                                    ("c3", "c", "d", "3/5"))],
            reservation_ttl=50)
        net.build_path("p1", "a", "d", V(3), "da", "dd", 0)
        net.build_path("p3", "a", "d", V(1), "da", "dd", 0)
        assert len(net.holds) == 3, "every hop has an open hold"
        six = V(6)
        ops = count_fraction_use(monkeypatch)
        path = net.build_path("p2", "a", "d", six, "da", "dd", 1)
        # every hop, hold and check is int arithmetic, and amount_out text
        assert ops == {"new": 0, "read": 0, "operator": 0}, ops
        holds = dict(net.holds)
        net.settle_path("p2", 2)
        net.release_path("p1", 3)
        assert net.expire(50) == ["p3"]
        assert ops == {"new": 0, "read": 0, "operator": 0}, ops
        monkeypatch.undo()
        assert path.amount_out == "6" and path.hops[-1].amount_out == V(6)
        assert len(path.hops) == 3
        assert holds == {("c1", "db"): V("25/2"), ("c2", "dc"): V("50/3"),
                         ("c3", "dd"): V(10)}
        assert net.holds == {} and net.conservation_errors() == []

    def test_a_run_makes_no_fraction(self, monkeypatch):
        # ilp_path settles two paths, releases one and overloads one build
        sim = Simulation(bundled("ilp_path"))
        ops = count_fraction_use(monkeypatch)
        sim.run()
        monkeypatch.undo()
        assert ops["new"] == 0, ops
        paths = sim.valuenet.paths
        assert sorted(p.state for p in paths.values()) == [
            PathState.RELEASED, PathState.SETTLED, PathState.SETTLED]
        for pid, path in paths.items():
            assert path.amount_out == str(Fraction(*path.hops[-1].amount_out)), pid
            assert sim.outcomes["payments"][pid]["amount_out"] == path.amount_out, pid

    def test_hop_is_an_immutable_positional_record(self):
        hop = Hop("c1", "usd", "eur", V(4), V(5))
        assert hop == Hop(connector_id="c1", denom_in="usd", denom_out="eur",
                          amount_in=V(4), amount_out=V(5))
        assert (hop.connector_id, hop.amount_out) == ("c1", V(5))
        with pytest.raises(AttributeError):
            hop.amount_out = V(6)

    def test_endpoint_denomination_must_match(self):
        net = linear_network()
        with pytest.raises(NoRoute, match="does not denominate"):
            net.build_path("p1", "pay1", "pay2", V(5), "usd", "gbp", 0)
        with pytest.raises(NoRoute, match="does not denominate"):
            net.build_path("p1", "pay1", "pay2", V(5), "eur", "eur", 0)

    def test_unroutable_pair_raises(self):
        net = linear_network()
        with pytest.raises(NoRoute, match="no connector path"):
            net.build_path("p1", "pay3", "pay1", V(5), "gbp", "usd", 0)

    def test_amount_must_be_positive(self):
        net = linear_network()
        with pytest.raises(NoRoute, match="positive"):
            net.build_path("p1", "pay1", "pay2", V(0), "usd", "eur", 0)


class TestSettlement:
    def test_settle_moves_reserves_and_credits_receiver(self):
        net = linear_network()
        net.build_path("p1", "pay1", "pay3", V(8), "usd", "gbp", 0)
        net.settle_path("p1", 2)
        assert net.reserves == {("c1", "eur"): V(90), ("c2", "gbp"): V(42),
                                ("c1", "usd"): V(8), ("c2", "eur"): V(10)}
        path = net.paths["p1"]
        assert path.state == PathState.SETTLED
        assert (path.receiver_chain, path.denom_out, path.hops[-1].amount_out) == \
            ("pay3", "gbp", V(8)), "the settled path credits the receiver"
        assert net.holds == {}, "settlement must consume the holds"
        assert net.connectors["c1"].reserves == {"eur": V(100)}, \
            "a connector keeps its configured reserves"

    def test_settled_run_conserves_every_denomination(self):
        net = linear_network()
        rng = random.Random(4)
        for i in range(30):
            amt = Fraction(rng.randint(1, 10), rng.randint(1, 4))
            try:
                net.build_path(f"p{i}", "pay1", "pay3", V(amt), "usd", "gbp", i)
                net.settle_path(f"p{i}", i)
            except Overloaded:
                pass
        assert net.conservation_errors() == []

    def test_conservation_matches_a_per_hop_fraction_sum(self):
        """The per-denomination integer sums give the values and problem
        strings of a plain Fraction sum over every reserve and hop."""
        for seed in range(10):
            rng = random.Random(200 + seed)
            net = linear_network()
            for i in range(20):
                amt = Fraction(rng.randint(1, 12), rng.randint(1, 7))
                try:
                    net.build_path(f"p{i}", "pay1", "pay3", V(amt), "usd", "gbp", i)
                    net.settle_path(f"p{i}", i)
                except Overloaded:
                    pass
            assert net.conservation_errors() == reference_conservation(net) == []
            # mint or burn an odd amount somewhere
            cid = rng.choice(["c1", "c2"])
            denom = rng.choice(sorted(d for c, d in net.reserves if c == cid))
            odd = Fraction(rng.choice([-1, 1]), rng.randint(2, 9))
            net.reserves[cid, denom] = V(Fraction(*net.reserves[cid, denom]) + odd)
            problems = net.conservation_errors()
            assert problems == reference_conservation(net) and len(problems) == 1

    def test_double_settle_rejected(self):
        net = linear_network()
        net.build_path("p1", "pay1", "pay2", V(5), "usd", "eur", 0)
        net.settle_path("p1", 1)
        with pytest.raises(AlreadyTerminal, match="SETTLED"):
            net.settle_path("p1", 2)
        with pytest.raises(AlreadyTerminal):
            net.release_path("p1", 2)

    def test_a_path_id_is_built_once(self):
        """paths is the one record of the settled hops, which the
        conservation check reads, so no build may replace a path."""
        net = linear_network()
        net.build_path("p1", "pay1", "pay2", V(5), "usd", "eur", 0)
        net.settle_path("p1", 1)
        with pytest.raises(AssertionError, match="duplicate path id"):
            net.build_path("p1", "pay1", "pay2", V(5), "usd", "eur", 2)
        assert net.conservation_errors() == []

    def test_release_restores_availability(self):
        net = linear_network()
        net.build_path("p1", "pay1", "pay2", V(40), "usd", "eur", 0)
        assert available(net, "c1", "eur") == F(50), \
            "40 usd at rate 5/4 holds 50 eur"
        net.release_path("p1", 1)
        assert available(net, "c1", "eur") == F(100)
        assert net.paths["p1"].state is PathState.RELEASED


class TestExpiry:
    def test_settle_succeeds_one_tick_before_expiry(self):
        net = linear_network(ttl=10)
        net.build_path("p1", "pay1", "pay2", V(5), "usd", "eur", 0)
        path = net.settle_path("p1", 9)
        assert path.state is PathState.SETTLED

    def test_settle_at_expiry_tick_fails_and_expires(self):
        net = linear_network(ttl=10)
        net.build_path("p1", "pay1", "pay2", V(5), "usd", "eur", 0)
        with pytest.raises(PathExpired, match="expired at 10"):
            net.settle_path("p1", 10)
        assert net.paths["p1"].state is PathState.EXPIRED
        assert available(net, "c1", "eur") == F(100), \
            "expiry must return the held capacity"

    def test_expire_sweep_releases_due_reservations_in_id_order(self):
        net = linear_network(ttl=5)
        net.build_path("p2", "pay1", "pay2", V(5), "usd", "eur", 0)
        net.build_path("p1", "pay1", "pay2", V(5), "usd", "eur", 2)
        assert net.expire(4) == []
        assert net.expire(5) == ["p2"]
        assert net.expire(7) == ["p1"]
        assert net.holds == {}


class TestRandomInterleavings:
    def test_invariants_hold_under_random_operation_sequences(self):
        for seed in range(20):
            rng = random.Random(100 + seed)
            net = linear_network(ttl=15)
            open_ids = []
            counter = 0
            for now in range(60):
                op = rng.random()
                if op < 0.5:
                    counter += 1
                    pid = f"p{counter}"
                    amt = V(rng.randint(1, 40))
                    try:
                        net.build_path(pid, "pay1",
                                       rng.choice(["pay2", "pay3"]), amt,
                                       "usd", rng.choice(["eur", "gbp"]), now)
                        open_ids.append(pid)
                    except (Overloaded, NoRoute):
                        pass
                elif op < 0.75 and open_ids:
                    pid = open_ids.pop(rng.randrange(len(open_ids)))
                    try:
                        net.settle_path(pid, now)
                    except (AlreadyTerminal, PathExpired):
                        pass
                elif open_ids:
                    pid = open_ids.pop(rng.randrange(len(open_ids)))
                    try:
                        net.release_path(pid, now)
                    except AlreadyTerminal:
                        pass
                net.expire(now)
                for cid in net.connectors:
                    for denom in ("usd", "eur", "gbp"):
                        assert available(net, cid, denom) >= 0 or \
                            denom not in net.connectors[cid].reserves
            assert net.conservation_errors() == [], f"seed {seed}"
            reserved = [p for p in net.paths.values()
                        if p.state is PathState.RESERVED]
            expected = {}
            for p in reserved:
                for hop in p.hops:
                    key = (hop.connector_id, hop.denom_out)
                    expected[key] = expected.get(key, F(0)) + Fraction(*hop.amount_out)
            assert net.holds == {k: V(v) for k, v in expected.items() if v}, \
                f"seed {seed}: holds diverge from open reservations"


# distinct primes, so fractions over them have large coprime denominators
PRIMES = (7919, 10**9 + 7, 2**61 - 1, 2**89 - 1)
RATIONALS = st.one_of(
    st.integers(-10**12, 10**12),
    st.fractions(),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.sampled_from(PRIMES)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(RATIONALS, RATIONALS)
def test_integer_helpers_match_the_fraction_operators(a, b):
    a, b = Fraction(a), Fraction(b)
    va, vb = V(a), V(b)
    for helper, op in ((valuenet._mul, operator.mul), (valuenet._add, operator.add),
                       (valuenet._sub, operator.sub)):
        got, want = helper(va, vb), op(a, b)
        assert type(got) is tuple and [type(x) for x in got] == [int, int], helper.__name__
        assert got == (want.numerator, want.denominator), helper.__name__
        assert got[1] > 0 and math.gcd(*got) == 1, f"{helper.__name__} is not reduced"
    assert valuenet._gt(va, vb) is (a > b)
    assert valuenet._exact_sum([va, vb, va], [vb, vb]) == V(2 * a - b)
    assert valuenet._exact_sum([va], []) == va
    assert valuenet._text(va) == str(a)
    # the sign tests read the numerator of a reduced value
    assert (va[0] <= 0) is (a <= 0)
    assert (va[0] == 0) is (a == 0)


class TestCapacityBoundary:
    """Holds at and just past a reserve, with a rate and a reserve over
    large coprime denominators."""

    RESERVE = Fraction(10**12 + 39, 2**61 - 1)
    RATE = Fraction(104729, 7907)
    ABOVE = Fraction(1, 2**89 - 1)

    def network(self):
        return ValueNetwork({"a": "x", "b": "y"}, [
            Connector("c1", ("a", "b"), {"y": V(self.RESERVE)}, {("x", "y"): V(self.RATE)})],
            reservation_ttl=50)

    def test_a_hold_exactly_at_the_reserve_is_accepted(self):
        net = self.network()
        path = net.build_path("p1", "a", "b", V(self.RESERVE / self.RATE), "x", "y", 0)
        assert path.hops[-1].amount_out == V(self.RESERVE)
        assert path.amount_out == str(self.RESERVE)
        assert net.holds == {("c1", "y"): V(self.RESERVE)}
        assert available(net, "c1", "y") == 0
        net._hold("c1", "y", V(self.RESERVE))

    def test_a_hold_one_nth_above_the_reserve_raises_overloaded(self):
        net = self.network()
        over = (self.RESERVE + self.ABOVE) / self.RATE
        with pytest.raises(Overloaded, match="c1 cannot cover"):
            net.build_path("p1", "a", "b", V(over), "x", "y", 0)
        assert net.holds == {} and net.paths == {}
        net.build_path("p1", "a", "b", V(self.RESERVE / self.RATE / 2), "x", "y", 0)
        with pytest.raises(Overloaded, match="c1 cannot cover"):
            net.build_path("p2", "a", "b", V(over / 2), "x", "y", 0)
        assert net.holds == {("c1", "y"): V(self.RESERVE / 2)}
        with pytest.raises(AssertionError, match="hold exceeded reserve"):
            net._hold("c1", "y", V(self.RESERVE + self.ABOVE))

    def test_a_release_down_to_exactly_zero_deletes_the_hold(self):
        net = self.network()
        third = self.RESERVE / self.RATE / 3
        net.build_path("p1", "a", "b", V(third), "x", "y", 0)
        net.build_path("p2", "a", "b", V(2 * third), "x", "y", 0)
        net.release_path("p1", 1)
        assert net.holds == {("c1", "y"): V(2 * self.RESERVE / 3)}
        net.release_path("p2", 1)
        assert net.holds == {}, "a hold released to zero is deleted"
        assert available(net, "c1", "y") == self.RESERVE

    def test_a_release_below_zero_fails_its_check(self):
        net = self.network()
        net.build_path("p1", "a", "b", V(self.RESERVE / self.RATE), "x", "y", 0)
        with pytest.raises(AssertionError, match="negative hold"):
            net._release_hold("c1", "y", V(self.RESERVE + self.ABOVE))


def long_product_world(hops):
    """A line of hops + 1 payments chains, each hop quoting the rate
    (10**639 + 1) / 10**639, whose two integers have the 640 digits the
    schema admits.  Each hop's amount has about 640 more digits than the
    last, while its size stays near the amount paid in.  p1 pays 1/2 and
    settles; p2 pays 1, which the last connector's reserve of 1 cannot
    cover."""
    rate = f"{10 ** (MAX_DIGITS - 1) + 1}/{10 ** (MAX_DIGITS - 1)}"
    chains = [{"id": f"pay{i}", "nodes": 3, "confirm_latency": 1,
               "semantic": "payments", "denom": f"d{i}"} for i in range(hops + 1)]
    connectors = [{"id": f"c{i}", "chains": [f"pay{i - 1}", f"pay{i}"],
                   "reserves": {f"d{i}": "1" if i == hops else "100"},
                   "rates": [{"from": f"d{i - 1}", "to": f"d{i}", "rate": rate}]}
                  for i in range(1, hops + 1)]
    pay = {"from": "pay0", "to": f"pay{hops}", "denom_in": "d0", "denom_out": f"d{hops}"}
    return {"horizon": 20, "chains": chains, "connectors": connectors,
            "payments": [{"id": "p1", "at": 0, "amount": "1/2", "settle_after": 2, **pay},
                         {"id": "p2", "at": 1, "amount": "1", **pay}]}


def read_digits(text):
    """int(text) for a text of any length, read 500 digits at a time, so
    that no interpreter limit applies."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    n = 0
    for i in range(0, len(digits), 500):
        part = digits[i:i + 500]
        n = n * 10 ** len(part) + int(part)
    return sign * n


def test_amounts_past_the_interpreters_digit_limit_run_to_an_audited_report():
    """Eight hops take the amounts of both payments past 4,300 digits,
    CPython's default limit for str() of an int: rendering p1's amount
    and p2's overload once ended the run in a ValueError."""
    sim = Simulation(parse_scenario(long_product_world(8)))
    report = sim.run()
    assert report.passed(), report.failed_audits()
    p1 = sim.valuenet.paths["p1"]
    assert p1.state == PathState.SETTLED and "p2" not in sim.valuenet.paths
    exact = p1.hops[-1].amount_out
    assert exact[1] >= 10 ** 4600, "the denominator has 4,600 digits or more"
    num, den = p1.amount_out.split("/")
    assert (read_digits(num), read_digits(den)) == exact
    assert p1.amount_in == "1/2"
    assert sim.outcomes["payments"]["p1"]["amount_out"] == p1.amount_out
    assert sim.outcomes["payments"]["p2"] == {"state": "REJECTED", "error": "Overloaded"}
    assert report.to_json() and sim.net.log.dumps()
    with pytest.raises(Overloaded, match="^c8 cannot cover [0-9]{4300,}/[0-9]{4300,} d8$"):
        sim.valuenet.build_path("p3", "pay0", "pay8", (1, 1), "d0", "d8", 20)


def test_text_renders_an_int_of_any_size():
    ints = [0, 1, -1, 7, 10 ** 599, 10 ** 600 - 1, 10 ** 600, -10 ** 600, 10 ** 600 + 1,
            10 ** 1200, -(10 ** 1200) - 1, 3 * 10 ** 5000 + 17]
    for n in ints:
        for value in ((n, 1), (n, 10 ** 700 + 3), (n, 7)):
            if math.gcd(*value) != 1:
                continue
            parts = valuenet._text(value).split("/")
            assert [read_digits(p) for p in parts] == ([n] if value[1] == 1 else list(value))
            assert all(p == "0" or p.lstrip("-")[0] != "0" for p in parts), "a leading zero"
