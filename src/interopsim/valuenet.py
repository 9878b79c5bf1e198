"""Connector network for cross-chain value movement.

Modeled after interledger-style two-phase payments: a path of connector
hops is reserved end to end (all or nothing), then settled or released.
All amounts and exchange rates are exact rationals; floats never enter
the arithmetic.

Routing is fewest hops with a deterministic tie-break on the
lexicographically smallest connector-id sequence.  Routes come from a
routing table kept for the run and filled once per sender: the first
route asked from a sender runs one search over an adjacency list built
at construction, and that search records the best route from the
sender to every chain it reaches (a best route's prefix is a best route
to the prefix's end, so one exhaustive search answers every receiver).
The table is valid because the connector topology, the quoted rates and
the chain denominations are fixed for the run.  Any change that mutates
connectors, rates or denominations after construction must rebuild the
adjacency list and empty the table.

A Connector is the configured quote: its rates and its reserves at the
start of the run.  Every amount is a value: a (numerator, denominator)
pair of ints in Fraction's normal form, the denominator positive and
the gcd 1, so equal amounts are equal pairs.  Amounts arrive as values:
the scenario schema reads each payment amount, reserve and rate from
the file straight into one, with this module's _reduced and _text.
_mul, _add, _sub and _gt compute on values with one math.gcd per
result, so parsing a payment and reserving, settling, releasing and
expiring its path build no Fraction.  The two amounts of a path that
leave the network, its amount_in and amount_out for the log, the
outcomes and the report, are rendered once as text when the path is
built, as str() of their Fractions would write them, by _text, which
renders an int of any size; the hops keep the exact values.  Only the
detail of a failed audit builds Fractions.

Capacity is checked when a path is reserved, not when it is routed.  A
connector's hold on its outgoing denomination is everything held for
unsettled reservations; a build checks held + need <= reserve on the
very sum it then stores as the new hold.  An overloaded connector
simply rejects the new request and the whole path build fails without
residue.

Conservation is checked exactly per denomination: each side of the
check is one integer sum over the least common multiple of its terms'
denominators, so the audit computes one value per denomination, not
one per settled hop.

Reservations expire reservation_ttl ticks after they are made; the
expiry sweep releases them at the tick boundary.  A heap of expiry ticks
lets the sweep and next_expiry touch only reservations that are due.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import AlreadyTerminal, NoRoute, NotFound, Overloaded, PathExpired

# an exact amount as (numerator, denominator) in Fraction's normal form
Value = tuple[int, int]
_ZERO: Value = (0, 1)


@dataclass
class Connector:
    """Liquidity provider standing between two or more chains, as
    configured: its quoted rates and its reserves when the run starts."""

    connector_id: str
    adjacent_chains: tuple[str, ...]
    reserves: dict[str, Value]
    rates: dict[tuple[str, str], Value]

    def rate(self, denom_in: str, denom_out: str) -> Optional[Value]:
        return self.rates.get((denom_in, denom_out))


class Hop(NamedTuple):
    connector_id: str
    denom_in: str
    denom_out: str
    amount_in: Value
    amount_out: Value


class PathState:
    """A payment path's states, each the text it is logged as."""

    RESERVED = "RESERVED"
    SETTLED = "SETTLED"
    RELEASED = "RELEASED"
    EXPIRED = "EXPIRED"


@dataclass(slots=True)
class PaymentPath:
    receiver_chain: str
    hops: tuple[Hop, ...]
    amount_in: str  # the first hop's amount_in, as text
    denom_in: str
    amount_out: str  # the last hop's amount_out, as text
    denom_out: str
    state: str
    expiry_tick: int
    final_tick: Optional[int] = None

    def route_ids(self) -> list[str]:
        return [h.connector_id for h in self.hops]


class ValueNetwork:
    """All connectors plus reservation and settlement state for a run."""

    def __init__(self, chain_denoms: dict[str, str],
                 connectors: list[Connector], reservation_ttl: int) -> None:
        self.chain_denoms = dict(chain_denoms)
        self.connectors = {c.connector_id: c for c in connectors}
        self.reservation_ttl = reservation_ttl
        self.paths: dict[str, PaymentPath] = {}
        # (expiry_tick, path_id) per reservation; entries whose path is no
        # longer RESERVED are dropped lazily
        self._expiries: list[tuple[int, str]] = []
        # live reserves per (connector, denom), which start as configured
        self.reserves: dict[tuple[str, str], Value] = {
            (cid, d): amount
            for cid, c in self.connectors.items() for d, amount in c.reserves.items()}
        # held amounts per (connector, denom) for unsettled reservations
        self.holds: dict[tuple[str, str], Value] = {}
        # quoted rates per (connector, denom_in, denom_out)
        self._rates: dict[tuple[str, str, str], Value] = {
            (cid, *pair): rate
            for cid, c in self.connectors.items() for pair, rate in c.rates.items()}
        # per chain: its (connector_id, next_chain) edges whose connector
        # quotes the rate, sorted by connector id, then next chain
        self._edges: dict[str, list[tuple[str, str]]] = {
            chain: [] for chain in self.chain_denoms}
        for cid in sorted(self.connectors):
            conn = self.connectors[cid]
            adjacent = sorted(conn.adjacent_chains)
            for chain in dict.fromkeys(conn.adjacent_chains):
                if chain not in self._edges:
                    continue
                for nxt in adjacent:
                    if (nxt != chain and nxt in self.chain_denoms and conn.rate(
                            self.chain_denoms[chain], self.chain_denoms[nxt]) is not None):
                        self._edges[chain].append((cid, nxt))
        # sender -> receiver -> best route, filled one sender at a time
        self._routes: dict[str, dict[str, list[tuple[str, str]]]] = {}

    # -- capacity ------------------------------------------------------

    def _hold(self, connector_id: str, denom: str, held: Value) -> None:
        """Set the hold on (connector_id, denom) to held, the new total."""
        key = (connector_id, denom)
        assert not _gt(held, self.reserves.get(key, _ZERO)), "hold exceeded reserve"
        self.holds[key] = held

    def _release_hold(self, connector_id: str, denom: str, amount: Value) -> None:
        key = (connector_id, denom)
        held = _sub(self.holds[key], amount)
        assert held[0] >= 0, "negative hold"
        if held[0] == 0:
            del self.holds[key]
        else:
            self.holds[key] = held

    # -- routing -------------------------------------------------------

    def route(self, sender_chain: str, receiver_chain: str) -> Optional[list[tuple[str, str]]]:
        """Fewest-hop route as [(connector_id, next_chain), ...], ties
        broken by the lexicographically smallest connector sequence.
        Edges exist only where the connector quotes the needed rate.
        The list is shared with the routing table: callers must not
        mutate it."""
        if sender_chain == receiver_chain:
            return None
        if sender_chain not in self.chain_denoms or receiver_chain not in self.chain_denoms:
            return None
        table = self._routes.get(sender_chain)
        if table is None:
            table = self._routes[sender_chain] = self._search(sender_chain)
        return table.get(receiver_chain)

    def _search(self, sender_chain: str) -> dict[str, list[tuple[str, str]]]:
        """Best route from sender_chain to every chain it reaches.  A
        chain's route is fixed when it is first popped, as the search
        that stopped at it would have returned it."""
        # priority: (hop count, connector id sequence, chain sequence)
        frontier = [(0, (), (sender_chain,))]
        routes: dict[str, list[tuple[str, str]]] = {}
        done = set()
        while frontier:
            hops, conn_seq, chain_seq = heapq.heappop(frontier)
            chain = chain_seq[-1]
            if chain in done:
                continue
            done.add(chain)
            if hops:
                routes[chain] = list(zip(conn_seq, chain_seq[1:]))
            for cid, nxt in self._edges[chain]:
                if nxt not in done:
                    heapq.heappush(frontier, (
                        hops + 1, conn_seq + (cid,), chain_seq + (nxt,)))
        return routes

    # -- reservation ---------------------------------------------------

    def build_path(self, path_id: str, sender_chain: str, receiver_chain: str,
                   amount_in: Value, denom_in: str, denom_out: str,
                   now: int) -> PaymentPath:
        """Reserve capacity along the best route, atomically.

        On any shortfall nothing is held and Overloaded is raised, so a
        failed build leaves the global reservation set untouched.
        """
        assert path_id not in self.paths, "duplicate path id"
        amount = amount_in
        if amount[0] <= 0:
            raise NoRoute("amount must be positive")
        if self.chain_denoms.get(sender_chain) != denom_in:
            raise NoRoute(f"{sender_chain} does not denominate {denom_in}")
        if self.chain_denoms.get(receiver_chain) != denom_out:
            raise NoRoute(f"{receiver_chain} does not denominate {denom_out}")
        steps = self.route(sender_chain, receiver_chain)
        if steps is None:
            raise NoRoute(f"no connector path {sender_chain} -> {receiver_chain}")

        # each hop's amounts, checked as they are computed; planned maps
        # (connector, denom) to the hold it will have, which is stored
        # only once every hop is covered
        hops: list[Hop] = []
        planned: dict[tuple[str, str], Value] = {}
        d_in = denom_in
        for cid, nxt in steps:
            d_out = self.chain_denoms[nxt]
            out = _mul(amount, self._rates[cid, d_in, d_out])
            key = (cid, d_out)
            held = planned.get(key)
            if held is None:
                held = self.holds.get(key)
            total = out if held is None else _add(held, out)
            if _gt(total, self.reserves.get(key, _ZERO)):
                raise Overloaded(f"{cid} cannot cover {_text(out)} {d_out}")
            planned[key] = total
            # NamedTuple's own __new__ is a Python function
            hops.append(tuple.__new__(Hop, (cid, d_in, d_out, amount, out)))
            amount, d_in = out, d_out
        for (cid, denom), total in planned.items():
            self._hold(cid, denom, total)

        path = PaymentPath(receiver_chain, tuple(hops), _text(amount_in), denom_in,
                           _text(amount), denom_out, PathState.RESERVED,
                           now + self.reservation_ttl)
        self.paths[path_id] = path
        heapq.heappush(self._expiries, (path.expiry_tick, path_id))
        return path

    # -- settlement ----------------------------------------------------

    def _get(self, path_id: str) -> PaymentPath:
        if path_id not in self.paths:
            raise NotFound(f"unknown path {path_id}")
        return self.paths[path_id]

    def settle_path(self, path_id: str, now: int) -> PaymentPath:
        """Move value along every hop; conservation per denomination."""
        path = self._get(path_id)
        if path.state != PathState.RESERVED:
            raise AlreadyTerminal(f"{path_id} is {path.state}")
        if now >= path.expiry_tick:
            self._end(path, PathState.EXPIRED, now)
            raise PathExpired(f"{path_id} expired at {path.expiry_tick}")
        reserves = self.reserves
        for hop in path.hops:
            cid = hop.connector_id
            key = (cid, hop.denom_in)
            reserves[key] = _add(reserves.get(key, _ZERO), hop.amount_in)
            key = (cid, hop.denom_out)
            left = reserves[key] = _sub(reserves[key], hop.amount_out)
            self._release_hold(cid, hop.denom_out, hop.amount_out)
            assert left[0] >= 0, "reserve went negative"
        path.state = PathState.SETTLED
        path.final_tick = now
        return path

    def release_path(self, path_id: str, now: int) -> PaymentPath:
        path = self._get(path_id)
        if path.state != PathState.RESERVED:
            raise AlreadyTerminal(f"{path_id} is {path.state}")
        self._end(path, PathState.RELEASED, now)
        return path

    def _end(self, path: PaymentPath, state: str, now: int) -> None:
        """Release a reserved path's holds and end it, unsettled, in state."""
        for hop in path.hops:
            self._release_hold(hop.connector_id, hop.denom_out, hop.amount_out)
        path.state = state
        path.final_tick = now

    def expire(self, now: int) -> list[str]:
        """Tick-boundary sweep; returns the ids just expired, sorted."""
        out = []
        while self._expiries and self._expiries[0][0] <= now:
            _, pid = heapq.heappop(self._expiries)
            path = self.paths[pid]
            if path.state == PathState.RESERVED:
                self._end(path, PathState.EXPIRED, now)
                out.append(pid)
        out.sort()
        return out

    def next_expiry(self) -> Optional[int]:
        """Earliest expiry_tick of a RESERVED path, or None when no path
        is reserved."""
        heap = self._expiries
        while heap and self.paths[heap[0][1]].state != PathState.RESERVED:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    # -- audit helpers -------------------------------------------------

    def hold_errors(self) -> Optional[str]:
        """Exact check of the holds against the open reservations' hops;
        the problem shows both tables as Fractions."""
        expected: dict[tuple[str, str], Value] = {}
        for path in self.paths.values():
            if path.state != PathState.RESERVED:
                continue
            for hop in path.hops:
                key = (hop.connector_id, hop.denom_out)
                expected[key] = _add(expected.get(key, _ZERO), hop.amount_out)
        actual = {k: v for k, v in self.holds.items() if v[0]}
        if {k: v for k, v in expected.items() if v[0]} == actual:
            return None

        def shown(table):
            return {k: Fraction(*v) for k, v in table.items()}
        return f"holds {shown(actual)} do not match open reservations {shown(expected)}"

    def conservation_errors(self) -> list[str]:
        """Exact per-denomination check of reserve deltas vs settled hops."""
        # per denomination: (terms added, terms subtracted)
        delta: dict[str, tuple[list, list]] = {}  # live minus configured reserves
        for c in self.connectors.values():
            for denom, amount in c.reserves.items():
                delta.setdefault(denom, ([], []))[1].append(amount)
        for (_, denom), amount in self.reserves.items():
            delta.setdefault(denom, ([], []))[0].append(amount)
        settled: dict[str, tuple[list, list]] = {}  # inflow minus outflow
        for h in (h for p in self.paths.values() if p.state == PathState.SETTLED
                  for h in p.hops):
            settled.setdefault(h.denom_in, ([], []))[0].append(h.amount_in)
            settled.setdefault(h.denom_out, ([], []))[1].append(h.amount_out)
        problems = []
        for denom in sorted(delta):
            change = _exact_sum(*delta[denom])
            net = _exact_sum(*settled[denom]) if denom in settled else _ZERO
            if change != net:
                problems.append(
                    f"{denom}: reserve delta {_text(change)} != settled net {_text(net)}")
        return problems


# Values are computed on their ints: a Fraction operator dispatches on
# the other operand's type, and Fraction(n, d) and the numerator and
# denominator properties run in Python, before any arithmetic.  A
# denominator is positive, so a numerator carries the sign (the tests
# of a sign read it alone) and cross-multiplying keeps the order.

def _reduced(n: int, d: int) -> Value:
    g = math.gcd(n, d)
    return (n // g, d // g)


def _mul(a: Value, b: Value) -> Value:
    """a * b."""
    return _reduced(a[0] * b[0], a[1] * b[1])


def _add(a: Value, b: Value) -> Value:
    """a + b."""
    an, ad = a
    bn, bd = b
    return _reduced(an * bd + bn * ad, ad * bd)


def _sub(a: Value, b: Value) -> Value:
    """a - b."""
    an, ad = a
    bn, bd = b
    return _reduced(an * bd - bn * ad, ad * bd)


def _gt(a: Value, b: Value) -> bool:
    """a > b."""
    return a[0] * b[1] > b[0] * a[1]


def _exact_sum(added: list[Value], subtracted: list[Value]) -> Value:
    """sum(added) - sum(subtracted), summed as integers over the least
    common multiple of every term's denominator."""
    lcm = math.lcm(*(d for _, d in added), *(d for _, d in subtracted))
    return _reduced(sum(n * (lcm // d) for n, d in added)
                    - sum(n * (lcm // d) for n, d in subtracted), lcm)


def _text(v: Value) -> str:
    """str() of v's Fraction, for ints of any size."""
    try:
        return str(v[0]) if v[1] == 1 else f"{v[0]}/{v[1]}"
    except ValueError:
        # more digits than the interpreter renders: its limit
        # (sys.set_int_max_str_digits) is never below 640, and a route's
        # products grow with its hops.  A Decimal is built from an int's
        # binary digits and writes an exponent-0 value as plain digits.
        return (str(Decimal(v[0])) if v[1] == 1
                else f"{Decimal(v[0])}/{Decimal(v[1])}")
