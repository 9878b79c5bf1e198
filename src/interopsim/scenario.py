"""Scenario files: YAML schema, parsing and validation.

A scenario declares the world (chains, assets, peerings, connectors)
and the workload (app transactions, transfers, payments, reads,
resolves, probes) plus injected faults.  Validation is collecting: one
ValidationError carries every problem found, each tagged with the field
path that caused it.

The schema is one table, built at import: each field of a *Cfg
dataclass declares how it is read (see _yaml), and one generic pass,
_Reader, reads every section through it.  The rules that span fields
are each dataclass's _check.

A well-formed value costs one test, and so does a passing rule: each
tests its passing case first (a plain string or integer, an ASCII digit
string, matching denominations), and only a value or an item that fails
that test pays for the full check.  That check alone words the problem,
so each rule is worded once.

Exact amounts (fees, reserves, rates, payment amounts) must be written
as ints or strings ("2/3", "1.25"); YAML floats are rejected to keep
the arithmetic rational.  No integer in one, as written or in its value,
may have more than MAX_DIGITS digits, and neither may an int field's
value (a tick, a count, the horizon, the seed).  Reserves, rates and
payment amounts are read as the value network's values, (numerator,
denominator) pairs of ints, and a quorum and a fee as Fractions.  The
full schema is documented in docs/scenario_format.md.

Only reading a scenario file imports PyYAML: load_scenario does, on its
first call, and parse_scenario never does, so a run from a mapping
neither loads nor needs it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Any, Optional

from .chain import (LOCAL_REF, NODE_ID_TAIL, SEMANTIC_TYPES, PermissionRegime,
                    chain_of, gateway_ids, node_ids)
from .errors import ParseError, ValidationError
from .gateway import MAX_THRESHOLD
from .survivor import txn_id_problem
from .valuenet import Value, _reduced, _text

_REQUIRED = object()


class _Invalid(Exception):
    """A value that does not fit its field: the message says why, and an
    optional second argument extends the field path (".node", "[0]")."""


# -- converters: (YAML value, minimum) -> field value, or _Invalid -----

# the most digits an integer may have, in an int field or in an exact
# quantity: the lowest integer-string limit CPython lets one set
# (sys.set_int_max_str_digits), so that no interpreter setting changes
# what validates, and every value read renders
MAX_DIGITS = 640
_BOUND = 10 ** MAX_DIGITS  # the least int of MAX_DIGITS + 1 digits
_TOO_LONG = f"more than {MAX_DIGITS} digits in one integer"


def _shown(val, outer=()) -> str:
    """val as every converter's problem shows it, so that wording a problem
    never raises: its repr, but with each int past the digit rule, alone
    or at any depth of lists and dicts, shown as <int of more than 640
    digits>, and as its type's name where even that fails (a long int
    inside another object, or nesting too deep).  outer holds the ids of
    the lists and dicts val is inside, which repr shows as [...] or {...}."""
    if type(val) is int and not -_BOUND < val < _BOUND:
        return f"<int of more than {MAX_DIGITS} digits>"
    try:
        if type(val) is list or type(val) is dict:
            if id(val) in outer:
                return "[...]" if type(val) is list else "{...}"
            outer += (id(val),)
            if type(val) is list:
                return f"[{', '.join([_shown(x, outer) for x in val])}]"
            items = [f"{_shown(k, outer)}: {_shown(v, outer)}" for k, v in val.items()]
            return "{" + ", ".join(items) + "}"
        return repr(val)
    except (ValueError, RecursionError):
        return f"<{type(val).__name__}>"


def _key(key) -> str:
    """A mapping key as a field path shows it, without raising: a str as
    it is, an int as _shown shows it, and any other key by str() (a YAML
    date as 2020-01-01), or as _shown shows it where str() fails."""
    if type(key) is str:
        return key
    if type(key) is not int:
        try:
            return str(key)
        except (ValueError, RecursionError):
            pass
    return _shown(key)


def _int(val, minimum=None) -> int:
    if type(val) is not int:
        raise _Invalid(f"expected integer, got {_shown(val)}")
    if not -_BOUND < val < _BOUND:  # before anything renders val
        raise _Invalid(_TOO_LONG)
    if minimum is not None and val < minimum:
        raise _Invalid(f"must be >= {minimum}, got {val}")
    return val


def _str(val, minimum=None) -> str:
    if type(val) is not str or not val:
        raise _Invalid(f"expected non-empty string, got {_shown(val)}")
    return val


# digits over digits that are not all zero
_RATIO = re.compile(f"[0-9]{{1,{MAX_DIGITS}}}/(?=0*[1-9])[0-9]{{1,{MAX_DIGITS}}}")
# an exponent, as Fraction's parser reads one: a digit, then e or E
_EXPONENT = re.compile(r"\de", re.IGNORECASE)
# an integer as int() reads one, which counts its digits but not its _
_NUMBER = re.compile(r"\d+(?:_\d+)*")


def _value(val, minimum=None) -> Value:
    """An exact quantity as a value (see valuenet): an int or a string of
    ASCII digits or of digits/digits is read first, and only what fails
    those tests gets the full diagnosis."""
    if type(val) is str and val.isdigit() and val.isascii() and len(val) <= MAX_DIGITS:
        value = (int(val), 1)
    elif type(val) is str and _RATIO.fullmatch(val):
        num, den = val.split("/")
        value = _reduced(int(num), int(den))
    elif type(val) is int and -_BOUND < val < _BOUND:
        value = (val, 1)
    else:
        value = _diagnosed(val)
    if minimum is not None and value[0] < minimum * value[1]:
        raise _Invalid(f"must be >= {minimum}, got {_text(value)}")
    return value


def _diagnosed(val) -> Value:
    """The value of what _value's passing tests leave, or the problem
    with it."""
    if type(val) is float:
        raise _Invalid("floats are inexact; write the amount as a string")
    if type(val) is str and "e" in val.lower():
        # before Fraction, which would compute all of 1e999999999
        if _EXPONENT.search(val):
            raise _Invalid(f"write {_shown(val)} without an exponent")
        raise _Invalid(f"not a rational: {_shown(val)}")
    if type(val) is int:
        raise _Invalid(_TOO_LONG)  # an int left here is out of bounds
    try:
        text = str(val)
        if any(len(num) - num.count("_") > MAX_DIGITS for num in _NUMBER.findall(text)):
            # found before int(), which the interpreter may limit: a text
            # that is no rational with each integer one digit is none
            Fraction(_NUMBER.sub(_one_digit, text))
            raise _Invalid(_TOO_LONG)
        num, den = Fraction(text).as_integer_ratio()
    except (ValueError, ZeroDivisionError):
        raise _Invalid(f"not a rational: {_shown(val)}") from None
    if not (-_BOUND < num < _BOUND and den < _BOUND):
        raise _Invalid(_TOO_LONG)  # a decimal's value may have more digits
    return num, den


def _one_digit(integer: re.Match) -> str:
    """An integer _NUMBER found, as the one digit 0 if it is zero and
    1 if not."""
    return "1" if any(map(int, integer.group().replace("_", ""))) else "0"


def _fraction(val, minimum=None) -> Fraction:
    """An exact quantity outside the value network, as a Fraction."""
    return Fraction(*_value(val, minimum))


def _enum(choices: dict):
    def choice(val, minimum=None):
        if type(val) is str and val in choices:
            return choices[val]
        raise _Invalid(f"expected one of {sorted(choices)}, got {_shown(val)}")
    return choice


def _list(elem):
    return lambda val, minimum=None: [elem(x) for x in _entries(val, minimum)]


def _entries(val, minimum=None) -> list:
    """A YAML list of at least minimum entries."""
    if type(val) is not list:
        raise _Invalid(f"expected list, got {type(val).__name__}")
    if minimum is not None and len(val) < minimum:
        raise _Invalid(f"expected at least {minimum} entries, got {len(val)}")
    return val


def _positive(val, minimum=None) -> Value:
    value = _value(val)
    if value[0] <= 0:  # a value's denominator is positive
        raise _Invalid(f"must be positive, got {_text(value)}")
    return value


def _name(chars: str):
    """A name of ASCII letters, digits and chars.  Chain ids prefix node,
    gateway and ledger ids, paths prefix cross ids, and gateways sign
    both as ASCII."""
    pattern = re.compile(f"[A-Za-z0-9{re.escape(chars)}]+")

    def name(val, minimum=None) -> str:
        if type(val) is str and pattern.fullmatch(val):
            return val
        raise _Invalid(f"expected ASCII letters, digits or any of {chars!r}, "
                       f"got {_shown(val)}")
    return name


def _public(kind):
    """kind, for a name that advertisement or resolve transcripts show:
    it may hold no word in the local-ref format and no node-id tail,
    which would read as a leaked local ref or node id."""
    def public(val, minimum=None) -> str:
        val = kind(val, minimum)
        word = LOCAL_REF.search(val)
        if word:
            raise _Invalid(f"{val!r} holds {word.group()!r}, a word in the "
                           f"local-ref format e<digits>, which transcripts must not show")
        tail = NODE_ID_TAIL.search(val)
        if tail:
            raise _Invalid(f"{val!r} holds {tail.group()!r}, where a node id "
                           f"<chain>.n<digits> could be, which transcripts must not show")
        return val
    return public


def _txn_id(val, minimum=None) -> str:
    """An app txn id, by the survivor layer's rule (txn_id_problem)."""
    val = _str(val)
    problem = txn_id_problem(val)
    if problem:
        raise _Invalid(problem)
    return val


def _mapping(val) -> dict:
    if type(val) is not dict:
        raise _Invalid(f"expected mapping, got {type(val).__name__}")
    return val


def _pair(val, minimum=None) -> tuple[str, str]:
    if type(val) is list and len(val) == 2 and val[0] != val[1]:
        return _str(val[0]), _str(val[1])
    raise _Invalid(f"expected two distinct chain ids, got {_shown(val)}")


def _amounts(val, minimum=None) -> dict[str, Value]:
    """A mapping of denom to amount."""
    return {_str(d): _value(a, minimum) for d, a in _mapping(val).items()}


def _rates(val, minimum=None) -> dict[tuple[str, str], Value]:
    """A list of {from, to, rate} mappings, keyed by (from, to), each
    pair once."""
    rates = {}
    for i, item in enumerate(_entries(val)):
        if type(item) is not dict or item.keys() != {"from", "to", "rate"}:
            raise _Invalid("expected a mapping of from, to and rate", f"[{i}]")
        try:
            pair = _str(item["from"]), _str(item["to"])
            if pair in rates:
                raise _Invalid(f"duplicate rate {pair[0]} -> {pair[1]}")
            rates[pair] = _positive(item["rate"])
        except _Invalid as exc:
            raise _Invalid(str(exc), f"[{i}]") from None
    return rates


_REGIME_KEYS = ("node", "consensus", "write", "read")
# a PermissionRegime is frozen, so one per combination of flags is shared
_shared_regime = cache(PermissionRegime)


def _regime(val, minimum=None) -> PermissionRegime:
    """The four permissioning flags, each false unless set."""
    for key, flag in _mapping(val).items():
        if key not in _REGIME_KEYS:
            raise _Invalid("unknown key", f".{_key(key)}")
        if flag is not None and type(flag) is not bool:
            raise _Invalid(f"expected true or false, got {_shown(flag)}", f".{key}")
    try:
        return _shared_regime(*[val.get(key) is True for key in _REGIME_KEYS])
    except ValueError as exc:
        raise _Invalid(str(exc)) from None


_SEMANTIC = _enum({s: s for s in SEMANTIC_TYPES})
_NAMES = _list(_str)


# -- the table -----------------------------------------------------------

def _yaml(kind, absent=_REQUIRED, minimum=None, ref=None, tick=False,
          key=None, **dataclass_default):
    """A dataclass field read from YAML key (default: the field name) by
    kind, a converter or a Spec.  absent applies when the key is missing
    or null: _REQUIRED, None (optional), a YAML value, or a function (n,
    vals, parent) of the item's 1-based index, its values so far and its
    parent item's values; a dataclass default is also the YAML default
    (default_factory=list: a fresh [], not read).  minimum bounds a number
    or a list's length; ref names the section whose ids each value must
    be among; tick bounds the value by the horizon."""
    if dataclass_default:
        absent = dataclass_default.get("default", lambda n, vals, parent: [])
    return field(**dataclass_default, metadata={
        "yaml": (key, kind, absent, minimum, ref, tick)})


def _nth(prefix: str):
    """A default id: prefix and the item's 1-based index."""
    return lambda n, vals, parent: f"{prefix}{n}"


def _plain(kind, minimum) -> tuple:
    """(plain, floor, ceiling): a value of type plain above floor, and below
    ceiling when that is set, is one that kind returns unchanged, which
    _Reader.read accepts without the call."""
    if kind is _str:
        return str, "", None
    if kind is _int and minimum is not None:
        return int, minimum - 1, _BOUND
    return None, None, None


class Spec:
    """How a dataclass is read from a mapping: its fields declared with
    _yaml, and its _check(reader, path), if any, which holds the rules
    that span fields and names a problem's field with _at(path, key).
    As a list section, its items are named by noun
    and have unique ids (the first field) that later fields may name."""

    def __init__(self, build, noun=None):
        declared = [(f.name, f.metadata["yaml"]) for f in fields(build) if f.metadata]
        self.fields = tuple((key or name, *rest, *_plain(rest[0], rest[2]))
                            for name, (key, *rest) in declared)
        self.build, self.noun = build, noun
        self.check = getattr(build, "_check", None)
        self.keys = frozenset(f[0] for f in self.fields)


def _at(path, key=None) -> str:
    """The field path of key in the mapping at path, or of path itself.
    path is "" for the top level, a section's path, or (section path,
    index) for an item of a list section, which only a problem or a
    sub-section renders."""
    if type(path) is tuple:
        path = f"{path[0]}[{path[1]}]"
    if key is None:
        return path
    return f"{path}.{_key(key)}" if path else _key(key)


class _Reader:
    """One validation pass: the problems found, the ids read so far by
    section noun, the ids of items dropped for a problem, and what the
    _check rules keep.  An item that names a dropped item is dropped
    too, without a problem of its own: the first one says it all."""

    def __init__(self, horizon) -> None:
        self.problems: list[str] = []
        # a horizon out of _int's bounds is reported as such, and bounds
        # no tick
        self.horizon = (horizon if type(horizon) is int and -_BOUND < horizon < _BOUND
                        else None)
        self.ids: dict[Any, Any] = {"node": set(), "gateway": set(),
                                    "path": {}, "peered": {}}
        self.dropped: dict[str, set[str]] = {}

    def add(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def was_dropped(self, noun: str, item_id: str) -> bool:
        """Whether item_id names a dropped item; a node or gateway id
        goes with its chain (chain_of)."""
        if noun in ("node", "gateway"):
            noun, item_id = "chain", chain_of(item_id)
        return item_id in self.dropped.get(noun, ())

    def items(self, val, path: str, spec: Spec, minimum=None, parent=None) -> list:
        """The valid items of the list section at path, built."""
        try:
            val = _entries(val, minimum)
        except _Invalid as exc:
            self.add(path, str(exc))
            val = []
        out = []
        seen = self.ids[spec.noun] = {}
        for i, item in enumerate(val):
            p = (path, i)  # rendered by _at only for a problem or a sub-section
            vals = self.read(item, p, spec, i + 1, parent)
            if vals is None:
                continue
            if vals[0] in seen:
                self.add(_at(p, "id"), f"duplicate {spec.noun} id {vals[0]}")
                continue
            obj = seen[vals[0]] = spec.build(*vals)
            if spec.check is not None:
                obj._check(self, p)
            out.append(obj)
        return out

    def read(self, item, path, spec: Spec, n: int = 1, parent=None):
        """The values of spec's fields in the mapping at path (see _at),
        or None when any of them is invalid or names a dropped item."""
        if type(item) is not dict:
            self.add(_at(path), f"expected mapping, got {type(item).__name__}")
            return None
        if not spec.keys.issuperset(item):
            for key in item:
                if key not in spec.keys:
                    section = not path and "." not in _key(key)
                    self.add(_at(path, key), "unknown section" if section else "unknown key")
        problems, ids, horizon = self.problems, self.ids, self.horizon
        before = len(problems)
        cascade = False
        vals: list = []
        for key, kind, default, minimum, ref, tick, plain, floor, ceiling in spec.fields:
            val = item.get(key)
            if val is None:
                if default is _REQUIRED:
                    self.add(_at(path, key), "missing required key")
                    vals.append(None)
                    continue
                if default is None:
                    vals.append(None)
                    continue
                if type(kind) is Spec and minimum is None:
                    # an absent list section: no items, so no ids
                    ids[kind.noun] = {}
                    vals.append([])
                    continue
                if callable(default):
                    vals.append(default(n, vals, parent))
                    continue
                val = default
            try:
                # a plain value within its bounds is read as is (see _plain)
                if (type(val) is not plain or val <= floor
                        or ceiling is not None and val >= ceiling):
                    if type(kind) is Spec:
                        val = self.items(val, _at(path, key), kind, minimum, vals)
                    else:
                        val = kind(val, minimum)
                if ref is None:
                    if tick and horizon is not None and val > horizon:
                        noun = "tick" if key == "at" else key
                        raise _Invalid(f"{noun} {val} beyond horizon {horizon}")
                elif type(val) is not str or val not in ids[ref]:
                    for x in (val,) if type(val) is str else val:
                        if x in ids[ref]:
                            continue
                        if self.was_dropped(ref, x):
                            cascade = True
                        else:
                            self.add(_at(path, key), f"unknown {ref} {x}")
            except _Invalid as exc:
                self.add(_at(path, key) + "".join(exc.args[1:]), exc.args[0])
            vals.append(val)
        if len(problems) == before and not cascade:
            return vals
        if spec.noun is not None and type(vals[0]) is str:
            self.dropped.setdefault(spec.noun, set()).add(vals[0])
        return None


# -- the config dataclasses, each with its rules -------------------------

@dataclass
class ChainCfg:
    chain_id: str = _yaml(_public(_name("_-")), key="id")
    nodes: int = _yaml(_int, minimum=1)
    gateways: int = _yaml(_int, 0, minimum=0)
    quorum: Fraction = _yaml(_fraction, "1/2")
    confirm_latency: int = _yaml(_int, minimum=1)
    semantic: str = _yaml(_SEMANTIC)
    regime: PermissionRegime = _yaml(_regime, {})
    path: Optional[str] = _yaml(_public(_name("_-.")), default=None)
    writers: list[str] = _yaml(_NAMES, default_factory=list)
    readers: list[str] = _yaml(_NAMES, default_factory=list)
    vouch_threshold: Optional[int] = _yaml(_int, minimum=1, default=None)
    denom: Optional[str] = _yaml(_str, default=None)

    def __post_init__(self) -> None:
        # derived once, for the reader's _check and the engine's build
        self._node_ids = node_ids(self.chain_id, self.nodes)
        self._gateway_ids = gateway_ids(self.chain_id, self.gateways)

    def threshold(self) -> int:
        if self.vouch_threshold is not None:
            return self.vouch_threshold
        return self.gateways // 2 + 1

    def node_ids(self) -> list[str]:
        return self._node_ids

    def gateway_ids(self) -> list[str]:
        return self._gateway_ids

    def _check(self, r: _Reader, p: tuple) -> None:
        if not 0 < self.quorum.numerator <= self.quorum.denominator:
            r.add(_at(p, "quorum"), f"must be in (0, 1], got {self.quorum}")
        if self.vouch_threshold is not None and self.vouch_threshold > self.gateways:
            r.add(_at(p, "vouch_threshold"), f"threshold {self.vouch_threshold} "
                                          f"exceeds gateway count {self.gateways}")
        elif self.threshold() > MAX_THRESHOLD:
            key = "gateways" if self.vouch_threshold is None else "vouch_threshold"
            r.add(_at(p, key), f"threshold {self.threshold()} exceeds {MAX_THRESHOLD}, "
                                f"the largest an attestation carries")
        path = self.path or self.chain_id
        owner = r.ids["path"].setdefault(path, self.chain_id)
        if owner != self.chain_id:
            r.add(_at(p, "path"), f"chain path {path} is taken by {owner}")
        r.ids["node"].update(self._node_ids)
        r.ids["gateway"].update(self._gateway_ids)


@dataclass
class AssetCfg:
    asset_id: str = _yaml(_str, key="id")
    chain: str = _yaml(_str, ref="chain")
    payload: str = _yaml(_str, lambda n, vals, parent: vals[0])


@dataclass
class PeeringCfg:
    peering_id: str = _yaml(_str, _nth("pa"), key="id")
    chains: tuple[str, str] = _yaml(_pair, ref="chain")
    semantics: list[str] = _yaml(_list(_SEMANTIC), [], minimum=1)
    fee: Fraction = _yaml(_fraction, 0, minimum=0)

    def _check(self, r: _Reader, p: tuple) -> None:
        pair = tuple(sorted(self.chains))
        covered = r.ids["peered"].setdefault(pair, set())
        if covered.intersection(self.semantics):
            r.add(_at(p, "semantics"), f"an earlier peering of {pair[0]} and "
                                    f"{pair[1]} covers the same semantic type")
        covered.update(self.semantics)


@dataclass
class ConnectorCfg:
    connector_id: str = _yaml(_str, key="id")
    chains: list[str] = _yaml(_NAMES, [], minimum=2, ref="chain")
    reserves: dict[str, Value] = _yaml(_amounts, {}, minimum=0)
    rates: dict[tuple[str, str], Value] = _yaml(_rates, [])

    def _check(self, r: _Reader, p: tuple) -> None:
        for i, chain in enumerate(self.chains):
            if chain in self.chains[:i]:
                r.add(_at(p, f"chains[{i}]"), f"duplicate chain {chain}")


@dataclass
class SubCfg:
    sub_id: str = _yaml(_str, _nth("s"), key="id")
    candidates: list[str] = _yaml(_NAMES, [], minimum=1, ref="chain")
    payload: str = _yaml(_str, lambda n, vals, parent: f"{parent[0]}-{vals[0]}")
    timeout: Optional[int] = _yaml(_int, minimum=1, default=None)

    def _check(self, r: _Reader, p: tuple) -> None:
        chains = r.ids["chain"]
        semantic = chains[self.candidates[0]].semantic
        for cid in self.candidates:
            if chains[cid].semantic != semantic:
                semantics = sorted({chains[c].semantic for c in self.candidates})
                r.add(_at(p, "candidates"), f"candidates span semantic types {semantics}")
                return


@dataclass
class AppTxnCfg:
    txn_id: str = _yaml(_txn_id, key="id")
    at: int = _yaml(_int, 0, minimum=0, tick=True)
    subs: list[SubCfg] = _yaml(Spec(SubCfg, "sub"), [], minimum=1)
    app: str = _yaml(_str, default="anon")


@dataclass
class TransferCfg:
    transfer_id: str = _yaml(_str, key="id")
    at: int = _yaml(_int, 0, minimum=0, tick=True)
    asset: str = _yaml(_str, ref="asset")
    source: str = _yaml(_str, ref="chain", key="from")
    dest: str = _yaml(_str, ref="chain", key="to")
    beneficiary: str = _yaml(_str, "bearer")
    deadline: int = _yaml(_int, minimum=1, tick=True)

    def _check(self, r: _Reader, p: tuple) -> None:
        chains = r.ids["chain"]
        if self.source == self.dest:
            r.add(_at(p, "to"), "source and destination must differ")
        elif chains[self.source].semantic != chains[self.dest].semantic:
            r.add(_at(p), "source and destination chains differ in semantic type")
        if self.deadline <= self.at:
            r.add(_at(p, "deadline"), f"deadline {self.deadline} not after start {self.at}")
        elif self.deadline == r.horizon:
            # the abort runs at deadline + 1, which must be within the run
            r.add(_at(p, "deadline"), f"deadline {self.deadline} leaves no tick "
                                   f"for the abort before horizon {r.horizon}")


@dataclass
class PaymentCfg:
    payment_id: str = _yaml(_str, key="id")
    at: int = _yaml(_int, 0, minimum=0, tick=True)
    source: str = _yaml(_str, ref="chain", key="from")
    dest: str = _yaml(_str, ref="chain", key="to")
    amount: Value = _yaml(_positive)
    denom_in: str = _yaml(_str)
    denom_out: str = _yaml(_str)
    settle_after: Optional[int] = _yaml(_int, minimum=1, default=None)
    release_after: Optional[int] = _yaml(_int, minimum=1, default=None)

    def _check(self, r: _Reader, p: tuple) -> None:
        if self.settle_after is not None and self.release_after is not None:
            r.add(_at(p), "settle_after and release_after are mutually exclusive")
        chains = r.ids["chain"]
        if (chains[self.source].denom == self.denom_in
                and chains[self.dest].denom == self.denom_out):
            return
        for cid, key, denom_key, denom in ((self.source, "from", "denom_in", self.denom_in),
                                           (self.dest, "to", "denom_out", self.denom_out)):
            declared = chains[cid].denom
            if declared is None:
                r.add(_at(p, key), f"chain {cid} declares no denom")
            elif declared != denom:
                r.add(_at(p, denom_key), f"{cid} denominates {declared}, not {denom}")


# the target fields each fault kind takes
FAULT_TARGETS = {"partition": ("chains", "links"), "node_crash": ("nodes",),
                 "gateway_crash": ("gateways",), "heal": ("faults",)}


@dataclass
class FaultCfg:
    fault_id: str = _yaml(_str, _nth("f"), key="id")
    kind: str = _yaml(_enum({k: k for k in FAULT_TARGETS}))
    at: int = _yaml(_int, minimum=0, tick=True)
    chains: list[str] = _yaml(_NAMES, ref="chain", default_factory=list)
    links: list[tuple[str, str]] = _yaml(_list(_pair), default_factory=list)
    nodes: list[str] = _yaml(_NAMES, ref="node", default_factory=list)
    gateways: list[str] = _yaml(_NAMES, ref="gateway", default_factory=list)
    # the fault ids read so far are those of earlier faults, the only
    # ones a heal may name
    faults: list[str] = _yaml(_NAMES, ref="fault", default_factory=list)
    until: Optional[int] = _yaml(_int, minimum=1, default=None)

    def _check(self, r: _Reader, p: tuple) -> None:
        targets, named = FAULT_TARGETS[self.kind], False
        for key, names in (("chains", self.chains), ("links", self.links),
                           ("nodes", self.nodes), ("gateways", self.gateways),
                           ("faults", self.faults)):
            if names and key in targets:
                named = True
            elif names:
                r.add(_at(p, key), f"{self.kind} takes no {key}")
        if not named:
            r.add(_at(p), f"{self.kind} needs {' or '.join(targets)}")
        if self.until is not None and self.kind == "heal":
            r.add(_at(p, "until"), "heal takes no until")
        elif self.until is not None and self.until <= self.at:
            r.add(_at(p, "until"), f"until {self.until} must exceed at {self.at}")
        for a, b in self.links:
            if any(c not in r.ids["chain"] and not r.was_dropped("chain", c)
                   for c in (a, b)):
                r.add(_at(p, "links"), f"unknown link {a}-{b}")


@dataclass
class GrantCfg:
    grant_id: str = _yaml(_str, key="id")
    grantor: str = _yaml(_str)
    grantee: str = _yaml(_str)
    asset: str = _yaml(_str, ref="asset")
    expiry: int = _yaml(_int, minimum=1)


@dataclass
class ReadCfg:
    read_id: str = _yaml(_str, _nth("r"), key="id")
    at: int = _yaml(_int, 0, minimum=0, tick=True)
    asset: str = _yaml(_str, ref="asset")
    requester: str = _yaml(_str)
    grant: Optional[str] = _yaml(_str, ref="grant", default=None)


@dataclass
class ResolveCfg:
    resolve_id: str = _yaml(_public(_str), _nth("q"), key="id")
    at: int = _yaml(_int, 0, minimum=0, tick=True)
    asset: str = _yaml(_str, ref="asset")


@dataclass
class ProbeCfg:
    probe_id: str = _yaml(_str, _nth("pr"), key="id")
    at: int = _yaml(_int, 0, minimum=0, tick=True)
    chain: str = _yaml(_str, ref="chain")


def _section(cfg, noun: str):
    return _yaml(Spec(cfg, noun), default_factory=list)


@dataclass
class ScenarioConfig:
    name: str
    horizon: int = _yaml(_int, minimum=1)
    seed: int = _yaml(_int, minimum=0, default=0)
    # read from the links and valuenet mappings (see parse_scenario)
    inter_chain_latency: int = _yaml(_int, minimum=0, key="links.inter_chain_latency", default=2)
    latency_jitter: int = _yaml(_int, minimum=0, key="links.latency_jitter", default=0)
    reservation_ttl: int = _yaml(_int, minimum=1, key="valuenet.reservation_ttl", default=50)
    # the sections, in reading order: each after those it refers to
    chains: list[ChainCfg] = _section(ChainCfg, "chain")
    assets: list[AssetCfg] = _section(AssetCfg, "asset")
    peerings: list[PeeringCfg] = _section(PeeringCfg, "peering")
    connectors: list[ConnectorCfg] = _section(ConnectorCfg, "connector")
    app_txns: list[AppTxnCfg] = _section(AppTxnCfg, "app txn")
    transfers: list[TransferCfg] = _section(TransferCfg, "transfer")
    payments: list[PaymentCfg] = _section(PaymentCfg, "payment")
    faults: list[FaultCfg] = _section(FaultCfg, "fault")
    grants: list[GrantCfg] = _section(GrantCfg, "grant")
    reads: list[ReadCfg] = _section(ReadCfg, "read")
    resolves: list[ResolveCfg] = _section(ResolveCfg, "resolve")
    probes: list[ProbeCfg] = _section(ProbeCfg, "probe")


# the ScenarioConfig fields that hold the workload, in the outcomes' order
WORKLOAD_SECTIONS = ("app_txns", "transfers", "payments", "reads", "resolves", "probes")

_SCENARIO = Spec(ScenarioConfig)


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    import yaml  # here, so that a run from a mapping never loads PyYAML
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark else ""
        raise ParseError(f"{path.name}: malformed YAML{where}: {exc}")
    except ValueError as exc:
        # a scalar YAML cannot build: a date such as 2020-13-45, or an
        # int of more digits than the interpreter converts
        raise ParseError(f"{path.name}: malformed YAML: {exc}")
    if raw is None:
        raise ParseError(f"{path.name}: empty scenario file")
    if not isinstance(raw, dict):
        raise ParseError(f"{path.name}: top level must be a mapping")
    return parse_scenario(raw, name=path.stem)


def with_seed(config: ScenarioConfig, seed) -> ScenarioConfig:
    """config under another seed, read by the seed key's own rule: a
    seed the file's seed key would reject raises that ValidationError."""
    _, kind, _, minimum, *_ = next(f for f in _SCENARIO.fields if f[0] == "seed")
    try:
        return replace(config, seed=kind(seed, minimum))
    except _Invalid as exc:
        raise ValidationError(f"seed: {exc}") from None


def parse_scenario(raw: dict, name: str = "scenario") -> ScenarioConfig:
    """Read a loaded scenario mapping through the schema; raises one
    ValidationError that carries every problem found."""
    if type(raw) is not dict:
        raise ValidationError(f"top level: expected mapping, got {type(raw).__name__}")
    r = _Reader(raw.get("horizon"))
    # the keys of links and valuenet are read as "links.<key>", and a
    # top-level key with a dot is no section
    flat = {}
    for key, val in raw.items():
        if key in ("links", "valuenet") and val is not None:
            try:
                flat.update((f"{key}.{_key(k)}", v) for k, v in _mapping(val).items())
            except _Invalid as exc:
                r.add(key, str(exc))
        elif "." in _key(key):
            r.add(_key(key), "unknown section")
        else:
            flat[key] = val
    vals = r.read(flat, "", _SCENARIO)
    if r.problems:
        raise ValidationError(r.problems)
    return ScenarioConfig(name, *vals)
