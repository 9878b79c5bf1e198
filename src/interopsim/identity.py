"""Identifier masking and the global resolver.

External parties never see chain-local transaction identifiers; they
hold cross ids whose suffix is opaque (derived from the run's RNG, never
from the local_ref).  A cross id is plain text, chain_path/opaque_suffix,
a str that keys, compares, logs and signs as itself; this module owns
the format: mint_cross_id builds it, cross_id_parts splits it and
prefix truncates it for adverts.  The resolver maps each asset to
exactly one home chain at a time and keeps the full forward history of
rebinds; the last pointer of an asset's history is its current home.

Chain identifiers themselves are public; only transaction identifiers
are masked.

Invariants surfaced for audit:
  * per-chain masking is a bijection (one cross_id per local_ref and
    vice versa);
  * every asset has exactly one home chain;
  * rebinding is atomic: no observation window shows zero or two homes;
  * forward history is linear and terminates (each pointer's
    forwarded_from equals the previous home).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .chain import slot_setters
from .errors import InvalidProof, NotFound, StaleAuthority
from .simnet import share_field

_B32_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"
# every 10-bit value as its two base32 letters
_B32_PAIRS = [a + b for a in _B32_ALPHABET for b in _B32_ALPHABET]


def _base32(raw: bytes) -> str:
    """RFC 4648 base32 of 16 bytes without padding: 26 letters, equal to
    base64.b32encode(raw).decode().rstrip("=").  The 128 bits, padded
    with two zero bits, are 13 ten-bit groups, most significant first,
    joined by one f-string (a join over a loop of the 13 shifts costs a
    third more)."""
    n = int.from_bytes(raw, "big") << 2
    p = _B32_PAIRS
    return (f"{p[n >> 120]}{p[n >> 110 & 0x3FF]}{p[n >> 100 & 0x3FF]}"
            f"{p[n >> 90 & 0x3FF]}{p[n >> 80 & 0x3FF]}{p[n >> 70 & 0x3FF]}"
            f"{p[n >> 60 & 0x3FF]}{p[n >> 50 & 0x3FF]}{p[n >> 40 & 0x3FF]}"
            f"{p[n >> 30 & 0x3FF]}{p[n >> 20 & 0x3FF]}{p[n >> 10 & 0x3FF]}"
            f"{p[n & 0x3FF]}")


def cross_id_parts(cross_id: str) -> tuple[str, str]:
    """The (chain_path, opaque_suffix) of a cross id; a path holds no "/"."""
    path, _, suffix = cross_id.partition("/")
    return path, suffix


def prefix(cross_id: str, n: int = 8) -> str:
    """Truncated form of a cross id, safe for reachability advertisements."""
    return cross_id[:cross_id.index("/") + 1 + n]


@dataclass(frozen=True, slots=True, init=False)
class AuthoritativePointer:
    asset: str
    home_chain: str
    forwarded_from: Optional[str]
    rebind_tick: int

    def __init__(self, asset: str, home_chain: str,
                 forwarded_from: Optional[str], rebind_tick: int) -> None:
        _set_asset(self, asset)
        _set_home(self, home_chain)
        _set_forwarded(self, forwarded_from)
        _set_tick(self, rebind_tick)


_set_asset, _set_home, _set_forwarded, _set_tick = slot_setters(AuthoritativePointer)


class Resolver:
    """Single global resolver instance per run."""

    def __init__(self, rng, verifier: Callable) -> None:
        self.rng = rng
        self._verifier = verifier
        self._path: dict[str, str] = {}  # chain id -> its path
        # per chain: local_ref <-> cross_id
        self._mask: dict[str, dict[str, str]] = {}
        self._unmask: dict[str, dict[str, str]] = {}
        # each asset's forward history; its last pointer is the home
        self._history: dict[str, list[AuthoritativePointer]] = {}

    def register_chain(self, chain_id: str, chain_path: Optional[str] = None) -> None:
        """Register chain_id once, under chain_path or its own id.  The
        scenario validator keeps paths unique (ChainCfg._check)."""
        if chain_id in self._path:
            raise ValueError(f"chain {chain_id} already registered")
        self._path[chain_id] = chain_path or chain_id
        self._mask[chain_id] = {}
        self._unmask[chain_id] = {}

    def path(self, chain_id: str) -> str:
        """The path that prefixes the cross ids minted on chain_id."""
        return self._path[chain_id]

    # -- masking -------------------------------------------------------

    def mint_cross_id(self, chain, local_ref: str, now: int = 0) -> str:
        """Mask a confirmed entry of chain under a fresh opaque id and
        register the chain as the asset's home.  Idempotent per ref."""
        chain_id = chain.chain_id
        mask, unmask = self._tables(chain_id)
        existing = mask.get(local_ref)
        if existing is not None:
            return existing
        chain.entry(local_ref)  # NotConfirmed or NotFound unless confirmed
        cid = f"{self._path[chain_id]}/{_base32(self.rng.randbytes(16))}"
        mask[local_ref] = cid
        unmask[cid] = local_ref
        self._history[cid] = [AuthoritativePointer(cid, chain_id, None, now)]
        return cid

    def bind_existing(self, chain_id: str, cross_id: str, local_ref: str) -> None:
        """Register an already-minted asset under a chain's mask (used
        when a transfer lands the asset on its destination).  An asset
        whose home has just moved back to a chain it left is masked there
        already, under the ref it left from, which is now marked; its
        mask entry moves to local_ref.  Any other collision raises."""
        mask, unmask = self._tables(chain_id)
        old_ref = unmask.get(cross_id)
        history = self._history.get(cross_id)
        came_home = (history is not None and history[-1].home_chain == chain_id
                     and history[-1].forwarded_from is not None)
        if local_ref in mask or (old_ref is not None and not came_home):
            raise ValueError(f"mask collision for {cross_id} on {chain_id}")
        if old_ref is not None:
            del mask[old_ref]
        mask[local_ref] = cross_id
        unmask[cross_id] = local_ref

    def _tables(self, chain_id: str) -> tuple[dict, dict]:
        """chain_id's mask and unmask tables; NotFound if never registered."""
        try:
            return self._mask[chain_id], self._unmask[chain_id]
        except KeyError:
            raise NotFound(f"chain {chain_id} is not registered") from None

    def local_ref_for(self, chain_id: str, cross_id: str) -> str:
        ref = self._unmask.get(chain_id, {}).get(cross_id)
        if ref is None:
            raise NotFound(f"{cross_id} not masked on {chain_id}")
        return ref

    def mask_tables(self) -> dict[str, dict[str, str]]:
        return self._mask

    # -- resolution and rebinding --------------------------------------

    def assets(self) -> list[str]:
        return sorted(self._history)

    def homes(self) -> Iterable[AuthoritativePointer]:
        """The current home pointer of every asset, in no set order."""
        return (history[-1] for history in self._history.values())

    def resolve(self, cross_id: str) -> AuthoritativePointer:
        history = self._history.get(cross_id)
        if history is None:
            raise NotFound(f"unknown asset {cross_id}")
        return history[-1]

    def rebind_authority(self, cross_id: str, from_chain: str, to_chain: str,
                         proof, now: int) -> AuthoritativePointer:
        """Atomically move the asset's home.  proof is a (source, dest)
        attestation pair; both must verify and name this asset."""
        history = self._history.get(cross_id)
        if history is None:
            raise NotFound(f"unknown asset {cross_id}")
        current = history[-1]
        if current.home_chain != from_chain:
            raise StaleAuthority(
                f"{cross_id} home is {current.home_chain}, not {from_chain}")
        self._check_proof(cross_id, from_chain, to_chain, proof)
        pointer = AuthoritativePointer(cross_id, to_chain, from_chain, now)
        history.append(pointer)
        return pointer

    def _check_proof(self, cross_id: str, from_chain: str, to_chain: str, proof) -> None:
        try:
            source_att, dest_att = proof
        except (TypeError, ValueError):
            raise InvalidProof("proof must be a (source, dest) attestation pair")
        for att, chain_id in ((source_att, from_chain), (dest_att, to_chain)):
            claim = att.claim
            if claim.chain_id != chain_id:
                raise InvalidProof(f"attestation names {claim.chain_id}, expected {chain_id}")
            if claim.cross_id != cross_id:
                raise InvalidProof("attestation names a different asset")
            if not claim.confirmed:
                raise InvalidProof("attestation does not claim confirmation")
            if not self._verifier(att):
                raise InvalidProof(f"attestation by {chain_id} failed verification")

    def audit(self, cross_id: str) -> list[AuthoritativePointer]:
        if cross_id not in self._history:
            raise NotFound(f"unknown asset {cross_id}")
        return list(self._history[cross_id])

    # -- dump ----------------------------------------------------------

    def dump(self) -> list[tuple[str, tuple]]:
        """One (asset, log fields) pair per asset, sorted: home plus
        forward history.  The assets of one home share its field."""
        out, homes = [], {}
        for cid in self.assets():
            history = self._history[cid]
            hops = [f"{p.forwarded_from or '-'}>{p.home_chain}@{p.rebind_tick}"
                    for p in history]
            home = history[-1].home_chain
            out.append((cid, (homes.get(home) or share_field(homes, "home", home),
                              ("history", ";".join(hops)))))
        return out
