"""Global invariant audits over a finished run.

Each audit inspects the final state plus the event log and returns
pass/fail with a detail string.  The CLI exit status is derived from
these, so an audit must only fail when the corresponding invariant is
genuinely violated.

Each audit makes one pass over the log and the final state, building
any index it needs first, so its cost is linear in the log plus the
final state.  When several items violate an invariant, the detail names
the first in the order of the log, or of the sorted chain and asset
ids.  run_all looks each audit up by its module global name on every
call, so a wrapper installed on this module from outside takes effect.
"""

from __future__ import annotations

import re

from .chain import CONSENSUS_KINDS, LOCAL_REF, NODE_ID_TAIL
from .gateway import TransferState, verify_attestation
from .report import AuditResult
from .simnet import ledger_parts

# LOCAL_REF without its leading \b: a literal leads it, so a scan for
# candidates is fast, and LOCAL_REF confirms each at its position
_REF_CANDIDATE = re.compile(r"e\d+\b")


def run_all(sim) -> list[AuditResult]:
    checks = [
        ("clock_monotonic", _clock_monotonic),
        ("append_only_ledgers", _append_only),
        ("quorum_soundness", _quorum_soundness),
        ("confirm_latency", _confirm_latency),
        ("semantic_gating", _semantic_gating),
        ("idempotent_submission", _idempotent_submission),
        ("single_authority", _single_authority),
        ("no_lost_assets", _no_lost_assets),
        ("attestation_necessity", _attestation_necessity),
        ("masking_bijectivity", _masking_bijectivity),
        ("resolution_opacity", _resolution_opacity),
        ("no_partition_delivery", _no_partition_delivery),
        ("value_conservation", _value_conservation),
        ("reservation_consistency", _reservation_consistency),
    ]
    results = []
    for name, fn in checks:
        passed, detail = fn(sim)
        results.append(AuditResult(name, passed, detail))
    return results


def _clock_monotonic(sim):
    last_tick = 0
    for i, rec in enumerate(sim.net.log.records):
        if rec.seq != i:
            return False, f"record {i} has seq {rec.seq}"
        if rec.tick < last_tick:
            return False, f"tick went backwards at record {i}"
        last_tick = rec.tick
    return True, f"{len(sim.net.log.records)} records"


def _append_only(sim):
    """Ledger contents must equal the append records in the log, in
    order; anything else means an entry was dropped or reordered."""
    appended: dict[str, list[str]] = {cid: [] for cid in sim.chains}
    for rec in sim.net.log.records:
        # genesis and attestation appends, and consensus confirmations
        if rec.kind == "ledger" and (rec.fields[0] in ("genesis", "append")
                                     or rec.get("confirm") is not None):
            chain_id, ref = ledger_parts(rec.subject)
            appended[chain_id].append(ref)
    for cid, chain in sorted(sim.chains.items()):
        actual = [e.local_ref for e in chain.ledger.entries]
        if actual != appended[cid]:
            return False, f"{cid}: ledger {actual} vs log {appended[cid]}"
    return True, ""


def _quorum_soundness(sim):
    for cid, chain in sorted(sim.chains.items()):
        threshold = chain.quorum_threshold()
        nodes = set(chain.nodes)
        for e in chain.ledger.entries:
            if e.kind not in CONSENSUS_KINDS:
                continue
            if len(e.confirming_nodes) < threshold:
                return False, (f"{cid}/{e.local_ref}: {len(e.confirming_nodes)} "
                               f"confirming < threshold {threshold}")
            if not nodes.issuperset(e.confirming_nodes):
                return False, f"{cid}/{e.local_ref}: unknown confirming node"
    return True, ""


def _confirm_latency(sim):
    for cid, chain in sorted(sim.chains.items()):
        for e in chain.ledger.entries:
            if e.kind in CONSENSUS_KINDS:
                age = e.confirmed_tick - e.submitted_tick
                if age < chain.confirm_latency_ticks:
                    return False, (f"{cid}/{e.local_ref}: confirmed after {age} "
                                   f"< latency {chain.confirm_latency_ticks}")
    return True, ""


def _semantic_gating(sim):
    for cid, chain in sorted(sim.chains.items()):
        for e in chain.ledger.entries:
            if e.unit is not None and e.unit.semantic_type != chain.semantic_type:
                return False, f"{cid}/{e.local_ref}: semantic mismatch"
    return True, ""


def _idempotent_submission(sim):
    """No two units share a key on a chain, and no entry is submitted
    for two units: a unit submitted again logs the subject and fields of
    its first submit, so one subject with two sets of fields is two
    units merged into one entry."""
    submitted = {}
    for rec in sim.net.log.records:
        if rec.kind == "ledger" and rec.fields[0] == "submit":
            fields = submitted.setdefault(rec.subject, rec.fields)
            if fields != rec.fields:
                return False, f"{rec.subject}: one entry for two units, record {rec.seq}"
    for cid, chain in sorted(sim.chains.items()):
        seen = set()
        for e in chain.ledger.entries:
            if e.unit is None:
                continue
            if e.unit.idempotency_key in seen:
                return False, f"{cid}: duplicate key {e.unit.idempotency_key}"
            seen.add(e.unit.idempotency_key)
    return True, ""


def _single_authority(sim):
    resolver = sim.resolver
    masks = resolver.mask_tables()
    # each asset's (chain, ref) entries, by chain id, then mask order
    masked: dict = {}
    for chain_id in sorted(masks):
        for ref, mapped in masks[chain_id].items():
            masked.setdefault(mapped, []).append((chain_id, ref))
    assets = resolver.assets()
    for cid in assets:
        history = resolver.audit(cid)
        if history[0].forwarded_from is not None:
            return False, f"{cid}: history does not start at origin"
        for prev, cur in zip(history, history[1:]):
            if cur.forwarded_from != prev.home_chain:
                return False, f"{cid}: broken forward chain"
        home = history[-1].home_chain
        holders = []
        for chain_id, ref in masked.get(cid, ()):
            ledger = sim.chains[chain_id].ledger
            if ledger.get(ref) is None:
                return False, f"{cid}: masked ref {chain_id}/{ref} off ledger"
            if ref not in ledger.marks and ref not in ledger.voids:
                holders.append(chain_id)
        if holders != [home]:
            return False, f"{cid}: authoritative entries on {holders}, home {home}"
    return True, f"{len(assets)} assets"


def _no_lost_assets(sim):
    engine = sim.transfers
    finalized_assets = {t.asset for t in engine.transfers.values()
                        if t.state == TransferState.FINALIZED}
    for tid, t in sorted(engine.transfers.items()):
        if not t.terminal():
            return False, f"{tid}: still {t.state} at end of run"
        if engine.locks.get((t.source_chain, t.asset)) is t:
            return False, f"{tid}: terminal but still holds the source lock"
        record_ref = sim.chains[t.dest_chain].refs.get(f"record:{tid}")
        dest = sim.chains[t.dest_chain].ledger
        if t.state == TransferState.FINALIZED:
            if dest.get(record_ref) is None:
                return False, f"{tid}: finalized without a destination record"
            if record_ref in dest.voids:
                return False, f"{tid}: finalized but record voided"
        else:
            home = sim.resolver.resolve(t.asset).home_chain
            if home != t.source_chain and t.asset not in finalized_assets:
                return False, f"{tid}: aborted but authority left {t.source_chain}"
            if dest.get(record_ref) is not None and record_ref not in dest.voids:
                return False, f"{tid}: aborted but record not voided"
    return True, f"{len(engine.transfers)} transfers terminal"


def _attestation_necessity(sim):
    vouches: dict[str, set[str]] = {}
    for rec in sim.net.log.records:
        if rec.kind == "vouch":
            vouches.setdefault(rec.subject, set()).add(rec.get("side"))
    for tid, t in sorted(sim.transfers.transfers.items()):
        if t.state != TransferState.FINALIZED:
            continue
        if vouches.get(tid) != {"source", "dest"}:
            return False, f"{tid}: finalized without both vouch records"
        for side, att in (("source", t.source_attestation),
                          ("dest", t.dest_attestation)):
            if att is None:
                return False, f"{tid}: missing {side} attestation"
            if not verify_attestation(att, sim.registry):
                return False, f"{tid}: {side} attestation fails verification"
            chain_id = t.source_chain if side == "source" else t.dest_chain
            if att.threshold_k != sim.vouch_thresholds[chain_id]:
                return False, f"{tid}: {side} threshold {att.threshold_k} wrong"
    return True, ""


def _masking_bijectivity(sim):
    for chain_id, mask in sorted(sim.resolver.mask_tables().items()):
        ids = list(mask.values())
        if len(ids) != len(set(ids)):
            return False, f"{chain_id}: two refs share a cross id"
        back = sim.resolver._unmask[chain_id]
        if len(back) != len(mask):
            return False, f"{chain_id}: mask tables out of sync"
        for ref, cid in mask.items():
            if back.get(cid) != ref:
                return False, f"{chain_id}: {cid} does not map back to {ref}"
    return True, ""


def _resolution_opacity(sim):
    """Advertisement and resolve transcripts must not leak node ids or
    chain-local transaction refs.  A node id leaks wherever it occurs,
    also inside a longer word (bc1.n1 inside bc1.n10); the detail names
    the first leaking record, and in it the first leaked id in sorted
    order.

    A first screen joins the transcripts' words with newlines: each
    subject, bare word and key, and each value or item of a list or
    tuple value.  A node id or a local ref holds none of a rendered
    line's separators (space, "=" and ","), and the tick, the seq and
    the two kinds hold neither, so a leak lies within one word, bounded
    as in the line, and the screen finds a NODE_ID_TAIL match or a
    local ref.  Only then is each transcript rendered once, with the
    lines joined by a newline, which bounds a word as a line's end
    does; each node id is looked up once in the joined text, the local
    refs are found by one scan of it, and the records are walked for
    the detail."""
    transcripts = [rec for rec in sim.net.log.records
                   if rec.kind in ("advert", "resolve")]
    words = []
    for rec in transcripts:
        words.append(rec.subject)
        for field in rec.fields:
            if field.__class__ is str:
                words.append(field)
                continue
            key, value = field
            words.append(key)
            if isinstance(value, (list, tuple)):
                words.extend(map(str, value))
            else:
                words.append(str(value))
    text = "\n".join(words)
    if NODE_ID_TAIL.search(text) or _holds_ref(text):
        lines = [rec.line() for rec in transcripts]
        text = "\n".join(lines)
        leaked = sorted(nid for chain in sim.chains.values() for nid in chain.nodes
                        if nid in text)
        ref = _holds_ref(text)
        for rec, line in zip(transcripts, lines):
            for nid in leaked:
                if nid in line:
                    return False, f"record {rec.seq} leaks node id {nid}"
            if ref and LOCAL_REF.search(line):
                return False, f"record {rec.seq} leaks a local ref"
    return True, f"{len(transcripts)} transcripts"


def _holds_ref(text: str) -> bool:
    """Whether text holds a local ref as a word."""
    return any(LOCAL_REF.match(text, m.start()) for m in _REF_CANDIDATE.finditer(text))


def _no_partition_delivery(sim):
    """Replay the fault records against the config by the fault path's
    rule: a fault is active from its apply record to its first heal
    record, what is cut off is the chains and links of the faults active
    then, and no delivery may touch it at its record.  It reads nothing
    of SimNet's fault state, so a network that fails to cut off what a
    fault names fails this audit."""
    faults = {f.fault_id: f for f in sim.config.faults if f.chains or f.links}
    if not faults:  # no fault can block a delivery
        return True, ""
    active, cut_off = set(), set()
    for rec in sim.net.log.records:
        if rec.kind == "fault":
            if rec.subject not in faults:
                continue
            if rec.get("phase") == "heal":
                active.discard(rec.subject)
            else:
                active.add(rec.subject)
            cut_off = {t for fid in active for t in
                       (*faults[fid].chains, *map(frozenset, faults[fid].links))}
        elif rec.kind == "deliver" and cut_off:
            src, dst = rec.get("src"), rec.get("dst")
            if dst in cut_off:
                return False, f"record {rec.seq}: delivery into partitioned {dst}"
            if src in cut_off:
                return False, f"record {rec.seq}: delivery out of partitioned {src}"
            if src and frozenset((src, dst)) in cut_off:
                return False, f"record {rec.seq}: delivery across cut link {src}-{dst}"
    return True, ""


def _value_conservation(sim):
    problems = sim.valuenet.conservation_errors()
    if problems:
        return False, "; ".join(problems)
    for (cid, denom), (numerator, _) in sim.valuenet.reserves.items():
        if numerator < 0:
            return False, f"{cid}: negative {denom} reserve"
    return True, ""


def _reservation_consistency(sim):
    problem = sim.valuenet.hold_errors()
    if problem:
        return False, problem
    return True, ""
