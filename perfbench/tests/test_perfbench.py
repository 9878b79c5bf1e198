"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from interopsim import audit, engine, gateway  # noqa: E402
from interopsim.errors import ValidationError  # noqa: E402
from interopsim.scenario import parse_scenario  # noqa: E402

PROGRAM = run.import_program()


@pytest.mark.parametrize("name", ["dense", "sparse", "payments"])
def test_mappings_validate_for_many_seeds(name):
    for seed in range(12):
        parse_scenario(workloads.generate(name, seed)[0])


def test_fault_worlds_validate_for_many_seeds():
    for seed in range(300):
        parse_scenario(workloads.fault_world(seed))


def test_mappings_hold_only_yaml_values():
    def plain(value):
        if isinstance(value, dict):
            return all(isinstance(k, str) and plain(v) for k, v in value.items())
        if isinstance(value, list):
            return all(plain(v) for v in value)
        return isinstance(value, (str, int))

    for name in workloads.GENERATORS:
        assert all(plain(raw) for raw in workloads.generate(name, 3))


def test_same_seed_same_mapping_other_seed_other_mapping():
    for name in workloads.GENERATORS:
        assert workloads.generate(name, 5) == workloads.generate(name, 5)
        assert workloads.generate(name, 5) != workloads.generate(name, 6)


def test_fault_world_matches_acceptance_criterion_3_world():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from test_acceptance import _random_fault_config
    finally:
        sys.path.remove(str(ROOT / "tests"))
    for seed in (0, 1, 7, 123, 499):
        ours = parse_scenario(workloads.fault_world(seed), name=f"fault-sweep-{seed}")
        assert ours == _random_fault_config(seed)


def test_invalid_mapping_is_still_rejected():
    raw = workloads.sparse(0)
    raw["transfers"][0]["deadline"] = raw["horizon"] + 1
    with pytest.raises(ValidationError):
        parse_scenario(raw)


def _traced(raws):
    tracer = tracing.Tracer()
    with tracer:
        it = run.run_iteration(PROGRAM, raws, tracer)
    assert it.failed == 0
    return it, run.layer_metrics(it)


def test_payments_settle_release_expire_and_overload():
    it, m = _traced(workloads.generate("payments", 0))
    for state in ("SETTLED", "RELEASED", "EXPIRED", "REJECTED"):
        assert it.states[f"payments.{state}"] > 0, state
    assert it.states["reads.OK"] > 0 and it.states["reads.ERROR"] > 0
    assert it.states["resolves.OK"] > 0 and it.states["probes.OK"] > 0
    assert 0 < m["valuenet.overloaded_ratio"] < 1
    assert 0 < m["valuenet.useful_expire_ratio"] < 1
    assert m["gateway.read_calls"] > 0 and m["gateway.steps"] == 0
    shares = run.layer_shares(it)
    assert max(shares, key=shares.get) == "valuenet"


def test_fault_sweep_repairs_and_retries_vouches():
    it, m = _traced(workloads.fault_sweep(0, size=60))
    assert it.attempted == 60
    assert m["gateway.repairs"] > 0
    assert 0 < m["gateway.vouch_retry_ratio"] < 1
    assert it.states["transfers.FINALIZED"] > 0
    assert it.states["transfers.ABORTED"] > 0


def test_sparse_logs_under_100_records_and_mostly_idles():
    it, m = _traced(workloads.generate("sparse", 0))
    assert it.counts["records"] < 100
    assert it.states == {"app_txns.CONFIRMED": 1, "transfers.FINALIZED": 1}
    assert m["engine.ticks"] > workloads.SPARSE_HORIZON - 50
    assert m["chain.idle_consensus_ratio"] > 0.99
    shares = run.layer_shares(it)
    assert max(shares, key=shares.get) == "chain"


def test_dense_moves_assets_and_app_transactions():
    it, m = _traced([workloads.dense(0, n=120)])
    assert it.states["transfers.FINALIZED"] > 100
    assert it.states["app_txns.CONFIRMED"] > 100
    assert m["identity.rebinds"] == it.states["transfers.FINALIZED"]
    assert m["audit.total_s"] > m["audit.single_authority_s"] > 0


def test_untraced_run_after_traced_run_gives_same_digest():
    raws = workloads.generate("sparse", 2)
    before = run.run_iteration(PROGRAM, raws)
    traced, _ = _traced(raws)
    after = run.run_iteration(PROGRAM, raws)
    assert before.digest == traced.digest == after.digest
    assert engine.verify_attestation is gateway.verify_attestation
    assert not hasattr(gateway.verify_attestation, "__wrapped__")
    assert not hasattr(audit._single_authority, "__wrapped__")
    assert not hasattr(engine.Simulation.run, "__wrapped__")


def test_tracer_wraps_every_importing_module():
    with tracing.Tracer():
        assert engine.verify_attestation is gateway.verify_attestation
        assert audit.verify_attestation is gateway.verify_attestation
        assert hasattr(engine.mediated_read, "__wrapped__")
        assert hasattr(audit._single_authority, "__wrapped__")


def test_self_time_excludes_child_spans():
    it, _ = _traced(workloads.generate("sparse", 0))
    calls, total, own = it.spans["engine.run"]
    assert calls == 1 and 0 < own < total
    children = sum(t for name, (_, t, _) in it.spans.items()
                   if name in ("simnet.drain", "chain.consensus", "engine.quiescent",
                               "gateway.step_all", "valuenet.expire",
                               "report.assemble", "gateway.on_confirmed",
                               "survivor.on_confirmed"))
    assert total - own == pytest.approx(children)
    consensus = it.spans["chain.consensus"]
    assert consensus[1] == consensus[2]  # a leaf span: self time is all of it


def test_default_seed_matches_expected_and_wrong_digest_fails(tmp_path, monkeypatch):
    assert run.Run(PROGRAM, "sparse", run.DEFAULT_SEED).failed == 0
    expected = json.loads(run.EXPECTED.read_text())
    expected["sparse"]["sha256"] = "0" * 64
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", wrong)
    bad = run.Run(PROGRAM, "sparse", run.DEFAULT_SEED)
    assert bad.failed == bad.attempted == 1
    assert run.Run(PROGRAM, "sparse", 1).failed == 0  # other seeds: repeats only


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    e2e, _ = run.end_to_end(run.Run(PROGRAM, "sparse", 1), 0, 1.0, units)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    it, m = _traced(workloads.generate("sparse", 0))
    assert [p["name"] for p in spec["per_layer"]] == [*m, "trace.overhead_ratio"]


def test_command_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "perfbench" / "expected.json").write_text(run.EXPECTED.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "correct" not in out.stdout
