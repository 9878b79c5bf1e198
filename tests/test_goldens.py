"""Golden log regression for the bundled scenarios.

Each bundled scenario must reproduce its committed event log byte for
byte.  A divergence means either an unintended behavior change or an
intended one that was not re-baselined.  To re-baseline after an
intended change:

    python3 -m interopsim.cli run scenarios/<name>.yaml --out /tmp/g
    cp /tmp/g/run.log goldens/<name>.log
"""

import pytest

from interopsim import Directionality, PathState, SemanticType, TransferState
from interopsim.chain import SEMANTIC_TYPES
from interopsim.runner import execute, replay_diff

from conftest import BUNDLED_SCENARIOS, GOLDEN_DIR, bundled


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_bundled_scenario_matches_golden(name, tmp_path):
    golden = GOLDEN_DIR / f"{name}.log"
    assert golden.exists(), f"missing committed golden {golden}"
    execute(bundled(name), out_dir=tmp_path)
    fresh = tmp_path / "run.log"
    divergence = replay_diff(golden, fresh)
    assert divergence is None, (
        f"{name} diverges from its golden log at {divergence.render()}")
    assert fresh.read_bytes() == golden.read_bytes(), (
        f"{name} log differs from golden in line endings or encoding")


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_bundled_scenario_audits_pass(name):
    report, _ = execute(bundled(name))
    failed = [a.name for a in report.audits if not a.passed]
    assert not failed, f"{name} fails audits: {failed}"


# each state and semantic type as the text the logs hold for it
LOG_TEXT = {
    SemanticType: {"PAYMENTS": "payments", "ASSET_REGISTRY": "asset-registry",
                   "GENERIC_RECORD": "generic-record"},
    Directionality: {"UNI": "uni", "BI": "bi"},
    TransferState: {s: s for s in ("INITIATED", "SOURCE_LOCKED", "DEST_RECORDED",
                                   "VOUCHED", "FINALIZED", "ABORTED")},
    PathState: {s: s for s in ("RESERVED", "SETTLED", "RELEASED", "EXPIRED")},
}


@pytest.mark.parametrize("cls", LOG_TEXT, ids=lambda cls: cls.__name__)
def test_states_and_types_are_exactly_their_log_text(cls):
    public = {name: value for name, value in vars(cls).items()
              if not name.startswith("_")}
    assert public == LOG_TEXT[cls]
    assert all(type(value) is str for value in public.values()), public


def test_the_semantic_type_tuple_lists_every_type():
    assert SEMANTIC_TYPES == tuple(LOG_TEXT[SemanticType].values())
