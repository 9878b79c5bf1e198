"""Golden log regression for the bundled scenarios.

Each bundled scenario must reproduce its committed event log byte for
byte.  A divergence means either an unintended behavior change or an
intended one that was not re-baselined.  To re-baseline after an
intended change:

    python3 -m interopsim.cli run scenarios/<name>.yaml --out /tmp/g
    cp /tmp/g/run.log goldens/<name>.log
"""

import pytest

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
