"""Runner tests: artifact layout and event-log diffing."""

import json
from dataclasses import replace

from interopsim.runner import (
    REPORT,
    RESOLVER_DUMP,
    RUN_LOG,
    execute,
    replay_diff,
)

from conftest import bundled


class TestExecute:
    def test_writes_the_three_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        report, sim = execute(bundled("fig4_transfer"), out_dir=out)
        assert sorted(p.name for p in out.iterdir()) == [
            REPORT, RESOLVER_DUMP, RUN_LOG]
        assert (out / RUN_LOG).read_text() == sim.net.log.dumps()
        assert (out / REPORT).read_text() == report.to_json()
        dump = (out / RESOLVER_DUMP).read_text()
        [asset] = sim.resolver.assets()
        assert dump == f"{asset} home=bc2 history=->bc1@0;bc1>bc2@10\n"
        json.loads((out / REPORT).read_text())

    def test_accepts_a_parsed_config(self, tmp_path):
        config = bundled("fig2_fallback")
        report, _ = execute(config, out_dir=tmp_path / "o")
        assert report.scenario == "fig2_fallback"

    def test_seed_override_reaches_the_report(self, tmp_path):
        report, _ = execute(replace(bundled("fig2_fallback"), seed=123))
        assert report.seed == 123

    def test_no_out_dir_writes_nothing(self, tmp_path):
        execute(bundled("fig2_fallback"))
        assert list(tmp_path.iterdir()) == []


class TestReplayDiff:
    def test_identical_logs_yield_none(self, tmp_path):
        a = tmp_path / "a.log"
        b = tmp_path / "b.log"
        content = "0 0 advert bc1 path=bc1\n1 1 timer t1 fire\n"
        a.write_text(content)
        b.write_text(content)
        assert replay_diff(a, b) is None

    def test_first_divergence_is_reported_one_based(self, tmp_path):
        a = tmp_path / "a.log"
        b = tmp_path / "b.log"
        a.write_text("line one\nline two\nline three\n")
        b.write_text("line one\nline 2\nline three\n")
        div = replay_diff(a, b)
        assert div.line_no == 2
        assert div.left == "line two" and div.right == "line 2"
        assert "- line two" in div.render() and "+ line 2" in div.render()

    def test_length_mismatch_shows_absent_side(self, tmp_path):
        a = tmp_path / "a.log"
        b = tmp_path / "b.log"
        a.write_text("same\nextra\n")
        b.write_text("same\n")
        div = replay_diff(a, b)
        assert div.line_no == 2
        assert div.right is None
        assert "<absent>" in div.render()

    def test_execute_artifacts_replay_identically(self, tmp_path):
        config = bundled("gateway_crash")
        execute(config, out_dir=tmp_path / "r1")
        execute(config, out_dir=tmp_path / "r2")
        assert replay_diff(tmp_path / "r1" / RUN_LOG,
                           tmp_path / "r2" / RUN_LOG) is None
