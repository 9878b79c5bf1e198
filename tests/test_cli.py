"""Command line interface tests: subcommands, artifacts, exit codes.

Exit code contract: 0 all audits pass / logs identical, 1 audit failure
or diverging logs, 2 parse or validation errors, an unreadable input or
an --out directory that cannot be made.
"""

import os
import re
import subprocess
import sys

import pytest

from interopsim import cli
from interopsim.report import AuditResult

from conftest import BUNDLED_SCENARIOS, REPO_ROOT, SCENARIO_DIR


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the C locale with neither of Python's UTF-8 overrides, where a file
# opened without an encoding is ASCII; and Python's UTF-8 mode
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
UTF8_MODE = {"PYTHONUTF8": "1"}


def run_cli_process(env, *argv):
    """The CLI in a fresh interpreter under os.environ updated by env."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), **env}
    return subprocess.run([sys.executable, "-m", "interopsim.cli", *map(str, argv)],
                          env=env, capture_output=True)


class TestRun:
    def test_run_passing_scenario_exits_zero(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "run",
                               str(SCENARIO_DIR / "fig2_fallback.yaml"),
                               "--out", str(tmp_path / "o"))
        assert code == 0
        assert "scenario fig2_fallback seed=42" in out
        assert out.count("audit ") == 14
        assert "FAIL" not in out
        assert (tmp_path / "o" / "run.log").exists()
        assert (tmp_path / "o" / "report").exists()
        assert (tmp_path / "o" / "resolver.dump").exists()

    def test_run_seed_flag_overrides_scenario_seed(self, capsys):
        code, out, _ = run_cli(capsys, "run",
                               str(SCENARIO_DIR / "fig2_fallback.yaml"),
                               "--seed", "9")
        assert code == 0
        assert "seed=9" in out

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_run_seed_flag_writes_what_the_seed_key_writes(self, capsys, tmp_path, name):
        # the config is the one record of the seed: --seed 5 and a copy
        # of the file whose seed key reads 5 must give the same artifacts
        text = (SCENARIO_DIR / f"{name}.yaml").read_text()
        text, found = re.subn(r"(?m)^seed: \d+$", "seed: 5", text)
        copy = tmp_path / "copy" / f"{name}.yaml"
        copy.parent.mkdir()
        copy.write_text(text if found else text + "seed: 5\n")
        assert run_cli(capsys, "run", str(SCENARIO_DIR / f"{name}.yaml"),
                       "--seed", "5", "--out", str(tmp_path / "flag"))[0] == 0
        assert run_cli(capsys, "run", str(copy), "--out", str(tmp_path / "key"))[0] == 0
        for artifact in ("run.log", "report"):
            assert (tmp_path / "flag" / artifact).read_bytes() \
                == (tmp_path / "key" / artifact).read_bytes(), artifact
        assert '"seed": 5,' in (tmp_path / "flag" / "report").read_text()

    def test_run_seed_flag_obeys_the_seed_key_rule(self, capsys, tmp_path):
        # validate and run agree: --seed -1 is rejected as seed: -1 is
        copy = tmp_path / "fig2_fallback.yaml"
        copy.write_text(re.sub(r"(?m)^seed: \d+$", "seed: -1",
                               (SCENARIO_DIR / "fig2_fallback.yaml").read_text()))
        problem = "  seed: must be >= 0, got -1\n"
        code, out, err = run_cli(capsys, "run", str(copy))
        assert (code, out) == (2, "") and problem in err
        code, out, err = run_cli(capsys, "run",
                                 str(SCENARIO_DIR / "fig2_fallback.yaml"),
                                 "--seed", "-1")
        assert (code, out) == (2, "") and problem in err

    def test_run_invalid_scenario_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("horizon: 10\nchains:\n  - id: bc1\n    nodes: 0\n"
                       "    confirm_latency: 2\n    semantic: generic-record\n")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert "scenario invalid" in err
        assert "chains[0].nodes" in err

    def test_run_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "ghost.yaml"))
        assert code == 2
        assert "scenario unreadable" in err

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_a_scenario_that_is_not_utf8_exits_two(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(b"\xff\xfe: 1\n")
        code, out, err = run_cli(capsys, command, str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("scenario unreadable: cannot read ") and err.count("\n") == 1

    def test_run_out_naming_a_file_exits_two_before_the_run(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        code, out, err = run_cli(capsys, "run", str(SCENARIO_DIR / "cut_heal.yaml"),
                                 "--out", str(taken))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "File exists" in err and err.count("\n") == 1
        assert taken.read_text() == "not a directory\n"

    def test_run_failed_audit_exits_one(self, capsys, monkeypatch, tmp_path):
        # exit-code plumbing only: substitute a report with one red audit
        import interopsim.audit as audit_mod

        real_run_all = audit_mod.run_all

        def tainted(sim):
            results = real_run_all(sim)
            results[0] = AuditResult(results[0].name, False, "forced for test")
            return results

        monkeypatch.setattr(audit_mod, "run_all", tainted)
        code, out, _ = run_cli(capsys, "run",
                               str(SCENARIO_DIR / "fig2_fallback.yaml"))
        assert code == 1
        assert "FAIL (forced for test)" in out


class TestValidate:
    def test_valid_scenario_summarized(self, capsys):
        code, out, _ = run_cli(capsys, "validate",
                               str(SCENARIO_DIR / "fig4_transfer.yaml"))
        assert code == 0
        # one transfer, one read, one resolve and one probe
        assert "ok (2 chains, 4 workload items, 0 faults)" in out

    def test_reads_resolves_and_probes_count_as_workload(self, capsys, tmp_path):
        scenario = tmp_path / "lookups.yaml"
        scenario.write_text(
            "horizon: 20\n"
            "chains:\n  - id: bc1\n    nodes: 3\n    gateways: 1\n"
            "    confirm_latency: 2\n    semantic: generic-record\n"
            "assets:\n  - id: a1\n    chain: bc1\n"
            "grants:\n  - id: g1\n    grantor: app_x\n    grantee: app_y\n"
            "    asset: a1\n    expiry: 20\n"
            "reads:\n  - {at: 5, asset: a1, requester: app_y, grant: g1}\n"
            "resolves:\n  - {at: 5, asset: a1}\n"
            "probes:\n  - {at: 5, chain: bc1}\n")
        code, out, _ = run_cli(capsys, "validate", str(scenario))
        assert code == 0
        assert "ok (1 chains, 3 workload items, 0 faults)" in out

    def test_invalid_scenario_lists_every_problem(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "horizon: 10\n"
            "chains:\n"
            "  - id: bc1\n"
            "    nodes: 0\n"
            "    confirm_latency: 0\n"
            "    semantic: nonsense\n")
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert "scenario invalid (3 problems):" in err
        for frag in ("chains[0].nodes", "chains[0].confirm_latency",
                     "chains[0].semantic"):
            assert frag in err

    @pytest.mark.parametrize("name, where", [("id: e1", "chains[0].id"),
                                             ("id: bc1\n    path: net.e7", "chains[0].path")])
    def test_a_local_ref_in_a_chain_name_exits_two(self, capsys, tmp_path, name, where):
        # the chain's advertisement would show the word, which the
        # resolution_opacity audit reads as a leaked local ref
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"horizon: 10\nchains:\n  - {name}\n    nodes: 3\n"
                       "    confirm_latency: 2\n    semantic: generic-record\n")
        for command in ("validate", "run"):
            code, _, err = run_cli(capsys, command, str(bad))
            assert code == 2, command
            assert f"{where}: " in err and "local-ref format" in err

    def test_a_node_id_in_a_chain_path_exits_two(self, capsys, tmp_path):
        # bc2's asset prefixes would read net.bc1.n2x/..., which holds
        # bc1's node id bc1.n2
        chain = ("  - id: {}\n    nodes: 3\n    gateways: 1\n"
                 "    confirm_latency: 2\n    semantic: generic-record\n")
        bad = tmp_path / "bad.yaml"
        bad.write_text("horizon: 10\nchains:\n" + chain.format("bc1")
                       + chain.format("bc2") + "    path: net.bc1.n2x\n"
                       "assets:\n  - id: a1\n    chain: bc2\n")
        for command in ("validate", "run"):
            code, _, err = run_cli(capsys, command, str(bad))
            assert code == 2, command
            assert "chains[1].path: " in err and "node id" in err

    @pytest.mark.parametrize("gateways, threshold_line",
                             [(65536, "\n    vouch_threshold: 65536"), (131070, "")],
                             ids=["explicit", "default"])
    def test_a_vouch_threshold_beyond_16_bits_exits_two(self, capsys, tmp_path,
                                                        gateways, threshold_line):
        # validate and run agree: run once ended in a struct.error at the
        # first vouch, whose attestation could not serialize the threshold
        chain = ("  - id: {}\n    nodes: 3\n    gateways: {}\n    confirm_latency: 2\n"
                 "    semantic: asset-registry")
        bad = tmp_path / "bad.yaml"
        bad.write_text("horizon: 30\nchains:\n" + chain.format("bc1", gateways) + threshold_line
                       + "\n" + chain.format("bc2", 1) + "\n"
                       "assets:\n  - id: a1\n    chain: bc1\n"
                       "peerings:\n  - chains: [bc1, bc2]\n    semantics: [asset-registry]\n"
                       "transfers:\n  - id: x1\n    asset: a1\n    from: bc1\n    to: bc2\n"
                       "    deadline: 20\n")
        for command in ("validate", "run"):
            code, _, err = run_cli(capsys, command, str(bad))
            assert code == 2, command
            assert "threshold 65536 exceeds 65535" in err and "Traceback" not in err

    def test_empty_file_exits_two(self, capsys, tmp_path):
        empty = tmp_path / "empty.yaml"
        empty.write_text("")
        code, _, err = run_cli(capsys, "validate", str(empty))
        assert code == 2
        assert "empty scenario" in err


class TestDiff:
    def test_identical_logs_exit_zero(self, capsys, tmp_path):
        a = tmp_path / "a.log"
        b = tmp_path / "b.log"
        a.write_text("0 0 advert bc1 x\n")
        b.write_text("0 0 advert bc1 x\n")
        code, out, _ = run_cli(capsys, "diff", str(a), str(b))
        assert code == 0
        assert "logs identical" in out

    def test_divergent_logs_exit_one_and_show_the_line(self, capsys, tmp_path):
        a = tmp_path / "a.log"
        b = tmp_path / "b.log"
        a.write_text("0 0 advert bc1 x\n1 1 timer t fire\n")
        b.write_text("0 0 advert bc1 x\n1 1 timer u fire\n")
        code, out, _ = run_cli(capsys, "diff", str(a), str(b))
        assert code == 1
        assert "line 2:" in out
        assert "- 1 1 timer t fire" in out
        assert "+ 1 1 timer u fire" in out

    def test_missing_log_exits_two(self, capsys, tmp_path):
        a = tmp_path / "a.log"
        a.write_text("x\n")
        code, _, err = run_cli(capsys, "diff", str(a),
                               str(tmp_path / "ghost.log"))
        assert code == 2
        assert "error:" in err

    def test_a_log_that_is_not_utf8_exits_two(self, capsys, tmp_path):
        a = tmp_path / "a.log"
        a.write_text("x\n")
        b = tmp_path / "b.log"
        b.write_bytes(b"\xff\xfe\n")
        code, out, err = run_cli(capsys, "diff", str(a), str(b))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {b}: 'utf-8' codec can't decode byte 0xff " \
                      "in position 0: invalid start byte\n"


class TestEncoding:
    def test_non_ascii_text_runs_alike_under_an_ascii_locale(self, tmp_path):
        """Scenario and log files are UTF-8 whatever the locale: a non-ASCII
        transfer id, escaped so the file is ASCII but the log is not, and
        a non-ASCII payload in the file itself."""
        text = (SCENARIO_DIR / "fig4_transfer.yaml").read_text(encoding="utf-8")
        edits = {"transfer": ("id: x1", 'id: "x\\u00e41"'),
                 "deed": ("payload: deed-123", 'payload: "d\u00e9ed"')}
        for name, (old, new) in edits.items():
            assert text.count(old) == 1
            scenario = tmp_path / f"{name}.yaml"
            scenario.write_text(text.replace(old, new), encoding="utf-8")
            logs = []
            for env, commands in ((ASCII_LOCALE, ("validate", "run")), (UTF8_MODE, ("run",))):
                out = tmp_path / f"{name}-{len(logs)}"
                for command in commands:
                    argv = (command, scenario) + (("--out", out) if command == "run" else ())
                    done = run_cli_process(env, *argv)
                    assert done.returncode == 0, (argv, done.stderr.decode("utf-8", "replace"))
                logs.append(out / "run.log")
            assert logs[0].read_bytes() == logs[1].read_bytes()
            assert run_cli_process(ASCII_LOCALE, "diff", *logs).returncode == 0
        assert "transfer x\u00e41 ".encode() in (tmp_path / "transfer-0" / "run.log").read_bytes()

    def test_diff_prints_a_non_ascii_divergence_under_an_ascii_locale(self, tmp_path):
        """Stdout escapes what the locale cannot encode, as stderr does:
        the divergence prints, with the exit status of any divergence."""
        logs = []
        for n in (1, 2):
            logs.append(tmp_path / f"{n}.log")
            logs[-1].write_text(f"x\u00e4 {n}\n", encoding="utf-8")
        done = run_cli_process(ASCII_LOCALE, "diff", *logs)
        assert done.returncode == 1, done.stderr.decode("utf-8", "replace")
        assert b"Traceback" not in done.stderr
        assert done.stdout.decode("ascii") == "line 1:\n- x\\xe4 1\n+ x\\xe4 2\n"


class TestParser:
    def test_missing_subcommand_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_console_script_entry_point_is_declared(self):
        import importlib.metadata as md
        try:
            md.distribution("interopsim")
        except md.PackageNotFoundError:
            # run from a source tree: read the declaration instead, as
            # key = "value" lines of its table (tomllib is 3.11+ only)
            text = (REPO_ROOT / "pyproject.toml").read_text()
            table = re.search(r"(?ms)^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text)
            assert table, "pyproject.toml declares no [project.scripts]"
            scripts = dict(re.findall(r'(?m)^(\w+) = "([^"]*)"$', table.group(1)))
            assert scripts == {"interopsim": "interopsim.cli:main"}
            return
        eps = md.entry_points(group="console_scripts")
        ours = [e for e in eps if e.name == "interopsim"]
        assert ours and ours[0].value == "interopsim.cli:main"
