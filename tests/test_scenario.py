"""Scenario schema tests: defaults, error collection with field paths,
rational-only amounts, cross-reference validation, and robustness: every
input gives a config or a ValidationError, never another exception."""

import copy
import datetime
import math
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from interopsim import cli, scenario
from interopsim.chain import PermissionRegime, SemanticType, gateway_ids, node_ids
from interopsim.engine import Simulation
from interopsim.errors import ParseError, ValidationError
from interopsim.scenario import (
    _SCENARIO,
    Spec,
    _fraction,
    _int,
    _Invalid,
    _positive,
    _Reader,
    _regime,
    _str,
    _value,
    _yaml,
    load_scenario,
    parse_scenario,
    with_seed,
)

from conftest import REPO_ROOT, SCENARIO_DIR
from worlds import world

sys.path.append(str(REPO_ROOT / "perfbench"))
import workloads  # noqa: E402


def minimal_chain(cid="bc1", **over):
    chain = {"id": cid, "nodes": 3, "gateways": 1, "quorum": "2/3",
             "confirm_latency": 2, "semantic": "generic-record",
             "regime": {}}
    chain.update(over)
    return chain


def problems_of(raw):
    with pytest.raises(ValidationError) as err:
        parse_scenario(raw)
    return err.value.problems


class TestDefaults:
    def test_minimal_scenario_parses_with_defaults(self):
        cfg = parse_scenario({"horizon": 10}, name="mini")
        assert cfg.name == "mini"
        assert cfg.seed == 0
        assert cfg.inter_chain_latency == 2
        assert cfg.latency_jitter == 0
        assert cfg.reservation_ttl == 50
        assert cfg.chains == [] and cfg.faults == []

    def test_chain_fields_land_in_config(self):
        cfg = parse_scenario({
            "horizon": 10,
            "chains": [minimal_chain(
                path="trade.bc1", quorum="3/4", vouch_threshold=1,
                denom="usd", writers=["app_x"],
                regime={"node": True, "consensus": True, "write": True})],
        })
        [c] = cfg.chains
        assert c.quorum == Fraction(3, 4)
        assert c.path == "trade.bc1"
        assert c.semantic is SemanticType.GENERIC_RECORD
        assert c.regime.node_permissioned and c.regime.user_write_permissioned
        assert node_ids(c.chain_id, c.nodes) == ["bc1.n1", "bc1.n2", "bc1.n3"]
        assert gateway_ids(c.chain_id, c.gateways) == ["bc1.g1"]
        assert c.threshold() == 1

    def test_default_vouch_threshold_is_gateway_majority(self):
        cfg = parse_scenario({"horizon": 10,
                              "chains": [minimal_chain(gateways=3)]})
        assert cfg.chains[0].threshold() == 2
        cfg = parse_scenario({"horizon": 10,
                              "chains": [minimal_chain(gateways=4)]})
        assert cfg.chains[0].threshold() == 3


class TestErrorCollection:
    def test_every_problem_is_reported_at_once(self):
        raw = {
            "horizon": 10,
            "mystery": {},
            "chains": [
                minimal_chain(quorum="0"),
                minimal_chain("bc1"),  # duplicate id
            ],
            "transfers": [
                {"id": "x1", "at": 5, "asset": "ghost", "from": "bc1",
                 "to": "bc9", "deadline": 99},
            ],
            "probes": [{"id": "p1", "at": 50, "chain": "bc1"}],
        }
        problems = problems_of(raw)
        text = "\n".join(problems)
        assert "mystery: unknown section" in text
        assert "chains[0].quorum" in text
        assert "duplicate chain id bc1" in text
        assert "transfers[0].asset: unknown asset ghost" in text
        assert "transfers[0].to: unknown chain bc9" in text
        assert "deadline 99 beyond horizon 10" in text
        assert "probes[0].at: tick 50 beyond horizon 10" in text
        assert len(problems) >= 7, "validation must collect, not stop early"

    def test_messages_carry_field_paths(self):
        problems = problems_of({"horizon": 10,
                                "chains": [minimal_chain(nodes=0)]})
        assert problems == ["chains[0].nodes: must be >= 1, got 0"]

    def test_a_missing_or_null_required_key_is_reported_as_missing(self):
        absent = minimal_chain()
        del absent["confirm_latency"]
        for chain in (absent, minimal_chain(confirm_latency=None)):
            assert problems_of({"horizon": 10, "chains": [chain]}) == \
                ["chains[0].confirm_latency: missing required key"]


class TestRationalAmounts:
    def test_float_quorum_rejected(self):
        problems = problems_of({"horizon": 10,
                                "chains": [minimal_chain(quorum=0.66)]})
        assert any("floats are inexact" in p for p in problems)

    def test_float_payment_amount_rejected(self):
        raw = {
            "horizon": 10,
            "chains": [minimal_chain("pay1", denom="usd", semantic="payments"),
                       minimal_chain("pay2", denom="eur", semantic="payments")],
            "payments": [{"id": "p1", "from": "pay1", "to": "pay2",
                          "amount": 1.5, "denom_in": "usd",
                          "denom_out": "eur"}],
        }
        problems = problems_of(raw)
        assert any("payments[0].amount" in p and "floats" in p
                   for p in problems)

    def test_string_fractions_accepted(self):
        raw = {
            "horizon": 10,
            "chains": [minimal_chain("pay1", denom="usd", semantic="payments"),
                       minimal_chain("pay2", denom="eur", semantic="payments")],
            "payments": [{"id": "p1", "from": "pay1", "to": "pay2",
                          "amount": "3/2", "denom_in": "usd",
                          "denom_out": "eur"}],
        }
        cfg = parse_scenario(raw)
        assert cfg.payments[0].amount == (3, 2)

    @pytest.mark.parametrize("val", ["37", "007", "\u0663", "\u0661\u0662", "\u00b2",
                                     "1_000", "-5", "+5", " 5",
                                     "2/3", "4/6", "1/0", "3/", "/3", "1/2/3",
                                     " 2/3", "+2/3", "1.5/2", "1_0/3",
                                     "\uff12/\uff13"])
    def test_digit_strings_read_as_fraction_reads_them(self, val):
        # "\u0663" is ARABIC-INDIC DIGIT THREE, "\u0661\u0662" twelve in
        # those digits, "\u00b2" SUPERSCRIPT TWO,
        # "\uff12/\uff13" FULLWIDTH DIGIT TWO, a slash, FULLWIDTH DIGIT THREE
        try:
            expected = Fraction(str(val))
        except (ValueError, ZeroDivisionError):
            expected = f"not a rational: {val!r}"
        try:
            got = _fraction(val)
        except _Invalid as exc:
            got = str(exc)
        assert got == expected and type(got) is type(expected)



class TestChainRules:
    def test_quorum_must_be_in_unit_interval(self):
        assert any("must be in (0, 1]" in p for p in
                   problems_of({"horizon": 10,
                                "chains": [minimal_chain(quorum="5/4")]}))

    def test_node_permissioned_without_consensus_rejected(self):
        problems = problems_of({
            "horizon": 10,
            "chains": [minimal_chain(regime={"node": True})]})
        assert any("chains[0].regime" in p and "subsumes" in p
                   for p in problems)

    def test_equal_regimes_are_one_object(self):
        cfg = parse_scenario({"horizon": 10, "chains": [
            minimal_chain("bc1", regime={"write": True}),
            minimal_chain("bc2", regime={"write": True, "read": False}),
            minimal_chain("bc3", regime={"read": True}),
            minimal_chain("bc4")]})
        regimes = [c.regime for c in cfg.chains]
        assert regimes[0] is regimes[1] and regimes[0].user_write_permissioned
        assert regimes[2] is not regimes[0] and regimes[2].user_read_permissioned
        assert regimes[3] == PermissionRegime()

    def test_node_without_consensus_is_rejected_every_time(self):
        # the shared regimes keep no failed combination
        for _ in range(2):
            with pytest.raises(_Invalid, match="node permissioning subsumes "
                                               "consensus permissioning"):
                _regime({"node": True})

    @pytest.mark.parametrize("over, where", [
        ({"id": "e1"}, "chains[0].id"),
        ({"id": "bc-e12"}, "chains[0].id"),
        ({"path": "net.e7"}, "chains[0].path"),
        ({"path": "e7.net"}, "chains[0].path")])
    def test_a_chain_name_may_not_hold_a_local_ref(self, over, where):
        problems = problems_of({"horizon": 10, "chains": [minimal_chain(**over)]})
        assert len(problems) == 1 and problems[0].startswith(f"{where}: ")
        assert "local-ref format" in problems[0]

    def test_a_resolve_id_may_not_hold_a_local_ref(self):
        problems = problems_of({
            "horizon": 10, "chains": [minimal_chain()],
            "assets": [{"id": "a1", "chain": "bc1"}],
            "resolves": [{"id": "e3", "asset": "a1"}]})
        assert len(problems) == 1 and problems[0].startswith("resolves[0].id: ")

    @pytest.mark.parametrize("name", ["e12x", "xe1", "x_e1", "E1", "e", "e-x"])
    def test_a_name_with_no_local_ref_word_is_accepted(self, name):
        cfg = parse_scenario({"horizon": 10, "chains": [minimal_chain(name, path=name)]})
        assert cfg.chains[0].chain_id == name and cfg.chains[0].path == name

    @pytest.mark.parametrize("path", ["net.bc1.n2x", "bc1.n1", "trade.n10", "x.n0"])
    def test_a_chain_path_may_not_hold_a_node_id_tail(self, path):
        # a node id is <chain>.n<digits>, so net.bc1.n2x holds bc1.n2
        problems = problems_of({"horizon": 10, "chains": [minimal_chain(path=path)]})
        assert len(problems) == 1 and problems[0].startswith("chains[0].path: ")
        assert "node id" in problems[0]

    def test_a_resolve_id_may_not_hold_a_node_id_tail(self):
        problems = problems_of({
            "horizon": 10, "chains": [minimal_chain()],
            "assets": [{"id": "a1", "chain": "bc1"}],
            "resolves": [{"id": "q-bc1.n3", "asset": "a1"}]})
        assert len(problems) == 1 and problems[0].startswith("resolves[0].id: ")
        assert "node id" in problems[0]

    @pytest.mark.parametrize("path", ["trade.bc1", "x.n", "x.nx", "x.N1", "n1.x", "bc1n2"])
    def test_a_path_with_no_node_id_tail_is_accepted(self, path):
        cfg = parse_scenario({"horizon": 10, "chains": [minimal_chain(path=path)]})
        assert cfg.chains[0].path == path

    def test_vouch_threshold_cannot_exceed_gateways(self):
        problems = problems_of({
            "horizon": 10,
            "chains": [minimal_chain(gateways=2, vouch_threshold=3)]})
        assert any("threshold 3 exceeds gateway count 2" in p
                   for p in problems)

    @pytest.mark.parametrize("over, where", [
        ({"gateways": 65536, "vouch_threshold": 65536}, "vouch_threshold"),
        ({"gateways": 131070}, "gateways"),  # the default majority, 65536
    ], ids=["explicit", "default"])
    def test_vouch_threshold_fits_the_attestation_format(self, over, where):
        # an attestation serializes its threshold as an unsigned 16-bit field
        problems = problems_of({"horizon": 10, "chains": [minimal_chain(**over)]})
        assert problems == [f"chains[0].{where}: threshold 65536 exceeds 65535, "
                            f"the largest an attestation carries"]

    @pytest.mark.parametrize("over", [{"gateways": 65535, "vouch_threshold": 65535},
                                      {"gateways": 131069}], ids=["explicit", "default"])
    def test_the_largest_vouch_threshold_is_accepted(self, over):
        assert parse_scenario({"horizon": 10, "chains": [minimal_chain(**over)]})

    def test_unknown_semantic_rejected(self):
        problems = problems_of({
            "horizon": 10, "chains": [minimal_chain(semantic="widgets")]})
        assert any("chains[0].semantic" in p for p in problems)


class TestWorkloadRules:
    def world(self):
        return [minimal_chain("bc1", semantic="asset-registry", gateways=2),
                minimal_chain("bc2", semantic="asset-registry", gateways=2),
                minimal_chain("pay1", semantic="payments", denom="usd")]

    def test_transfer_deadline_must_follow_start(self):
        raw = {"horizon": 30, "chains": self.world(),
               "assets": [{"id": "a1", "chain": "bc1", "payload": "p"}],
               "peerings": [{"id": "pa1", "chains": ["bc1", "bc2"],
                             "semantics": ["asset-registry"]}],
               "transfers": [{"id": "x1", "at": 5, "asset": "a1",
                              "from": "bc1", "to": "bc2", "deadline": 5}]}
        assert any("deadline 5 not after start 5" in p
                   for p in problems_of(raw))

    def test_transfer_endpoints_must_share_semantics(self):
        raw = {"horizon": 30, "chains": self.world(),
               "assets": [{"id": "a1", "chain": "bc1", "payload": "p"}],
               "transfers": [{"id": "x1", "at": 0, "asset": "a1",
                              "from": "bc1", "to": "pay1", "deadline": 10}]}
        assert any("differ in semantic type" in p for p in problems_of(raw))

    def test_candidates_must_share_semantics(self):
        raw = {"horizon": 30, "chains": self.world(),
               "app_txns": [{"id": "t1", "subs": [
                   {"id": "s1", "candidates": ["bc1", "pay1"],
                    "payload": "x"}]}]}
        assert any("candidates span semantic types" in p
                   for p in problems_of(raw))

    def test_payment_denoms_must_match_endpoints(self):
        raw = {"horizon": 30,
               "chains": [minimal_chain("pay1", denom="usd",
                                        semantic="payments"),
                          minimal_chain("pay2", denom="eur",
                                        semantic="payments")],
               "payments": [{"id": "p1", "from": "pay1", "to": "pay2",
                             "amount": 1, "denom_in": "eur",
                             "denom_out": "eur"}]}
        assert any("pay1 denominates usd, not eur" in p
                   for p in problems_of(raw))

    def test_settle_and_release_are_mutually_exclusive(self):
        raw = {"horizon": 30,
               "chains": [minimal_chain("pay1", denom="usd",
                                        semantic="payments"),
                          minimal_chain("pay2", denom="eur",
                                        semantic="payments")],
               "payments": [{"id": "p1", "from": "pay1", "to": "pay2",
                             "amount": 1, "denom_in": "usd",
                             "denom_out": "eur", "settle_after": 1,
                             "release_after": 2}]}
        assert any("mutually exclusive" in p for p in problems_of(raw))

    def test_fault_targets_must_exist(self):
        raw = {"horizon": 30, "chains": self.world(),
               "faults": [
                   {"id": "f1", "kind": "partition", "at": 0,
                    "chains": ["bc9"]},
                   {"id": "f2", "kind": "node_crash", "at": 0,
                    "nodes": ["bc1.n99"]},
                   {"id": "f3", "kind": "gateway_crash", "at": 0,
                    "gateways": ["bc2.g9"]},
                   {"id": "f4", "kind": "heal", "at": 5,
                    "faults": ["nope"]}]}
        problems = problems_of(raw)
        text = "\n".join(problems)
        for frag in ("unknown chain bc9", "unknown node bc1.n99",
                     "unknown gateway bc2.g9", "unknown fault nope"):
            assert frag in text

    def test_fault_until_must_exceed_at(self):
        raw = {"horizon": 30, "chains": self.world(),
               "faults": [{"id": "f1", "kind": "partition", "at": 5,
                           "until": 5, "chains": ["bc1"]}]}
        assert any("until 5 must exceed at 5" in p for p in problems_of(raw))

    def test_read_grant_reference_checked(self):
        raw = {"horizon": 30, "chains": self.world(),
               "assets": [{"id": "a1", "chain": "bc1", "payload": "p"}],
               "reads": [{"id": "r1", "at": 3, "asset": "a1",
                          "requester": "app_y", "grant": "ghost"}]}
        assert any("unknown grant ghost" in p for p in problems_of(raw))


class TestFormatDoc:
    """docs/scenario_format.md names every key of the schema table: a
    top-level key in its table of top-level keys, and an item key in
    the YAML example of its section."""

    DOC = (REPO_ROOT / "docs" / "scenario_format.md").read_text(encoding="utf-8")

    def examples(self):
        """The sections of the doc's YAML examples, merged."""
        merged = {}
        for block in self.DOC.split("```yaml\n")[1:]:
            merged.update(yaml.safe_load(block.split("```")[0]))
        return merged

    def missing(self, spec, items, path):
        for key, kind, *_ in spec.fields:
            shown = [item[key] for item in items if key in item]
            if not shown:
                yield f"{path}.{key}"
            elif type(kind) is Spec:
                yield from self.missing(kind, [sub for subs in shown for sub in subs],
                                        f"{path}.{key}")

    def test_every_key_of_the_schema_is_documented(self):
        rows = [line for line in self.DOC.splitlines() if line.startswith("| `")]
        examples = self.examples()
        missing = []
        for key, kind, *_ in _SCENARIO.fields:
            if type(kind) is Spec:
                missing += self.missing(kind, examples.get(key, []), key)
                continue
            head, _, tail = key.partition(".")
            row = next((r for r in rows if r.startswith(f"| `{head}`")), "")
            if not row or tail and f"`{tail}`" not in row:
                missing.append(key)
        assert missing == []


class TestFileLoading:
    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_scenario(tmp_path / "absent.yaml")

    def test_a_file_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "latin.yaml"
        path.write_bytes(b"\xff\xfe: 1\n")
        with pytest.raises(ParseError, match="cannot read .*latin.yaml: 'utf-8' codec"):
            load_scenario(path)

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ParseError, match="empty scenario"):
            load_scenario(path)

    def test_malformed_yaml_reports_the_line(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("horizon: 10\nchains:\n  - id: bc1\n   nodes: 3\n")
        with pytest.raises(ParseError, match="line 4"):
            load_scenario(path)

    @pytest.mark.parametrize("scalar", ["2020-13-45", "1" * 4301])
    def test_a_scalar_yaml_cannot_build_is_a_parse_error(self, tmp_path, capsys, scalar):
        # a date with no month 13, and an int of more digits than the
        # interpreter converts by default: each once ended in a traceback
        path = tmp_path / "scalar.yaml"
        path.write_text(f"horizon: {scalar}\n")
        with pytest.raises(ParseError, match="scalar.yaml: malformed YAML"):
            load_scenario(path)
        for command in ("validate", "run"):
            assert cli.main([command, str(path)]) == 2, command
            err = capsys.readouterr().err
            assert "malformed YAML" in err and "Traceback" not in err, command

    def test_non_mapping_top_level_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ParseError, match="top level must be a mapping"):
            load_scenario(path)

    def test_scenario_name_comes_from_the_file_stem(self, tmp_path):
        path = tmp_path / "myworld.yaml"
        path.write_text("horizon: 5\n")
        assert load_scenario(path).name == "myworld"

    def test_bundled_scenarios_all_validate(self, scenario_dir):
        for f in sorted(scenario_dir.glob("*.yaml")):
            cfg = load_scenario(f)
            assert cfg.horizon >= 1, f.name


# -- robustness ----------------------------------------------------------


def full_world():
    """One valid scenario that uses every section and every fault kind."""
    return {
        "horizon": 40, "seed": 3,
        "links": {"inter_chain_latency": 2, "latency_jitter": 1},
        "valuenet": {"reservation_ttl": 10},
        "chains": [
            minimal_chain("bc1", semantic="asset-registry", gateways=2,
                          path="trade.bc1",
                          regime={"node": True, "consensus": True}),
            minimal_chain("bc2", semantic="asset-registry", gateways=2),
            minimal_chain("pay1", semantic="payments", denom="usd"),
            minimal_chain("pay2", semantic="payments", denom="eur")],
        "assets": [{"id": "a1", "chain": "bc1", "payload": "deed"}],
        "peerings": [{"id": "pa1", "chains": ["bc1", "bc2"],
                      "semantics": ["asset-registry"], "fee": "1"}],
        "connectors": [{"id": "c1", "chains": ["pay1", "pay2"],
                        "reserves": {"usd": 100, "eur": 100},
                        "rates": [{"from": "usd", "to": "eur", "rate": "1/2"}]}],
        "app_txns": [{"id": "t1", "at": 1, "app": "app_x", "subs": [
            {"id": "s1", "candidates": ["bc1", "bc2"], "timeout": 6}]}],
        "transfers": [{"id": "x1", "at": 0, "asset": "a1", "from": "bc1",
                       "to": "bc2", "beneficiary": "app_y", "deadline": 25}],
        "payments": [{"id": "p1", "at": 2, "from": "pay1", "to": "pay2",
                      "amount": "3", "denom_in": "usd", "denom_out": "eur",
                      "settle_after": 2}],
        "faults": [
            {"id": "f1", "kind": "partition", "at": 3, "chains": ["bc2"]},
            {"id": "f2", "kind": "node_crash", "at": 4, "until": 9,
             "nodes": ["bc1.n1"]},
            {"id": "f3", "kind": "gateway_crash", "at": 5,
             "gateways": ["bc1.g1"]},
            {"id": "f4", "kind": "heal", "at": 8, "faults": ["f1", "f3"]},
            {"id": "f5", "kind": "partition", "at": 10, "until": 12,
             "links": [["pay1", "pay2"]]}],
        "grants": [{"id": "g1", "grantor": "app_x", "grantee": "app_y",
                    "asset": "a1", "expiry": 30}],
        "reads": [{"id": "r1", "at": 20, "asset": "a1", "requester": "app_y",
                   "grant": "g1"}],
        "resolves": [{"id": "q1", "at": 21, "asset": "a1"}],
        "probes": [{"id": "pr1", "at": 6, "chain": "bc1"}],
    }


def _duplicate(section):
    return lambda w: w[section].append(copy.deepcopy(w[section][0]))


TOO_LONG = "more than 640 digits in one integer"
SHOWN_LONG = "<int of more than 640 digits>"

# Each edit(n) writes an exact quantity of full_world with an integer of
# n digits, as written or in its value: at 640 digits the world is valid,
# at 641 it has the one problem at where.
DIGIT_RULE_EDGES = {
    "amount": (
        lambda n: lambda w: w["payments"][0].update(amount="1" * n),
        f"payments[0].amount: {TOO_LONG}"),
    "rate denominator": (
        lambda n: lambda w: w["connectors"][0]["rates"][0].update(rate="1/" + "3" * n),
        f"connectors[0].rates[0]: {TOO_LONG}"),
    "reserve": (
        lambda n: lambda w: w["connectors"][0]["reserves"].update(usd="9" * n),
        f"connectors[0].reserves: {TOO_LONG}"),
    "fee": (
        lambda n: lambda w: w["peerings"][0].update(fee="7" * n),
        f"peerings[0].fee: {TOO_LONG}"),
    "quorum in Arabic-Indic digits": (
        lambda n: lambda w: w["chains"][0].update(quorum="\u0661/" + "\u0662" * n),
        f"chains[0].quorum: {TOO_LONG}"),
    "decimal amount whose denominator": (
        # n - 1 decimals: the value's denominator 10**(n - 1) has n digits
        lambda n: lambda w: w["payments"][0].update(amount="0." + "0" * (n - 2) + "1"),
        f"payments[0].amount: {TOO_LONG}"),
}


# Each input once ended in a traceback, passed validation and then failed
# in the engine, or was silently misread; the path is where it is reported.
BAD_INPUTS = {
    "semantic is a mapping": (
        lambda w: w["chains"][0].update(semantic={"x": 1}), "chains[0].semantic"),
    "fault kind is a list": (
        lambda w: w["faults"][0].update(kind=["partition"]), "faults[0].kind"),
    "link endpoints are lists": (
        lambda w: w["faults"][4].update(links=[[["pay1"], ["pay2"]]]), "faults[4].links"),
    "peering chains are mappings": (
        lambda w: w["peerings"][0].update(chains=[{"a": 1}, {"b": 2}]),
        "peerings[0].chains"),
    "heal names itself": (
        lambda w: w["faults"][3].update(faults=["f4"]), "faults[3].faults"),
    "heal names a later fault": (
        lambda w: w["faults"][3].update(faults=["f5"]), "faults[3].faults"),
    "node_crash also lists chains": (
        lambda w: w["faults"][1].update(chains=["bc1"]), "faults[1].chains"),
    "heal has until": (
        lambda w: w["faults"][3].update(until=20), "faults[3].until"),
    "writer is a mapping": (
        lambda w: w["chains"][0].update(writers=[{"x": 1}]), "chains[0].writers"),
    "regime flag is a string": (
        lambda w: w["chains"][1].update(regime={"node": "no"}), "chains[1].regime.node"),
    "path is a number": (
        lambda w: w["chains"][1].update(path=7), "chains[1].path"),
    "app is a number": (
        lambda w: w["app_txns"][0].update(app=5), "app_txns[0].app"),
    "misspelled until": (
        lambda w: w["faults"][1].update(untill=12), "faults[1].untill: unknown key"),
    "misspelled deadline": (
        lambda w: w["transfers"][0].update(dealine=30),
        "transfers[0].dealine: unknown key"),
    "duplicate sub id": (
        lambda w: w["app_txns"][0]["subs"].append({"id": "s1", "candidates": ["bc1"]}),
        "app_txns[0].subs[1].id: duplicate sub id s1"),
    "path is not ASCII": (
        lambda w: w["chains"][1].update(path="\u00e9"), "chains[1].path"),
    "deadline at the horizon": (
        lambda w: w["transfers"][0].update(deadline=40), "transfers[0].deadline"),
    "misspelled links key": (
        lambda w: w["links"].update(jiter=1), "links.jiter: unknown key"),
    "links key at the top level": (
        lambda w: w.update({"links.latency_jitter": 1}),
        "links.latency_jitter: unknown section"),
    "misspelled regime flag": (
        lambda w: w["chains"][0]["regime"].update(nod=True),
        "chains[0].regime.nod: unknown key"),
    "rate is zero": (
        lambda w: w["connectors"][0]["rates"][0].update(rate="0"),
        "connectors[0].rates[0]: must be positive"),
    "rate quoted twice": (
        lambda w: w["connectors"][0]["rates"].append(
            {"from": "usd", "to": "eur", "rate": "2"}),
        "connectors[0].rates[1]: duplicate rate usd -> eur"),
    "connector names one chain twice": (
        lambda w: w["connectors"][0].update(chains=["pay1", "pay1"]),
        "connectors[0].chains[1]: duplicate chain pay1"),
    "chain path taken": (
        lambda w: w["chains"][1].update(path="trade.bc1"), "chains[1].path"),
    "peerings overlap": (
        lambda w: w["peerings"].append({"id": "pa2", "chains": ["bc2", "bc1"],
                                        "semantics": ["asset-registry"]}),
        "peerings[1].semantics"),
    "chain id with a separator": (
        lambda w: w["chains"].append(minimal_chain("bc.3")), "chains[4].id"),
    "amount with a huge exponent": (
        lambda w: w["payments"][0].update(amount="1e999999999"), "payments[0].amount"),
    "amount with an upper-case exponent": (
        lambda w: w["payments"][0].update(amount="15E2"),
        "payments[0].amount: write '15E2' without an exponent"),
    "fee is a word with an e": (
        lambda w: w["peerings"][0].update(fee="free"),
        "peerings[0].fee: not a rational: 'free'"),
    "amount with an e after no digit": (
        lambda w: w["payments"][0].update(amount="e5"),
        "payments[0].amount: not a rational: 'e5'"),
    # the digit rule, each one digit past it (see DIGIT_RULE_EDGES)
    **{f"{case} of 641 digits": (edit(641), where)
       for case, (edit, where) in DIGIT_RULE_EDGES.items()},
    # a text that is no rational stays one, however long its integers
    "641 digits then a letter": (
        lambda w: w["payments"][0].update(amount="1" * 641 + "x"),
        f"payments[0].amount: not a rational: '{'1' * 641}x'"),
    "641 digits over zero": (
        lambda w: w["connectors"][0]["rates"][0].update(rate="2" * 641 + "/0_0"),
        f"connectors[0].rates[0]: not a rational: '{'2' * 641}/0_0'"),
    # unit keys are <txn>/<sub>, lock:<transfer> and record:<transfer>:
    # each of these would give two units one key
    "app txn id that holds a transfer's lock key": (
        lambda w: (w["app_txns"][0].update(id="lock:a"),
                   w["app_txns"][0]["subs"][0].update(id="b", candidates=["bc1"]),
                   w["transfers"][0].update(id="a/b")),
        "app_txns[0].id"),
    "app txn ids whose unit keys meet": (
        lambda w: (w["app_txns"][0].update(id="a/b"),
                   w["app_txns"][0]["subs"][0].update(id="c"),
                   w["app_txns"].append({"id": "a", "subs": [
                       {"id": "b/c", "candidates": ["bc1", "bc2"]}]})),
        "app_txns[0].id"),
    **{f"duplicate {section} id": (_duplicate(section), f"{section}[1].id: duplicate")
       for section in ("app_txns", "transfers", "payments", "reads", "resolves",
                       "probes", "grants", "connectors", "peerings")},
}


class TestRobustness:
    def test_full_world_is_valid_and_runs(self):
        Simulation(parse_scenario(full_world())).run()

    def test_top_level_must_be_a_mapping(self):
        with pytest.raises(ValidationError, match="top level: expected mapping"):
            parse_scenario([{"horizon": 10}])

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_is_a_validation_error_with_its_path(self, case):
        edit, where = BAD_INPUTS[case]
        raw = full_world()
        edit(raw)
        assert any(p.startswith(where) for p in problems_of(raw)), problems_of(raw)

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_validate_and_run_exit_two_with_the_path(self, case, tmp_path, capsys):
        edit, where = BAD_INPUTS[case]
        raw = full_world()
        edit(raw)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        for command in ("validate", "run"):
            assert cli.main([command, str(path)]) == 2, command
            err = capsys.readouterr().err
            assert f"  {where}" in err and "Traceback" not in err, command


def cascade_world():
    """Two chains, the first with one bad field, and an asset, a peering
    and a transfer that name it."""
    return {
        "horizon": 40,
        "chains": [minimal_chain("bc1", semantic="asset-registry",
                                 regime={"node": "no"}),
                   minimal_chain("bc2", semantic="asset-registry")],
        "assets": [{"id": "a1", "chain": "bc1"}],
        "peerings": [{"id": "pa1", "chains": ["bc1", "bc2"],
                      "semantics": ["asset-registry"]}],
        "transfers": [{"id": "x1", "asset": "a1", "from": "bc1", "to": "bc2",
                       "deadline": 20}],
    }


REGIME_PROBLEM = "chains[0].regime.node: expected true or false, got 'no'"


class TestDroppedItems:
    """An item dropped for a bad field is reported once: the items that
    name it, directly or through another dropped item, are dropped
    without a problem of their own."""

    def test_one_bad_chain_field_is_one_problem(self):
        assert problems_of(cascade_world()) == [REGIME_PROBLEM]

    def test_validate_prints_one_problem(self, tmp_path, capsys):
        path = tmp_path / "cascade.yaml"
        path.write_text(yaml.safe_dump(cascade_world()))
        assert cli.main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "(1 problems)" in err and f"  {REGIME_PROBLEM}" in err

    @pytest.mark.parametrize("index", range(4))
    def test_every_reference_to_a_dropped_chain_is_silent(self, index):
        # the chain's assets, peerings, connectors, subs, transfers,
        # payments, node and gateway faults, links, heals, grants, reads,
        # resolves and probes
        raw = full_world()
        raw["chains"][index]["regime"] = {"node": "no"}
        assert problems_of(raw) == [
            f"chains[{index}].regime.node: expected true or false, got 'no'"]

    def test_a_heal_of_a_dropped_fault_is_silent(self):
        raw = full_world()
        raw["faults"][0]["at"] = -1
        assert problems_of(raw) == ["faults[0].at: must be >= 0, got -1"]

    def test_references_to_a_dropped_asset_are_silent(self):
        raw = full_world()
        raw["assets"][0]["payload"] = 5
        assert problems_of(raw) == ["assets[0].payload: expected non-empty string, got 5"]

    def test_an_undeclared_id_is_still_a_problem(self):
        raw = cascade_world()
        raw["transfers"][0]["to"] = "bc9"
        assert problems_of(raw) == [REGIME_PROBLEM, "transfers[0].to: unknown chain bc9"]
        raw["chains"][0]["regime"] = {}
        assert problems_of(raw) == ["transfers[0].to: unknown chain bc9"]

    def test_a_node_of_a_dropped_chain_is_silent_but_not_a_missing_one(self):
        raw = full_world()
        raw["faults"][1]["nodes"] = ["bc1.n1", "bc2.n9"]
        assert problems_of(raw) == ["faults[1].nodes: unknown node bc2.n9"]
        raw["chains"][0]["regime"] = {"node": "no"}
        assert problems_of(raw) == [
            "chains[0].regime.node: expected true or false, got 'no'",
            "faults[1].nodes: unknown node bc2.n9"]


# every key of the schema, so that generated mappings reach deep
SCHEMA_KEYS = sorted({
    *full_world(), "id", "nodes", "gateways", "quorum", "confirm_latency",
    "semantic", "regime", "path", "writers", "readers", "vouch_threshold",
    "denom", "node", "consensus", "write", "read", "chain", "payload",
    "semantics", "fee", "reserves", "rates", "from", "to", "rate", "at",
    "subs", "candidates", "timeout", "app", "asset", "beneficiary",
    "deadline", "amount", "denom_in", "denom_out", "settle_after",
    "release_after", "kind", "until", "links", "nodes", "gateways",
    "faults", "grantor", "grantee", "expiry", "requester", "grant",
    "inter_chain_latency", "latency_jitter", "reservation_ttl"})
SMALL_SCALARS = (st.none() | st.booleans() | st.integers(-2, 50)
                 | st.floats(allow_nan=True) | st.sampled_from(["1/2", "0", "x", ""])
                 | st.text(alphabet="ab1./ =é", max_size=4))
# and ints at the digit rule's edges, which no problem line may render
# past the rule or raise on; drawn by exponent, so no strategy's repr
# renders one
SCALARS = SMALL_SCALARS | st.sampled_from(
    [(1, 639), (-1, 639), (1, 640), (-1, 640), (1, 5000)]).map(lambda e: e[0] * 10 ** e[1])


def json_like(scalars):
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=2),
                                         inner, max_size=4)),
        max_leaves=8)


JSON_LIKE = json_like(SCALARS)


def _positions(node, out):
    """Every (container, key) below node, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _positions(child, out)
    return out


WORLD_STRINGS = sorted({node[key] for node, key in _positions(full_world(), [])
                        if isinstance(node[key], str)})


@st.composite
def mutated_worlds(draw):
    """full_world with one or two values replaced: mostly by a value of
    the same type (a string by another string of the world), otherwise
    by any JSON-like value."""
    raw = full_world()
    for _ in range(draw(st.integers(1, 2))):
        node, key = draw(st.sampled_from(_positions(raw, [])))
        old = node[key]
        if isinstance(old, (dict, list)) or draw(st.integers(0, 3)) == 0:
            node[key] = draw(JSON_LIKE)
        elif isinstance(old, bool):
            node[key] = draw(st.booleans())
        elif isinstance(old, int):
            node[key] = draw(st.integers(0, 45))
        else:
            node[key] = draw(st.sampled_from(WORLD_STRINGS))
    return raw


# derandomized, so that every run of the suite tries the same examples
ROBUSTNESS = settings(max_examples=50, deadline=None, derandomize=True,
                      suppress_health_check=[HealthCheck.too_slow])


@ROBUSTNESS
@given(st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=3),
                       JSON_LIKE, max_size=6) | mutated_worlds())
# a long int where a name or a list of names goes
@example({"horizon": 5, "chains": [{"id": 10 ** 5000}]})
@example({"horizon": 5, "chains": [{"id": "bc1", "writers": [-10 ** 640]}]})
# and a long int as a key
@example({"horizon": 5, "chains": [{10 ** 5000: 1}]})
# a sub id that a default payload would render
@example({"horizon": 5, "app_txns": [{"id": "t1", "subs": [{"id": 10 ** 5000}]}]})
def test_any_mapping_gives_a_config_or_a_validation_error(raw):
    try:
        parse_scenario(raw)
    except ValidationError as exc:
        assert exc.problems


@settings(ROBUSTNESS, max_examples=100)
@given(mutated_worlds())
def test_every_valid_config_builds_and_runs(raw):
    try:
        config = parse_scenario(raw)
    except ValidationError:
        return
    Simulation(config).run()


# Each edit of full_world fails one rule's passing test, so the rule's
# full check runs and words the problems.
FALL_THROUGH = {
    "a bool in an int field": (
        lambda w: w["chains"][0].update(nodes=True),
        ["chains[0].nodes: expected integer, got True"]),
    "an int below its minimum": (
        lambda w: w["chains"][0].update(nodes=0),
        ["chains[0].nodes: must be >= 1, got 0"]),
    "an empty string in a string field": (
        lambda w: w["transfers"][0].update(beneficiary=""),
        ["transfers[0].beneficiary: expected non-empty string, got ''"]),
    "a source with no denom and another destination denom": (
        lambda w: (w["chains"][2].pop("denom"), w["payments"][0].update(denom_out="usd")),
        ["payments[0].from: chain pay1 declares no denom",
         "payments[0].denom_out: pay2 denominates eur, not usd"]),
    "a quorum of zero": (
        lambda w: w["chains"][0].update(quorum="0"),
        ["chains[0].quorum: must be in (0, 1], got 0"]),
    "a quorum above one": (
        lambda w: w["chains"][0].update(quorum="3/2"),
        ["chains[0].quorum: must be in (0, 1], got 3/2"]),
    "a partition that also lists nodes": (
        lambda w: w["faults"][0].update(nodes=["bc1.n1"]),
        ["faults[0].nodes: partition takes no nodes"]),
    "a heal that names no fault": (
        lambda w: w["faults"][3].pop("faults"),
        ["faults[3]: heal needs faults"]),
}


@pytest.mark.parametrize("case", sorted(FALL_THROUGH))
def test_a_failing_value_gets_the_full_diagnosis(case):
    edit, problems = FALL_THROUGH[case]
    raw = full_world()
    edit(raw)
    assert problems_of(raw) == problems


@dataclass
class _PlainFields:
    text: str = _yaml(_str)
    count: int = _yaml(_int, minimum=1)


_PLAIN = Spec(_PlainFields)


def _read_calling(key, val):
    """The problems and values of reading {key: val}, beside a valid
    value of the other field, through _PLAIN, and whether the reader
    called key's converter."""
    converter = {"text": _str, "count": _int}[key].__code__
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is converter:
            called.append(frame.f_code)

    reader, outer = _Reader(None), sys.getprofile()
    sys.setprofile(profile)
    try:
        vals = _PLAIN.read(reader, {"text": "t", "count": 1, key: val}, "")
    finally:
        sys.setprofile(outer)
    return reader.problems, vals, bool(called)


@ROBUSTNESS
@given(JSON_LIKE.filter(lambda v: v is not None))
# the edges of the passing tests: count's minimum, a bool, the empty string
@example(0)
@example(1)
@example(True)
@example("")
def test_the_reader_accepts_without_a_call_exactly_what_the_converter_returns(val):
    """A value that _str or _int returns unchanged is read as is, with no
    call; every other value goes to the converter, whose message is the
    problem, so each rule has one wording."""
    for key, convert, minimum in (("text", _str, None), ("count", _int, 1)):
        try:
            unchanged, message = convert(val, minimum) is val, None
        except _Invalid as exc:
            unchanged, message = False, str(exc)
        problems, vals, called = _read_calling(key, val)
        assert called is not unchanged, (key, val)
        if unchanged:
            assert problems == [] and vals[key == "count"] is val
        else:
            assert problems == [f"{key}: {message}"], (key, val, problems)


@pytest.mark.parametrize("val", [10 ** 640 - 1, 10 ** 640], ids=["640", "641"])
def test_the_reader_calls_int_exactly_past_the_digit_rule(val):
    """The reader's passing test for an int stops where _int's digit rule
    does: 640 digits are read as is, 641 go to _int, which words it."""
    problems, vals, called = _read_calling("count", val)
    assert called is (val >= 10 ** 640)
    assert problems == ([f"count: {TOO_LONG}"] if called else [])


# -- exact quantities ----------------------------------------------------

@pytest.mark.parametrize("case", sorted(DIGIT_RULE_EDGES))
def test_the_digit_rule_admits_640_digits_and_rejects_641(case):
    edit, where = DIGIT_RULE_EDGES[case]
    raw = full_world()
    edit(640)(raw)
    Simulation(parse_scenario(raw)).run()
    raw = full_world()
    edit(641)(raw)
    assert problems_of(raw) == [where]


def test_an_int_quantity_has_at_most_640_digits():
    bound = 10 ** 640
    assert _value(bound - 1) == (bound - 1, 1)
    assert _value(1 - bound, None) == (1 - bound, 1)
    for val in (bound, -bound, bound ** 2):
        with pytest.raises(_Invalid, match=f"^{TOO_LONG}$"):
            _value(val)


def test_digits_joined_by_underscores_are_one_integer():
    # int() counts the digits of 1_2_3 together, and so does the rule
    with pytest.raises(_Invalid, match=f"^{TOO_LONG}$"):
        _value("1_" * 640 + "1")
    with pytest.raises(_Invalid, match=f"^{TOO_LONG}$"):
        _value("2/" + "1_" * 640 + "1")
    try:
        _value("1_" * 639 + "1")
    except _Invalid as exc:  # Fractions read no _ before Python 3.11
        assert str(exc) != TOO_LONG


def test_a_pair_whose_fees_sum_past_640_digits_reports_them():
    """Two transfers that each pay a fee of 640 nines: the pair's
    settlement has 641 digits, which str() does not render under the
    lowest integer-string limit."""
    raw = {
        "horizon": 60,
        "chains": [minimal_chain("bc1", semantic="asset-registry"),
                   minimal_chain("bc2", semantic="asset-registry")],
        "assets": [{"id": "a1", "chain": "bc1"}],
        "peerings": [{"chains": ["bc1", "bc2"], "semantics": ["asset-registry"],
                      "fee": "9" * 640}],
        "transfers": [
            {"id": "x1", "at": 0, "asset": "a1", "from": "bc1", "to": "bc2", "deadline": 20},
            {"id": "x2", "at": 22, "asset": "a1", "from": "bc2", "to": "bc1", "deadline": 45}],
    }
    report = Simulation(parse_scenario(raw)).run()
    assert report.passed()
    states = {x: outcome["state"] for x, outcome in report.outcomes["transfers"].items()}
    assert states == {"x1": "FINALIZED", "x2": "FINALIZED"}
    assert report.settlements == {"bc1|bc2": "1" + "9" * 639 + "8"}


def test_a_world_of_long_integers_is_rejected_not_run():
    """Two payments chains with a 2,500-digit amount and rate and
    4,300-digit reserves once validated and then ended the run in a
    traceback, when the overloaded build's message rendered the hop's
    5,000-digit amount."""
    raw = {
        "horizon": 20,
        "chains": [minimal_chain("pay1", denom="usd", semantic="payments"),
                   minimal_chain("pay2", denom="eur", semantic="payments")],
        "connectors": [{"id": "c1", "chains": ["pay1", "pay2"],
                        "reserves": {"eur": "9" * 4300, "usd": "9" * 4300},
                        "rates": [{"from": "usd", "to": "eur", "rate": "7" * 2500}]}],
        "payments": [{"id": "p1", "at": 1, "from": "pay1", "to": "pay2",
                      "amount": "3" * 2500, "denom_in": "usd", "denom_out": "eur"}],
    }
    assert problems_of(raw) == [f"connectors[0].reserves: {TOO_LONG}",
                                f"connectors[0].rates[0]: {TOO_LONG}",
                                f"payments[0].amount: {TOO_LONG}"]


# Each edit(raw, val) writes val into one int field of full_world, which
# reports it at where.
LONG_INT_FIELDS = {
    "probe at": (lambda w, val: w["probes"][0].update(at=val), "probes[0].at"),
    "horizon": (lambda w, val: w.update(horizon=val), "horizon"),
    "nodes": (lambda w, val: w["chains"][0].update(nodes=val), "chains[0].nodes"),
}
LONG_INTS = [10 ** 640, -10 ** 640, 10 ** 5000, -10 ** 5000]
LONG_INT_DIGITS = ["641", "-641", "5001", "-5001"]


@pytest.mark.parametrize("val", LONG_INTS, ids=LONG_INT_DIGITS)
@pytest.mark.parametrize("case", sorted(LONG_INT_FIELDS))
def test_an_int_field_of_more_than_640_digits_is_rejected(case, val):
    """The digit rule holds in every int field, before anything renders
    the value: one problem, and a horizon it rejects bounds no tick."""
    edit, where = LONG_INT_FIELDS[case]
    raw = full_world()
    edit(raw, val)
    assert problems_of(raw) == [f"{where}: {TOO_LONG}"]


@pytest.mark.parametrize("seed", LONG_INTS, ids=LONG_INT_DIGITS)
def test_a_seed_of_more_than_640_digits_is_rejected(seed):
    config = parse_scenario(full_world())
    with pytest.raises(ValidationError) as err:
        with_seed(config, seed)
    assert err.value.problems == [f"seed: {TOO_LONG}"]


# Each mapping has a key that is not a str at one of the places where the
# reader turns a key into a field path; its problem shows the key as a
# value's problem shows it, and a key YAML reads (a date) as str() does.
KEYS = {
    "long int at the top level": (
        {"horizon": 5, 10 ** 5000: 1}, f"{SHOWN_LONG}: unknown section"),
    "long int in a chain": (
        {"horizon": 5, "chains": [{10 ** 5000: 1}]},
        f"chains[0].{SHOWN_LONG}: unknown key"),
    "long int in links": (
        {"horizon": 5, "links": {10 ** 5000: 1}}, f"links.{SHOWN_LONG}: unknown key"),
    "long int in a regime": (
        {"horizon": 5, "chains": [minimal_chain(regime={-10 ** 640: True})]},
        f"chains[0].regime.{SHOWN_LONG}: unknown key"),
    "long int inside a tuple": (
        {"horizon": 5, (10 ** 5000,): 1}, "<tuple>: unknown section"),
    "date": ({"horizon": 5, datetime.date(2020, 1, 2): 1},
             "2020-01-02: unknown section"),
}


@pytest.mark.parametrize("case", sorted(KEYS))
def test_a_key_is_shown_in_its_path_without_raising(case):
    raw, problem = KEYS[case]
    assert problem in problems_of(raw)


def test_a_horizon_of_640_digits_runs_to_its_end_and_renders():
    """A world that cannot quiesce, as a unit waits on a chain that lost
    its quorum, runs to a 640-digit horizon, which its report renders."""
    horizon = 10 ** 640 - 1
    raw = {"horizon": horizon, "seed": horizon, "chains": [minimal_chain("bc1")],
           "faults": [{"id": "f1", "kind": "node_crash", "at": 0,
                       "nodes": ["bc1.n1", "bc1.n2"]}],
           "app_txns": [{"id": "t1", "at": 1,
                         "subs": [{"candidates": ["bc1"], "timeout": 3}]}]}
    report = Simulation(parse_scenario(raw)).run()
    assert report.passed() and report.end_tick == horizon
    assert str(horizon) in report.to_json()


# The exact-quantity reader before quantities were read as values: a
# Fraction for every amount.  _value must accept what it accepts, as the
# same number, and reject the rest with the same problem.
_REFERENCE_RATIO = re.compile(r"[0-9]+/[0-9]+")
_REFERENCE_EXPONENT = re.compile(r"\de", re.IGNORECASE)


def reference_fraction(val, minimum=None) -> Fraction:
    try:
        if type(val) is str and val.isdigit() and val.isascii():
            frac = Fraction(int(val))
        elif type(val) is str and _REFERENCE_RATIO.fullmatch(val):
            num, den = val.split("/")
            frac = Fraction(int(num), int(den))
        elif type(val) is int:
            frac = Fraction(val)
        elif type(val) is float:
            raise _Invalid("floats are inexact; write the amount as a string")
        elif type(val) is str and "e" in val.lower():
            if _REFERENCE_EXPONENT.search(val):
                raise _Invalid(f"write {val!r} without an exponent")
            raise _Invalid(f"not a rational: {val!r}")
        else:
            frac = Fraction(str(val))
    except (ValueError, ZeroDivisionError):
        raise _Invalid(f"not a rational: {val!r}") from None
    if minimum is not None and frac < minimum:
        raise _Invalid(f"must be >= {minimum}, got {frac}")
    return frac


def reference_positive(val, minimum=None) -> Fraction:
    frac = reference_fraction(val)
    if frac.numerator <= 0:
        raise _Invalid(f"must be positive, got {frac}")
    return frac


def _outcome(read, val, minimum):
    try:
        return read(val, minimum), None
    except _Invalid as exc:
        return None, str(exc)


DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=5)
EXACT_TEXT = st.one_of(
    DIGITS,
    st.builds("{}/{}".format, DIGITS, DIGITS),
    st.builds("{}{}".format, st.sampled_from(["-", "+", " ", "-0", "00"]), DIGITS),
    st.builds("{}.{}".format, DIGITS | st.just(""), DIGITS | st.just("")),
    st.builds("{} / {} ".format, DIGITS, DIGITS),
    st.sampled_from(["\u0661\u0662", "\u0663", "\u00b2", "\uff12/\uff13", "3/0",
                     "0/00", "1_000", "1__0", "15E2", "e5", "free", "1.5/2", "", " "]),
    st.text(alphabet="0123456789/.-+ _eE\u0661\u0662\u00b2", max_size=6))
# the reference reads no digit rule, which test_an_int_quantity_has_at_most_640_digits
# and its neighbours check, so its values stay clear of the rule's edges
EXACT_VALUES = (EXACT_TEXT | st.integers() | st.integers(-3, 3) | st.floats()
                | st.booleans() | st.none() | json_like(SMALL_SCALARS))


@settings(ROBUSTNESS, max_examples=300)
@given(EXACT_VALUES, st.sampled_from([None, 0, 1]))
@example("3/0", None)
@example("4/6", None)
@example("\u0661\u0662", 0)
@example(-1, 0)
@example("0", None)
def test_the_value_reader_agrees_with_the_reference(val, minimum):
    for read, fraction_read, reference in ((_value, _fraction, reference_fraction),
                                           (_positive, None, reference_positive)):
        want, want_problem = _outcome(reference, val, minimum)
        got, problem = _outcome(read, val, minimum)
        assert problem == want_problem, (read.__name__, val, minimum)
        if want is None:
            continue
        # a value is Fraction's normal form: equal amounts are equal pairs
        assert type(got) is tuple and [type(x) for x in got] == [int, int], got
        assert got[1] > 0 and math.gcd(*got) == 1, got
        assert Fraction(*got) == want, (read.__name__, val, minimum)
        if fraction_read is not None:
            frac = fraction_read(val, minimum)
            assert type(frac) is Fraction and frac == want


def _fraction_builds(monkeypatch) -> list:
    """The arguments of every Fraction the schema builds until
    monkeypatch is undone."""
    built, real = [], scenario.Fraction

    def counted(*args):
        built.append(args)
        return real(*args)
    monkeypatch.setattr(scenario, "Fraction", counted)
    return built


@pytest.mark.parametrize("source", ["ilp_path", "world 3"])
def test_a_fraction_is_built_only_for_each_quorum_and_fee(monkeypatch, source):
    """Payment amounts, reserves and rates are read straight into the
    value network's values, and a path's two amounts are text."""
    raw = (yaml.safe_load((SCENARIO_DIR / f"{source}.yaml").read_text())
           if source == "ilp_path" else world(3))
    built = _fraction_builds(monkeypatch)
    config = parse_scenario(raw)
    monkeypatch.undo()
    assert config.payments and config.connectors
    assert len(built) == len(config.chains) + len(config.peerings), built
    assert {type(p.amount) for p in config.payments} == {tuple}
    sim = Simulation(config)
    sim.run()
    assert sim.valuenet.paths
    for path in sim.valuenet.paths.values():
        assert type(path.amount_in) is str and type(path.amount_out) is str


# -- the compiled readers ------------------------------------------------

def _reference_plain(kind, minimum) -> tuple:
    """(plain, floor, ceiling): a value of type plain above floor, and
    below ceiling when that is set, is one that kind returns unchanged."""
    if kind is _str:
        return str, "", None
    if kind is _int and minimum is not None:
        return int, minimum - 1, 10 ** scenario.MAX_DIGITS
    return None, None, None


def reference_read(spec, r, item, path, n=1, parent=None):
    """The one generic reader that the compiled readers replace, kept as
    the reference they must agree with: a loop over spec's fields that
    interprets each field's declaration for every item."""
    if type(item) is not dict:
        r.add(scenario._at(path), f"expected mapping, got {type(item).__name__}")
        return None
    if not spec.keys.issuperset(item):
        for key in item:
            if key not in spec.keys:
                section = not path and "." not in scenario._key(key)
                r.add(scenario._at(path, key), "unknown section" if section else "unknown key")
    problems, ids, horizon = r.problems, r.ids, r.horizon
    before = len(problems)
    cascade = False
    vals: list = []
    for key, kind, default, minimum, ref, tick in spec.fields:
        plain, floor, ceiling = _reference_plain(kind, minimum)
        val = item.get(key)
        if val is None:
            if default is scenario._REQUIRED:
                r.add(scenario._at(path, key), "missing required key")
                vals.append(None)
                continue
            if default is None:
                vals.append(None)
                continue
            if type(kind) is Spec and minimum is None:
                ids[kind.noun] = {}
                vals.append([])
                continue
            if callable(default):
                vals.append(default(n, vals, parent))
                continue
            val = default
        try:
            if (type(val) is not plain or val <= floor
                    or ceiling is not None and val >= ceiling):
                if type(kind) is Spec:
                    val = r.items(val, scenario._at(path, key), kind, minimum, vals)
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
                    if r.was_dropped(ref, x):
                        cascade = True
                    else:
                        r.add(scenario._at(path, key), f"unknown {ref} {x}")
        except _Invalid as exc:
            r.add(scenario._at(path, key) + "".join(exc.args[1:]), exc.args[0])
        vals.append(val)
    if len(problems) == before and not cascade:
        return vals
    if spec.noun is not None and type(vals[0]) is str:
        r.dropped.setdefault(spec.noun, set()).add(vals[0])
    return None


def _specs(spec):
    """spec and every Spec below it."""
    yield spec
    for _, kind, *_ in spec.fields:
        if type(kind) is Spec:
            yield from _specs(kind)


@contextmanager
def reference_readers():
    """Every section read by reference_read until the block ends."""
    specs = list(_specs(_SCENARIO))
    compiled = [spec.read for spec in specs]
    for spec in specs:
        spec.read = partial(reference_read, spec)
    try:
        yield
    finally:
        for spec, read in zip(specs, compiled):
            spec.read = read


def _read(raw):
    """raw's config, or its problems in order."""
    try:
        return parse_scenario(raw)
    except ValidationError as exc:
        return exc.problems


def assert_read_as_the_reference_reads(raw):
    compiled = _read(raw)
    with reference_readers():
        reference = _read(raw)
    assert type(compiled) is type(reference) and compiled == reference, (compiled, reference)


@ROBUSTNESS
@given(st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=3),
                       JSON_LIKE, max_size=6) | mutated_worlds())
def test_the_compiled_readers_read_any_mapping_as_the_reference(raw):
    assert_read_as_the_reference_reads(raw)


@pytest.mark.parametrize("case", sorted(BAD_INPUTS) + sorted(FALL_THROUGH))
def test_the_compiled_readers_word_each_bad_input_as_the_reference(case):
    edit = (BAD_INPUTS.get(case) or FALL_THROUGH[case])[0]
    raw = full_world()
    edit(raw)
    assert_read_as_the_reference_reads(raw)


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")))
def test_the_compiled_readers_read_each_bundled_scenario_as_the_reference(name):
    assert_read_as_the_reference_reads(
        yaml.safe_load((SCENARIO_DIR / f"{name}.yaml").read_text(encoding="utf-8")))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_the_compiled_readers_read_each_benchmark_world_as_the_reference(workload, seed):
    for raw in workloads.generate(workload, seed):
        assert_read_as_the_reference_reads(raw)


def test_targets_of_a_dropped_chain_are_silent_by_format():
    """A node or gateway target names its chain by its format, so one of a
    dropped chain, in range or not, adds no problem; one of an undeclared
    chain does."""
    raw = full_world()
    raw["chains"][0]["regime"] = {"node": "no"}
    raw["faults"][1]["nodes"] = ["bc1.n1", "bc1.n99", "bc9.n1"]
    raw["faults"][2]["gateways"] = ["bc1.g9", "bc1.g1"]
    assert problems_of(raw) == [REGIME_PROBLEM, "faults[1].nodes: unknown node bc9.n1"]
    assert_read_as_the_reference_reads(raw)


# targets beside full_world's bc1, which has 3 nodes and 2 gateways
TARGETS = ["bc1.n1", "bc1.n3", "bc1.n4", "bc1.n0", "bc1.n01", "bc1.n", "bc1.n1 ", "bc1.n+1",
           "bc1.n\u0661", "bc1.n\u00b2", "bc1.n1.5", "bc1n1", "bc1..n1", "bc1.x.n1", ".n1",
           "bc9.n1", "bc1.g1", "bc1.g2", "bc1.g3", "bc1.g0", "bc1.n" + "9" * 640,
           "bc1.g" + "1" * 641]


@pytest.mark.parametrize("target", TARGETS)
def test_a_target_is_known_exactly_when_its_chain_has_that_id(target):
    """The format check accepts exactly the ids chain.node_ids and
    gateway_ids list, which the parse no longer builds."""
    for i, key, noun, ids in ((1, "nodes", "node", node_ids("bc1", 3)),
                              (2, "gateways", "gateway", gateway_ids("bc1", 2))):
        raw = full_world()
        raw["faults"][i][key] = [target]
        problems = [] if target in ids else problems_of(raw)
        assert problems == ([] if target in ids
                            else [f"faults[{i}].{key}: unknown {noun} {target}"])
        assert_read_as_the_reference_reads(raw)


# a world of under 1 KB whose one chain has 639-digit node and gateway
# counts, the second an alias of the first: validating it must cost what
# the file holds, not what it counts
HUGE_COUNTS = f"""horizon: 10
chains:
  - id: bc1
    nodes: &count {"9" * 639}
    gateways: *count
    confirm_latency: 1
    semantic: payments
"""

BOUNDED_VALIDATE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from interopsim import cli
sys.exit(cli.main(["validate", sys.argv[1]]))
"""


def test_validate_of_huge_counts_is_bounded(tmp_path):
    """Under a 1 GiB address space and in 30 s, validate gives a config or
    exactly one problem (the default vouch threshold), and no traceback."""
    path = tmp_path / "huge_counts.yaml"
    path.write_text(HUGE_COUNTS, encoding="utf-8")
    assert path.stat().st_size < 1024
    done = subprocess.run(
        [sys.executable, "-c", BOUNDED_VALIDATE, str(path)], capture_output=True, text=True,
        timeout=30, env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert "Traceback" not in done.stderr, done.stderr
    assert done.returncode in (0, 2), done.stderr
    if done.returncode == 2:
        assert "(1 problems)" in done.stderr, done.stderr
