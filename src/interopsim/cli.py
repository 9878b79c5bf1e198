"""Command line interface.

    interopsim run <scenario.yaml> [--seed N] [--out DIR]
    interopsim validate <scenario.yaml>
    interopsim diff <run.log> <run.log>

Exit status: 0 on success with all invariant audits passing, 1 when an
audit fails or the logs differ, 2 on scenario parse/validation errors,
on an input file that is missing or not UTF-8 text, or when run cannot
make its --out directory (say, a file of that name exists).  Exit 2
prints the problems, or one error line, to stderr; never a traceback.
Stdout, like stderr, escapes what the locale cannot encode.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ParseError, ValidationError
from .runner import execute, replay_diff
from .scenario import WORKLOAD_SECTIONS, load_scenario, with_seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interopsim",
        description="Deterministic simulator for gateway-mediated "
                    "blockchain interoperability")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and audit the result")
    p_run.add_argument("scenario", help="scenario YAML file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    p_run.add_argument("--out", default=None, metavar="DIR",
                       help="write run.log, report and resolver.dump here")

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario", help="scenario YAML file")

    p_diff = sub.add_parser("diff", help="compare two event logs")
    p_diff.add_argument("log_a")
    p_diff.add_argument("log_b")
    return parser


def cmd_run(args) -> int:
    try:
        config = load_scenario(args.scenario)
        if args.seed is not None:
            config = with_seed(config, args.seed)
    except (ParseError, ValidationError) as exc:
        _print_scenario_error(exc)
        return 2
    try:
        report, _ = execute(config, out_dir=args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    if args.out:
        print(f"artifacts written to {args.out}")
    return 0 if report.passed() else 1


def cmd_validate(args) -> int:
    try:
        config = load_scenario(args.scenario)
    except (ParseError, ValidationError) as exc:
        _print_scenario_error(exc)
        return 2
    items = sum(len(getattr(config, section)) for section in WORKLOAD_SECTIONS)
    print(f"{args.scenario}: ok ({len(config.chains)} chains, "
          f"{items} workload items, {len(config.faults)} faults)")
    return 0


def cmd_diff(args) -> int:
    try:
        divergence = replay_diff(args.log_a, args.log_b)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if divergence is None:
        print("logs identical")
        return 0
    print(divergence.render())
    return 1


def _print_scenario_error(exc) -> None:
    if isinstance(exc, ValidationError):
        print(f"scenario invalid ({len(exc.problems)} problems):", file=sys.stderr)
        for problem in exc.problems:
            print(f"  {problem}", file=sys.stderr)
    else:
        print(f"scenario unreadable: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "validate":
        return cmd_validate(args)
    return cmd_diff(args)


if __name__ == "__main__":
    sys.exit(main())
