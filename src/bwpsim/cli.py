"""Command-line front end.

Subcommands: validate a scenario document, run one to a trace and metrics,
or look up a switch delay. Exit codes are stable: 0 success, 1 domain
error (validation findings, invalid scenario, unsupported SCS), 2 parse
or I/O failure. The commands raise; `main` alone maps each error to its
exit code and prints it to stderr as `error: ...`, so an unreadable
input or an unwritable output file or stdout exits 2 without a
traceback. Machine-readable output goes to stdout, human-readable
reporting to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Optional

from .config import DelayType, Severity, ValidationReport, validate
from .engine import ScenarioInvalid, run
from .fsm import UnsupportedScs, switch_delay_khz
from .scenario import FORMAT_VERSION, ParseError, load_scenario
from .trace import ms_str, write_trace

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2


def _print_findings(reports: Iterable[tuple[str, ValidationReport]]) -> tuple[int, int]:
    """Report every finding on stderr; returns the (error, warning) counts."""
    n_errors = n_warnings = 0
    for cid, rep in reports:
        for f in rep.findings:
            print(
                f"{cid}/{f.location}: {f.severity.value} [{f.rule_code}] {f.message}",
                file=sys.stderr,
            )
            if f.severity is Severity.ERROR:
                n_errors += 1
            else:
                n_warnings += 1
    return n_errors, n_warnings


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.file)
    reports = {cid: validate(cfg, scenario.capability) for cid, cfg in scenario.cells.items()}
    ok = not any(rep.has_errors for rep in reports.values())
    machine = {
        "version": FORMAT_VERSION,
        "ok": ok,
        "cells": {cid: rep.to_obj() for cid, rep in reports.items()},
    }
    print(json.dumps(machine, sort_keys=True, indent=2))
    n_errors, n_warnings = _print_findings(reports.items())
    print(
        f"{n_errors} error(s), {n_warnings} warning(s) across {len(reports)} cell(s)",
        file=sys.stderr,
    )
    return EXIT_OK if ok else EXIT_DOMAIN


def cmd_run(args: argparse.Namespace) -> int:
    trace, metrics = run(load_scenario(args.file))
    metrics_doc = json.dumps(metrics.to_obj(), sort_keys=True, indent=2)
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as out:
            write_trace(trace, out)
    else:
        write_trace(trace, sys.stdout)
    if args.metrics is not None:
        with open(args.metrics, "w", encoding="utf-8") as out:
            out.write(metrics_doc + "\n")
    else:
        print(metrics_doc)
    print(f"{len(trace)} trace record(s) over {ms_str(metrics.total_time_ms)} ms", file=sys.stderr)
    return EXIT_OK


def cmd_delay(args: argparse.Namespace) -> int:
    spec = switch_delay_khz(args.scs_from, args.scs_to, DelayType(args.delay_type))
    ms = ms_str(spec.duration_ms)
    if "." not in ms:
        ms += ".0"
    print(f"{spec.slots} slots = {ms} ms")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwpsim",
        description="Validate and simulate NR bandwidth-part scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario document's cell configurations")
    p_validate.add_argument("file", help="scenario document (JSON)")
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="simulate a scenario document")
    p_run.add_argument("file", help="scenario document (JSON)")
    p_run.add_argument("--trace", metavar="PATH", help="write the trace here instead of stdout")
    p_run.add_argument("--metrics", metavar="PATH", help="write metrics here instead of stdout")
    p_run.set_defaults(func=cmd_run)

    p_delay = sub.add_parser("delay", help="switch delay between two subcarrier spacings")
    p_delay.add_argument("scs_from", type=int, help="source SCS in kHz")
    p_delay.add_argument("scs_to", type=int, help="target SCS in kHz")
    p_delay.add_argument("delay_type", choices=["type1", "type2"])
    p_delay.set_defaults(func=cmd_delay)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:  # an unreadable input or unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        _print_findings(sorted(exc.reports.items()))
        return EXIT_DOMAIN
    except UnsupportedScs as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
