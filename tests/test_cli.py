"""CLI surface: subcommands, exit codes, stream separation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bwpsim.cli import main
from support import HAS_DIGIT_LIMIT
from test_scenario_io import BAD_FIELDS, adaptation_doc, mutated, without

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NEEDS_DIGIT_LIMIT = pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="this Python has no int digit limit")


class TestDelay:
    def test_30_to_30_type1(self, capsys):
        assert main(["delay", "30", "30", "type1"]) == 0
        assert capsys.readouterr().out.strip() == "2 slots = 1.0 ms"

    def test_15_to_120_type2_uses_smaller_scs(self, capsys):
        assert main(["delay", "15", "120", "type2"]) == 0
        assert capsys.readouterr().out.strip() == "3 slots = 3.0 ms"

    def test_60_type2(self, capsys):
        assert main(["delay", "60", "60", "type2"]) == 0
        assert capsys.readouterr().out.strip() == "9 slots = 2.25 ms"

    def test_240_is_a_domain_error(self, capsys):
        assert main(["delay", "240", "240", "type1"]) == 1
        assert "240" in capsys.readouterr().err

    def test_bad_type_is_a_usage_error(self, capsys):
        assert main(["delay", "30", "30", "type3"]) == 2
        capsys.readouterr()


class TestValidate:
    def test_adaptation_fixture_passes(self, capsys):
        assert main(["validate", str(FIXTURES / "adaptation_fdd_scenario.json")]) == 0
        out = capsys.readouterr()
        machine = json.loads(out.out)
        assert machine["ok"] is True
        assert machine["cells"]["pcell"]["findings"] == []

    def test_too_many_bwps_yields_one_count_error(self, capsys):
        assert main(["validate", str(FIXTURES / "invalid" / "too_many_bwps.json")]) == 1
        out = capsys.readouterr()
        machine = json.loads(out.out)
        codes = [f["rule_code"] for f in machine["cells"]["pcell"]["findings"]]
        assert codes.count("BWP-COUNT") == 1
        assert "BWP-COUNT" in out.err

    @pytest.mark.parametrize(
        "name,code",
        [
            ("coreset_outside_initial.json", "CORESET0-CONTAIN"),
            ("tdd_center_mismatch.json", "TDD-CENTER"),
            ("bad_timer.json", "TIMER-RANGE"),
        ],
    )
    def test_invalid_corpus(self, capsys, name, code):
        assert main(["validate", str(FIXTURES / "invalid" / name)]) == 1
        machine = json.loads(capsys.readouterr().out)
        codes = {f["rule_code"] for cell in machine["cells"].values() for f in cell["findings"]}
        assert code in codes

    def test_warnings_are_counted_and_pass(self, tmp_path, capsys):
        """A 1-RB UL BWP is below the RBG floor: a warning, not an error."""
        doc = tmp_path / "warning.json"
        n_rbs = ("cells", 0, "ul_bwps", 0, "common", "geometry", "n_rbs")
        doc.write_text(json.dumps(mutated(adaptation_doc(), n_rbs, 1)))
        assert main(["validate", str(doc)]) == 0
        out = capsys.readouterr()
        assert json.loads(out.out)["ok"] is True
        assert "Warning [RBG-FLOOR]" in out.err
        assert out.err.endswith("0 error(s), 1 warning(s) across 1 cell(s)\n")

    def test_truncated_file_is_a_parse_error(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text('{"version": "bwpsim/1"')
        assert main(["validate", str(broken)]) == 2
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/nowhere.json"]) == 2
        capsys.readouterr()


class TestRun:
    def test_adaptation_trace_matches_golden_bytes(self, tmp_path, capsys):
        trace_out = tmp_path / "trace.jsonl"
        metrics_out = tmp_path / "metrics.json"
        rc = main([
            "run", str(FIXTURES / "adaptation_fdd_scenario.json"),
            "--trace", str(trace_out), "--metrics", str(metrics_out),
        ])
        capsys.readouterr()
        assert rc == 0
        golden = (FIXTURES / "adaptation_fdd_trace.golden.jsonl").read_bytes()
        assert trace_out.read_bytes() == golden
        golden_metrics = (FIXTURES / "adaptation_fdd_metrics.golden.json").read_bytes()
        assert metrics_out.read_bytes() == golden_metrics

    def test_tdd_trace_matches_golden_bytes(self, tmp_path, capsys):
        trace_out = tmp_path / "trace.jsonl"
        rc = main(["run", str(FIXTURES / "tdd_scenario.json"), "--trace", str(trace_out)])
        capsys.readouterr()
        assert rc == 0
        assert trace_out.read_bytes() == (FIXTURES / "tdd_trace.golden.jsonl").read_bytes()

    def test_mixed_scs_trace_matches_golden_bytes(self, tmp_path, capsys):
        trace_out = tmp_path / "trace.jsonl"
        metrics_out = tmp_path / "metrics.json"
        rc = main([
            "run", str(FIXTURES / "mixed_scs_scenario.json"),
            "--trace", str(trace_out), "--metrics", str(metrics_out),
        ])
        capsys.readouterr()
        assert rc == 0
        assert trace_out.read_bytes() == (FIXTURES / "mixed_scs_trace.golden.jsonl").read_bytes()
        golden_metrics = (FIXTURES / "mixed_scs_metrics.golden.json").read_bytes()
        assert metrics_out.read_bytes() == golden_metrics

    def test_mixed_scs_golden_covers_every_rejection_path(self):
        # the golden must keep pinning the paths that share one switch rule
        lines = (FIXTURES / "mixed_scs_trace.golden.jsonl").read_text().splitlines()
        rejected = {
            (r["cell"], r["event_kind"], r["reason"], r["detail"])
            for r in map(json.loads, lines)
            if r["record"] == "EventRejected"
        }
        unsupported = "no switch delay requirement for 240 kHz"
        assert {
            ("fr1fdd", "Dci", "TargetNotConfigured", "DL BWP #2 not configured"),
            ("fr1fdd", "Dci", "TargetNotConfigured", "UL BWP #2 not configured"),
            ("fr1tdd", "Dci", "TargetNotConfigured", "BWP pair #2 not configured"),
            ("fr2tdd", "Dci", "UnsupportedScs", unsupported),
            ("fr2tdd", "RrcReconfig", "UnsupportedScs", unsupported),
            ("fr2tdd", "TimerExpiry", "UnsupportedScs", unsupported),
        } <= rejected

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        main(["run", str(FIXTURES / "tdd_scenario.json"), "--trace", str(out1)])
        main(["run", str(FIXTURES / "tdd_scenario.json"), "--trace", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_trace_to_stdout_by_default(self, capsys):
        rc = main(["run", str(FIXTURES / "tdd_scenario.json")])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert json.loads(lines[0])["record"] == "RunStart"

    def test_misaligned_event_is_a_domain_error(self, capsys):
        rc = main(["run", str(FIXTURES / "invalid" / "misaligned_event.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "grid" in err

    def test_invalid_config_reports_findings(self, capsys):
        rc = main(["run", str(FIXTURES / "invalid" / "bad_timer.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "TIMER-RANGE" in err

    def test_parse_failure(self, capsys):
        assert main(["run", "/nonexistent/nowhere.json"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("option", ["--trace", "--metrics"])
    def test_unwritable_output_exits_2_without_traceback(self, tmp_path, capsys, option):
        out = tmp_path / "missing" / "out.json"
        assert main(["run", str(FIXTURES / "tdd_scenario.json"), option, str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("path,value", BAD_FIELDS, ids=lambda x: repr(x))
@pytest.mark.parametrize("command", ["validate", "run"])
def test_bad_documents_exit_2_without_traceback(tmp_path, capsys, command, path, value):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(mutated(adaptation_doc(), path, value)))
    assert main([command, str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_missing_nested_field_is_named(tmp_path, capsys, command):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(without(adaptation_doc(), ("cells", 0, "dl_bwps", 1, "common", "geometry"), "n_rbs")))
    assert main([command, str(doc)]) == 2
    assert capsys.readouterr().err == "error: cells[0].dl_bwps[1].common.geometry: missing required field 'n_rbs'\n"


@pytest.mark.parametrize(
    "content",
    [
        b'{"version": "bwpsim/1", "cells": "\xff"}',
        b"[" * 100_000 + b"]" * 100_000,
        pytest.param(b'{"version": ' + b"1" * 5000 + b"}", marks=NEEDS_DIGIT_LIMIT),
    ],
    ids=["not-utf8", "nested-100000-deep", "int-of-5000-digits"],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_undecodable_files_exit_2_without_traceback(tmp_path, capsys, command, content):
    doc = tmp_path / "doc.json"
    doc.write_bytes(content)
    assert main([command, str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


class _FullStream:
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("command", ["validate", "run"])
def test_unwritable_stdout_exits_2_without_traceback(monkeypatch, capsys, command):
    monkeypatch.setattr(sys, "stdout", _FullStream())
    assert main([command, str(FIXTURES / "tdd_scenario.json")]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_module_entry_point_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "bwpsim.cli", "validate", str(FIXTURES / "invalid" / "bad_timer.json")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert "TIMER-RANGE" in proc.stderr


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    """Every `bwpsim` command pays for its imports at start. Under `python -S`,
    so that no site hook of the host imports them either, the CLI's import
    chain leaves out `dataclasses` and `inspect`, which with `ast`, `dis` and
    `tokenize` cost several ms per start."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    code = "import sys, bwpsim.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
