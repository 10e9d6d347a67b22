"""The benchmark's own tests; not part of tier-1.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NoSpans  # noqa: E402

FIXTURES = ROOT / "fixtures"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def copy_checkout(tmp_path: Path) -> Path:
    """A checkout of the program, the fixtures and the benchmark."""
    root = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(FIXTURES, root / "fixtures")
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_smoke_prints_every_declared_metric_with_its_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.1",
                 "--trace", trace, "--scale", "0.02")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool), name
        if trace == "0":
            assert m["value"] > 0, name
    meta = json.loads(lines[-2])["meta"]
    assert meta["seed"] == 5
    for key in ("python", "nproc", "platform", "commit"):
        assert meta[key], key


def test_gate_rejects_a_one_byte_altered_golden_trace(tmp_path):
    root = copy_checkout(tmp_path)
    golden = root / "fixtures" / "tdd_trace.golden.jsonl"
    data = bytearray(golden.read_bytes())
    data[len(data) // 2] ^= 0x01
    golden.write_bytes(bytes(data))

    tally = gate.Tally()
    with pytest.raises(gate.GateFailure):
        workloads.CliGolden(root, seed=0).setup(tally)
    assert tally.failed == 1

    proc = bench(root, "--workload", "cli_golden", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1 and result["metrics"] == {}


def test_timed_pass_counts_a_changed_output_as_failed():
    wl = workloads.CaDense(ROOT, seed=5, scale=0.02)
    wl.setup(gate.Tally())
    op = wl.ops[0]
    codes, trace_text, metrics_text, replay_ok = op.expect
    i = len(trace_text) // 2
    op.expect = (codes, trace_text[:i] + chr(ord(trace_text[i]) ^ 1) + trace_text[i + 1:], metrics_text, replay_ok)
    tally = gate.Tally()
    run.run_pass(wl.ops, NoSpans(), tally)
    assert tally.attempted == len(wl.ops) and tally.failed == 1


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_recorded_digests_hold_at_the_default_seed(workload):
    tally = gate.Tally()
    wl = workloads.WORKLOADS[workload](ROOT, seed=workloads.DEFAULT_SEED)
    wl.setup(tally)
    wl.check_digests(tally)
    assert tally.failed == 0


def test_gate_rejects_a_wrong_digest(tmp_path, monkeypatch):
    wl = workloads.ValidateCorpus(ROOT, seed=workloads.DEFAULT_SEED)
    wl.setup(gate.Tally())
    digests = json.loads(workloads.DIGESTS.read_text(encoding="utf-8"))
    digests["validate_corpus"]["codes_sha256"] = "0" * 64
    wrong = tmp_path / "digests.json"
    wrong.write_text(json.dumps(digests), encoding="utf-8")
    monkeypatch.setattr(workloads, "DIGESTS", wrong)
    tally = gate.Tally()
    with pytest.raises(gate.GateFailure):
        wl.check_digests(tally)
    assert tally.failed == 1


def test_no_result_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ca_dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _generated(seed: int):
    return {
        "ca_dense": gen.ca_dense(seed, per_cell=5),
        "idle_horizon": gen.idle_horizon(seed, FIXTURES, horizon_ms=3000),
        "validate_corpus": gen.validate_corpus(seed, FIXTURES, n_docs=40),
    }


def test_generators_are_deterministic_per_seed():
    assert _generated(7) == _generated(7)
    one, other = _generated(7), _generated(8)
    for name in one:
        assert one[name] != other[name], name


def test_generated_documents_validate_cleanly_except_the_mutated_share():
    docs = _generated(11)
    clean = docs["ca_dense"] + docs["idle_horizon"] + [t for label, t in docs["validate_corpus"] if label == "valid"]
    for text in clean:
        codes = workloads.parse_and_validate(text, "doc", NoSpans())
        assert codes == [[] for _ in codes], codes
    mutated = [(label, t) for label, t in docs["validate_corpus"] if label.startswith("mutated:")]
    assert len(mutated) == 10
    for label, text in mutated:
        assert any(workloads.parse_and_validate(text, "doc", NoSpans())), label
