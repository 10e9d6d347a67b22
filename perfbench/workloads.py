"""The four workloads: their inputs, their operations and their gate.

An operation is one closed-loop call into bwpsim: the next starts only
when the previous one returned. Each operation carries the output it must
produce; the gate establishes that output before any timing starts.

Import this module only after `src/` is on `sys.path` (see run.py).
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from bwpsim import ParseError, read_trace, replay_metrics, run, scenario_from_obj, validate, write_trace
from bwpsim.cli import main as cli_main

import gen
from gate import Tally, expect_digest, expect_equal
from tracing import NoSpans

DEFAULT_SEED = 0
DIGESTS = Path(__file__).resolve().parent / "digests.json"
GOLDEN = ("adaptation_fdd", "tdd")
# The package has no __main__ and need not be installed, so the child
# imports the CLI module itself, as the `bwpsim` console script would.
CLI_MAIN = "from bwpsim.cli import entrypoint; entrypoint()"


@dataclass
class Op:
    """One operation: `call(spans)` returns the output that must equal `expect`."""

    scenario: str
    kind: str  # "run" and "validate" call bwpsim in-process, "cli" runs a child
    text: str  # the scenario document
    call: Callable[[Any], Any]
    expect: Any = None
    path: Optional[Path] = None  # the document's file, for CLI operations


def run_pipeline(text: str, scenario: str, spans, validate_cells: bool = False):
    """Parse, (validate,) run, serialize, read back and replay one document.

    Returns the validation codes (None unless asked), the trace and
    metrics text as `bwpsim run` prints them, and whether the replayed
    metrics equal the run's own.
    """
    with spans.span("scenario.parse", scenario):
        sc = scenario_from_obj(json.loads(text))
    codes = None
    if validate_cells:
        with spans.span("config.validate", scenario):
            codes = [list(validate(cfg, sc.capability).codes()) for cfg in sc.cells.values()]
    with spans.span("engine.run", scenario):
        trace, metrics = run(sc)
    with spans.span("trace.write", scenario):
        buf = io.StringIO()
        write_trace(trace, buf)
        trace_text = buf.getvalue()
        metrics_text = json.dumps(metrics.to_obj(), sort_keys=True, indent=2) + "\n"
    with spans.span("trace.read", scenario):
        records = read_trace(trace_text.splitlines())
    with spans.span("engine.replay", scenario):
        replayed = replay_metrics(records)
    return codes, trace_text, metrics_text, replayed == metrics


def parse_and_validate(text: str, scenario: str, spans):
    """Finding codes per cell, or "ParseError"."""
    try:
        with spans.span("scenario.parse", scenario):
            sc = scenario_from_obj(json.loads(text))
    except ParseError:
        return "ParseError"
    with spans.span("config.validate", scenario):
        return [list(validate(cfg, sc.capability).codes()) for cfg in sc.cells.values()]


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def cli_run(root: Path, path: Path, scenario: str, spans) -> tuple[int, bytes]:
    """`bwpsim run PATH` in a fresh interpreter; exit code and stdout.

    No timeout: with one, subprocess polls for the child's exit with
    sleeps of up to 50 ms, which would quantize the timing.
    """
    with spans.span("cli.run", scenario):
        proc = subprocess.run(
            [sys.executable, "-c", CLI_MAIN, "run", str(path)],
            capture_output=True, env=child_env(root), cwd=root,
        )
    return proc.returncode, proc.stdout


def cli_in_process(path: Path) -> None:
    """The CLI's `run` in this process, output discarded (heap pass)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        cli_main(["run", str(path)])


def _run_op(scenario: str, text: str, validate_cells: bool = False) -> Op:
    return Op(scenario, "run", text, lambda spans: run_pipeline(text, scenario, spans, validate_cells))


def probe_ops(root: Path) -> list[Op]:
    """The two golden fixtures through every in-process layer.

    Every traced pass ends with these, so every layer reports on every
    workload, including the layers a workload itself never calls.
    """
    fixtures = root / "fixtures"
    ops = []
    for name in GOLDEN:
        text = (fixtures / f"{name}_scenario.json").read_text(encoding="utf-8")
        op = _run_op(f"golden/{name}", text, validate_cells=True)
        cells = len(json.loads(text)["cells"])
        op.expect = (
            [[] for _ in range(cells)],
            (fixtures / f"{name}_trace.golden.jsonl").read_text(encoding="utf-8"),
            (fixtures / f"{name}_metrics.golden.json").read_text(encoding="utf-8"),
            True,
        )
        ops.append(op)
    return ops


class Workload:
    """Inputs from a seed, the operations over them, and their gate."""

    name = ""
    reference = "python"  # the speed reference run between passes (speed.py)

    def __init__(self, root: Path, seed: int, scale: float = 1.0):
        self.root = root
        self.seed = seed
        self.scale = scale
        self.ops: list[Op] = []

    def setup(self, tally: Tally) -> None:
        """Generate the inputs and gate every operation's output."""
        for op in probe_ops(self.root):
            out = op.call(_NO_SPANS)
            expect_equal(tally, f"{op.scenario} matches its golden files", out, op.expect)
        self._setup(tally)

    def _setup(self, tally: Tally) -> None:
        raise NotImplementedError

    def heap_call(self, op: Op) -> Callable[[], Any]:
        return lambda: op.call(_NO_SPANS)

    def digest_data(self) -> dict[str, str]:
        """The outputs whose sha256 digests.json records at the default seed."""
        return {}

    def check_digests(self, tally: Tally) -> None:
        """At the default seed and size, gate the outputs on digests.json."""
        outputs = self.digest_data()
        if not outputs or self.seed != DEFAULT_SEED or self.scale != 1.0:
            return
        want = json.loads(DIGESTS.read_text(encoding="utf-8"))[self.name]
        for key, data in outputs.items():
            expect_digest(tally, f"{self.name} {key} at seed {DEFAULT_SEED}", data, want[key])


_NO_SPANS = NoSpans()


class CliGolden(Workload):
    name = "cli_golden"
    reference = "interpreter"

    def _setup(self, tally: Tally) -> None:
        fixtures = self.root / "fixtures"
        names = list(GOLDEN)
        random.Random(f"perfbench/cli_golden/{self.seed}").shuffle(names)
        self.ops = []
        for name in names:
            path = fixtures / f"{name}_scenario.json"
            golden = (fixtures / f"{name}_trace.golden.jsonl").read_bytes() + (
                fixtures / f"{name}_metrics.golden.json"
            ).read_bytes()
            op = Op(
                f"cli/{name}", "cli", path.read_text(encoding="utf-8"),
                lambda spans, path=path, sc=f"cli/{name}": cli_run(self.root, path, sc, spans),
                expect=(0, golden), path=path,
            )
            for attempt in ("first", "second"):
                expect_equal(tally, f"bwpsim run {name} ({attempt} run) prints the golden bytes",
                             op.call(_NO_SPANS), op.expect)
            self.ops.append(op)

    def heap_call(self, op: Op) -> Callable[[], Any]:
        return lambda: cli_in_process(op.path)


class _RunWorkload(Workload):
    """Documents run in-process: parse, run, serialize, read back, replay."""

    def documents(self) -> list[str]:
        raise NotImplementedError

    def _setup(self, tally: Tally) -> None:
        self.ops = []
        for i, text in enumerate(self.documents()):
            sc = f"{self.name}/{i}"
            clean = [[] for _ in json.loads(text)["cells"]]
            expect_equal(tally, f"{sc} validates cleanly", parse_and_validate(text, sc, _NO_SPANS), clean)
            op = _run_op(sc, text)
            first = op.call(_NO_SPANS)
            expect_equal(tally, f"{sc} replays to its own metrics", first[3], True)
            expect_equal(tally, f"{sc} reruns to identical bytes", op.call(_NO_SPANS), first)
            op.expect = first
            self.ops.append(op)

    def digest_data(self) -> dict[str, str]:
        return {
            "trace_sha256": "".join(op.expect[1] for op in self.ops),
            "metrics_sha256": "".join(op.expect[2] for op in self.ops),
        }


class IdleHorizon(_RunWorkload):
    name = "idle_horizon"

    def documents(self) -> list[str]:
        return gen.idle_horizon(self.seed, self.root / "fixtures", horizon_ms=max(100, round(100_000 * self.scale)))


class CaDense(_RunWorkload):
    name = "ca_dense"

    def documents(self) -> list[str]:
        return gen.ca_dense(self.seed, per_cell=max(5, round(200 * self.scale)))


class ValidateCorpus(Workload):
    name = "validate_corpus"

    def _setup(self, tally: Tally) -> None:
        self.ops = []
        n_docs = max(8, round(400 * self.scale))
        for label, text in gen.validate_corpus(self.seed, self.root / "fixtures", n_docs=n_docs):
            sc = f"{self.name}/{len(self.ops)}"
            op = Op(sc, "validate", text, lambda spans, text=text, sc=sc: parse_and_validate(text, sc, spans))
            first = op.call(_NO_SPANS)
            if label == "valid":
                expect_equal(tally, f"{sc} validates cleanly", first, [[] for _ in first])
            elif label.startswith("mutated"):
                expect_equal(tally, f"{sc} ({label}) has findings", any(first), True)
            expect_equal(tally, f"{sc} revalidates identically", op.call(_NO_SPANS), first)
            op.expect = first
            self.ops.append(op)

    def digest_data(self) -> dict[str, str]:
        return {"codes_sha256": json.dumps([op.expect for op in self.ops], sort_keys=True)}


WORKLOADS = {w.name: w for w in (CliGolden, IdleHorizon, CaDense, ValidateCorpus)}
