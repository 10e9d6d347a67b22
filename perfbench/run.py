"""bwpsim benchmark: seeded workloads, a correctness gate, then timings.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's documents are generated
from the seed, every operation's output is checked (golden bytes, the
recorded digests at the default seed, a byte-identical rerun and the
trace replay) and only then is anything timed. With --trace 0 the last
line of stdout carries the end-to-end metrics; with --trace 1 it carries
the per-layer metrics of a separate traced run. The line before it holds
the run's metadata and every timing's sample count, median and quartiles.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from gate import GateFailure, Tally
from gen import TICK_MS
from speed import NOMINAL_MS, reference_ms
from tracing import NoSpans, Spans, profile_shares

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_PASSES = 3
SETUP_REFERENCES = 3
REFERENCE_EVERY_S = 0.25
CLI_PROBES = 10


class SetupError(Exception):
    """The checkout does not hold the program or its fixtures."""


def locate_program(root: Path) -> None:
    """Put the checkout's `src/` first on sys.path and check that bwpsim
    is imported from there, not from an installed copy."""
    src = root / "src"
    if not (src / "bwpsim" / "__init__.py").is_file():
        raise SetupError(f"no bwpsim package under {src}")
    for name in ("adaptation_fdd", "tdd"):
        for suffix in ("_scenario.json", "_trace.golden.jsonl", "_metrics.golden.json"):
            if not (root / "fixtures" / f"{name}{suffix}").is_file():
                raise SetupError(f"missing fixture {name}{suffix}")
    if not (root / "BENCHMARK.json").is_file():
        raise SetupError("no BENCHMARK.json at the checkout root")
    sys.path.insert(0, str(src))
    import bwpsim

    if Path(bwpsim.__file__).resolve().parent != (src / "bwpsim").resolve():
        raise SetupError(f"bwpsim was imported from {bwpsim.__file__}, not from {src}")


def summary(values: list[float]) -> dict:
    """Sample count, median, quartiles and 90th percentile of one timing."""
    if len(values) < 2:
        return {"n": len(values), "median": values[0], "q1": values[0], "q3": values[0], "p90": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "p90": statistics.quantiles(values, n=10)[8]}


def metadata(seed: int, workload: str, trace: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": commit,
        "seed": seed,
        "workload": workload,
        "trace": trace,
        "note": "compare results only when python, nproc and platform match",
    }


def run_pass(ops, spans, tally, reference=None) -> tuple[list[float], list[float]]:
    """One closed-loop pass over the operations: their times and, when
    `reference` is given, for each operation the mean time of the two
    reference runs around it. Reference runs are made at the start, after
    every REFERENCE_EVERY_S of work and at the end.

    Every output is checked against the gated one outside the timed region.
    """
    op_times: list[float] = []
    refs: list[float] = []  # reference times, in order
    ref_of_op: list[int] = []  # index into refs of the run before each op
    since_ref = REFERENCE_EVERY_S
    for op in ops:
        if reference is not None:
            if since_ref >= REFERENCE_EVERY_S:
                refs.append(reference())
                since_ref = 0.0
            ref_of_op.append(len(refs) - 1)
        with spans.span("op", op.scenario):
            t0 = time.perf_counter()
            out = op.call(spans)
            dt = time.perf_counter() - t0
        tally.record(out == op.expect, f"{op.scenario} output changed during timing")
        op_times.append(dt)
        since_ref += dt
    if reference is None:
        return op_times, []
    refs.append(reference())
    return op_times, [(refs[i] + refs[i + 1]) / 2 for i in ref_of_op]


def heap_peak_mb(wl) -> float:
    """Largest tracemalloc peak of one operation, in an untimed pass."""
    calls = [wl.heap_call(op) for op in wl.ops]
    tracemalloc.start()
    try:
        worst = 0
        for call in calls:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            worst = max(worst, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return worst / 1e6


def input_counts(ops) -> dict[str, int]:
    """Documents and scenario events handled by one pass over `ops`."""
    return {
        "docs": len(ops),
        "events": sum(len(json.loads(op.text).get("events", [])) for op in ops),
    }


def set_up(wl_cls, seed: int, scale: float, tally):
    """Generate the inputs, gate every output, check the digests."""
    wl = wl_cls(ROOT, seed, scale)
    wl.setup(tally)
    wl.check_digests(tally)
    return wl


def measure(wl_cls, seed: int, seconds: float, scale: float, tally) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics and their timing summaries.

    Reference runs are interleaved with the set-ups and the operations,
    and every time is reported at the reference's nominal speed: an
    operation's time is multiplied by NOMINAL_MS / (mean of the reference
    runs just before and after it, at most REFERENCE_EVERY_S of work away),
    a set-up's by NOMINAL_MS / (mean of the reference runs just before and
    after it).
    See speed.py.
    """
    from workloads import child_env

    env = child_env(ROOT)
    nominal = NOMINAL_MS[wl_cls.reference]

    def reference() -> float:
        return reference_ms(wl_cls.reference, env, ROOT)

    raw_setups: list[float] = []
    setups: list[float] = []
    setup_refs: list[float] = []
    before = [reference() for _ in range(SETUP_REFERENCES)]
    for _ in range(SETUP_REPEATS):
        wl = None
        gc.collect()  # the previous set-up's garbage is not this one's cost
        t0 = time.perf_counter()
        wl = set_up(wl_cls, seed, scale, tally)
        raw_setups.append(time.perf_counter() - t0)
        after = [reference() for _ in range(SETUP_REFERENCES)]
        setups.append(raw_setups[-1] * nominal / statistics.fmean(before + after))
        setup_refs += before
        before = after
    setup_refs += before

    nospans = NoSpans()
    raw_ops: list[float] = []
    op_refs: list[float] = []
    ops: list[float] = []
    passes: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        op_times, ref_times = run_pass(wl.ops, nospans, tally, reference)
        scaled = [t * nominal / ref for t, ref in zip(op_times, ref_times)]
        raw_ops += op_times
        ops += scaled
        passes.append(sum(scaled))
        op_refs += ref_times
    wall = statistics.median(passes)
    counts = input_counts(wl.ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "op_p50_ms": 1e3 * statistics.median(ops),
        "docs_per_s": counts["docs"] / wall,
        "events_per_s": counts["events"] / wall,
        "peak_heap_mb": heap_peak_mb(wl),
    }
    timings = {
        "setup_s": summary(setups),
        "pass_s": summary(passes),
        "op_ms": summary([1e3 * t for t in ops]),
        "raw_setup_s": summary(raw_setups),
        "raw_op_ms": summary([1e3 * t for t in raw_ops]),
        "reference": wl_cls.reference,
        "reference_nominal_ms": nominal,
        "setup_reference_ms": summary(setup_refs),
        "op_reference_ms": summary(op_refs),
        "counts_per_pass": counts,
    }
    return metrics, timings


def cli_probe_ms(spans) -> tuple[list[float], list[float]]:
    """Bare interpreter start, and start plus `import bwpsim.cli`."""
    from workloads import child_env

    bare, imported = [], []
    env = child_env(ROOT)
    for _ in range(CLI_PROBES):
        with spans.span("cli.interp", "probe/cli"):
            bare.append(reference_ms("interpreter", env, ROOT))
        with spans.span("cli.import", "probe/cli"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import bwpsim.cli"], env=env, cwd=ROOT, check=True)
            imported.append(1e3 * (time.perf_counter() - t0))
    return bare, imported


def layer_counts(ops) -> dict[str, float]:
    """Work counts of one traced pass's in-process calls, from the inputs
    and the gated outputs (so they repeat exactly for a given seed)."""
    c = dict.fromkeys(
        ("events", "cells", "findings", "run_events", "cell_ticks", "sim_ms", "records", "bytes",
         "windows", "state_changes", "rejected"), 0)
    for op in ops:
        doc = json.loads(op.text)
        c["events"] += len(doc.get("events", []))
        c["cells"] += len(doc.get("cells", []))
        if op.kind == "validate":
            c["findings"] += sum(map(len, op.expect)) if op.expect != "ParseError" else 0
            continue
        codes, trace_text, _metrics, _ok = op.expect
        c["findings"] += sum(map(len, codes or []))
        horizon = float(doc["horizon_ms"])
        c["sim_ms"] += horizon
        c["run_events"] += len(doc.get("events", []))
        c["cell_ticks"] += sum(round(horizon / TICK_MS[cell["fr"]]) for cell in doc["cells"])
        c["bytes"] += len(trace_text.encode("utf-8"))
        for line in trace_text.splitlines():
            rec = json.loads(line)
            c["records"] += 1
            kind = rec["record"]
            c["windows"] += kind == "WindowOpen"
            c["state_changes"] += kind == "StateChange"
            # a stuck timer expiry is traced as a rejection but had no input event
            c["rejected"] += kind == "EventRejected" and rec.get("event_kind") != "TimerExpiry"
    return c


def measure_traced(wl_cls, seed: int, seconds: float, scale: float, tally) -> tuple[dict, dict, object]:
    """The traced run: per-layer metrics, spans and the tracing overhead."""
    from workloads import probe_ops

    wl = set_up(wl_cls, seed, scale, tally)
    probe = probe_ops(ROOT)  # gated against the golden files by setup()
    spans = Spans()
    nospans = NoSpans()
    untraced: list[float] = []
    traced: list[float] = []
    per_pass: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    k = 0
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        untraced.append(sum(run_pass(wl.ops, nospans, tally)[0]))
        mark = spans.mark()
        with spans.span("pass", f"pass/{k}"):
            traced.append(sum(run_pass(wl.ops, spans, tally)[0]))
            run_pass(probe, spans, tally)
        per_pass.append(spans.self_seconds(mark))
        per_pass[-1]["spans"] = spans.mark() - mark
        k += 1
    bare, imported = cli_probe_ms(spans)
    in_process = [op for op in wl.ops if op.kind != "cli"] + probe
    shares = profile_shares([lambda op=op: op.call(nospans) for op in in_process], str(ROOT / "src" / "bwpsim"))

    def ms(name: str) -> float:
        return 1e3 * statistics.median(p.get(name, 0.0) for p in per_pass)

    c = layer_counts(in_process)
    run_ms = ms("engine.run")
    trace_ms = ms("trace.write") + ms("trace.read") + ms("engine.replay")
    metrics = {
        "engine.cell_ticks": c["cell_ticks"],
        "engine.run_ms": run_ms,
        "engine.run_us_per_cell_tick": 1e3 * run_ms / c["cell_ticks"],
        "engine.run_us_per_event": 1e3 * run_ms / c["run_events"],
        "engine.sim_ms_per_s": c["sim_ms"] / (run_ms / 1e3),
        "engine.replay_ms": ms("engine.replay"),
        "trace.records": c["records"],
        "trace.bytes": c["bytes"],
        "trace.write_ms": ms("trace.write"),
        "trace.read_ms": ms("trace.read"),
        "trace.records_per_s": c["records"] / (trace_ms / 1e3),
        "cli.interp_ms": statistics.median(bare),
        "cli.import_ms": statistics.median(imported) - statistics.median(bare),
        "scenario.parse_ms": ms("scenario.parse"),
        "scenario.events": c["events"],
        "config.validate_ms": ms("config.validate"),
        "config.cells": c["cells"],
        "config.findings": c["findings"],
        "fsm.windows_opened": c["windows"],
        "fsm.state_changes": c["state_changes"],
        "fsm.events_rejected": c["rejected"],
        "fsm.accept_ratio": 1 - c["rejected"] / c["run_events"],
        "tracing.overhead_ms": 1e3 * statistics.median(t - u for t, u in zip(traced, untraced)),
        "tracing.spans": statistics.median(p["spans"] for p in per_pass),
    }
    metrics.update({f"profile.{name}_share": share for name, share in shares.items()})
    timings = {
        "untraced_pass_s": summary(untraced),
        "traced_pass_s": summary(traced),
        "cli_interp_ms": summary(bare),
        "cli_import_ms": summary(imported),
        "layer_counts": c,
    }
    return metrics, timings, spans


def result_line(correct: bool, tally, metrics: dict, declared: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor, for smoke tests")
    args = parser.parse_args(argv)

    try:
        locate_program(ROOT)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS  # imports bwpsim, so only after locate_program

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    tally = Tally()
    spans = None
    try:
        if args.trace:
            metrics, timings, spans = measure_traced(WORKLOADS[args.workload], args.seed, args.seconds, args.scale, tally)
        else:
            metrics, timings = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.scale, tally)
    except Exception as exc:  # a gate failure, or bwpsim raised: no number is printed
        if not isinstance(exc, GateFailure):
            traceback.print_exc()
            tally.record(False, repr(exc))
        print(f"gate: {exc}", file=sys.stderr)
        print(result_line(False, tally, {}, {}))
        return 1
    if spans is not None:
        spans.write(BENCH / "out" / f"spans_{args.workload}_seed{args.seed}.jsonl")
    if tally.failed:
        print(f"gate: {tally.failed} failed check(s), first: {tally.first_failure}", file=sys.stderr)
        print(result_line(False, tally, {}, {}))
        return 1
    if set(metrics) != set(declared):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    print(json.dumps({"meta": metadata(args.seed, args.workload, args.trace), "timings": timings}))
    print(result_line(True, tally, metrics, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
