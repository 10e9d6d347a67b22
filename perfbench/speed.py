"""Machine speed, from a fixed reference interleaved with the timed work.

On a shared host the CPU's speed drifts by tens of percent over seconds
and minutes as other tenants' load comes and goes. On the 2-vCPU Linux VM
the bounds in BENCHMARK.json were set on, over 150 s the 8-second medians
of one `ca_dense` operation had a quartile spread of 12%, while their
ratio to the interleaved miniature below spread 3.8% (5.7% for a plain
arithmetic loop); for `bwpsim run` as a child process, 6% against 2% for
its ratio to a bare interpreter start.

So every end-to-end time is reported at a fixed reference speed: the raw
time multiplied by NOMINAL_MS / (the reference time measured just before
it; see run.measure). The reference code never changes and does not touch
bwpsim, so a change to bwpsim moves the scaled times as it moves the raw
ones. The raw times and the reference samples are printed in the
metadata line.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Typical reference times on the machine the bounds were set on. They set
# the scale of the reported times; changing them, or the reference code,
# changes every reported time and needs a new baseline.
NOMINAL_MS = {"python": 25.0, "interpreter": 65.0}


@dataclass
class _Record:
    at_ms: Fraction
    cell: str
    kind: str
    fields: dict = field(default_factory=dict)


class _Cell:
    """A toy switching cell: windows, a countdown timer, rejections."""

    def __init__(self, cell: str, tick: Fraction):
        self.cell = cell
        self.tick = tick
        self.active = 0
        self.timer: Fraction | None = None
        self.window_end: Fraction | None = None

    def on_tick(self, now: Fraction, out: list) -> None:
        if self.window_end is not None and self.window_end <= now:
            out.append(_Record(self.window_end, self.cell, "StateChange", {"new": self.active}))
            self.window_end = None
            self.timer = Fraction(10)
        if self.timer is not None:
            self.timer -= self.tick
            if self.timer <= 0:
                self.timer = None
                out.append(_Record(now, self.cell, "TimerExpiry"))

    def on_event(self, now: Fraction, target: int, out: list) -> None:
        if self.window_end is not None:
            out.append(_Record(now, self.cell, "EventRejected", {"reason": "DuringWindow"}))
            return
        self.active = target
        self.window_end = now + Fraction(3, 4)
        out.append(_Record(now, self.cell, "WindowOpen", {"end_ms": str(self.window_end)}))


def _python_work() -> int:
    """A fixed miniature of what bwpsim does: a rational-time tick loop
    over two cells, records, a sort and a JSON round trip. A reference
    that does the same kinds of work as bwpsim slows down with the host
    the way bwpsim does; plain arithmetic loops track it less well."""
    out: list[_Record] = []
    cells = [_Cell("a", Fraction(1)), _Cell("b", Fraction(1, 2))]
    now = Fraction(0)
    for i in range(1200):
        now += Fraction(1, 2)
        for cell in cells:
            if now % cell.tick == 0:
                cell.on_tick(now, out)
        if i % 3 == 0:
            cells[i % 2].on_event(now, i % 4, out)
    out.sort(key=lambda rec: rec.at_ms)
    text = "".join(
        json.dumps({"at_ms": str(r.at_ms), "cell": r.cell, "record": r.kind, **r.fields}, sort_keys=True) + "\n"
        for r in out
    )
    return len([json.loads(line) for line in text.splitlines()])


def reference_ms(kind: str, env: dict[str, str], cwd: Path) -> float:
    """One timed run of the reference: the in-process miniature with the
    collector off (so bwpsim's live heap cannot slow it), or a bare
    interpreter start for workloads that time child processes."""
    if kind == "python":
        gc.disable()
        try:
            t0 = time.perf_counter()
            _python_work()
            return 1e3 * (time.perf_counter() - t0)
        finally:
            gc.enable()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True)  # no timeout: see cli_run
    return 1e3 * (time.perf_counter() - t0)
