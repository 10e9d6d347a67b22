"""Spans around the benchmark's calls into bwpsim, and a profile grouped
by source module.

Spans live in memory and are written out once, when the run ends. Each
has a name, a start, an end, its parent span and the id of the scenario
it belongs to; every span of one scenario shares that id.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator

_NO_SPAN = nullcontext()

# profile groups: bwpsim modules by file name, plus the stdlib modules that
# show up under them
PROFILE_GROUPS = ("engine", "fsm", "dci", "grid", "config", "scenario", "trace", "fractions", "json", "other")


class NoSpans:
    """Stand-in used by untraced passes: every span is a no-op."""

    def span(self, name: str, scenario: str):
        return _NO_SPAN


class Spans:
    """In-memory span log."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, scenario: str) -> Iterator[None]:
        rec = {
            "id": len(self.records),
            "name": name,
            "scenario": scenario,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def mark(self) -> int:
        """Position to pass to `self_seconds` for the spans recorded after now."""
        return len(self.records)

    def self_seconds(self, start: int = 0) -> dict[str, float]:
        """Self time per span name, over the spans from `start` on: a span's
        duration minus its children's."""
        recs = self.records[start:]
        child = {r["id"]: 0.0 for r in recs}
        for r in recs:
            if r["parent"] in child:
                child[r["parent"]] += r["end"] - r["start"]
        totals: dict[str, float] = {}
        for r in recs:
            own = r["end"] - r["start"] - child[r["id"]]
            totals[r["name"]] = totals.get(r["name"], 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for rec in self.records:
                out.write(json.dumps(rec, sort_keys=True))
                out.write("\n")


def _group(filename: str, func: str, package_dir: str) -> str:
    if filename.startswith(package_dir):
        module = Path(filename).stem
        return module if module in PROFILE_GROUPS else "other"
    if filename == "~":  # C functions: only the json accelerator has its own group
        return "json" if "_json" in func else "other"
    if Path(filename).stem == "fractions":
        return "fractions"
    return "json" if Path(filename).parent.name == "json" else "other"


def profile_shares(calls, package_dir: str) -> dict[str, float]:
    """Run `calls` under cProfile; percent of self time per module group.

    cProfile charges a cost to every Python call, so the shares lean
    towards call-heavy modules; they locate time, they do not measure it.
    """
    prof = cProfile.Profile()
    prof.enable()
    try:
        for call in calls:
            call()
    finally:
        prof.disable()
    totals = dict.fromkeys(PROFILE_GROUPS, 0.0)
    for (filename, _line, func), row in pstats.Stats(prof).stats.items():
        totals[_group(filename, func, package_dir)] += row[2]  # row[2]: self time
    whole = sum(totals.values()) or 1.0
    return {name: 100.0 * t / whole for name, t in totals.items()}
