"""A plain-`Fraction` reference for the metrics of a trace.

`reference_metrics` integrates a trace's `StateChange`s with `Fraction`
arithmetic and nothing else: no common denominator, no rescaling and
none of `engine._CellTally`. It is the independent check of the metrics'
arithmetic: `run()`'s metrics are `replay_metrics` of its trace, one
fold through the tally, so comparing the two checks nothing of it. It
trusts the trace: ordering and payload checks are `replay_metrics`'s
job.

`mixed_denominator_trace` writes a seeded trace by hand whose times mix
denominators (1, 2, 8, 10, 1000 and larger powers of ten), the kind of
decimal trace that `run()` never writes but `replay_metrics` accepts.
"""

from __future__ import annotations

import random
from fractions import Fraction

from bwpsim.engine import CellMetrics, RunMetrics
from bwpsim.fsm import SWITCH_CAUSES
from bwpsim.trace import EVENT_REJECTED, RUN_END, RUN_START, STATE_CHANGE, TIMER_START, TraceRecord


def reference_metrics(trace: list[TraceRecord]) -> RunMetrics:
    """The RunMetrics of a well-formed trace, by plain Fraction sums."""
    cells: dict[str, CellMetrics] = {}
    open_cells: dict[str, dict] = {}
    horizon = None
    for rec in trace:
        t = Fraction(rec.at_ms)
        if rec.record == RUN_START:
            open_cells[rec.cell] = {
                "default": rec.fields["default_dl"], "dl": rec.fields["active_dl"],
                "rbs": rec.fields["dl_rbs"], "last": Fraction(0), "proxy": Fraction(0),
                "on_default": Fraction(0), "rejected": 0,
                "switches": dict.fromkeys(SWITCH_CAUSES, 0),
            }
            continue
        cell = open_cells[rec.cell]
        if rec.record in (STATE_CHANGE, RUN_END):
            cell["proxy"] += cell["rbs"] * (t - cell["last"])
            if cell["dl"] == cell["default"]:
                cell["on_default"] += t - cell["last"]
            cell["last"] = t
        if rec.record == STATE_CHANGE:
            cell["dl"], cell["rbs"] = rec.fields["new_dl"], rec.fields["new_dl_rbs"]
            cell["switches"][rec.fields["cause"]] += 1
        elif rec.record == EVENT_REJECTED:
            cell["rejected"] += 1
        elif rec.record == RUN_END:
            horizon = t
            cells[rec.cell] = CellMetrics(
                switch_count_by_cause=cell["switches"],
                rejected_event_count=cell["rejected"],
                bandwidth_time_proxy_rb_ms=cell["proxy"],
                time_on_default_ms=cell["on_default"],
            )
    return RunMetrics(total_time_ms=horizon, cells=cells)


def mixed_denominator_trace(rng: random.Random) -> list[TraceRecord]:
    """A well-formed trace of one to three cells whose record times step by
    rationals over 1, 2, 8, 10, 1000 and 10**k, k up to 40, and whose
    StateChanges switch among four DL BWPs of random widths."""
    def step() -> Fraction:
        den = rng.choice((1, 2, 8, 10, 1000, 10 ** rng.randint(4, 40)))
        return Fraction(rng.randint(0, 3 * den), den)

    cells = [f"c{i}" for i in range(rng.randint(1, 3))]
    widths = {cid: [rng.randint(1, 275) for _ in range(4)] for cid in cells}
    trace = []
    for cid in cells:
        dl = rng.randrange(4)
        trace.append(TraceRecord(Fraction(0), cid, RUN_START, {
            "active_dl": dl, "active_ul": 0, "dl_rbs": widths[cid][dl], "default_dl": rng.randrange(4),
        }))
    t = Fraction(0)
    for _ in range(rng.randint(0, 40)):
        t += step()
        cid = rng.choice(cells)
        kind = rng.choice((STATE_CHANGE, STATE_CHANGE, STATE_CHANGE, EVENT_REJECTED, TIMER_START))
        fields = {}
        if kind == STATE_CHANGE:
            dl = rng.randrange(4)
            fields = {"new_dl": dl, "new_dl_rbs": widths[cid][dl], "cause": rng.choice(SWITCH_CAUSES)}
        elif kind == EVENT_REJECTED:
            fields = {"event_kind": "Dci", "reason": "WindowOpen", "detail": ""}
        trace.append(TraceRecord(t, cid, kind, fields))
    horizon = t + step()
    trace += [TraceRecord(horizon, cid, RUN_END, {}) for cid in cells]
    return trace
