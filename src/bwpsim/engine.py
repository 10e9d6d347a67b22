"""Deterministic deadline-driven driver for scripted BWP scenarios.

The engine owns the clock. Up to the horizon it visits only the scripted
event times merged with each cell's `next_deadline()`: the tick of the
cell's own grid (1 ms FR1, 0.5 ms FR2) at which its switch window
commits or its inactivity timer fires. A tick before that would change
nothing, so the cost follows the records, not the horizon. At each
visited time the cells whose deadline it is tick in document order, then
events run: RRC, then RACH, then DCI, then data; within one class, input
order. Only a cell just ticked or sent an event refreshes its deadline,
which must lie after that time. An event at the horizon is delivered,
and every cell ticks once more at the horizon. A window ending between
ticks commits at its cell's next tick (or the horizon) with its exact
end time, and the stable time sort keeps same-time records in the order
produced: an FR2 cell's 2.25 ms commit (handled at 2.5) precedes an FR1
cell's (handled at 3). Running the same scenario twice produces
byte-identical traces.

The clock counts whole eighths of a ms, as the cells' state machines
do: ticks, switch delays and timer values are whole eighths, so every
time of a run is an int. Each event time is converted once, and a time
becomes exact `Fraction` ms only in a trace record or the metrics. The
horizon only bounds the run: the loop stops at the last eighth at or
before it, and only `RunEnd` and the metrics carry it exactly.

Metrics are computed twice on purpose: once online while the run emits
records, and once by `replay_metrics` walking a finished trace. The two
must agree, which pins the trace as a complete account of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .config import CellConfig, UeCapability, effective_default_dl, validate
from .dci import DciEvent, Direction
from .fsm import UNITS_PER_MS, CellStateMachine, EventRejection, SwitchCause, rejection_record, to_units
from .trace import (
    EVENT_REJECTED,
    RUN_END,
    RUN_START,
    STATE_CHANGE,
    MalformedTrace,
    TraceRecord,
    ms_str,
)


class ScenarioInvalid(Exception):
    """The scenario cannot run; carries validation reports when relevant."""

    def __init__(self, message: str, reports: Optional[dict] = None):
        self.reports = reports or {}
        super().__init__(message)


class EventMisaligned(ScenarioInvalid):
    """An event timestamp is off the cell's tick grid."""


class EventKind(Enum):
    RRC_RECONFIG = "RrcReconfig"
    SCELL_ACTIVATE = "ScellActivate"
    DCI = "Dci"
    RACH_START = "RachStart"
    RACH_COMPLETE = "RachComplete"
    DATA_DL_ASSIGNMENT = "DataDlAssignment"
    DATA_UL_GRANT = "DataUlGrant"


# Same-timestamp delivery order (ticks run before all of these).
_PHASE = {
    EventKind.RRC_RECONFIG: 1,
    EventKind.SCELL_ACTIVATE: 1,
    EventKind.RACH_START: 2,
    EventKind.RACH_COMPLETE: 2,
    EventKind.DCI: 3,
    EventKind.DATA_DL_ASSIGNMENT: 4,
    EventKind.DATA_UL_GRANT: 4,
}


@dataclass(frozen=True)
class SimEvent:
    at_ms: Fraction
    cell: str
    kind: EventKind
    dci: Optional[DciEvent] = None
    first_active_dl: Optional[int] = None
    first_active_ul: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is EventKind.DCI and self.dci is None:
            raise ValueError("DCI events need a DciEvent payload")


@dataclass
class Scenario:
    cells: dict[str, CellConfig]
    capability: UeCapability
    events: list[SimEvent]
    horizon_ms: Optional[Fraction]


@dataclass(frozen=True)
class CellMetrics:
    switch_count_by_cause: dict[str, int]
    rejected_event_count: int
    bandwidth_time_proxy_rb_ms: Fraction
    time_on_default_ms: Fraction

    def to_obj(self) -> dict:
        return {
            "switch_count_by_cause": dict(sorted(self.switch_count_by_cause.items())),
            "rejected_event_count": self.rejected_event_count,
            "bandwidth_time_proxy_rb_ms": ms_str(self.bandwidth_time_proxy_rb_ms),
            "time_on_default_ms": ms_str(self.time_on_default_ms),
        }


@dataclass(frozen=True)
class RunMetrics:
    total_time_ms: Fraction
    cells: dict[str, CellMetrics]

    def to_obj(self) -> dict:
        return {
            "total_time_ms": ms_str(self.total_time_ms),
            "cells": {cid: m.to_obj() for cid, m in sorted(self.cells.items())},
        }


class _CellTally:
    """Streaming integrator for one cell's metrics, started from its RunStart.

    The proxy integrates the active DL BWP width over time (RB * ms); a
    switch takes effect at the commit timestamp carried by the record,
    which can sit between tick boundaries.
    """

    def __init__(self, start: TraceRecord):
        self.default_dl, self.active_dl, self.dl_rbs = _payload(start, default_dl=int, active_dl=int, dl_rbs=int)
        self.last_t = Fraction(0)
        self.proxy = Fraction(0)
        self.on_default = Fraction(0)
        self.switches: dict[str, int] = {c.value: 0 for c in SwitchCause}
        self.rejected = 0

    def integrate_to(self, t: Fraction) -> None:
        dt = t - self.last_t
        if dt < 0:
            raise MalformedTrace("cell records run backwards")
        self.proxy += self.dl_rbs * dt
        if self.active_dl == self.default_dl:
            self.on_default += dt
        self.last_t = t

    def add(self, rec: TraceRecord) -> None:
        """Fold one record in: the only place that decides which records move the metrics."""
        if rec.record == STATE_CHANGE:
            new_dl, new_dl_rbs, cause = _payload(rec, new_dl=int, new_dl_rbs=int, cause=str)
            self.integrate_to(rec.at_ms)
            self.active_dl, self.dl_rbs = new_dl, new_dl_rbs
            self.switches[cause] = self.switches.get(cause, 0) + 1
        elif rec.record == EVENT_REJECTED:
            self.rejected += 1

    def finish(self, t: Fraction) -> CellMetrics:
        self.integrate_to(t)
        return CellMetrics(
            switch_count_by_cause=self.switches,
            rejected_event_count=self.rejected,
            bandwidth_time_proxy_rb_ms=self.proxy,
            time_on_default_ms=self.on_default,
        )


def run(scenario: Scenario) -> tuple[list[TraceRecord], RunMetrics]:
    """Execute a scenario; returns the full trace and its metrics.

    Raises ScenarioInvalid when any cell fails validation with errors, the
    horizon is negative or has no finite decimal form (its trace and
    metrics could not be written), an event references an unknown cell,
    or the horizon does not cover all events; EventMisaligned when an
    event is off its cell's tick grid.
    """
    if scenario.horizon_ms is None:
        raise ScenarioInvalid("scenario has no horizon_ms and cannot run")
    reports = {cid: validate(cfg, scenario.capability) for cid, cfg in scenario.cells.items()}
    bad = {cid: rep for cid, rep in reports.items() if rep.has_errors}
    if bad:
        raise ScenarioInvalid(
            "configuration errors in cells: " + ", ".join(sorted(bad)), reports=reports
        )
    horizon = Fraction(scenario.horizon_ms)
    if horizon < 0:
        raise ScenarioInvalid("horizon must be >= 0 ms")
    try:
        ms_str(horizon)  # every time of the run is decimal if the horizon is
    except ValueError:
        raise ScenarioInvalid(f"horizon {horizon} ms has no finite decimal form") from None
    end = to_units(horizon)  # the last eighth at or before the horizon
    cell_order = list(scenario.cells)
    machines = {
        cid: CellStateMachine(cid, scenario.cells[cid], scenario.capability)
        for cid in cell_order
    }
    events_at: dict[int, list[SimEvent]] = {}  # by time in eighths
    for ev in scenario.events:
        if ev.cell not in scenario.cells:
            raise ScenarioInvalid(f"event references unknown cell {ev.cell!r}")
        at, rest = divmod(ev.at_ms.numerator * UNITS_PER_MS, ev.at_ms.denominator)
        if at < 0 or at >= end and ev.at_ms > horizon:
            raise ScenarioInvalid(f"event at {ev.at_ms} ms outside [0, {horizon}] ms")
        if rest or at % machines[ev.cell].tick:
            raise EventMisaligned(
                f"event at {ev.at_ms} ms is off the {scenario.cells[ev.cell].tick_ms} ms grid of cell {ev.cell!r}"
            )
        events_at.setdefault(at, []).append(ev)
    for same_time in events_at.values():
        same_time.sort(key=lambda ev: _PHASE[ev.kind])  # stable: input order

    trace: list[TraceRecord] = []
    tallies: dict[str, _CellTally] = {}
    for cid in cell_order:
        m = machines[cid]
        cfg = scenario.cells[cid]
        dl_rbs = cfg.dl_bwp(m.state.active_dl).geometry.n_rbs
        default = effective_default_dl(cfg)
        trace.append(
            TraceRecord(
                Fraction(0),
                cid,
                RUN_START,
                {
                    "active_dl": m.state.active_dl,
                    "active_ul": m.state.active_ul,
                    "dl_rbs": dl_rbs,
                    "default_dl": default,
                },
            )
        )
        tallies[cid] = _CellTally(trace[-1])

    def emit(records: Iterable[TraceRecord]) -> None:
        for rec in records:
            trace.append(rec)
            tallies[rec.cell].add(rec)

    event_times = sorted(events_at, reverse=True)  # the next one is last
    never = end + 1
    due = dict.fromkeys(cell_order, never)  # each cell's deadline

    def refresh(cid: str, now: int) -> None:
        d = machines[cid].next_deadline()
        if d is not None and d <= now:  # ticking at d again would spin: the deadline is wrong
            raise RuntimeError(f"cell {cid!r}: deadline {Fraction(d, UNITS_PER_MS)} ms "
                               f"is not after {Fraction(now, UNITS_PER_MS)} ms")
        due[cid] = never if d is None else d

    while True:
        now = min([*due.values(), event_times[-1] if event_times else never])
        if now > end:
            break
        for cid in cell_order:
            if due[cid] == now:
                emit(machines[cid].on_tick(now))
                refresh(cid, now)
        if event_times and event_times[-1] == now:
            for ev in events_at[event_times.pop()]:
                emit(_dispatch(machines[ev.cell], ev, now))
                refresh(ev.cell, now)

    for cid in cell_order:
        emit(machines[cid].on_tick(end))  # windows ending after the last tick

    cell_metrics = {}
    for cid in cell_order:
        cell_metrics[cid] = tallies[cid].finish(horizon)
        trace.append(TraceRecord(horizon, cid, RUN_END, {}))

    # stable: same-time order is preserved; every record time but RunEnd's is
    # a whole eighth, and RunEnd, appended last, stays after the records of `end`
    trace.sort(key=lambda rec: to_units(rec.at_ms))
    metrics = RunMetrics(total_time_ms=horizon, cells=cell_metrics)
    return trace, metrics


_HANDLERS: dict[EventKind, Callable[[CellStateMachine, SimEvent, int], list[TraceRecord]]] = {
    EventKind.RRC_RECONFIG: lambda m, ev, now: m.on_rrc_reconfig(now, ev.first_active_dl, ev.first_active_ul),
    EventKind.SCELL_ACTIVATE: lambda m, ev, now: m.on_rrc_reconfig(now, scell_activation=True),
    EventKind.DCI: lambda m, ev, now: m.on_dci(now, ev.dci),
    EventKind.RACH_START: lambda m, ev, now: m.on_rach_start(now),
    EventKind.RACH_COMPLETE: lambda m, ev, now: m.on_rach_complete(now),
    EventKind.DATA_DL_ASSIGNMENT: lambda m, ev, now: m.on_data(now, Direction.DL_ASSIGNMENT),
    EventKind.DATA_UL_GRANT: lambda m, ev, now: m.on_data(now, Direction.UL_GRANT),
}


def _dispatch(machine: CellStateMachine, ev: SimEvent, now: int) -> list[TraceRecord]:
    """Deliver ev to its cell's machine at `now`, ev's time in eighths of a
    ms; a rejection is traced at ev's own `at_ms`."""
    try:
        return _HANDLERS[ev.kind](machine, ev, now)
    except EventRejection as rej:
        return [rejection_record(ev.at_ms, ev.cell, ev.kind.value, rej)]


def _payload(rec: TraceRecord, **kinds: type) -> list:
    """The payload fields of rec named by `kinds`, each exactly of its type."""
    values = []
    for name, kind in kinds.items():
        if name not in rec.fields:
            raise MalformedTrace(f"{rec.record} missing field {name!r}")
        value = rec.fields[name]
        if type(value) is not kind:
            raise MalformedTrace(f"{rec.record} field {name!r} must be {kind.__name__}, got {value!r}")
        values.append(value)
    return values


def replay_metrics(trace: Iterable[TraceRecord]) -> RunMetrics:
    """Recompute RunMetrics from a trace alone.

    Independent of the engine's own bookkeeping: only the records are
    consulted. Raises MalformedTrace on out-of-order timestamps, records
    for unknown cells, a missing RunStart/RunEnd bracket, or a RunStart or
    StateChange payload field of the wrong type.
    """
    tallies: dict[str, _CellTally] = {}
    cells: dict[str, CellMetrics] = {}
    horizon: Optional[Fraction] = None
    last_t: Optional[Fraction] = None
    for rec in trace:
        if last_t is not None and rec.at_ms < last_t:
            raise MalformedTrace(
                f"timestamps decrease at {rec.at_ms} ms (after {last_t} ms)"
            )
        last_t = rec.at_ms
        if rec.record == RUN_START:
            if rec.cell in tallies:
                raise MalformedTrace(f"duplicate RunStart for cell {rec.cell!r}")
            tallies[rec.cell] = _CellTally(rec)
            continue
        tally = tallies.get(rec.cell)
        if tally is None:
            raise MalformedTrace(f"record for cell {rec.cell!r} before its RunStart")
        if rec.cell in cells:
            raise MalformedTrace(f"record for cell {rec.cell!r} after its RunEnd")
        tally.add(rec)
        if rec.record == RUN_END:
            cells[rec.cell] = tally.finish(rec.at_ms)
            if horizon is None:
                horizon = rec.at_ms
            elif horizon != rec.at_ms:
                raise MalformedTrace("cells end at different horizons")
    if not tallies:
        raise MalformedTrace("empty trace")
    unfinished = [cid for cid in tallies if cid not in cells]
    if unfinished:
        raise MalformedTrace(f"missing RunEnd for cells: {', '.join(sorted(unfinished))}")
    assert horizon is not None
    return RunMetrics(total_time_ms=horizon, cells=cells)
