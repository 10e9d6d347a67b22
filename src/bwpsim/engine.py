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

The clock counts whole eighths of a ms, as the cells' machines do,
since ticks, switch delays and timer values are whole eighths. The
horizon only bounds the run: the loop stops at the last eighth at or
before it, and only `RunEnd` and the metrics carry it exactly.

`run()`'s metrics are `replay_metrics` of its trace, summed in ints over
a common denominator of the record times; a cell's two metrics become
`Fraction`s once, when the cell finishes.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional

from .config import CellConfig, UeCapability, validate
from .dci import DciEvent, Direction
from .fsm import SWITCH_CAUSES, CellStateMachine, EventRejection
from .grid import Slots, checked
from .trace import (
    EVENT_REJECTED,
    RUN_END,
    RUN_START,
    STATE_CHANGE,
    UNITS_PER_MS,
    MalformedTrace,
    Times,
    TraceRecord,
    _NO_TIME,
    _exact_time,
    ms_str,
    to_units,
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


# Read once: on CPython 3.11 `EventKind.DCI` goes through `EnumType.__getattr__`, ten times a global's cost.
_KIND_DCI, _DL, _UL = EventKind.DCI, Direction.DL_ASSIGNMENT, Direction.UL_GRANT

# How each kind is delivered, by the kind's value (a str hashes in C, a member
# in Python): its phase in the same-time order (ticks run before all phases,
# and one phase keeps input order) and its handler.
_DELIVERY: dict[str, tuple[int, Callable[..., None]]] = {kind._value_: how for kind, how in {
    EventKind.RRC_RECONFIG: (1, lambda m, ev, now: m.on_rrc_reconfig(now, ev.first_active_dl, ev.first_active_ul)),
    EventKind.SCELL_ACTIVATE: (1, lambda m, ev, now: m.on_rrc_reconfig(now, scell_activation=True)),
    EventKind.RACH_START: (2, lambda m, ev, now: m.on_rach_start(now)),
    EventKind.RACH_COMPLETE: (2, lambda m, ev, now: m.on_rach_complete(now)),
    EventKind.DCI: (3, lambda m, ev, now: m.on_dci(now, ev.dci)),
    EventKind.DATA_DL_ASSIGNMENT: (4, lambda m, ev, now: m.on_data(now, _DL)),
    EventKind.DATA_UL_GRANT: (4, lambda m, ev, now: m.on_data(now, _UL)),
}.items()}


@checked
class SimEvent(NamedTuple):
    at_ms: Fraction
    cell: str
    kind: EventKind
    dci: Optional[DciEvent] = None
    first_active_dl: Optional[int] = None
    first_active_ul: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is _KIND_DCI and self.dci is None:
            raise ValueError("DCI events need a DciEvent payload")


class Scenario(Slots):
    __slots__ = ("cells", "capability", "events", "horizon_ms")

    def __init__(self, cells: dict[str, CellConfig], capability: UeCapability, events: list[SimEvent],
                 horizon_ms: Optional[Fraction]) -> None:
        self.cells, self.capability, self.events, self.horizon_ms = cells, capability, events, horizon_ms


class CellMetrics(NamedTuple):
    switch_count_by_cause: dict[str, int]
    rejected_event_count: int
    bandwidth_time_proxy_rb_ms: Fraction
    time_on_default_ms: Fraction

    def to_obj(self) -> dict:
        return {
            "switch_count_by_cause": dict(sorted(self.switch_count_by_cause.items())),
            "rejected_event_count": self.rejected_event_count,
            "bandwidth_time_proxy_rb_ms": ms_str(_exact_time(self.bandwidth_time_proxy_rb_ms, "bandwidth_time_proxy_rb_ms")),
            "time_on_default_ms": ms_str(_exact_time(self.time_on_default_ms, "time_on_default_ms")),
        }


class RunMetrics(NamedTuple):
    total_time_ms: Fraction
    cells: dict[str, CellMetrics]

    def to_obj(self) -> dict:
        return {
            "total_time_ms": ms_str(_exact_time(self.total_time_ms, "total_time_ms")),
            "cells": {cid: m.to_obj() for cid, m in sorted(self.cells.items())},
        }


class _CellTally:
    """Streaming integrator for one cell's metrics, started from its RunStart.

    The proxy integrates the active DL BWP width over time (RB * ms); a
    switch takes effect at the commit timestamp carried by the record,
    which can sit between tick boundaries. The sums are ints in units of
    1/den ms, den the least common multiple of the time denominators seen
    so far; `finish` turns them into `Fraction`s, exact for any times.
    """

    def __init__(self, start: TraceRecord):
        self.default_dl, self.active_dl, self.dl_rbs = _payload(start, default_dl=int, active_dl=int, dl_rbs=int)
        self.den = 1
        self.last_t = 0
        self.proxy = 0
        self.on_default = 0
        self.switches: dict[str, int] = dict.fromkeys(SWITCH_CAUSES, 0)
        self.rejected = 0

    def integrate_to(self, t: Fraction) -> None:
        num, d = t.numerator, t.denominator
        den = self.den
        if den % d:
            k = d // gcd(den, d)
            self.den = den = den * k
            self.last_t *= k
            self.proxy *= k
            self.on_default *= k
        t_den = num * (den // d)
        dt = t_den - self.last_t
        if dt < 0:
            raise MalformedTrace("cell records run backwards")
        self.proxy += self.dl_rbs * dt
        if self.active_dl == self.default_dl:
            self.on_default += dt
        self.last_t = t_den

    KINDS = frozenset({STATE_CHANGE, EVENT_REJECTED})  # those that move a metric: `add` gets no other

    def add(self, rec: TraceRecord) -> None:
        """Fold in one record of a kind in KINDS."""
        if rec.record == STATE_CHANGE:
            fields = rec.fields
            new_dl, new_dl_rbs, cause = fields.get("new_dl"), fields.get("new_dl_rbs"), fields.get("cause")
            if type(new_dl) is not int or type(new_dl_rbs) is not int or type(cause) is not str:
                _payload(rec, new_dl=int, new_dl_rbs=int, cause=str)  # raises its error for the field
            if cause not in self.switches:  # after the type test: a list is unhashable
                raise MalformedTrace(f"StateChange field 'cause' must be a switch cause, got {cause!r}")
            self.integrate_to(rec.at_ms)
            self.active_dl, self.dl_rbs = new_dl, new_dl_rbs
            self.switches[cause] += 1
        else:  # EVENT_REJECTED
            self.rejected += 1

    def finish(self, t: Fraction) -> CellMetrics:
        self.integrate_to(t)
        return CellMetrics(
            switch_count_by_cause=self.switches,
            rejected_event_count=self.rejected,
            bandwidth_time_proxy_rb_ms=Fraction(self.proxy, self.den),
            time_on_default_ms=Fraction(self.on_default, self.den),
        )


def run(scenario: Scenario) -> tuple[list[TraceRecord], RunMetrics]:
    """Execute a scenario; returns the full trace and `replay_metrics(trace)`.

    Raises ScenarioInvalid when any cell fails validation with errors, the
    horizon or an event time is not an int or Fraction (a bool is not
    one), the horizon is negative or has no finite decimal form (its trace
    and metrics could not be written), an event references an unknown
    cell, or the horizon does not cover all events; EventMisaligned when
    an event is off its cell's tick grid.
    """
    if scenario.horizon_ms is None:
        raise ScenarioInvalid("scenario has no horizon_ms and cannot run")
    reports = {cid: validate(cfg, scenario.capability) for cid, cfg in scenario.cells.items()}
    bad = {cid: rep for cid, rep in reports.items() if rep.has_errors}
    if bad:
        raise ScenarioInvalid(
            "configuration errors in cells: " + ", ".join(sorted(bad)), reports=reports
        )
    horizon = Fraction(_exact_time(scenario.horizon_ms, "horizon", error=ScenarioInvalid))
    if horizon < 0:
        raise ScenarioInvalid("horizon must be >= 0 ms")
    # the run's other times are whole eighths, so they are decimal if the horizon
    # is: if its denominator, 2**a * 5**b, divides a power of ten
    if 10 ** horizon.denominator.bit_length() % horizon.denominator:
        raise ScenarioInvalid(f"horizon {horizon} ms has no finite decimal form")
    end = to_units(horizon)  # the last eighth at or before the horizon
    machines = {cid: CellStateMachine(cid, cfg, scenario.capability) for cid, cfg in scenario.cells.items()}
    times = Times()  # one Fraction per record time of the run, an event's own where it has one
    log: list[tuple[int, TraceRecord]] = []  # every record of the run, in the order made, by its time in eighths
    for m in machines.values():
        m._times, m.log = times, log
    events_at: dict[int, list[tuple[int, SimEvent]]] = {}  # (phase, event) by time in eighths
    last_ms = _NO_TIME
    for ev in scenario.events:
        if ev.cell not in scenario.cells:
            raise ScenarioInvalid(f"event references unknown cell {ev.cell!r}")
        if ev.at_ms is not last_ms:  # once per run of events that share a time object
            last_ms = ev.at_ms
            if not isinstance(last_ms, (int, Fraction)) or type(last_ms) is bool:  # a valid time makes no call
                _exact_time(last_ms, "event for cell {!r}", ev.cell, error=ScenarioInvalid)  # raises
            at, rest = divmod(ev.at_ms.numerator * UNITS_PER_MS, ev.at_ms.denominator)
            if at < 0 or at >= end and ev.at_ms > horizon:
                raise ScenarioInvalid(f"event at {ev.at_ms} ms outside [0, {horizon}] ms")
            if type(last_ms) is Fraction:  # not an int; a time off the eighths is refused below
                times.setdefault(at, last_ms)
        if rest or at % machines[ev.cell].tick:
            raise EventMisaligned(
                f"event at {ev.at_ms} ms is off the {scenario.cells[ev.cell].tick_ms} ms grid of cell {ev.cell!r}"
            )
        events_at.setdefault(at, []).append((_DELIVERY[ev.kind._value_][0], ev))
    for same_time in events_at.values():
        if len(same_time) > 1:
            same_time.sort(key=itemgetter(0))  # stable: input order

    for m in machines.values():
        m.start_record()  # after the events seed `times`: a RunStart shares an event's time at 0
    event_times = sorted(events_at, reverse=True)  # the next one is last
    never = end + 1
    due = dict.fromkeys(machines, never)  # each cell's deadline

    def refresh(cid: str, now: int) -> None:
        d = machines[cid].next_deadline()
        if d is not None and d <= now:  # ticking at d again would spin: the deadline is wrong
            raise RuntimeError(f"cell {cid!r}: deadline {Fraction(d, UNITS_PER_MS)} ms "
                               f"is not after {Fraction(now, UNITS_PER_MS)} ms")
        due[cid] = never if d is None else d

    while True:
        now = next_due = min(due.values(), default=never)
        if event_times and event_times[-1] < now:
            now = event_times[-1]
        if now > end:
            break
        if next_due == now:  # some cell is due: tick those, in document order
            for cid, m in machines.items():
                if due[cid] == now:
                    m.on_tick(now)
                    refresh(cid, now)
        if event_times and event_times[-1] == now:
            for _, ev in events_at[event_times.pop()]:
                _dispatch(machines[ev.cell], ev, now)
                refresh(ev.cell, now)

    for m in machines.values():
        m.on_tick(end)  # windows ending after the last tick

    log.sort(key=itemgetter(0))  # stable: same-time order is preserved
    trace = list(map(itemgetter(1), log))
    trace += [TraceRecord(horizon, cid, RUN_END, {}) for cid in machines]  # after every record: `end` <= horizon
    return trace, replay_metrics(trace)


def _dispatch(machine: CellStateMachine, ev: SimEvent, now: int) -> None:
    """Deliver ev to its cell's machine at `now`, ev's time in eighths of a
    ms; a rejection is logged at `now`, as the machine's records are."""
    try:
        _DELIVERY[ev.kind._value_][1](machine, ev, now)
    except EventRejection as rej:
        machine.rejection_record(now, ev.kind._value_, rej)


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
    consulted. Raises MalformedTrace on a time that is not an int or
    Fraction (a bool is not one), out-of-order timestamps, records for
    unknown cells, a missing RunStart/RunEnd bracket, a RunStart or
    StateChange payload field of the wrong type, or a StateChange cause
    outside SWITCH_CAUSES.
    """
    tallies: dict[str, _CellTally] = {}
    cells: dict[str, CellMetrics] = {}
    horizon: Optional[Fraction] = None
    last_t = _NO_TIME
    last_num, last_den = -1, 0  # -1/0: before every time
    moves = _CellTally.KINDS
    for rec in trace:
        if rec.at_ms is not last_t:
            # the writer's check raises; testing here first spares a valid time the call
            if not isinstance(rec.at_ms, (int, Fraction)) or type(rec.at_ms) is bool:
                _exact_time(rec.at_ms, "{} for cell {!r}", rec.record, rec.cell, error=MalformedTrace)
            num, den = rec.at_ms.numerator, rec.at_ms.denominator
            if num * last_den < last_num * den:  # in ints: Fraction's < tests an ABC
                raise MalformedTrace(
                    f"timestamps decrease at {rec.at_ms} ms (after {last_t} ms)"
                )
            last_t, last_num, last_den = rec.at_ms, num, den
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
        if rec.record in moves:
            tally.add(rec)
        elif rec.record == RUN_END:
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
