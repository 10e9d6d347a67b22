"""The step-loop engine, kept as an oracle for the deadline-driven `run()`.

`tick_run` drives the same `CellStateMachine`s through the finest tick
grid among the cells, ticking every cell at every tick of its own grid
up to the horizon, then once more at the horizon. It shares the delivery
table `_DELIVERY` (each event kind's phase and handler) and `_dispatch`
with the engine, and so the tie order, but none of its deadline
bookkeeping: its machines share one log, as a run's do, and the trace
is that log sorted by the records' `Fraction` times. On the way it
checks the claim that lets `run()` skip ticks: a tick before a cell's
`next_deadline()` leaves the log and the cell's state as they were, and
no deadline is passed without a tick. It also counts the ticks that meet
a deadline: `run()` should make those and one more per cell at the
horizon, and no other. Like `run()` it counts eighths of a ms and stops
at the last one at or before the horizon.
"""

from __future__ import annotations

import copy
from fractions import Fraction

from bwpsim.config import effective_default_dl
from bwpsim.engine import _DELIVERY, Scenario, _dispatch
from bwpsim.fsm import CellStateMachine
from bwpsim.trace import RUN_END, RUN_START, UNITS_PER_MS, TraceRecord, to_units


def _snapshot(m: CellStateMachine):
    return copy.copy(m.state), copy.copy(m.state.switch_window)


def _checked_tick(m: CellStateMachine, t: int) -> bool:
    """m.on_tick(t), and whether t is m's deadline."""
    deadline = m.next_deadline()
    if deadline is not None:
        assert deadline % m.tick == 0, f"{m.cell}: deadline {deadline} off the tick grid"
        assert deadline >= t, f"{m.cell}: deadline {deadline} passed without a tick (now {t})"
    if deadline == t:
        m.on_tick(t)
        return True
    before, logged = _snapshot(m), len(m.log)
    m.on_tick(t)
    assert len(m.log) == logged, f"{m.cell}: tick at {t} before deadline {deadline} logged {m.log[logged:]}"
    assert _snapshot(m) == before, f"{m.cell}: tick at {t} before deadline {deadline} changed the state"
    return False


def tick_run(scenario: Scenario) -> tuple[list[TraceRecord], int]:
    """The trace of a scenario that `run()` accepts, by the step loop, and
    the number of ticks that met their cell's deadline."""
    horizon = Fraction(scenario.horizon_ms)
    end = to_units(horizon)
    cell_order = list(scenario.cells)
    machines = {
        cid: CellStateMachine(cid, cfg, scenario.capability) for cid, cfg in scenario.cells.items()
    }
    log: list[tuple[int, TraceRecord]] = []
    for m in machines.values():
        m.log = log
    trace = []
    for cid in cell_order:
        m, cfg = machines[cid], scenario.cells[cid]
        trace.append(TraceRecord(Fraction(0), cid, RUN_START, {
            "active_dl": m.state.active_dl,
            "active_ul": m.state.active_ul,
            "dl_rbs": next(x for x in cfg.dl_bwps if x.id == m.state.active_dl).geometry.n_rbs,
            "default_dl": effective_default_dl(cfg),
        }))

    step = min((m.tick for m in machines.values()), default=UNITS_PER_MS)
    strides = [(cid, machines[cid].tick // step) for cid in cell_order]
    events_at: dict[int, list] = {}
    for ev in sorted(scenario.events, key=lambda ev: _DELIVERY[ev.kind._value_][0]):  # stable: input order
        events_at.setdefault(to_units(ev.at_ms) // step, []).append(ev)

    reached = 0
    for k in range(end // step + 1):
        t = step * k
        for cid, stride in strides:
            if k and k % stride == 0:
                reached += _checked_tick(machines[cid], t)
        for ev in events_at.get(k, ()):
            _dispatch(machines[ev.cell], ev, t)
            deadline = machines[ev.cell].next_deadline()
            assert deadline is None or deadline > t, f"{ev.cell}: event at {t} set deadline {deadline}"

    for cid in cell_order:
        deadline = machines[cid].next_deadline()
        assert deadline is None or deadline > end, f"{cid}: deadline {deadline} passed without a tick"
        machines[cid].on_tick(end)
    trace += [rec for _, rec in log]
    trace += [TraceRecord(horizon, cid, RUN_END, {}) for cid in cell_order]
    trace.sort(key=lambda rec: rec.at_ms)  # stable: same-time order is preserved
    return trace, reached
