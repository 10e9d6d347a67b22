"""The step-loop engine, kept as an oracle for the deadline-driven `run()`.

`tick_run` drives the same `CellStateMachine`s through the finest tick
grid among the cells, ticking every cell at every tick of its own grid
up to the horizon, then once more at the horizon. It shares the delivery
table `_DELIVERY` (each event kind's phase and handler) and `_dispatch`
with the engine, and so the tie order, but none of its deadline
bookkeeping. On the way it checks the claim that lets `run()` skip
ticks: a tick before a cell's `next_deadline()` emits nothing and leaves
the state as it was, and no deadline is passed without a tick. It also
counts the ticks that meet a deadline: `run()` should make those and one
more per cell at the horizon, and no other. Like `run()` it counts
eighths of a ms and stops at the last one at or before the horizon.
"""

from __future__ import annotations

import copy
from fractions import Fraction

from bwpsim.config import effective_default_dl
from bwpsim.engine import _DELIVERY, Scenario, _dispatch
from bwpsim.fsm import UNITS_PER_MS, CellStateMachine, to_units
from bwpsim.trace import RUN_END, RUN_START, TraceRecord


def _snapshot(m: CellStateMachine):
    return copy.copy(m.state), copy.copy(m.state.switch_window)


def _checked_tick(m: CellStateMachine, t: int) -> tuple[list[TraceRecord], bool]:
    """m.on_tick(t), and whether t is m's deadline."""
    deadline = m.next_deadline()
    if deadline is not None:
        assert deadline % m.tick == 0, f"{m.cell}: deadline {deadline} off the tick grid"
        assert deadline >= t, f"{m.cell}: deadline {deadline} passed without a tick (now {t})"
    if deadline == t:
        return m.on_tick(t), True
    before = _snapshot(m)
    records = m.on_tick(t)
    assert records == [], f"{m.cell}: tick at {t} before deadline {deadline} emitted {records}"
    assert _snapshot(m) == before, f"{m.cell}: tick at {t} before deadline {deadline} changed the state"
    return records, False


def tick_run(scenario: Scenario) -> tuple[list[TraceRecord], int]:
    """The trace of a scenario that `run()` accepts, by the step loop, and
    the number of ticks that met their cell's deadline."""
    horizon = Fraction(scenario.horizon_ms)
    end = to_units(horizon)
    cell_order = list(scenario.cells)
    machines = {
        cid: CellStateMachine(cid, cfg, scenario.capability) for cid, cfg in scenario.cells.items()
    }
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
    for ev in sorted(scenario.events, key=lambda ev: _DELIVERY[ev.kind][0]):  # stable: input order
        events_at.setdefault(to_units(ev.at_ms) // step, []).append(ev)

    reached = 0
    for k in range(end // step + 1):
        t = step * k
        for cid, stride in strides:
            if k and k % stride == 0:
                records, at_deadline = _checked_tick(machines[cid], t)
                trace += records
                reached += at_deadline
        for ev in events_at.get(k, ()):
            trace += _dispatch(machines[ev.cell], ev, t)
            deadline = machines[ev.cell].next_deadline()
            assert deadline is None or deadline > t, f"{ev.cell}: event at {t} set deadline {deadline}"

    for cid in cell_order:
        deadline = machines[cid].next_deadline()
        assert deadline is None or deadline > end, f"{cid}: deadline {deadline} passed without a tick"
        trace += machines[cid].on_tick(end)
    trace += [TraceRecord(horizon, cid, RUN_END, {}) for cid in cell_order]
    trace.sort(key=lambda rec: rec.at_ms)  # stable: same-time order is preserved
    return trace, reached
