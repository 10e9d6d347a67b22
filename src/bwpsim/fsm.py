"""Per-serving-cell UE state machine for bandwidth-part switching.

One machine owns the runtime state of one cell: the active DL/UL BWP ids,
the inactivity timer, the random-access interlock, and at most one open
switch window at a time. Triggers are RRC (re-)configuration, SCell
activation, non-fallback DCI, timer expiry, and random-access initiation.

Timing semantics:

* A switch is not instantaneous. Each trigger opens its window through
  `_open_window`; it lasts the slot budget of the delay-requirement table
  (TS 38.133 style) at the smaller of the two subcarrier spacings
  involved, plus the configured RRC processing delay for RRC. The new
  ids commit when the window ends, and the commit records carry the exact
  end time even when the driving tick lands later (a 2.25 ms window
  commits at exactly 2.25 ms after it opened).
* While a window is open the UE neither transmits nor receives on the
  cell: every arriving event is rejected and traced, never queued.
* The inactivity timer counts whole subframes (1 ms) on FR1 and whole
  half-subframes (0.5 ms) on FR2 from the first tick a full tick after
  arming, so it is kept as one expiry time on the tick grid: armed at t
  with value v, ceil((t+tick)/tick)*tick + v - tick. It never runs on the
  default DL BWP or during random access; random access clears it and
  completion re-arms it. If it expires while a window is open, the switch
  to the default BWP is deferred to the window commit.
* 240 kHz BWPs take part in frequency math but have no switch-delay
  requirement, so any switch involving one is rejected.

Time: a machine counts whole eighths of a ms. Every tick, switch delay
(whole slots of at most 120 kHz) and timer value ((half-)subframes) is a
whole number of eighths, so every time it handles, stores or returns is
an int; only the records carry exact rational ms (`Fraction`).

Ties at one timestamp resolve in a fixed order (tick commits, then RRC,
then RACH, then DCI, then data), which the engine enforces; every method
here is synchronous and the whole machine is single-owner mutable state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .config import (
    BwpConfig,
    CellConfig,
    DelayType,
    Duplex,
    UeCapability,
    dci_switch_available,
    effective_default_dl,
)
from .dci import DciEvent, Direction, IndicatorContext, IndicatorError, decode_indicator
from .trace import (
    DATA_SERVED,
    EVENT_REJECTED,
    RUN_START,
    STATE_CHANGE,
    TIMER_EXPIRY,
    TIMER_RESTART,
    TIMER_START,
    WINDOW_CLOSE,
    WINDOW_OPEN,
    TraceRecord,
    ms_str,
)


class UnsupportedScs(Exception):
    """No switch-delay requirement exists for this subcarrier spacing."""

    def __init__(self, scs_khz: int):
        super().__init__(f"no switch delay requirement for {scs_khz} kHz")


class EventRejection(Exception):
    """An event the machine refuses; the engine traces it and moves on."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


def rejection_record(t: int, cell: str, event_kind: str, rej: EventRejection) -> TraceRecord:
    """The EventRejected trace record for one event refused at `t` eighths of a ms."""
    return TraceRecord(
        _ms(t), cell, EVENT_REJECTED, {"event_kind": event_kind, "reason": rej.reason, "detail": rej.detail}
    )


class SwitchCause(Enum):
    RRC_RECONFIG = "RrcReconfig"
    FIRST_ACTIVE_ON_SCELL_ACTIVATION = "FirstActiveOnScellActivation"
    DCI = "Dci"
    TIMER_EXPIRY = "TimerExpiry"
    RACH_INITIATED = "RachInitiated"


# Switch delay requirement in slots of the governing SCS, per delay type.
SWITCH_DELAY_SLOTS: dict[int, dict[DelayType, int]] = {
    15: {DelayType.TYPE1: 1, DelayType.TYPE2: 3},
    30: {DelayType.TYPE1: 2, DelayType.TYPE2: 5},
    60: {DelayType.TYPE1: 3, DelayType.TYPE2: 9},
    120: {DelayType.TYPE1: 6, DelayType.TYPE2: 18},
}


def switch_delay_khz(from_scs_khz: int, to_scs_khz: int, delay_type: DelayType) -> tuple[int, Fraction]:
    """(slots, duration in ms) of the delay budget for switching between two subcarrier spacings.

    The requirement of the smaller SCS governs when the two differ.
    Raises UnsupportedScs when either side is 240 kHz.
    """
    for scs in (from_scs_khz, to_scs_khz):
        if scs not in SWITCH_DELAY_SLOTS:
            raise UnsupportedScs(scs)
    governing = min(from_scs_khz, to_scs_khz)
    slots = SWITCH_DELAY_SLOTS[governing][delay_type]
    # a slot of the governing SCS lasts 15/scs ms
    return slots, Fraction(15 * slots, governing)


UNITS_PER_MS = 8  # a machine time is a whole number of eighths of a ms


def to_units(ms: Fraction | int) -> int:
    """A time or duration in ms as whole eighths of a ms, rounded down."""
    return ms.numerator * UNITS_PER_MS // ms.denominator


@functools.lru_cache(maxsize=8)
def _ms(t: int) -> Fraction:
    """A time in eighths of a ms as exact ms, as the records carry it. The
    records of one time share one Fraction across all cells of a run; the
    bound keeps the cache from growing with the run."""
    return Fraction(t, UNITS_PER_MS)


def _by_id(bwps: tuple[BwpConfig, ...]) -> dict[int, tuple[int, int]]:
    """(n_rbs, scs_khz) by BWP id; the first BWP of a repeated id wins."""
    table: dict[int, tuple[int, int]] = {}
    for b in reversed(bwps):
        table[b.id] = (b.geometry.n_rbs, b.geometry.numerology.scs_khz)
    return table


def _ceil_to(t: int, tick: int) -> int:
    """The first multiple of `tick` at or after `t`."""
    return -(-t // tick) * tick


@dataclass
class SwitchWindow:
    """An open switch window; its times are in eighths of a ms."""

    end_ms: int
    commit_at: int  # the first tick of the cell's grid at or after end_ms
    target_dl: Optional[int]
    target_ul: Optional[int]
    cause: SwitchCause
    expiry_pending: bool = False  # the timer fired while this window was open


@dataclass
class BwpState:
    active_dl: int
    active_ul: Optional[int]
    timer_expires_at: Optional[int] = None
    switch_window: Optional[SwitchWindow] = None
    rach_in_progress: bool = False


class CellStateMachine:
    """Mutable BWP state of one serving cell, advanced by the engine.

    Every handler returns the trace records it produced, as does every
    helper that makes records. A rejected event raises EventRejection
    before any state changes, also in `_open_window`, the one method that
    opens a window. Times in and out are whole eighths of a ms; the
    records carry ms. A direct caller passes each time as `to_units(ms)`,
    `8 * ms` as an int, and reads the records' `at_ms`.

    `cfg` and `cap` are fixed at construction: the machine derives its
    per-cell tables from them once (indicator contexts, each BWP's width
    and SCS by id, the default DL BWP, whether DL and UL switch as a pair,
    whether BWP #0 takes non-fallback DCI, the switch delay per governing
    SCS) and never reads them back for those values or its `RunStart`.
    """

    def __init__(self, cell: str, cfg: CellConfig, cap: UeCapability):
        self.cell = cell
        self.cfg = cfg
        self.tick = to_units(cfg.tick_ms)
        self.state = BwpState(active_dl=0, active_ul=0 if cfg.has_uplink else None)
        self._dl, self._ul = _by_id(cfg.dl_bwps), _by_id(cfg.ul_bwps)  # (n_rbs, scs_khz) by BWP id
        self._indicator = {
            direction: IndicatorContext(sum(1 for b in bwps if b.id != 0))
            for direction, bwps in ((Direction.DL_ASSIGNMENT, cfg.dl_bwps), (Direction.UL_GRANT, cfg.ul_bwps))
        }
        self._default_dl = effective_default_dl(cfg)
        self._switch_as_pair = cfg.duplex is Duplex.TDD and cfg.has_uplink  # unpaired spectrum with UL
        self._nonfallback_on_bwp0 = dci_switch_available(cfg, 0)
        self._delays = {scs: to_units(switch_delay_khz(scs, scs, cap.switch_delay_type)[1])
                        for scs in SWITCH_DELAY_SLOTS}  # eighths of a ms by governing SCS

    def start_record(self) -> TraceRecord:
        """The cell's RunStart record: its state before any event."""
        st = self.state
        return self._rec(0, RUN_START, active_dl=st.active_dl, active_ul=st.active_ul,
                         dl_rbs=self._dl[st.active_dl][0], default_dl=self._default_dl)

    # ------------------------------------------------------------------
    # event handlers

    def on_rrc_reconfig(
        self,
        now: int,
        first_active_dl: Optional[int] = None,
        first_active_ul: Optional[int] = None,
        *,
        scell_activation: bool = False,
    ) -> list[TraceRecord]:
        """Apply an RRC (re-)configuration or an SCell activation.

        SCell activation reads the first-active ids from the cell config;
        a reconfiguration carries them itself. Without any first-active id
        there is no switch. The window spans the RRC processing delay plus
        the switch delay budget.
        """
        st = self.state
        if st.switch_window is not None:
            raise EventRejection("EventDuringSwitchWindow", "RRC during an open switch window")
        if scell_activation:
            first_active_dl = self.cfg.first_active_dl
            first_active_ul = self.cfg.first_active_ul if self.cfg.has_uplink else None
        if first_active_dl is None and first_active_ul is None:
            return []
        if self._switch_as_pair:
            ids = {x for x in (first_active_dl, first_active_ul) if x is not None}
            if len(ids) > 1:
                raise EventRejection("InvalidTarget", "TDD first-active ids must pair up")
            paired = ids.pop()
            first_active_dl = paired
            first_active_ul = paired
        if first_active_ul is not None and not self.cfg.has_uplink:
            raise EventRejection("InvalidTarget", "first-active UL on a cell without UL BWPs")
        if first_active_dl is not None and first_active_dl not in self._dl:
            raise EventRejection("InvalidTarget", f"first-active DL BWP #{first_active_dl} not configured")
        if first_active_ul is not None and first_active_ul not in self._ul:
            raise EventRejection("InvalidTarget", f"first-active UL BWP #{first_active_ul} not configured")

        cause = (
            SwitchCause.FIRST_ACTIVE_ON_SCELL_ACTIVATION
            if scell_activation
            else SwitchCause.RRC_RECONFIG
        )
        extra = to_units(self.cfg.rrc_processing_delay_ms)
        return [self._open_window(now, first_active_dl, first_active_ul, cause, extra)]

    def on_dci(self, now: int, dci: DciEvent) -> list[TraceRecord]:
        """Process one DCI: possibly a switch, possibly a timer restart.

        Fallback formats never switch. A non-fallback DCI whose indicator
        names the current BWP is plain scheduling. Timer restart rules:
        on paired spectrum only a DL assignment for the active DL BWP
        restarts; on unpaired spectrum either direction does; any accepted
        switching DCI starts/restarts the timer at reception.
        """
        st = self.state
        if st.switch_window is not None:
            raise EventRejection("DciDuringSwitchWindow", "no reception during a switch window")
        if dci.is_fallback:
            return self._timer_on_scheduling(now, dci.direction)
        if st.active_dl == 0 and not self._nonfallback_on_bwp0:
            raise EventRejection(
                "NonFallbackOnOption1Initial",
                "BWP #0 without dedicated parameters only supports fallback DCI",
            )
        to_ul = dci.direction is Direction.UL_GRANT
        if to_ul and not self.cfg.has_uplink:
            raise EventRejection("NoUplinkConfigured", "UL grant on a DL-only cell")
        try:
            target = decode_indicator(dci.bwp_indicator_bits or "", self._indicator[dci.direction])
        except IndicatorError as exc:
            raise EventRejection(type(exc).__name__, str(exc)) from exc
        current = st.active_ul if to_ul else st.active_dl
        if target == current:
            return self._timer_on_scheduling(now, dci.direction)

        target_dl: Optional[int]
        target_ul: Optional[int]
        if self._switch_as_pair:
            target_dl, target_ul, what = target, target, "BWP pair"
        elif to_ul:
            target_dl, target_ul, what = None, target, "UL BWP"
        else:
            target_dl, target_ul, what = target, None, "DL BWP"
        if (target_dl is not None and target_dl not in self._dl) or (
            target_ul is not None and target_ul not in self._ul
        ):
            raise EventRejection("TargetNotConfigured", f"{what} #{target} not configured")
        records = [self._open_window(now, target_dl, target_ul, SwitchCause.DCI)]
        return records + self._try_arm_timer(now)

    def on_tick(self, now: int) -> list[TraceRecord]:
        """Commit the windows due by `now`, then fire the timer if it is due.

        `now` may lie on the tick grid or off it; the engine calls this at
        each `next_deadline()` it reaches and once more at the horizon.
        """
        records = self._close_due_windows(now)
        st = self.state
        if st.timer_expires_at is not None and now >= st.timer_expires_at:
            st.timer_expires_at = None
            records.append(self._rec(now, TIMER_EXPIRY))
            if st.switch_window is not None:
                st.switch_window.expiry_pending = True
            else:
                records.append(self._open_expiry_window(now))
        return records

    def next_deadline(self) -> Optional[int]:
        """The earliest tick of the cell's grid at which on_tick acts, or None.

        That is the open window's commit tick or the timer's expiry time,
        whichever comes first; an on_tick at any earlier tick of the grid
        emits nothing and changes nothing.
        """
        st = self.state
        timer = st.timer_expires_at
        if st.switch_window is None:
            return timer
        commit = st.switch_window.commit_at
        return commit if timer is None or commit <= timer else timer

    def on_rach_start(self, now: int) -> list[TraceRecord]:
        """Begin random access: clear the timer, move to a PRACH-capable UL.

        The UL BWP falls back to #0 unless the active one has PRACH
        occasions. On unpaired spectrum the pair moves together; on paired
        spectrum an SpCell additionally aligns its DL BWP with the UL
        index, while an SCell leaves DL alone.
        """
        st = self.state
        if st.switch_window is not None:
            raise EventRejection("EventDuringSwitchWindow", "RACH start during a switch window")
        if not self.cfg.has_uplink:
            raise EventRejection("NoUplinkConfigured", "random access needs an UL BWP")

        target_ul: Optional[int] = None
        if st.active_ul not in self.cfg.prach_configured_on:
            target_ul = 0
        new_ul = target_ul if target_ul is not None else st.active_ul
        target_dl: Optional[int] = None
        if self._switch_as_pair:
            if target_ul is not None:
                target_dl = target_ul
        elif self.cfg.cell_role.is_spcell and st.active_dl != new_ul:
            target_dl = new_ul
        if target_dl is not None and target_dl not in self._dl:
            raise EventRejection("InvalidTarget", f"no DL BWP #{target_dl} to align with the UL BWP")

        records: list[TraceRecord] = []  # the window first: a rejected switch leaves the state alone
        if target_dl is not None or target_ul is not None:
            records.append(
                self._open_window(now, target_dl, target_ul, SwitchCause.RACH_INITIATED)
            )
        st.rach_in_progress = True
        st.timer_expires_at = None
        return records

    def on_rach_complete(self, now: int) -> list[TraceRecord]:
        """Finish random access; re-arm the timer if off the default BWP."""
        st = self.state
        if st.switch_window is not None:
            raise EventRejection("EventDuringSwitchWindow", "RACH completion during a switch window")
        if not st.rach_in_progress:
            raise EventRejection("NotInRach", "no random-access procedure in progress")
        st.rach_in_progress = False
        return self._try_arm_timer(now)

    def on_data(self, now: int, direction: Direction) -> list[TraceRecord]:
        """Serve a scheduled data burst on the active BWP of that direction."""
        st = self.state
        if st.switch_window is not None:
            raise EventRejection("DataDuringSwitchWindow", "no data service during a switch window")
        if direction is Direction.UL_GRANT:
            if not self.cfg.has_uplink:
                raise EventRejection("NoUplinkConfigured", "UL data on a DL-only cell")
            n_rbs = self._ul[st.active_ul][0]
            tag = "ul"
        else:
            n_rbs = self._dl[st.active_dl][0]
            tag = "dl"
        return [self._rec(now, DATA_SERVED, direction=tag, n_rbs=n_rbs)]

    # ------------------------------------------------------------------
    # internals

    def _rec(self, t: int, kind: str, **fields) -> TraceRecord:
        return TraceRecord(_ms(t), self.cell, kind, fields)

    def _switch_delay(self, target_dl: Optional[int], target_ul: Optional[int]) -> int:
        """Delay budget in eighths of a ms for moving to the targets; None leaves a direction alone.

        Every trigger's window is timed here, through `_open_window`: the
        smallest SCS among the current and target BWPs of the moving
        directions governs, with its delay fixed at construction (none for 240 kHz).
        """
        st = self.state
        scs: list[int] = []
        if target_dl is not None:
            scs += [self._dl[st.active_dl][1], self._dl[target_dl][1]]
        if target_ul is not None:
            scs += [self._ul[st.active_ul][1], self._ul[target_ul][1]]
        for s in scs:
            if s not in self._delays:
                raise EventRejection("UnsupportedScs", str(UnsupportedScs(s)))
        return self._delays[min(scs)]

    def _open_window(
        self,
        now: int,
        target_dl: Optional[int],
        target_ul: Optional[int],
        cause: SwitchCause,
        extra: int = 0,
    ) -> TraceRecord:
        """Open a switch window `extra` eighths of a ms past its delay budget; return its WindowOpen."""
        end = now + extra + self._switch_delay(target_dl, target_ul)
        self.state.switch_window = SwitchWindow(end, _ceil_to(end, self.tick), target_dl, target_ul, cause)
        return self._rec(
            now,
            WINDOW_OPEN,
            end_ms=ms_str(_ms(end)),
            target_dl=target_dl,
            target_ul=target_ul,
            cause=cause.value,
        )

    def _close_due_windows(self, now: int) -> list[TraceRecord]:
        st = self.state
        records: list[TraceRecord] = []
        while st.switch_window is not None and st.switch_window.end_ms <= now:
            w = st.switch_window
            t = w.end_ms
            old_dl, old_ul = st.active_dl, st.active_ul
            if w.target_dl is not None:
                st.active_dl = w.target_dl
            if w.target_ul is not None:
                st.active_ul = w.target_ul
            st.switch_window = None
            records.append(self._rec(t, WINDOW_CLOSE, cause=w.cause.value))
            if (st.active_dl, st.active_ul) != (old_dl, old_ul):
                records.append(
                    self._rec(
                        t,
                        STATE_CHANGE,
                        old_dl=old_dl,
                        old_ul=old_ul,
                        new_dl=st.active_dl,
                        new_ul=st.active_ul,
                        cause=w.cause.value,
                        new_dl_rbs=self._dl[st.active_dl][0],
                    )
                )
            if st.active_dl == self._default_dl:
                # the default BWP carries no inactivity tracking
                st.timer_expires_at = None
            elif w.expiry_pending:
                records.append(self._open_expiry_window(t))
            elif st.timer_expires_at is None or w.cause is not SwitchCause.DCI:
                # activation of a non-default BWP restarts the timer; for a
                # DCI-driven switch the restart at reception already governs
                records += self._try_arm_timer(t)
        return records

    def _open_expiry_window(self, now: int) -> TraceRecord:
        default = self._default_dl
        target_ul = default if self._switch_as_pair else None
        try:
            return self._open_window(now, default, target_ul, SwitchCause.TIMER_EXPIRY)
        except EventRejection as rej:
            # a 240 kHz BWP cannot be switched; record the stuck expiry
            return rejection_record(now, self.cell, TIMER_EXPIRY, rej)

    def _timer_on_scheduling(self, now: int, direction: Direction) -> list[TraceRecord]:
        if self.cfg.duplex is Duplex.FDD and direction is not Direction.DL_ASSIGNMENT:
            return []
        return self._try_arm_timer(now)

    def _try_arm_timer(self, now: int) -> list[TraceRecord]:
        st = self.state
        value = self.cfg.inactivity_timer_ms
        if value is None or st.rach_in_progress or st.active_dl == self._default_dl:
            return []
        was_running = st.timer_expires_at is not None
        tick = self.tick
        # the first whole period ends at the first tick boundary a full tick
        # after arming; the last of value/tick periods ends value - tick later
        st.timer_expires_at = _ceil_to(now + tick, tick) + to_units(value) - tick
        return [self._rec(now, TIMER_RESTART if was_running else TIMER_START, value_ms=value)]
