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

Time: a machine counts whole eighths of a ms, since every tick, switch
delay and timer value is a whole number of them; its records carry
exact ms.

Ties at one timestamp resolve in a fixed order (tick commits, then RRC,
then RACH, then DCI, then data), which the engine enforces; every method
here is synchronous and the whole machine is single-owner mutable state.
"""

from __future__ import annotations

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
from .grid import Slots
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
    Times,
    TraceRecord,
    eighths_str,
    to_units,
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


class SwitchCause:
    RRC_RECONFIG = "RrcReconfig"
    FIRST_ACTIVE_ON_SCELL_ACTIVATION = "FirstActiveOnScellActivation"
    DCI = "Dci"
    TIMER_EXPIRY = "TimerExpiry"
    RACH_INITIATED = "RachInitiated"


SWITCH_CAUSES = (SwitchCause.RRC_RECONFIG, SwitchCause.FIRST_ACTIVE_ON_SCELL_ACTIVATION, SwitchCause.DCI,
                 SwitchCause.TIMER_EXPIRY, SwitchCause.RACH_INITIATED)
_DL, _UL = Direction.DL_ASSIGNMENT, Direction.UL_GRANT

# Switch delay requirement in slots of the governing SCS, per delay type by
# its value (a str hashes in C, a member in Python).
SWITCH_DELAY_SLOTS: dict[int, dict[str, int]] = {
    15: {"type1": 1, "type2": 3},
    30: {"type1": 2, "type2": 5},
    60: {"type1": 3, "type2": 9},
    120: {"type1": 6, "type2": 18},
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
    slots = SWITCH_DELAY_SLOTS[governing][delay_type._value_]
    # a slot of the governing SCS lasts 15/scs ms
    return slots, Fraction(15 * slots, governing)


def _by_id(bwps: tuple[BwpConfig, ...]) -> dict[int, tuple[int, int]]:
    """(n_rbs, scs_khz) by BWP id; the first BWP of a repeated id wins."""
    table: dict[int, tuple[int, int]] = {}
    for b in reversed(bwps):
        table[b.id] = (b.geometry.n_rbs, b.geometry.numerology.scs_khz)
    return table


def _ceil_to(t: int, tick: int) -> int:
    """The first multiple of `tick` at or after `t`."""
    return -(-t // tick) * tick


class SwitchWindow(Slots):
    """An open switch window, its times in eighths of a ms: `commit_at` is the first tick at or after
    `end_ms`, `cause` a SwitchCause, and `expiry_pending` set if the timer fires while it is open."""

    __slots__ = ("end_ms", "commit_at", "target_dl", "target_ul", "cause", "expiry_pending")

    def __init__(self, end_ms: int, commit_at: int, target_dl: Optional[int], target_ul: Optional[int], cause: str,
                 expiry_pending: bool = False) -> None:
        self.end_ms, self.commit_at, self.target_dl, self.target_ul = end_ms, commit_at, target_dl, target_ul
        self.cause, self.expiry_pending = cause, expiry_pending


class BwpState(Slots):
    __slots__ = ("active_dl", "active_ul", "timer_expires_at", "switch_window", "rach_in_progress")

    def __init__(self, active_dl: int, active_ul: Optional[int], timer_expires_at: Optional[int] = None,
                 switch_window: Optional[SwitchWindow] = None, rach_in_progress: bool = False) -> None:
        self.active_dl, self.active_ul, self.timer_expires_at = active_dl, active_ul, timer_expires_at
        self.switch_window, self.rach_in_progress = switch_window, rach_in_progress


class CellStateMachine:
    """Mutable BWP state of one serving cell, advanced by the engine.

    Its one output is `log`: `_rec` makes every record and appends
    `(t, record)` to it, `t` in whole eighths of a ms. No method returns a
    record. A machine built alone has a log of its own; `run()` gives a
    run's machines one list. A rejected event raises EventRejection before any
    state changes or record is made, also in `_open_window`, the one method
    that opens a window. Times in are whole eighths of a ms; the records
    carry ms. A direct caller passes each time as `to_units(ms)`, `8 * ms`
    as an int, reads what a call made as the part of `log` that it added,
    and reads the records' `at_ms`.

    `cfg` and `cap` are read only in `__init__`, which refuses a cell without
    DL BWP #0 (ValueError) and derives the per-cell facts once: indicator
    contexts, each BWP's width and SCS by id, the default DL BWP, whether the
    cell has UL BWPs, is paired (FDD), is an SpCell, switches DL and UL as a
    pair and lets BWP #0 take non-fallback DCI, its PRACH BWPs, an SCell's
    first-active pair, the timer and RRC delay in eighths of a ms, and the
    switch delay per governing SCS.
    """

    def __init__(self, cell: str, cfg: CellConfig, cap: UeCapability):
        self.cell = cell
        self._times = Times()  # run() gives all machines of a run one table
        self.log: list[tuple[int, TraceRecord]] = []  # and one log
        self.tick = to_units(cfg.tick_ms)
        self._dl, self._ul = _by_id(cfg.dl_bwps), _by_id(cfg.ul_bwps)  # (n_rbs, scs_khz) by BWP id
        if 0 not in self._dl:
            raise ValueError(f"cell {cell!r} has no DL BWP #0 to start on")
        self._has_ul = bool(cfg.ul_bwps)
        self.state = BwpState(active_dl=0, active_ul=0 if self._has_ul else None)
        self._dl_indicator, self._ul_indicator = (
            IndicatorContext(sum(1 for b in bwps if b.id != 0)) for bwps in (cfg.dl_bwps, cfg.ul_bwps))
        self._default_dl = effective_default_dl(cfg)
        self._paired = cfg.duplex is Duplex.FDD
        self._spcell = cfg.cell_role.is_spcell
        self._switch_as_pair = cfg.duplex is Duplex.TDD and self._has_ul  # unpaired spectrum with UL
        self._nonfallback_on_bwp0 = dci_switch_available(cfg, 0)
        self._prach_on = cfg.prach_configured_on
        self._scell_first_active = (cfg.first_active_dl, cfg.first_active_ul if self._has_ul else None)
        self._timer_ms = timer = cfg.inactivity_timer_ms
        self._timer = None if timer is None else to_units(timer)  # eighths of a ms
        self._rrc_delay = to_units(cfg.rrc_processing_delay_ms)
        self._delays = {scs: to_units(switch_delay_khz(scs, scs, cap.switch_delay_type)[1])
                        for scs in SWITCH_DELAY_SLOTS}  # eighths of a ms by governing SCS

    def start_record(self) -> None:
        """Log the cell's RunStart record: its state before any event."""
        st = self.state
        self._rec(0, RUN_START, active_dl=st.active_dl, active_ul=st.active_ul,
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
    ) -> None:
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
            first_active_dl, first_active_ul = self._scell_first_active
        if first_active_dl is None and first_active_ul is None:
            return
        if self._switch_as_pair:
            ids = {x for x in (first_active_dl, first_active_ul) if x is not None}
            if len(ids) > 1:
                raise EventRejection("InvalidTarget", "TDD first-active ids must pair up")
            paired = ids.pop()
            first_active_dl = paired
            first_active_ul = paired
        if first_active_ul is not None and not self._has_ul:
            raise EventRejection("InvalidTarget", "first-active UL on a cell without UL BWPs")
        if first_active_dl is not None and first_active_dl not in self._dl:
            raise EventRejection("InvalidTarget", f"first-active DL BWP #{first_active_dl} not configured")
        if first_active_ul is not None and first_active_ul not in self._ul:
            raise EventRejection("InvalidTarget", f"first-active UL BWP #{first_active_ul} not configured")

        cause = SwitchCause.FIRST_ACTIVE_ON_SCELL_ACTIVATION if scell_activation else SwitchCause.RRC_RECONFIG
        self._open_window(now, first_active_dl, first_active_ul, cause, self._rrc_delay)

    def on_dci(self, now: int, dci: DciEvent) -> None:
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
        fmt = dci.format
        if fmt.is_fallback:
            self._timer_on_scheduling(now, fmt.direction)
            return
        if st.active_dl == 0 and not self._nonfallback_on_bwp0:
            raise EventRejection(
                "NonFallbackOnOption1Initial",
                "BWP #0 without dedicated parameters only supports fallback DCI",
            )
        to_ul = fmt.direction is _UL
        if to_ul and not self._has_ul:
            raise EventRejection("NoUplinkConfigured", "UL grant on a DL-only cell")
        try:
            target = decode_indicator(dci.bwp_indicator_bits or "", self._ul_indicator if to_ul else self._dl_indicator)
        except IndicatorError as exc:
            raise EventRejection(type(exc).__name__, str(exc)) from exc
        current = st.active_ul if to_ul else st.active_dl
        if target == current:
            self._timer_on_scheduling(now, fmt.direction)
            return

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
        self._open_window(now, target_dl, target_ul, SwitchCause.DCI)
        self._try_arm_timer(now)

    def on_tick(self, now: int) -> None:
        """Commit the windows due by `now`, then fire the timer if it is due.

        `now` may lie on the tick grid or off it; the engine calls this at
        each `next_deadline()` it reaches and once more at the horizon. A
        commit's records carry the end of its window, which can lie before
        `now`; the others carry `now`.
        """
        self._close_due_windows(now)
        st = self.state
        if st.timer_expires_at is not None and now >= st.timer_expires_at:
            st.timer_expires_at = None
            self._rec(now, TIMER_EXPIRY)
            if st.switch_window is not None:
                st.switch_window.expiry_pending = True
            else:
                self._open_expiry_window(now)

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

    def on_rach_start(self, now: int) -> None:
        """Begin random access: clear the timer, move to a PRACH-capable UL.

        The UL BWP falls back to #0 unless the active one has PRACH
        occasions. On unpaired spectrum the pair moves together; on paired
        spectrum an SpCell additionally aligns its DL BWP with the UL
        index, while an SCell leaves DL alone.
        """
        st = self.state
        if st.switch_window is not None:
            raise EventRejection("EventDuringSwitchWindow", "RACH start during a switch window")
        if not self._has_ul:
            raise EventRejection("NoUplinkConfigured", "random access needs an UL BWP")

        target_ul: Optional[int] = None
        if st.active_ul not in self._prach_on:
            target_ul = 0
        new_ul = target_ul if target_ul is not None else st.active_ul
        target_dl: Optional[int] = None
        if self._switch_as_pair:
            if target_ul is not None:
                target_dl = target_ul
        elif self._spcell and st.active_dl != new_ul:
            target_dl = new_ul
        if target_dl is not None and target_dl not in self._dl:
            raise EventRejection("InvalidTarget", f"no DL BWP #{target_dl} to align with the UL BWP")

        if target_dl is not None or target_ul is not None:  # first: a rejected switch leaves the state alone
            self._open_window(now, target_dl, target_ul, SwitchCause.RACH_INITIATED)
        st.rach_in_progress = True
        st.timer_expires_at = None

    def on_rach_complete(self, now: int) -> None:
        """Finish random access; re-arm the timer if off the default BWP."""
        st = self.state
        if st.switch_window is not None:
            raise EventRejection("EventDuringSwitchWindow", "RACH completion during a switch window")
        if not st.rach_in_progress:
            raise EventRejection("NotInRach", "no random-access procedure in progress")
        st.rach_in_progress = False
        self._try_arm_timer(now)

    def on_data(self, now: int, direction: Direction) -> None:
        """Serve a scheduled data burst on the active BWP of that direction."""
        st = self.state
        if st.switch_window is not None:
            raise EventRejection("DataDuringSwitchWindow", "no data service during a switch window")
        if direction is _UL:
            if not self._has_ul:
                raise EventRejection("NoUplinkConfigured", "UL data on a DL-only cell")
            n_rbs = self._ul[st.active_ul][0]
            tag = "ul"
        else:
            n_rbs = self._dl[st.active_dl][0]
            tag = "dl"
        self._rec(now, DATA_SERVED, direction=tag, n_rbs=n_rbs)

    def rejection_record(self, t: int, event_kind: str, rej: EventRejection) -> None:
        """Log the EventRejected record for one event refused at `t` eighths of a ms."""
        self._rec(t, EVENT_REJECTED, event_kind=event_kind, reason=rej.reason, detail=rej.detail)

    # ------------------------------------------------------------------
    # internals

    def _rec(self, t: int, kind: str, **fields) -> None:
        self.log.append((t, TraceRecord(self._times[t], self.cell, kind, fields)))

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
        cause: str,
        extra: int = 0,
    ) -> None:
        """Open a switch window `extra` eighths of a ms past its delay budget, and log its WindowOpen."""
        end = now + extra + self._switch_delay(target_dl, target_ul)
        self.state.switch_window = SwitchWindow(end, _ceil_to(end, self.tick), target_dl, target_ul, cause)
        self._rec(now, WINDOW_OPEN, end_ms=eighths_str(end),  # end >= now >= 0
                  target_dl=target_dl, target_ul=target_ul, cause=cause)

    def _close_due_windows(self, now: int) -> None:
        st = self.state
        while st.switch_window is not None and st.switch_window.end_ms <= now:
            w = st.switch_window
            t = w.end_ms
            old_dl, old_ul = st.active_dl, st.active_ul
            if w.target_dl is not None:
                st.active_dl = w.target_dl
            if w.target_ul is not None:
                st.active_ul = w.target_ul
            st.switch_window = None
            cause = w.cause
            self._rec(t, WINDOW_CLOSE, cause=cause)
            if (st.active_dl, st.active_ul) != (old_dl, old_ul):
                self._rec(t, STATE_CHANGE, old_dl=old_dl, old_ul=old_ul, new_dl=st.active_dl, new_ul=st.active_ul,
                          cause=cause, new_dl_rbs=self._dl[st.active_dl][0])
            if st.active_dl == self._default_dl:
                # the default BWP carries no inactivity tracking
                st.timer_expires_at = None
            elif w.expiry_pending:
                self._open_expiry_window(t)
            elif st.timer_expires_at is None or w.cause != SwitchCause.DCI:
                # activation of a non-default BWP restarts the timer; for a
                # DCI-driven switch the restart at reception already governs
                self._try_arm_timer(t)

    def _open_expiry_window(self, now: int) -> None:
        default = self._default_dl
        target_ul = default if self._switch_as_pair else None
        try:
            self._open_window(now, default, target_ul, SwitchCause.TIMER_EXPIRY)
        except EventRejection as rej:
            # a 240 kHz BWP cannot be switched; record the stuck expiry
            self.rejection_record(now, TIMER_EXPIRY, rej)

    def _timer_on_scheduling(self, now: int, direction: Direction) -> None:
        if direction is _DL or not self._paired:  # paired spectrum: only a DL assignment
            self._try_arm_timer(now)

    def _try_arm_timer(self, now: int) -> None:
        st = self.state
        value = self._timer
        if value is None or st.rach_in_progress or st.active_dl == self._default_dl:
            return
        was_running = st.timer_expires_at is not None
        tick = self.tick
        # the first whole period ends at the first tick boundary a full tick
        # after arming; the last of value/tick periods ends value - tick later
        st.timer_expires_at = _ceil_to(now + tick, tick) + value - tick
        self._rec(now, TIMER_RESTART if was_running else TIMER_START, value_ms=self._timer_ms)
