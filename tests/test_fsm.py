"""State-machine behavior, driven directly without the engine."""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bwpsim as b
from bwpsim import fsm
from bwpsim.fsm import UNITS_PER_MS, CellStateMachine, EventRejection, to_units
from support import (
    adaptation_cell,
    assert_machine_invariants,
    at,
    centered_cell,
    make_bwp,
    spread_bwps,
    spread_cell,
)

T1 = b.DelayType.TYPE1
T2 = b.DelayType.TYPE2

# SCS kHz -> (type1 slots, type2 slots, slot length in ms)
DELAY_TABLE = {
    15: (1, 3, F(1)),
    30: (2, 5, F(1, 2)),
    60: (3, 9, F(1, 4)),
    120: (6, 18, F(1, 8)),
}


def machine(cfg, delay_type=T1) -> CellStateMachine:
    cap = b.UeCapability(max_rrc_bwps=4, switch_delay_type=delay_type)
    assert not b.validate(cfg, cap).has_errors
    return CellStateMachine("cell", cfg, cap)


def tick_until(m: CellStateMachine, start: int, end: int) -> list[b.TraceRecord]:
    records = []
    tick = m.tick
    t = (start // tick) * tick + tick
    while t <= end:
        records.extend(m.on_tick(t))
        t += tick
    return records


def kinds(records) -> list[str]:
    return [r.record for r in records]


def dl_only_cell(**kw) -> b.CellConfig:
    """centered_cell without UL BWPs, and so without PRACH occasions."""
    return dataclasses.replace(centered_cell(**kw), ul_bwps=(), first_active_ul=None,
                               prach_configured_on=frozenset())


def rejection(call) -> tuple[str, str]:
    with pytest.raises(EventRejection) as exc:
        call()
    return exc.value.reason, exc.value.detail


class TestSwitchDelayTable:
    @pytest.mark.parametrize("scs", sorted(DELAY_TABLE))
    @pytest.mark.parametrize("delay_type", [T1, T2])
    def test_equal_scs_pairs(self, scs, delay_type):
        slots1, slots2, slot_ms = DELAY_TABLE[scs]
        expected_slots = slots1 if delay_type is T1 else slots2
        assert b.switch_delay_khz(scs, scs, delay_type) == (expected_slots, expected_slots * slot_ms)

    @pytest.mark.parametrize("scs_from", sorted(DELAY_TABLE))
    @pytest.mark.parametrize("scs_to", sorted(DELAY_TABLE))
    @pytest.mark.parametrize("delay_type", [T1, T2])
    def test_smaller_scs_governs(self, scs_from, scs_to, delay_type):
        if scs_from == scs_to:
            return
        governing = min(scs_from, scs_to)
        assert b.switch_delay_khz(scs_from, scs_to, delay_type) == b.switch_delay_khz(
            governing, governing, delay_type
        )

    def test_240_khz_unsupported(self):
        for pair, delay_type in [((240, 240), T1), ((240, 15), T1), ((15, 240), T2)]:
            with pytest.raises(b.UnsupportedScs, match="^no switch delay requirement for 240 kHz$"):
                b.switch_delay_khz(*pair, delay_type)


class TestUnits:
    def test_units_round_trip_to_ms(self):
        for k in (0, 1, 3, 7, 8, 9, 61, 10**6, 8 * 10**300 + 5):
            x = F(k, UNITS_PER_MS)
            assert to_units(x) == k
            assert fsm._ms(to_units(x)) == x
            assert fsm._ms(k) is fsm._ms(k)  # the records of one time share one Fraction
        assert to_units(5) == 5 * UNITS_PER_MS

    def test_off_grid_times_round_down(self):
        assert [to_units(F(x)) for x in ("0.1", "0.124", "60.3", "-0.01")] == [0, 0, 482, -1]

    def test_window_end_renders_in_ms(self):
        m = machine(centered_cell(fr=b.FrequencyRange.FR2, mu=3), delay_type=T2)
        recs = m.on_dci(at(9), b.DciEvent(b.DciFormat.FMT_1_1, "01"))
        assert recs[0].fields["end_ms"] == "11.25"  # 18 slots of 1/8 ms
        assert m.state.switch_window.end_ms == 90


def test_start_record_is_the_state_before_any_event():
    m = machine(centered_cell())
    rec = m.start_record()
    assert (rec.at_ms, rec.cell, rec.record) == (0, "cell", "RunStart")
    assert rec.fields == {"active_dl": 0, "active_ul": 0, "dl_rbs": 24, "default_dl": 2}
    dl_only = dataclasses.replace(centered_cell(default_dl=None), ul_bwps=(), first_active_ul=None,
                                  prach_configured_on=frozenset())
    assert machine(dl_only).start_record().fields == {
        "active_dl": 0, "active_ul": None, "dl_rbs": 24, "default_dl": 0}


class TestRrcSwitch:
    def test_first_active_switch_with_processing_delay(self):
        m = machine(adaptation_cell())
        recs = m.on_rrc_reconfig(at(20), 1, 1)
        assert kinds(recs) == ["WindowOpen"]
        assert recs[0].fields["end_ms"] == "31"  # 10 ms RRC + 1 slot at 15 kHz
        recs = tick_until(m, at(20), at(31))
        assert kinds(recs) == ["WindowClose", "StateChange", "TimerStart"]
        assert recs[1].at_ms == F(31)
        assert (m.state.active_dl, m.state.active_ul) == (1, 1)

    def test_no_first_active_means_no_switch(self):
        m = machine(adaptation_cell())
        assert m.on_rrc_reconfig(at(20)) == []
        assert (m.state.active_dl, m.state.active_ul) == (0, 0)
        assert m.state.switch_window is None

    def test_scell_activation_uses_configured_first_active(self):
        cfg = dataclasses.replace(adaptation_cell(), cell_role=b.CellRole.SCELL, first_active_dl=2,
                                  first_active_ul=2)
        m = machine(cfg)
        recs = m.on_rrc_reconfig(at(4), scell_activation=True)
        assert recs[0].fields["cause"] == "FirstActiveOnScellActivation"
        assert recs[0].fields["target_dl"] == 2
        tick_until(m, at(4), at(15))
        assert m.state.active_dl == 2

    def test_tdd_first_active_ids_must_pair_up(self):
        m = machine(centered_cell(duplex=b.Duplex.TDD))
        with pytest.raises(EventRejection) as exc:
            m.on_rrc_reconfig(at(5), 1, 2)
        assert (exc.value.reason, exc.value.detail) == ("InvalidTarget", "TDD first-active ids must pair up")
        assert m.state.switch_window is None and (m.state.active_dl, m.state.active_ul) == (0, 0)

    def test_unconfigured_target_rejected(self):
        m = machine(adaptation_cell())
        with pytest.raises(EventRejection) as exc:
            m.on_rrc_reconfig(at(5), 4, 4)
        assert exc.value.reason == "InvalidTarget"

    def test_unconfigured_first_active_dl_alone_rejected(self):
        """An FDD RRC that names only a DL id, and not a configured one, is
        rejected here; accepted, it would reach the switch delay lookup."""
        m = machine(adaptation_cell())
        assert rejection(lambda: m.on_rrc_reconfig(at(5), 3, None)) == (
            "InvalidTarget", "first-active DL BWP #3 not configured")
        assert m.state.switch_window is None and (m.state.active_dl, m.state.active_ul) == (0, 0)

    def test_first_active_ul_on_a_dl_only_cell_rejected(self):
        m = machine(dl_only_cell())
        assert rejection(lambda: m.on_rrc_reconfig(at(5), 1, 1)) == (
            "InvalidTarget", "first-active UL on a cell without UL BWPs")
        assert m.state.switch_window is None and m.state.active_dl == 0

    def test_unconfigured_first_active_ul_rejected(self):
        """The DL id is configured; only the UL id is not."""
        m = machine(adaptation_cell())
        assert rejection(lambda: m.on_rrc_reconfig(at(5), 1, 4)) == (
            "InvalidTarget", "first-active UL BWP #4 not configured")
        assert m.state.switch_window is None and (m.state.active_dl, m.state.active_ul) == (0, 0)


class TestDciSwitch:
    def test_ul_grant_on_a_dl_only_cell_rejected(self):
        """Rejected as such, before the UL indicator (of no width) is read."""
        m = machine(dl_only_cell())
        assert rejection(lambda: m.on_dci(at(4), b.DciEvent(b.DciFormat.FMT_0_1, "01"))) == (
            "NoUplinkConfigured", "UL grant on a DL-only cell")
        assert m.state.switch_window is None

    def test_fdd_dl_assignment_switches_dl_only(self):
        m = machine(centered_cell())
        m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_1, "01"))
        assert m.state.switch_window.end_ms == at(3)
        tick_until(m, at(2), at(3))
        assert (m.state.active_dl, m.state.active_ul) == (1, 0)

    def test_fdd_ul_grant_switches_ul_only(self):
        m = machine(centered_cell())
        m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_0_1, "01"))
        tick_until(m, at(2), at(3))
        assert (m.state.active_dl, m.state.active_ul) == (0, 1)

    def test_tdd_switches_the_pair(self):
        m = machine(centered_cell(duplex=b.Duplex.TDD))
        m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_0_1, "10"))
        tick_until(m, at(2), at(3))
        assert (m.state.active_dl, m.state.active_ul) == (2, 2)

    def test_fallback_never_switches(self):
        m = machine(centered_cell())
        recs = m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_0))
        assert m.state.switch_window is None
        assert (m.state.active_dl, m.state.active_ul) == (0, 0)
        # active #0 is off-default here, so the DL assignment arms the timer
        assert kinds(recs) == ["TimerStart"]

    def test_fallback_ul_grant_no_restart_on_fdd(self):
        m = machine(centered_cell())
        assert m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_0_0)) == []
        assert m.state.timer_expires_at is None

    def test_fallback_ul_grant_restarts_on_tdd(self):
        m = machine(centered_cell(duplex=b.Duplex.TDD))
        recs = m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_0_0))
        assert kinds(recs) == ["TimerStart"]

    def test_dci_inside_window_rejected(self):
        m = machine(centered_cell())
        m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_1, "01"))
        with pytest.raises(EventRejection) as exc:
            m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_1, "10"))
        assert exc.value.reason == "DciDuringSwitchWindow"

    def test_nonfallback_blocked_on_option1_initial(self):
        m = machine(adaptation_cell())
        with pytest.raises(EventRejection) as exc:
            m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_1, "01"))
        assert exc.value.reason == "NonFallbackOnOption1Initial"

    @pytest.mark.parametrize("dedicated_first", [True, False])
    def test_nonfallback_on_bwp0_follows_its_first_entry(self, dedicated_first):
        """With DL BWP #0 listed twice, once with dedicated parameters and
        once without, the first entry decides whether non-fallback DCI runs
        on it, as it decides the width in the RunStart record. The config is
        invalid (DUPLICATE-ID), so only a direct caller meets it."""
        cfg = centered_cell()
        option2, option1 = cfg.dl_bwps[0], make_bwp(0, 30, 40, dedicated=False)
        first, second = (option2, option1) if dedicated_first else (option1, option2)
        cfg = dataclasses.replace(cfg, dl_bwps=(first, *cfg.dl_bwps[1:], second))
        m = CellStateMachine("cell", cfg, b.UeCapability(max_rrc_bwps=4))
        assert m.start_record().fields["dl_rbs"] == first.geometry.n_rbs
        dci = b.DciEvent(b.DciFormat.FMT_1_1, "01")
        if dedicated_first:
            assert kinds(m.on_dci(at(2), dci)) == ["WindowOpen", "TimerStart"]
        else:
            assert rejection(lambda: m.on_dci(at(2), dci)) == (
                "NonFallbackOnOption1Initial", "BWP #0 without dedicated parameters only supports fallback DCI")

    def test_codec_errors_surface_as_rejections(self):
        m = machine(centered_cell())
        with pytest.raises(EventRejection) as exc:
            m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_1, "11"))
        assert exc.value.reason == "InvalidCodepoint"
        with pytest.raises(EventRejection) as exc:
            m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_1, "0"))
        assert exc.value.reason == "LengthMismatch"

    def test_same_target_is_scheduling_not_switching(self):
        m = machine(centered_cell())
        recs = m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_1, "00"))
        assert m.state.switch_window is None
        assert kinds(recs) == ["TimerStart"]

    def test_decoded_target_must_be_configured(self):
        cfg = centered_cell()
        bwps = (cfg.dl_bwps[0], cfg.dl_bwps[1], make_bwp(3, 24, 52))
        cfg = dataclasses.replace(cfg, dl_bwps=bwps, ul_bwps=bwps, default_dl_bwp=None,
                                  first_active_dl=None, first_active_ul=None)
        m = machine(cfg)
        with pytest.raises(EventRejection) as exc:
            m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_1, "10"))  # decodes to absent #2
        assert exc.value.reason == "TargetNotConfigured"


    def test_the_width_counts_the_bwps_other_than_the_initial_one(self):
        """Ids 0, 2 and 3 are two BWPs besides #0: the 2-bit field has no
        codepoint 11, and 10 names #2."""
        cfg = centered_cell()
        bwps = (cfg.dl_bwps[0], make_bwp(2, 0, 100), make_bwp(3, 24, 52))
        cfg = dataclasses.replace(cfg, dl_bwps=bwps, ul_bwps=bwps, default_dl_bwp=None,
                                  first_active_dl=None, first_active_ul=None)
        m = machine(cfg)
        assert rejection(lambda: m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_1, "11")))[0] == "InvalidCodepoint"
        m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_1, "10"))
        tick_until(m, at(2), at(3))
        assert m.state.active_dl == 2

    def test_each_direction_decodes_with_its_own_width(self):
        """Three DL BWPs take a 2-bit indicator, two UL BWPs a 1-bit one."""
        cfg = centered_cell()
        cfg = dataclasses.replace(cfg, ul_bwps=cfg.ul_bwps[:2])
        m = machine(cfg)
        m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_0_1, "1"))
        tick_until(m, at(2), at(3))
        m.on_dci(at(4), b.DciEvent(b.DciFormat.FMT_1_1, "10"))
        tick_until(m, at(4), at(5))
        assert (m.state.active_dl, m.state.active_ul) == (2, 1)
        with pytest.raises(EventRejection) as exc:
            m.on_dci(at(6), b.DciEvent(b.DciFormat.FMT_0_1, "01"))
        assert exc.value.reason == "LengthMismatch"

    def test_240_khz_switch_is_rejected_after_a_smaller_pair_was_accepted(self):
        """60 -> 120 kHz is accepted with the 60 kHz delay; 60 -> 240 kHz
        shares the smaller SCS but is rejected, every time it is tried."""
        cfg = spread_cell(fr=b.FrequencyRange.FR2, mus=(2, 3, 4), widths=(1, 1, 1), duplex=b.Duplex.FDD,
                          role=b.CellRole.PCELL, default_dl=None, timer_ms=None, prach_on=frozenset({0}),
                          first_active=None, rrc_delay_ms=10, initial_dedicated=True)
        cap = b.UeCapability(max_rrc_bwps=4, mixed_numerology_bwps=True)
        assert not b.validate(cfg, cap).has_errors
        m = CellStateMachine("cell", cfg, cap)
        m.on_dci(at(1), b.DciEvent(b.DciFormat.FMT_1_1, "01"))  # 60 -> 120 kHz: 3 slots of 60 kHz
        assert m.state.switch_window.end_ms == at(F(7, 4))
        tick_until(m, at(1), at(2))
        m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_1, "00"))  # 120 -> 60 kHz: the same pair
        assert m.state.switch_window.end_ms == at(F(11, 4))
        tick_until(m, at(2), at(3))
        assert m.state.active_dl == 0
        for t in (3, 4):
            with pytest.raises(EventRejection) as exc:
                m.on_dci(at(t), b.DciEvent(b.DciFormat.FMT_1_1, "10"))  # 60 -> 240 kHz
            assert (exc.value.reason, exc.value.detail) == (
                "UnsupportedScs", "no switch delay requirement for 240 kHz")
        assert m.state.switch_window is None and m.state.active_dl == 0


# arming times on the tick grid and 1/8 ... 7/8 ms off it
ARM_OFFSETS = [F(k, 8) for k in range(8)]


def countdown_expiry(armed_at: F, value_ms: int, tick: F) -> F:
    """The tick at which a timer armed at `armed_at` reaches zero, counted
    down by one tick at each tick boundary a whole tick or more after arming."""
    remaining = F(value_ms)
    t = armed_at // tick * tick
    while remaining > 0:
        t += tick
        if t - armed_at >= tick:
            remaining -= tick
    return t


class TestTimer:
    @pytest.mark.parametrize("offset", ARM_OFFSETS, ids=str)
    def test_fr1_two_ms_expires_after_two_ticks(self, offset):
        m = machine(centered_cell(timer_ms=2))
        armed_at = 5 + offset
        m.on_dci(at(armed_at), b.DciEvent(b.DciFormat.FMT_1_0))  # arms the timer
        expected = countdown_expiry(armed_at, 2, F(1))
        assert expected == (7 if offset == 0 else 8)
        assert m.state.timer_expires_at == at(expected)
        recs = tick_until(m, at(armed_at), at(expected))
        assert [(r.record, r.at_ms) for r in recs] == [("TimerExpiry", expected), ("WindowOpen", expected)]
        assert recs[1].fields["target_dl"] == 2

    @pytest.mark.parametrize("offset", ARM_OFFSETS, ids=str)
    def test_fr2_two_ms_expires_after_four_half_ticks(self, offset):
        m = machine(centered_cell(fr=b.FrequencyRange.FR2, mu=3, timer_ms=2))
        armed_at = 5 + offset
        m.on_dci(at(armed_at), b.DciEvent(b.DciFormat.FMT_1_0))
        expected = countdown_expiry(armed_at, 2, F(1, 2))
        assert offset != 0 or expected == 7
        assert m.state.timer_expires_at == at(expected)
        recs = tick_until(m, at(armed_at), at(expected + 2))
        expiries = [r for r in recs if r.record == "TimerExpiry"]
        assert len(expiries) == 1 and expiries[0].at_ms == expected  # 4 ticks of 0.5 ms

    def test_expiry_commits_to_default(self):
        m = machine(centered_cell(timer_ms=2))
        m.on_dci(at(5), b.DciEvent(b.DciFormat.FMT_1_0))
        tick_until(m, at(5), at(10))
        assert m.state.active_dl == 2
        assert m.state.timer_expires_at is None  # never runs on the default

    def test_timer_never_runs_on_default(self):
        m = machine(centered_cell(timer_ms=20, default_dl=0))
        recs = m.on_dci(at(5), b.DciEvent(b.DciFormat.FMT_1_0))
        assert recs == [] and m.state.timer_expires_at is None

    def test_switch_to_default_clears_timer(self):
        m = machine(centered_cell(timer_ms=20))
        m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_1, "01"))  # to #1, timer armed
        tick_until(m, at(2), at(3))
        assert m.state.timer_expires_at is not None
        m.on_dci(at(5), b.DciEvent(b.DciFormat.FMT_1_1, "10"))  # to default #2
        tick_until(m, at(5), at(6))
        assert m.state.active_dl == 2
        assert m.state.timer_expires_at is None

    def test_partial_first_period_does_not_decrement(self):
        # commit at 20.75 arms the timer; the tick at 21 covers only a
        # quarter subframe, so the whole periods end at 22 and 23 (22 would
        # mean the quarter period was counted)
        m = machine(centered_cell(mu=2, timer_ms=2, rrc_delay_ms=10))
        m.on_rrc_reconfig(at(10), 1, 1)
        recs = tick_until(m, at(10), at(21))
        starts = [r for r in recs if r.record == "TimerStart"]
        assert starts[0].at_ms == F(83, 4)  # 10 + 10 + 0.75
        assert m.state.timer_expires_at == at(23)

    def test_expiry_during_window_is_deferred_to_commit(self):
        m = machine(centered_cell(mu=1, timer_ms=2), delay_type=T2)  # 5 slots = 2.5 ms
        m.on_dci(at(10), b.DciEvent(b.DciFormat.FMT_1_1, "01"))
        assert m.state.timer_expires_at == at(12)  # armed at reception
        recs = tick_until(m, at(10), at(13))
        labels = [(r.record, r.at_ms) for r in recs]
        assert ("TimerExpiry", F(12)) in labels
        assert ("WindowClose", F(25, 2)) in labels
        # the deferred expiry opens its window right at the commit
        opens = [r for r in recs if r.record == "WindowOpen"]
        assert opens[0].at_ms == F(25, 2)
        assert opens[0].fields["cause"] == "TimerExpiry"
        tick_until(m, at(13), at(16))
        assert m.state.active_dl == 2

    def test_sub_tick_commit_is_stamped_exactly(self):
        m = machine(centered_cell(mu=2))  # 60 kHz type 1: 3 slots = 0.75 ms
        m.on_dci(at(10), b.DciEvent(b.DciFormat.FMT_1_1, "01"))
        recs = tick_until(m, at(10), at(11))
        closes = [r for r in recs if r.record == "WindowClose"]
        changes = [r for r in recs if r.record == "StateChange"]
        assert closes[0].at_ms == F(43, 4)  # 10.75 exactly
        assert changes[0].at_ms == F(43, 4)


class TestRach:
    def _at(self, m, dl, ul):
        m.state.active_dl = dl
        m.state.active_ul = ul

    def test_spcell_fdd_aligns_dl_with_ul(self):
        m = machine(centered_cell())
        self._at(m, 2, 2)
        recs = m.on_rach_start(at(4))
        assert recs[0].fields == {"end_ms": "5", "target_dl": 0, "target_ul": 0,
                                  "cause": "RachInitiated"}
        tick_until(m, at(4), at(5))
        assert (m.state.active_dl, m.state.active_ul) == (0, 0)
        assert m.state.rach_in_progress

    def test_scell_fdd_leaves_dl_alone(self):
        cfg = centered_cell(role=b.CellRole.SCELL)
        m = machine(cfg)
        self._at(m, 2, 2)
        recs = m.on_rach_start(at(4))
        assert recs[0].fields["target_dl"] is None
        assert recs[0].fields["target_ul"] == 0
        tick_until(m, at(4), at(5))
        assert (m.state.active_dl, m.state.active_ul) == (2, 0)

    def test_tdd_pair_moves_together(self):
        m = machine(centered_cell(duplex=b.Duplex.TDD))
        self._at(m, 2, 2)
        m.on_rach_start(at(4))
        tick_until(m, at(4), at(5))
        assert (m.state.active_dl, m.state.active_ul) == (0, 0)

    def test_prach_on_active_ul_means_no_switch(self):
        m = machine(centered_cell(prach_on=frozenset({0, 1, 2})))
        self._at(m, 2, 2)
        m.state.timer_expires_at = at(13)
        recs = m.on_rach_start(at(4))
        assert recs == []
        assert m.state.timer_expires_at is None  # cleared regardless
        assert m.state.rach_in_progress

    def test_spcell_aligns_even_without_ul_switch(self):
        m = machine(centered_cell(prach_on=frozenset({0, 1, 2})))
        self._at(m, 1, 2)
        recs = m.on_rach_start(at(4))
        assert recs[0].fields["target_dl"] == 2
        assert recs[0].fields["target_ul"] is None

    def test_timer_frozen_throughout_rach(self):
        m = machine(centered_cell(timer_ms=2))
        m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_0))
        m.on_rach_start(at(4))
        recs = tick_until(m, at(4), at(30))
        assert all(r.record != "TimerExpiry" for r in recs)
        assert m.state.timer_expires_at is None

    def test_complete_rearms_timer_off_default(self):
        m = machine(centered_cell(timer_ms=20, prach_on=frozenset({0, 1, 2})))
        self._at(m, 1, 1)
        m.on_rach_start(at(4))
        recs = m.on_rach_complete(at(8))
        assert kinds(recs) == ["TimerStart"]
        assert m.state.timer_expires_at == at(28)

    def test_complete_on_default_leaves_timer_absent(self):
        m = machine(centered_cell(timer_ms=20, prach_on=frozenset({0, 1, 2}), default_dl=0))
        m.on_rach_start(at(4))
        assert m.on_rach_complete(at(8)) == []
        assert m.state.timer_expires_at is None

    def test_complete_without_start_rejected(self):
        m = machine(centered_cell())
        with pytest.raises(EventRejection) as exc:
            m.on_rach_complete(at(8))
        assert exc.value.reason == "NotInRach"

    def test_spcell_rach_without_a_dl_bwp_to_align_with_rejected(self):
        """An FDD PCell on UL BWP #3, which has PRACH but no DL BWP #3:
        the DL cannot follow the UL."""
        base = centered_cell(prach_on=frozenset({0, 3}))
        m = machine(dataclasses.replace(base, ul_bwps=(*base.ul_bwps, make_bwp(3, 30, 40))))
        m.on_rrc_reconfig(at(5), 1, 3)
        tick_until(m, at(5), at(20))
        assert (m.state.active_dl, m.state.active_ul, m.state.switch_window) == (1, 3, None)
        assert rejection(lambda: m.on_rach_start(at(20))) == (
            "InvalidTarget", "no DL BWP #3 to align with the UL BWP")
        assert not m.state.rach_in_progress

    def test_unsupported_scs_rejects_before_touching_state(self):
        """An FDD PCell on DL #0 at 240 kHz and UL #1 at 120 kHz: RACH start
        would align DL with UL #1, a switch from 240 kHz, so it is rejected
        and random access never starts, nor is the timer cleared."""
        cfg = spread_cell(fr=b.FrequencyRange.FR2, mus=(4, 3), widths=(1, 1), duplex=b.Duplex.FDD,
                          role=b.CellRole.PCELL, default_dl=None, timer_ms=None, prach_on=frozenset({0, 1}),
                          first_active=None, rrc_delay_ms=10, initial_dedicated=True)
        cfg = dataclasses.replace(cfg, ul_bwps=spread_bwps(b.FrequencyRange.FR2, (3, 3), (1, 1), True))
        cap = b.UeCapability(max_rrc_bwps=4, mixed_numerology_bwps=True)
        assert not b.validate(cfg, cap).has_errors
        m = CellStateMachine("cell", cfg, cap)
        m.on_dci(at(1), b.DciEvent(b.DciFormat.FMT_0_1, "1"))  # UL 120 -> 120 kHz: 6 slots
        tick_until(m, at(1), at(2))
        assert (m.state.active_dl, m.state.active_ul, m.state.switch_window) == (0, 1, None)
        m.state.timer_expires_at = at(13)
        assert rejection(lambda: m.on_rach_start(at(2))) == (
            "UnsupportedScs", "no switch delay requirement for 240 kHz")
        assert (m.state.rach_in_progress, m.state.timer_expires_at, m.state.switch_window) == (
            False, at(13), None)
        assert rejection(lambda: m.on_rach_complete(at(3))) == (
            "NotInRach", "no random-access procedure in progress")

    def test_no_uplink_no_rach(self):
        cfg = dataclasses.replace(centered_cell(role=b.CellRole.SCELL, first_active=1),
                                  ul_bwps=(), first_active_ul=None,
                                  prach_configured_on=frozenset())
        m = machine(cfg)
        with pytest.raises(EventRejection) as exc:
            m.on_rach_start(at(4))
        assert exc.value.reason == "NoUplinkConfigured"


class TestTddWithoutUplink:
    """A TDD cell without UL BWPs has nothing to pair: it switches DL alone."""

    def test_rrc_with_only_a_dl_target(self):
        m = machine(dl_only_cell(duplex=b.Duplex.TDD))
        recs = m.on_rrc_reconfig(at(5), 1)
        assert (recs[0].fields["target_dl"], recs[0].fields["target_ul"]) == (1, None)
        tick_until(m, at(5), at(16))
        assert (m.state.active_dl, m.state.active_ul) == (1, None)

    def test_dl_dci_switch(self):
        m = machine(dl_only_cell(duplex=b.Duplex.TDD))
        recs = m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_1, "01"))
        assert kinds(recs) == ["WindowOpen", "TimerStart"]
        assert (recs[0].fields["target_dl"], recs[0].fields["target_ul"]) == (1, None)
        tick_until(m, at(2), at(3))
        assert (m.state.active_dl, m.state.active_ul) == (1, None)

    def test_timer_expiry(self):
        m = machine(dl_only_cell(duplex=b.Duplex.TDD, timer_ms=2))
        m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_1, "01"))
        recs = tick_until(m, at(2), at(6))
        assert kinds(recs) == ["WindowClose", "StateChange", "TimerExpiry", "WindowOpen", "WindowClose",
                               "StateChange"]
        assert (recs[3].fields["target_dl"], recs[3].fields["target_ul"]) == (2, None)
        assert (m.state.active_dl, m.state.active_ul) == (2, None)


class TestDataService:
    def test_data_served_carries_active_width(self):
        m = machine(centered_cell())
        recs = m.on_data(at(2), b.Direction.DL_ASSIGNMENT)
        assert recs[0].fields == {"direction": "dl", "n_rbs": 24}

    def test_ul_data_carries_the_active_ul_width(self):
        # UL #0 is 12 RBs of 15 kHz, DL #0 24 RBs
        cfg = adaptation_cell()
        cfg = dataclasses.replace(cfg, ul_bwps=(make_bwp(0, 0, 12, dedicated=False), *cfg.ul_bwps[1:]))
        m = machine(cfg)
        recs = m.on_data(at(2), b.Direction.UL_GRANT)
        assert recs[0].fields == {"direction": "ul", "n_rbs": 12}

    def test_data_rejected_inside_window(self):
        m = machine(centered_cell())
        m.on_dci(at(2), b.DciEvent(b.DciFormat.FMT_1_1, "01"))
        with pytest.raises(EventRejection) as exc:
            m.on_data(at(2), b.Direction.DL_ASSIGNMENT)
        assert exc.value.reason == "DataDuringSwitchWindow"

    def test_ul_data_on_a_dl_only_cell_rejected(self):
        m = machine(dl_only_cell())
        assert rejection(lambda: m.on_data(at(2), b.Direction.UL_GRANT)) == (
            "NoUplinkConfigured", "UL data on a DL-only cell")
        assert m.on_data(at(2), b.Direction.DL_ASSIGNMENT)[0].fields == {"direction": "dl", "n_rbs": 24}


_ops = st.one_of(
    st.just(("tick",)),
    st.tuples(
        st.just("dci"),
        st.sampled_from(list(b.DciFormat)),
        st.sampled_from(["0", "1", "00", "01", "10", "11"]),
    ),
    st.tuples(st.just("rrc"), st.sampled_from([None, 0, 1, 2])),
    st.just(("rach_start",)),
    st.just(("rach_complete",)),
    st.tuples(st.just("data"), st.sampled_from(list(b.Direction))),
)


@settings(max_examples=150, deadline=None)
@given(
    duplex=st.sampled_from([b.Duplex.FDD, b.Duplex.TDD]),
    fr_mu=st.sampled_from(
        [
            (b.FrequencyRange.FR1, 0),
            (b.FrequencyRange.FR1, 1),
            (b.FrequencyRange.FR1, 2),
            (b.FrequencyRange.FR2, 3),
        ]
    ),
    timer_ms=st.sampled_from([None, 2, 5, 20]),
    default_dl=st.sampled_from([None, 0, 2]),
    prach=st.sampled_from([frozenset({0}), frozenset({0, 1, 2})]),
    delay_type=st.sampled_from([T1, T2]),
    ops=st.lists(_ops, max_size=40),
)
def test_random_op_sequences_hold_invariants(duplex, fr_mu, timer_ms, default_dl,
                                             prach, delay_type, ops):
    """No event sequence, accepted or rejected, can break the state shape."""
    fr, mu = fr_mu
    cfg = centered_cell(duplex=duplex, fr=fr, mu=mu, timer_ms=timer_ms,
                        default_dl=default_dl, prach_on=prach)
    m = CellStateMachine("c", cfg, b.UeCapability(max_rrc_bwps=4,
                                                  switch_delay_type=delay_type))
    now = 0
    for op in ops:
        try:
            if op[0] == "tick":
                now += m.tick
                m.on_tick(now)
            elif op[0] == "dci":
                _, fmt, bits = op
                m.on_dci(now, b.DciEvent(fmt, None if fmt.is_fallback else bits))
            elif op[0] == "rrc":
                m.on_rrc_reconfig(now, op[1], op[1])
            elif op[0] == "rach_start":
                m.on_rach_start(now)
            elif op[0] == "rach_complete":
                m.on_rach_complete(now)
            else:
                m.on_data(now, op[1])
        except EventRejection:
            pass
        assert_machine_invariants(m, now)
