"""Acceptance suite: one test per criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion. All clock comparisons are exact rational equality; no
floating-point tolerances anywhere.
"""

import dataclasses
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import bwpsim as b
from bwpsim.config import effective_default_dl
from bwpsim.dci import InvalidCodepoint, Unaddressable
from bwpsim.fsm import CellStateMachine, EventRejection
from support import (
    adaptation_scenario,
    assert_machine_invariants,
    at,
    centered_cell,
    random_scenario,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CAP4 = b.UeCapability(max_rrc_bwps=4)

# SCS kHz -> (mu, FR, type1 ms, type2 ms), straight from the switch-delay requirement table
DELAY_REQ_MS = {
    15: (0, b.FrequencyRange.FR1, F(1), F(3)),
    30: (1, b.FrequencyRange.FR1, F(1), F(5, 2)),
    60: (2, b.FrequencyRange.FR1, F(3, 4), F(9, 4)),
    120: (3, b.FrequencyRange.FR2, F(3, 4), F(9, 4)),
}
DELAY_REQ_SLOTS = {15: (1, 3), 30: (2, 5), 60: (3, 9), 120: (6, 18)}


def test_criterion_01_switch_delay_commit_times():
    """DCI switches commit at exactly the tabulated delay, for all 8 pairs."""
    started = time.perf_counter()
    for scs, (mu, fr, ms_t1, ms_t2) in DELAY_REQ_MS.items():
        for delay_type, expected in ((b.DelayType.TYPE1, ms_t1), (b.DelayType.TYPE2, ms_t2)):
            cfg = centered_cell(fr=fr, mu=mu, timer_ms=None)
            cap = b.UeCapability(max_rrc_bwps=4, switch_delay_type=delay_type)
            scn = b.Scenario(
                cells={"c": cfg},
                capability=cap,
                events=[b.SimEvent(F(2), "c", b.EventKind.DCI,
                                   dci=b.DciEvent(b.DciFormat.FMT_1_1, "01"))],
                horizon_ms=F(10),
            )
            trace, _ = b.run(scn)
            changes = [r for r in trace if r.record == "StateChange"]
            assert len(changes) == 1, (scs, delay_type)
            assert changes[0].at_ms == F(2) + expected, (scs, delay_type)
            closes = [r for r in trace if r.record == "WindowClose"]
            assert closes[0].at_ms == F(2) + expected, (scs, delay_type)
    assert time.perf_counter() - started < 1.0


def test_criterion_02_smaller_scs_rule():
    """All 12 ordered unequal SCS pairs use the smaller SCS's table row."""
    checked = 0
    for scs_from in DELAY_REQ_SLOTS:
        for scs_to in DELAY_REQ_SLOTS:
            if scs_from == scs_to:
                continue
            governing = min(scs_from, scs_to)
            mu = DELAY_REQ_MS[governing][0]
            for i, delay_type in enumerate((b.DelayType.TYPE1, b.DelayType.TYPE2)):
                slots = DELAY_REQ_SLOTS[governing][i]
                assert b.switch_delay_khz(scs_from, scs_to, delay_type) == (slots, slots * F(1, 2**mu))
            checked += 1
    assert checked == 12


def test_criterion_03_indicator_codec():
    """Exhaustive round-trip of the indicator field; reserved points error."""
    table = {
        0: {"": 0},
        1: {"0": 0, "1": 1},
        2: {"00": 0, "01": 1, "10": 2},
        3: {"00": 0, "01": 1, "10": 2, "11": 3},
        4: {"00": 1, "01": 2, "10": 3, "11": 4},
    }
    cases = 0
    for n, mapping in table.items():
        ctx = b.IndicatorContext(n)
        for bits, bwp_id in mapping.items():
            assert b.decode_indicator(bits, ctx) == bwp_id
            assert b.encode_indicator(bwp_id, ctx) == bits
            assert b.decode_indicator(b.encode_indicator(bwp_id, ctx), ctx) == bwp_id
            cases += 1
    assert cases == 14  # comfortably within the 20-case bound
    with pytest.raises(InvalidCodepoint):
        b.decode_indicator("11", b.IndicatorContext(2))
    with pytest.raises(Unaddressable):
        b.encode_indicator(0, b.IndicatorContext(4))


def test_criterion_04_adaptation_golden_trace(tmp_path):
    """The paired-spectrum adaptation scenario reproduces its golden trace."""
    from bwpsim.cli import main

    trace_out = tmp_path / "trace.jsonl"
    rc = main(["run", str(FIXTURES / "adaptation_fdd_scenario.json"), "--trace", str(trace_out),
               "--metrics", str(tmp_path / "m.json")])
    assert rc == 0
    assert trace_out.read_bytes() == (FIXTURES / "adaptation_fdd_trace.golden.jsonl").read_bytes()

    trace, _ = b.run(adaptation_scenario())
    seq = [
        (r.fields["old_dl"], r.fields["new_dl"], r.fields["new_ul"],
         r.fields["new_dl_rbs"], r.fields["cause"])
        for r in trace
        if r.record == "StateChange"
    ]
    assert seq == [
        (0, 1, 1, 270, "RrcReconfig"),   # wide first-active pair comes up
        (1, 2, 1, 52, "TimerExpiry"),    # DL drops to default, UL stays on #1
    ]


def test_criterion_05_counting_rule():
    """Option 1 fits ids 0..4, Option 2 fits 0..3; one extra -> one error."""

    def dl_only_cell(n_ids: int, initial_dedicated: bool) -> b.CellConfig:
        from support import make_bwp

        cfg = centered_cell(widths=(24,), timer_ms=None, default_dl=None,
                            first_active=None, initial_dedicated=initial_dedicated)
        bwps = tuple(
            make_bwp(i, 0, 100, dedicated=(i != 0 or initial_dedicated))
            for i in range(n_ids)
        )
        bwps = (dataclasses.replace(bwps[0], common=cfg.dl_bwps[0].common),) + bwps[1:]
        return dataclasses.replace(cfg, dl_bwps=bwps, ul_bwps=(cfg.ul_bwps[0],))

    # Option 1: #0 has no dedicated part, so 1..4 are the four configured
    opt1_full = dl_only_cell(5, initial_dedicated=False)
    assert "BWP-COUNT" not in b.validate(opt1_full, CAP4).codes()
    # Option 2: #0 counts, so 0..3 is the full house
    opt2_full = dl_only_cell(4, initial_dedicated=True)
    assert "BWP-COUNT" not in b.validate(opt2_full, CAP4).codes()

    opt2_over = dl_only_cell(5, initial_dedicated=True)
    codes = b.validate(opt2_over, CAP4).codes()
    assert codes.count("BWP-COUNT") == 1
    opt1_over = dl_only_cell(6, initial_dedicated=False)
    codes = b.validate(opt1_over, CAP4).codes()
    assert codes.count("BWP-COUNT") == 1  # the id-range finding is separate


def _random_machine(rng: random.Random) -> CellStateMachine:
    fr, mu = rng.choice(
        [(b.FrequencyRange.FR1, 0), (b.FrequencyRange.FR1, 1),
         (b.FrequencyRange.FR1, 2), (b.FrequencyRange.FR2, 3)]
    )
    cfg = centered_cell(
        duplex=rng.choice([b.Duplex.FDD, b.Duplex.TDD]),
        fr=fr,
        mu=mu,
        timer_ms=rng.choice([2, 5, 20]),
        default_dl=rng.choice([None, 0, 2]),
        prach_on=rng.choice([frozenset({0}), frozenset({0, 1, 2})]),
        first_active=rng.choice([None, 1, 2]),
    )
    cap = b.UeCapability(max_rrc_bwps=4, switch_delay_type=rng.choice(list(b.DelayType)))
    return CellStateMachine("c", cfg, cap)


def _walk_machine(rng: random.Random, steps: int = 25):
    m = _random_machine(rng)
    now = 0
    tick = m.tick
    records = []
    for _ in range(steps):
        roll = rng.random()
        try:
            if roll < 0.45:
                now += tick
                recs = m.on_tick(now)
                if m.state.rach_in_progress:
                    assert not any(r.record == "TimerExpiry" for r in recs)
            elif roll < 0.60:
                fmt = rng.choice(list(b.DciFormat))
                bits = None if fmt.is_fallback else rng.choice(["0", "1", "00", "01", "10", "11"])
                recs = m.on_dci(now, b.DciEvent(fmt, bits))
            elif roll < 0.70:
                target = rng.choice([None, 0, 1, 2])
                recs = m.on_rrc_reconfig(now, target, target)
            elif roll < 0.80:
                recs = m.on_rach_start(now)
            elif roll < 0.90:
                recs = m.on_rach_complete(now)
            else:
                recs = m.on_data(now, rng.choice(list(b.Direction)))
        except EventRejection:
            recs = []
        records.extend(recs)
        assert_machine_invariants(m, now)
    return m, records


def test_criterion_06_timer_properties():
    """Range enforcement, RACH interlock, expiry target, FR2 granularity."""
    # configured range is a validation rule
    for value, ok in ((2, True), (2560, True), (1, False), (2561, False), (3000, False)):
        cfg = centered_cell(timer_ms=value)
        assert ("TIMER-RANGE" not in b.validate(cfg, CAP4).codes()) == ok

    # 1000 randomized event sequences against the machine invariants
    rng = random.Random(0xBEEF)
    for _ in range(1000):
        m, records = _walk_machine(rng)
        default = effective_default_dl(m.cfg)
        for rec in records:
            # every expiry-driven switch targets and lands on the default
            if rec.record == "WindowOpen" and rec.fields["cause"] == "TimerExpiry":
                assert rec.fields["target_dl"] == default
            if rec.record == "StateChange" and rec.fields["cause"] == "TimerExpiry":
                assert rec.fields["new_dl"] == default

    # FR2 decrements half-subframes: a 2 ms timer expires after exactly 4 ticks
    m = CellStateMachine(
        "c", centered_cell(fr=b.FrequencyRange.FR2, mu=3, timer_ms=2), CAP4
    )
    m.on_dci(at(5), b.DciEvent(b.DciFormat.FMT_1_0))  # arms at 5
    expiry_times = []
    now = at(5)
    for _ in range(8):
        now += at(F(1, 2))
        expiry_times += [r.at_ms for r in m.on_tick(now) if r.record == "TimerExpiry"]
    assert expiry_times == [F(7)]  # 5 + 4 * 0.5


def _window_intervals(trace, cell):
    out = []
    open_rec = None
    for r in trace:
        if r.cell != cell:
            continue
        if r.record == "WindowOpen":
            open_rec = r
        elif r.record == "WindowClose" and open_rec is not None:
            out.append((open_rec.at_ms, r.at_ms, open_rec.fields["cause"]))
            open_rec = None
    if open_rec is not None:
        out.append((open_rec.at_ms, None, open_rec.fields["cause"]))
    return out


def test_criterion_07_invariant_suite():
    """Randomized scenarios: single active BWP, TDD linkage, window rules."""
    rng = random.Random(0xC0FFEE)
    runs = 0
    while runs < 300:
        scn = random_scenario(rng)
        cfg = scn.cells["cell"]
        trace, metrics = b.run(scn)
        runs += 1

        times = [r.at_ms for r in trace]
        assert times == sorted(times)

        fallback_times = {
            ev.at_ms for ev in scn.events
            if ev.kind is b.EventKind.DCI and ev.dci.is_fallback
        }
        nonfallback_times = {
            ev.at_ms for ev in scn.events
            if ev.kind is b.EventKind.DCI and not ev.dci.is_fallback
        }
        spec_t1 = {0: F(1), 1: F(1), 2: F(3, 4), 3: F(3, 4)}
        spec_t2 = {0: F(3), 1: F(5, 2), 2: F(9, 4), 3: F(9, 4)}
        mu = cfg.dl_bwps[0].geometry.numerology.mu
        expected_switch = (
            spec_t1[mu] if scn.capability.switch_delay_type is b.DelayType.TYPE1 else spec_t2[mu]
        )

        windows = _window_intervals(trace, "cell")
        for start, end, cause in windows:
            if end is None:
                continue  # still open at the horizon
            if cause in ("RrcReconfig", "FirstActiveOnScellActivation"):
                assert end - start == cfg.rrc_processing_delay_ms + expected_switch
            else:
                assert end - start == expected_switch  # the tabulated delay requirement, exactly
        closed = [(s, e) for s, e, _ in windows if e is not None]
        open_ended = [(s, e) for s, e, _ in windows if e is None]

        for r in trace:
            if r.record == "DataServed":
                for s, e in closed:
                    assert not (s <= r.at_ms < e)
                for s, _ in open_ended:
                    assert r.at_ms < s
            if r.record == "StateChange":
                assert r.fields["new_dl"] in {x.id for x in cfg.dl_bwps}
                if cfg.duplex is b.Duplex.TDD:
                    assert r.fields["new_dl"] == r.fields["new_ul"]
                if r.fields["cause"] == "TimerExpiry":
                    assert r.fields["new_dl"] == effective_default_dl(cfg)
                if r.fields["cause"] == "Dci":
                    assert r.at_ms - expected_switch in nonfallback_times
            if r.record == "WindowOpen" and r.fields["cause"] == "Dci":
                assert r.at_ms not in (fallback_times - nonfallback_times)
        assert b.replay_metrics(trace) == metrics
        cm = metrics.cells["cell"]
        min_width = min(bwp.geometry.n_rbs for bwp in cfg.dl_bwps)
        assert cm.bandwidth_time_proxy_rb_ms >= min_width * metrics.total_time_ms
        assert 0 <= cm.time_on_default_ms <= metrics.total_time_ms


def test_criterion_08_adaptation_direction():
    """Narrow default + timer strictly reduces the bandwidth-time proxy."""
    from support import adaptation_cell

    def scenario(timer_ms):
        # 270-RB first-active #1, 52-RB default #2
        cfg = dataclasses.replace(adaptation_cell(), inactivity_timer_ms=timer_ms)
        events = [b.SimEvent(F(10), "c", b.EventKind.RRC_RECONFIG,
                             first_active_dl=1, first_active_ul=1)]
        for t in range(25, 125, 10):  # 100 ms burst, then 500 ms idle
            events.append(b.SimEvent(F(t), "c", b.EventKind.DCI,
                                     dci=b.DciEvent(b.DciFormat.FMT_1_0)))
            events.append(b.SimEvent(F(t), "c", b.EventKind.DATA_DL_ASSIGNMENT))
        return b.Scenario(cells={"c": cfg}, capability=CAP4, events=events,
                          horizon_ms=F(650))

    trace_with, _ = b.run(scenario(20))
    trace_without, _ = b.run(scenario(None))
    proxy_with = b.replay_metrics(trace_with).cells["c"].bandwidth_time_proxy_rb_ms
    proxy_without = b.replay_metrics(trace_without).cells["c"].bandwidth_time_proxy_rb_ms
    assert proxy_with < proxy_without


def test_criterion_09_rach_switching():
    """RACH lands the UL (and where required, the DL) on BWP #0."""
    # SpCell, unpaired spectrum, PRACH only on #0, active pair #2/#2
    cfg = centered_cell(duplex=b.Duplex.TDD, mu=1, timer_ms=None)
    events = [
        b.SimEvent(F(2), "c", b.EventKind.DCI, dci=b.DciEvent(b.DciFormat.FMT_0_1, "10")),
        b.SimEvent(F(10), "c", b.EventKind.RACH_START),
    ]
    scn = b.Scenario(cells={"c": cfg}, capability=CAP4, events=events, horizon_ms=F(20))
    trace, _ = b.run(scn)
    changes = [(r.fields["new_dl"], r.fields["new_ul"], r.fields["cause"])
               for r in trace if r.record == "StateChange"]
    assert changes == [(2, 2, "Dci"), (0, 0, "RachInitiated")]

    # SCell, paired spectrum: only the UL falls back, DL stays put
    scfg = centered_cell(role=b.CellRole.SCELL, first_active=2, timer_ms=None)
    events = [
        b.SimEvent(F(2), "s", b.EventKind.SCELL_ACTIVATE),
        b.SimEvent(F(20), "s", b.EventKind.RACH_START),
    ]
    scn = b.Scenario(cells={"s": scfg}, capability=CAP4, events=events, horizon_ms=F(30))
    trace, _ = b.run(scn)
    changes = [(r.fields["new_dl"], r.fields["new_ul"], r.fields["cause"])
               for r in trace if r.record == "StateChange"]
    assert changes == [
        (2, 2, "FirstActiveOnScellActivation"),
        (2, 0, "RachInitiated"),  # DL untouched
    ]
