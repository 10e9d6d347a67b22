"""Shared cell/scenario builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import bwpsim as b

# Channel bandwidth that comfortably fits a 100-RB grid per numerology.
MU_CHANNEL_MHZ = {0: 20.0, 1: 40.0, 2: 100.0, 3: 200.0}
POINT_A = {b.FrequencyRange.FR1: 3_400_000_000, b.FrequencyRange.FR2: 27_000_000_000}


def make_bwp(i: int, start: int, n: int, mu: int = 0, dedicated: bool = True) -> b.BwpConfig:
    return b.BwpConfig(
        i,
        b.BwpCommon(b.BwpGeometry(start, n, b.Numerology(mu))),
        b.BwpDedicated() if dedicated else None,
    )


def adaptation_cell() -> b.CellConfig:
    """FDD PCell: 24-RB initial BWPs, wide #1 (270 RB), narrow default #2 (52 RB)."""
    mu0 = b.Numerology(0)
    point_a = POINT_A[b.FrequencyRange.FR1]
    rb = mu0.rb_width_hz
    bwps = (
        make_bwp(0, 0, 24, dedicated=False),
        make_bwp(1, 0, 270),
        make_bwp(2, 0, 52),
    )
    return b.CellConfig(
        cell_role=b.CellRole.PCELL,
        duplex=b.Duplex.FDD,
        fr=b.FrequencyRange.FR1,
        point_a_hz=point_a,
        channel_bandwidth_mhz=50.0,
        coreset0_span=b.HzSpan(point_a, point_a + 24 * rb),
        ssb_span=b.HzSpan(point_a, point_a + 20 * rb),
        dl_bwps=bwps,
        ul_bwps=bwps,
        first_active_dl=1,
        first_active_ul=1,
        default_dl_bwp=2,
        inactivity_timer_ms=20,
        rrc_processing_delay_ms=10,
    )


def adaptation_events() -> list[b.SimEvent]:
    return [
        b.SimEvent(Fraction(20), "pcell", b.EventKind.RRC_RECONFIG, first_active_dl=1, first_active_ul=1),
        b.SimEvent(Fraction(33), "pcell", b.EventKind.DCI, dci=b.DciEvent(b.DciFormat.FMT_1_1, "01")),
        b.SimEvent(Fraction(34), "pcell", b.EventKind.DATA_DL_ASSIGNMENT),
        b.SimEvent(Fraction(35), "pcell", b.EventKind.DATA_DL_ASSIGNMENT),
    ]


def adaptation_scenario() -> b.Scenario:
    return b.Scenario(
        cells={"pcell": adaptation_cell()},
        capability=b.UeCapability(max_rrc_bwps=4),
        events=adaptation_events(),
        horizon_ms=Fraction(80),
    )


def centered_cell(
    *,
    duplex: b.Duplex = b.Duplex.FDD,
    fr: b.FrequencyRange = b.FrequencyRange.FR1,
    mu: int = 0,
    widths: tuple[int, ...] = (24, 100, 52),
    role: b.CellRole = b.CellRole.PCELL,
    default_dl: int | None = 2,
    timer_ms: int | None = 20,
    prach_on: frozenset[int] = frozenset({0}),
    first_active: int | None = 1,
    rrc_delay_ms: int = 10,
    initial_dedicated: bool = True,
) -> b.CellConfig:
    """Cell whose BWPs (id i = widths[i] RBs) all share one center frequency.

    The shared center makes the same geometry tree usable for FDD and TDD.
    A 20-RB SSB/CORESET block sits at RBs 40..60, inside every BWP.
    """
    numerology = b.Numerology(mu)
    point_a = POINT_A[fr]
    rb = numerology.rb_width_hz
    bwps = tuple(
        make_bwp(i, (100 - w) // 2, w, mu=mu, dedicated=(i != 0 or initial_dedicated))
        for i, w in enumerate(widths)
    )
    return b.CellConfig(
        cell_role=role,
        duplex=duplex,
        fr=fr,
        point_a_hz=point_a,
        channel_bandwidth_mhz=MU_CHANNEL_MHZ[mu],
        coreset0_span=b.HzSpan(point_a + 40 * rb, point_a + 60 * rb),
        ssb_span=b.HzSpan(point_a + 40 * rb, point_a + 60 * rb),
        dl_bwps=bwps,
        ul_bwps=bwps,
        first_active_dl=first_active,
        first_active_ul=first_active,
        default_dl_bwp=default_dl,
        inactivity_timer_ms=timer_ms,
        rrc_processing_delay_ms=rrc_delay_ms,
        prach_configured_on=prach_on,
    )


def assert_machine_invariants(m, now) -> None:
    """Structural invariants that must hold in every reachable state.

    `now` is the time of the last handled tick or event; a running timer
    is never overdue there.
    """
    from bwpsim.config import effective_default_dl

    st = m.state
    assert m.cfg.has_dl_bwp(st.active_dl)
    assert (st.active_ul is None) == (not m.cfg.has_uplink)
    if st.active_ul is not None:
        assert m.cfg.has_ul_bwp(st.active_ul)
    if st.rach_in_progress:
        assert st.timer_expires_at is None
    if st.timer_expires_at is not None:
        assert st.timer_expires_at > now
        assert m.cfg.inactivity_timer_ms is not None
        assert st.active_dl != effective_default_dl(m.cfg)
    if m.cfg.duplex is b.Duplex.TDD and m.cfg.has_uplink and st.switch_window is None:
        assert st.active_dl == st.active_ul


def random_scenario(rng: random.Random, *, horizon_ms: int = 50) -> b.Scenario:
    """One random valid cell plus a random event script.

    Event payloads may still be rejected at runtime (DCI during a window,
    stray RACH completions, bad indicator lengths); that is intentional,
    rejections are part of the behavior under test.
    """
    fr, mu = rng.choice(
        [
            (b.FrequencyRange.FR1, 0),
            (b.FrequencyRange.FR1, 1),
            (b.FrequencyRange.FR1, 2),
            (b.FrequencyRange.FR2, 3),
        ]
    )
    duplex = rng.choice([b.Duplex.FDD, b.Duplex.TDD])
    cfg = centered_cell(
        duplex=duplex,
        fr=fr,
        mu=mu,
        role=b.CellRole.PCELL,
        default_dl=rng.choice([None, 0, 2]),
        timer_ms=rng.choice([None, 2, 5, 20]),
        prach_on=rng.choice([frozenset({0}), frozenset({0, 1, 2})]),
        first_active=rng.choice([None, 1, 2]),
        rrc_delay_ms=rng.choice([5, 10]),
    )
    tick = cfg.tick_ms
    max_k = int(Fraction(horizon_ms) / tick)
    events: list[b.SimEvent] = []
    for _ in range(rng.randint(0, 10)):
        at = tick * rng.randint(0, max_k)
        kind = rng.choice(list(b.EventKind))
        ev: b.SimEvent
        if kind is b.EventKind.DCI:
            fmt = rng.choice(list(b.DciFormat))
            bits = None if fmt.is_fallback else rng.choice(["", "0", "1", "00", "01", "10", "11"])
            ev = b.SimEvent(at, "cell", kind, dci=b.DciEvent(fmt, bits or None))
        elif kind is b.EventKind.RRC_RECONFIG:
            target = rng.choice([None, 0, 1, 2])
            ev = b.SimEvent(at, "cell", kind, first_active_dl=target, first_active_ul=target)
        else:
            ev = b.SimEvent(at, "cell", kind)
        events.append(ev)
    capability = b.UeCapability(
        max_rrc_bwps=4, switch_delay_type=rng.choice(list(b.DelayType))
    )
    return b.Scenario(
        cells={"cell": cfg},
        capability=capability,
        events=events,
        horizon_ms=Fraction(horizon_ms),
    )
