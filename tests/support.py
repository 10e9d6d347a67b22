"""Shared cell/scenario builders for the test suite."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import bwpsim as b
from bwpsim.trace import to_units

# Python's limit on the digits of an int parsed from a string, 3.10.7 and later
HAS_DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")


def at(ms: Fraction | int) -> int:
    """A time or duration in ms in a machine's unit, whole eighths of a ms."""
    return to_units(Fraction(ms))


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


def assert_machine_invariants(m, cfg, now) -> None:
    """Structural invariants that must hold in every reachable state of
    machine `m`, built from config `cfg`.

    `now` is the time of the last handled tick or event; a running timer
    is never overdue there.
    """
    from bwpsim.config import effective_default_dl

    st = m.state
    assert st.active_dl in {x.id for x in cfg.dl_bwps}
    assert (st.active_ul is None) == (not cfg.has_uplink)
    if st.active_ul is not None:
        assert st.active_ul in {x.id for x in cfg.ul_bwps}
    if st.rach_in_progress:
        assert st.timer_expires_at is None
    if st.timer_expires_at is not None:
        assert st.timer_expires_at > now
        assert cfg.inactivity_timer_ms is not None
        assert st.active_dl != effective_default_dl(cfg)
    if cfg.duplex is b.Duplex.TDD and cfg.has_uplink and st.switch_window is None:
        assert st.active_dl == st.active_ul


def random_event(rng: random.Random, at: Fraction, cell: str, cfg: b.CellConfig) -> b.SimEvent:
    """One event of a random kind on `cell`; RRC targets any DL BWP id or none."""
    kind = rng.choice(list(b.EventKind))
    if kind is b.EventKind.DCI:
        fmt = rng.choice(list(b.DciFormat))
        bits = None if fmt.is_fallback else rng.choice(["", "0", "1", "00", "01", "10", "11"])
        return b.SimEvent(at, cell, kind, dci=b.DciEvent(fmt, bits or None))
    if kind is b.EventKind.RRC_RECONFIG:
        target = rng.choice([None, *(bwp.id for bwp in cfg.dl_bwps)])
        return b.SimEvent(at, cell, kind, first_active_dl=target, first_active_ul=target)
    return b.SimEvent(at, cell, kind)


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
    events = [
        random_event(rng, tick * rng.randint(0, max_k), "cell", cfg)
        for _ in range(rng.randint(0, 10))
    ]
    capability = b.UeCapability(
        max_rrc_bwps=4, switch_delay_type=rng.choice(list(b.DelayType))
    )
    return b.Scenario(
        cells={"cell": cfg},
        capability=capability,
        events=events,
        horizon_ms=Fraction(horizon_ms),
    )


# Per frequency range: the numerologies a BWP may take (240 kHz only on FR2)
# and the channel bandwidth that fits every BWP `spread_cell` builds.
SPREAD_MUS = {b.FrequencyRange.FR1: (0, 1, 2), b.FrequencyRange.FR2: (2, 3, 4)}
SPREAD_CHANNEL_MHZ = {b.FrequencyRange.FR1: 100.0, b.FrequencyRange.FR2: 400.0}


def spread_cell(
    *,
    fr: b.FrequencyRange,
    mus: tuple[int, ...],
    widths: tuple[int, ...],
    duplex: b.Duplex,
    role: b.CellRole,
    default_dl: int | None,
    timer_ms: int | None,
    prach_on: frozenset[int],
    first_active: int | None,
    rrc_delay_ms: int,
    initial_dedicated: bool,
) -> b.CellConfig:
    """Cell whose BWP i has numerology mus[i] and widths[i] times the SSB block.

    All BWPs and the SSB/CORESET #0 block share one center 70 RBs of the
    largest SCS of `fr` above Point A. The block is 40 RBs of the
    smallest numerology wide, so a BWP of k blocks has k * 40 RBs at that
    numerology, halving per step of mu; the widths stay even, so every
    start RB is whole.
    """
    low_mu, high_mu = SPREAD_MUS[fr][0], SPREAD_MUS[fr][-1]
    point_a = POINT_A[fr]
    center = 70 * b.Numerology(high_mu).rb_width_hz
    half_block = 20 * b.Numerology(low_mu).rb_width_hz
    bwps = spread_bwps(fr, mus, widths, initial_dedicated)
    block = b.HzSpan(point_a + center - half_block, point_a + center + half_block)
    return b.CellConfig(
        cell_role=role,
        duplex=duplex,
        fr=fr,
        point_a_hz=point_a,
        channel_bandwidth_mhz=SPREAD_CHANNEL_MHZ[fr],
        coreset0_span=block,
        ssb_span=block,
        dl_bwps=tuple(bwps),
        ul_bwps=tuple(bwps),
        first_active_dl=first_active,
        first_active_ul=first_active,
        default_dl_bwp=default_dl,
        inactivity_timer_ms=timer_ms,
        rrc_processing_delay_ms=rrc_delay_ms,
        prach_configured_on=prach_on,
    )


def spread_bwps(
    fr: b.FrequencyRange, mus: tuple[int, ...], widths: tuple[int, ...], initial_dedicated: bool
) -> tuple[b.BwpConfig, ...]:
    """The BWPs of `spread_cell`, ids 0, 1, ... in order."""
    low_mu, high_mu = SPREAD_MUS[fr][0], SPREAD_MUS[fr][-1]
    center = 70 * b.Numerology(high_mu).rb_width_hz
    bwps = []
    for i, (mu, k) in enumerate(zip(mus, widths)):
        n = k * 40 >> (mu - low_mu)
        start = center // b.Numerology(mu).rb_width_hz - n // 2
        bwps.append(make_bwp(i, start, n, mu=mu, dedicated=(i != 0 or initial_dedicated)))
    return tuple(bwps)


def random_multicell_scenario(rng: random.Random) -> b.Scenario:
    """A PCell plus up to three SCells with a random, valid event script.

    FR1 and FR2 cells mix, so the 1 ms and 0.5 ms tick grids interleave;
    about half the cells mix numerologies across their BWPs, 240 kHz
    included on FR2; four horizons in five lie off the tick grid; and
    about half the events share a whole-ms time with other events, on any
    cell. Cell ids are not in sorted order, so document order shows.
    """
    names = [f"c{k}" for k in rng.sample(range(10), rng.randint(1, 4))]
    cells: dict[str, b.CellConfig] = {}
    mixed_any = False
    for pos, name in enumerate(names):
        fr = rng.choice(list(SPREAD_MUS))
        n_bwps = rng.randint(2, 4)
        if rng.random() < 0.5:
            mus = tuple(rng.choice(SPREAD_MUS[fr]) for _ in range(n_bwps))
        else:
            mus = (rng.choice(SPREAD_MUS[fr][:2]),) * n_bwps
        mixed_any |= len(set(mus)) > 1
        ids = list(range(n_bwps))
        role = b.CellRole.PCELL if pos == 0 else b.CellRole.SCELL
        cells[name] = spread_cell(
            fr=fr,
            mus=mus,
            widths=tuple(rng.choice((1, 2, 3, 6)) for _ in ids),
            duplex=rng.choice([b.Duplex.FDD, b.Duplex.TDD]),
            role=role,
            default_dl=rng.choice([None, *ids]),
            timer_ms=rng.choice([None, 2, 5, 20]),
            prach_on=rng.choice([frozenset({0}), frozenset(ids)]),
            first_active=rng.choice(ids[1:] if role is b.CellRole.SCELL else [None, *ids]),
            rrc_delay_ms=rng.choice([5, 10]),
            initial_dedicated=rng.random() < 0.5,
        )
    base = rng.choice([10, 30, 60])
    horizon = base + rng.choice([Fraction(k, 40) for k in (0, 5, 10, 12, 24)])
    shared = [Fraction(rng.randint(0, base)) for _ in range(3)]
    events: list[b.SimEvent] = []
    for _ in range(rng.randint(0, 16)):
        cell = rng.choice(names)
        tick = cells[cell].tick_ms
        at = rng.choice(shared) if rng.random() < 0.5 else tick * rng.randint(0, int(base / tick))
        events.append(random_event(rng, at, cell, cells[cell]))
    capability = b.UeCapability(
        max_rrc_bwps=4,
        mixed_numerology_bwps=mixed_any,
        switch_delay_type=rng.choice(list(b.DelayType)),
    )
    return b.Scenario(cells=cells, capability=capability, events=events, horizon_ms=horizon)


def _numerologies(rng: random.Random, fr: b.FrequencyRange, n: int) -> tuple[int, ...]:
    """Mixed numerologies half the time, else one of the two smallest of `fr`."""
    if rng.random() < 0.5:
        return tuple(rng.choice(SPREAD_MUS[fr]) for _ in range(n))
    return (rng.choice(SPREAD_MUS[fr][:2]),) * n


def _some_extended_cp(rng: random.Random, bwps: tuple[b.BwpConfig, ...]) -> tuple[b.BwpConfig, ...]:
    """`bwps` with about half of the 60 kHz ones switched to extended CP."""
    out = []
    for bwp in bwps:
        if bwp.geometry.numerology.mu == 2 and rng.random() < 0.5:
            geometry = bwp.geometry._replace(cyclic_prefix=b.CyclicPrefix.EXTENDED)
            bwp = bwp._replace(common=bwp.common._replace(geometry=geometry))
        out.append(bwp)
    return tuple(out)


def random_asymmetric_scenario(rng: random.Random) -> b.Scenario:
    """A multicell scenario of the cell shapes `random_multicell_scenario`
    never draws, all valid.

    About a third of the cells are DL-only, FDD or TDD, with no PRACH
    occasions; about a third are FDD cells whose UL BWPs are a subset of
    the DL ids, #0 included, with numerologies and widths of their own;
    the rest pair their DL and UL BWPs as `spread_cell` builds them. Cells
    after the first are SCells or PSCells, and about half of the 60 kHz
    BWPs use extended CP. RRC events name a DL target, a UL target, both
    or neither, so DL-only cells see RRC switches they accept.
    """
    names = [f"c{k}" for k in rng.sample(range(10), rng.randint(1, 4))]
    cells: dict[str, b.CellConfig] = {}
    mixed_any = False
    for pos, name in enumerate(names):
        fr = rng.choice(list(SPREAD_MUS))
        n_bwps = rng.randint(2, 4)
        ids = list(range(n_bwps))
        role = b.CellRole.PCELL if pos == 0 else rng.choice([b.CellRole.SCELL, b.CellRole.PSCELL])
        shape = rng.choice(["dl-only", "own-ul", "paired"])
        cfg = spread_cell(
            fr=fr,
            mus=_numerologies(rng, fr, n_bwps),
            widths=tuple(rng.choice((1, 2, 3, 6)) for _ in ids),
            duplex=b.Duplex.FDD if shape == "own-ul" else rng.choice([b.Duplex.FDD, b.Duplex.TDD]),
            role=role,
            default_dl=rng.choice([None, *ids]),
            timer_ms=rng.choice([None, 2, 5, 20]),
            prach_on=rng.choice([frozenset({0}), frozenset(ids)]),
            first_active=rng.choice(ids[1:] if role is b.CellRole.SCELL else [None, *ids]),
            rrc_delay_ms=rng.choice([5, 10]),
            initial_dedicated=rng.random() < 0.5,
        )
        if shape == "dl-only":
            cfg = cfg._replace(ul_bwps=(), first_active_ul=None, prach_configured_on=frozenset())
        elif shape == "own-ul":
            ul_ids = [0, *sorted(rng.sample(ids[1:], rng.randint(0, n_bwps - 1)))]
            ul_bwps = spread_bwps(
                fr,
                _numerologies(rng, fr, n_bwps),
                tuple(rng.choice((1, 2, 3, 6)) for _ in ids),
                rng.random() < 0.5,
            )
            cfg = cfg._replace(
                ul_bwps=tuple(bwp for bwp in ul_bwps if bwp.id in ul_ids),
                first_active_ul=rng.choice([None, *ul_ids]),
                prach_configured_on=frozenset(rng.sample(ul_ids, rng.randint(1, len(ul_ids)))),
            )
        cfg = cfg._replace(dl_bwps=_some_extended_cp(rng, cfg.dl_bwps), ul_bwps=_some_extended_cp(rng, cfg.ul_bwps))
        mixed_any |= len({bwp.geometry.numerology for bwp in (*cfg.dl_bwps, *cfg.ul_bwps)}) > 1
        cells[name] = cfg
    base = rng.choice([10, 30, 60])
    horizon = base + rng.choice([Fraction(k, 40) for k in (0, 5, 10, 12, 24)])
    shared = [Fraction(rng.randint(0, base)) for _ in range(3)]
    events: list[b.SimEvent] = []
    for _ in range(rng.randint(0, 16)):
        cell = rng.choice(names)
        cfg = cells[cell]
        at = rng.choice(shared) if rng.random() < 0.5 else cfg.tick_ms * rng.randint(0, int(base / cfg.tick_ms))
        ev = random_event(rng, at, cell, cfg)
        if ev.kind is b.EventKind.RRC_RECONFIG:
            ul = rng.choice([ev.first_active_dl, None, *(bwp.id for bwp in cfg.ul_bwps)])
            ev = ev._replace(first_active_ul=ul)
        events.append(ev)
    capability = b.UeCapability(
        max_rrc_bwps=4,
        mixed_numerology_bwps=mixed_any,
        switch_delay_type=rng.choice(list(b.DelayType)),
    )
    return b.Scenario(cells=cells, capability=capability, events=events, horizon_ms=horizon)
