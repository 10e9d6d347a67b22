"""Metamorphic relations of `run()`: how the output of one run fixes the
output of a related run, over the random scenario generators.

These pin relations that no single golden trace can: cells run
independently of each other, a run is the same shifted in time, and a
longer horizon adds records only after the old one. They catch few
mutants on their own and do not replace the reference models in
`tick_oracle` and `metrics_oracle`.
"""

import random
from fractions import Fraction as F

import pytest

import bwpsim as b
from support import random_asymmetric_scenario, random_multicell_scenario, random_scenario
from bwpsim.trace import RUN_START, eighths_str, to_units

GENERATORS = [random_scenario, random_multicell_scenario, random_asymmetric_scenario]
SEEDS = range(150)
SHIFT_MS = 2  # a whole tick of both grids, 1 ms FR1 and 0.5 ms FR2


def scenarios(make):
    return ((seed, make(random.Random(seed))) for seed in SEEDS)


@pytest.mark.parametrize("make", GENERATORS)
def test_each_cell_runs_as_it_would_alone(make):
    """A cell run alone, with only its events, makes the records and
    metrics that are its share of the full run."""
    for seed, scn in scenarios(make):
        trace, metrics = b.run(scn)
        for cid, cfg in scn.cells.items():
            alone = scn._replace(cells={cid: cfg}, events=[ev for ev in scn.events if ev.cell == cid])
            own_trace, own_metrics = b.run(alone)
            assert own_trace == [r for r in trace if r.cell == cid], (seed, cid)
            assert own_metrics.cells == {cid: metrics.cells[cid]}, (seed, cid)


def shifted(rec, ms):
    """`rec` `ms` later: its time and a window's `end_ms`."""
    fields = dict(rec.fields)
    if "end_ms" in fields:
        fields["end_ms"] = eighths_str(to_units(F(fields["end_ms"]) + ms))
    return b.TraceRecord(rec.at_ms + ms, rec.cell, rec.record, fields)


@pytest.mark.parametrize("make", GENERATORS)
def test_a_run_shifted_in_time_shifts_its_records(make):
    """Every event and the horizon 2 ms later move every record but
    `RunStart` 2 ms later, a window's end included."""
    for seed, scn in scenarios(make):
        trace, _ = b.run(scn)
        later = scn._replace(events=[ev._replace(at_ms=ev.at_ms + SHIFT_MS) for ev in scn.events],
                             horizon_ms=scn.horizon_ms + SHIFT_MS)
        expected = [r if r.record == RUN_START else shifted(r, SHIFT_MS) for r in trace]
        assert b.run(later)[0] == expected, seed


@pytest.mark.parametrize("make", GENERATORS)
@pytest.mark.parametrize("extra_ms", [F(1, 2), F(7), F(33)])
def test_a_longer_horizon_keeps_the_records_before_the_old_one(make, extra_ms):
    """Records before the old horizon are the same, in the same order,
    however far the horizon moves out."""
    for seed, scn in scenarios(make):
        trace, _ = b.run(scn)
        longer, _ = b.run(scn._replace(horizon_ms=scn.horizon_ms + extra_ms))
        before = scn.horizon_ms
        assert [r for r in longer if r.at_ms < before] == [r for r in trace if r.at_ms < before], seed
