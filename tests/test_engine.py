"""Engine runs: determinism, trace structure, metrics, error paths."""

import collections
import cProfile
import enum
import io
import json
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

import bwpsim as b
from support import (
    HAS_DIGIT_LIMIT,
    adaptation_cell,
    adaptation_scenario,
    centered_cell,
    random_asymmetric_scenario,
    random_event,
    random_multicell_scenario,
    random_scenario,
)
from metrics_oracle import mixed_denominator_trace, reference_metrics
from tick_oracle import tick_run
from bwpsim import fsm
from bwpsim.fsm import CellStateMachine
from bwpsim import trace as trace_module
from bwpsim.scenario import scenario_from_obj
from bwpsim.trace import RUN_END, RUN_START, STATE_CHANGE, _exact_time, to_units

CAP4 = b.UeCapability(max_rrc_bwps=4)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NEEDS_DIGIT_LIMIT = pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="this Python has no int digit limit")


def written(trace):
    buf = io.StringIO()
    b.write_trace(trace, buf)
    return buf.getvalue()


def state_changes(trace):
    return [r for r in trace if r.record == STATE_CHANGE]


class TestAdaptationRun:
    def test_state_change_sequence(self):
        trace, _ = b.run(adaptation_scenario())
        seq = [
            (r.at_ms, r.fields["old_dl"], r.fields["new_dl"], r.fields["new_ul"], r.fields["cause"])
            for r in state_changes(trace)
        ]
        # wide #1 activates on reconfiguration; expiry drops DL to #2 and
        # leaves UL on #1 because the spectrum is paired
        assert seq == [
            (F(31), 0, 1, 1, "RrcReconfig"),
            (F(54), 1, 2, 1, "TimerExpiry"),
        ]

    def test_hand_computed_metrics(self):
        _, metrics = b.run(adaptation_scenario())
        cm = metrics.cells["pcell"]
        # 24 RB * 31 ms + 270 RB * 23 ms + 52 RB * 26 ms = 8306 RB*ms
        assert cm.bandwidth_time_proxy_rb_ms == 8306
        assert cm.time_on_default_ms == 26
        assert cm.switch_count_by_cause["RrcReconfig"] == 1
        assert cm.switch_count_by_cause["TimerExpiry"] == 1
        assert cm.rejected_event_count == 0
        assert metrics.total_time_ms == 80

    def test_determinism_byte_identical(self):
        t1, m1 = b.run(adaptation_scenario())
        t2, m2 = b.run(adaptation_scenario())
        assert [r.to_json() for r in t1] == [r.to_json() for r in t2]
        assert m1 == m2

    def test_replay_equals_run(self):
        trace, metrics = b.run(adaptation_scenario())
        assert b.replay_metrics(trace) == metrics

    def test_replay_survives_serialization(self):
        trace, metrics = b.run(adaptation_scenario())
        buf = io.StringIO()
        b.write_trace(trace, buf)
        parsed = b.read_trace(buf.getvalue().splitlines())
        assert b.replay_metrics(parsed) == metrics


def test_quiescent_run_has_no_state_changes():
    scn = adaptation_scenario()
    scn.events = []
    trace, metrics = b.run(scn)
    assert state_changes(trace) == []
    assert [r.record for r in trace] == [RUN_START, RUN_END]
    assert metrics.cells["pcell"].bandwidth_time_proxy_rb_ms == 24 * 80


def test_trace_timestamps_nondecreasing_across_cells():
    # one FR1 cell with sub-tick commits, one FR2 cell, interleaved events
    cell_a = centered_cell(mu=2)  # 60 kHz: 0.75 ms windows on FR1 ticks
    cell_b = centered_cell(fr=b.FrequencyRange.FR2, mu=3)
    events = [
        b.SimEvent(F(2), "a", b.EventKind.DCI, dci=b.DciEvent(b.DciFormat.FMT_1_1, "01")),
        b.SimEvent(F(5, 2), "b", b.EventKind.DCI, dci=b.DciEvent(b.DciFormat.FMT_1_1, "01")),
        b.SimEvent(F(6), "a", b.EventKind.RACH_START),
        b.SimEvent(F(8), "b", b.EventKind.RACH_START),
    ]
    scn = b.Scenario(cells={"a": cell_a, "b": cell_b}, capability=CAP4,
                     events=events, horizon_ms=F(20))
    trace, metrics = b.run(scn)
    times = [r.at_ms for r in trace]
    assert times == sorted(times)
    assert set(metrics.cells) == {"a", "b"}
    assert b.replay_metrics(trace) == metrics


def test_synthetic_trace_proxy_oracle():
    # 100 ms on 270 RBs then 100 ms on 52 RBs: 270*100 + 52*100 = 32200
    trace = [
        b.TraceRecord(F(0), "c", RUN_START,
                      {"active_dl": 1, "active_ul": None, "dl_rbs": 270, "default_dl": 2}),
        b.TraceRecord(F(100), "c", STATE_CHANGE,
                      {"old_dl": 1, "old_ul": None, "new_dl": 2, "new_ul": None,
                       "cause": "TimerExpiry", "new_dl_rbs": 52}),
        b.TraceRecord(F(200), "c", RUN_END, {}),
    ]
    metrics = b.replay_metrics(trace)
    cm = metrics.cells["c"]
    assert cm.bandwidth_time_proxy_rb_ms == 32200
    assert cm.time_on_default_ms == 100
    assert cm.switch_count_by_cause["TimerExpiry"] == 1


@pytest.mark.parametrize("at_ms", [0.1, Decimal("2.5"), True], ids=["float", "decimal", "bool"])
def test_metrics_refuse_a_time_that_is_not_an_int_or_fraction(at_ms):
    """As the trace writer does, rather than write a float's binary expansion."""
    exact = b.CellMetrics({}, 0, F(1, 2), 3)
    inexact = [("total_time_ms", b.RunMetrics(at_ms, {})), ("total_time_ms", b.RunMetrics(at_ms, {"c": exact}))]
    for name in ("bandwidth_time_proxy_rb_ms", "time_on_default_ms"):
        inexact.append((name, b.RunMetrics(F(4), {"c": exact._replace(**{name: at_ms})})))
    for name, metrics in inexact:
        message = re.escape(f"{name} at {at_ms!r} ms: a time must be an int or Fraction")
        with pytest.raises(ValueError, match=f"^{message}$"):
            metrics.to_obj()
    assert b.RunMetrics(F(4), {"c": exact}).to_obj() == {"total_time_ms": "4", "cells": {"c": {
        "switch_count_by_cause": {}, "rejected_event_count": 0,
        "bandwidth_time_proxy_rb_ms": "0.5", "time_on_default_ms": "3"}}}


class TestScenarioErrors:
    def test_misaligned_event_fr1(self):
        scn = adaptation_scenario()
        scn.events = [b.SimEvent(F(3, 10), "pcell", b.EventKind.RACH_START)]
        with pytest.raises(b.EventMisaligned):
            b.run(scn)

    def test_misaligned_event_fr2(self):
        cfg = centered_cell(fr=b.FrequencyRange.FR2, mu=3)
        scn = b.Scenario(cells={"c": cfg}, capability=CAP4,
                         events=[b.SimEvent(F(9, 4), "c", b.EventKind.RACH_START)],
                         horizon_ms=F(10))
        with pytest.raises(b.EventMisaligned):
            b.run(scn)

    def test_half_ms_is_fine_on_fr2(self):
        cfg = centered_cell(fr=b.FrequencyRange.FR2, mu=3)
        scn = b.Scenario(cells={"c": cfg}, capability=CAP4,
                         events=[b.SimEvent(F(5, 2), "c", b.EventKind.RACH_START)],
                         horizon_ms=F(10))
        b.run(scn)

    def test_invalid_config_carries_report(self):
        cfg = adaptation_cell()._replace(inactivity_timer_ms=9999)
        scn = b.Scenario(cells={"pcell": cfg}, capability=CAP4, events=[], horizon_ms=F(10))
        with pytest.raises(b.ScenarioInvalid) as exc:
            b.run(scn)
        assert "TIMER-RANGE" in exc.value.reports["pcell"].codes()

    def test_unknown_cell(self):
        scn = adaptation_scenario()
        scn.events = [b.SimEvent(F(1), "nope", b.EventKind.RACH_START)]
        with pytest.raises(b.ScenarioInvalid):
            b.run(scn)

    def test_event_beyond_horizon(self):
        scn = adaptation_scenario()
        scn.events = [b.SimEvent(F(500), "pcell", b.EventKind.RACH_START)]
        with pytest.raises(b.ScenarioInvalid):
            b.run(scn)

    @pytest.mark.parametrize(
        "horizon, at, error",
        [
            (F(603, 10), F(6031, 100), b.ScenarioInvalid),
            (F(603, 10), F(603, 10), b.EventMisaligned),
            (F(10**302 + 1, 10**300), F(10**302 + 1, 10**300), b.EventMisaligned),
            (F(1, 10), F(0), None),
            (F(1, 10), F(1, 10), b.EventMisaligned),
            (F(1, 10), F(11, 100), b.ScenarioInvalid),
        ],
        ids=["just-after-60.3", "at-60.3", "at-denominator-1e300",
             "at-0-before-0.1", "at-0.1", "just-after-0.1"],
    )
    def test_event_near_an_off_grid_horizon(self, horizon, at, error):
        # an event at the horizon is inside the run and off every tick grid,
        # one past it is outside the run, though both round down to the
        # run's last eighth; a run shorter than one eighth still delivers 0
        scn = adaptation_scenario()
        scn.horizon_ms = horizon
        scn.events = [b.SimEvent(at, "pcell", b.EventKind.RACH_START)]
        if error is None:
            scn.events.append(b.SimEvent(at, "pcell", b.EventKind.DATA_DL_ASSIGNMENT))
            trace, metrics = b.run(scn)
            assert [(r.at_ms, r.record) for r in trace] == [
                (0, RUN_START), (0, "DataServed"), (horizon, RUN_END)]
            assert b.replay_metrics(trace) == metrics and metrics.total_time_ms == horizon
            return
        with pytest.raises(b.ScenarioInvalid) as exc:
            b.run(scn)
        assert type(exc.value) is error

    def test_horizon_must_be_decimal(self, monkeypatch):
        # a trace or metrics at 121/3 ms could not be written, so the run is
        # refused before any tick; a decimal horizon off the ms grid runs
        scn = adaptation_scenario()
        scn.horizon_ms = F(121, 3)
        count_ticks(monkeypatch, limit=0)
        with pytest.raises(b.ScenarioInvalid, match="121/3"):
            b.run(scn)
        monkeypatch.undo()
        scn.horizon_ms = F(161, 2)
        trace, metrics = b.run(scn)
        text = written(trace)
        assert b.replay_metrics(b.read_trace(text.splitlines())) == metrics
        assert trace[-1].to_obj()["at_ms"] == metrics.to_obj()["total_time_ms"] == "80.5"

    def test_missing_horizon(self):
        scn = adaptation_scenario()
        scn.horizon_ms = None
        with pytest.raises(b.ScenarioInvalid):
            b.run(scn)

    def test_dci_event_requires_payload(self):
        with pytest.raises(ValueError):
            b.SimEvent(F(1), "pcell", b.EventKind.DCI)

    def test_negative_horizon(self):
        scn = adaptation_scenario()
        scn.events, scn.horizon_ms = [], F(-1, 10)
        with pytest.raises(b.ScenarioInvalid, match="^horizon must be >= 0 ms$"):
            b.run(scn)

    @pytest.mark.parametrize(
        "horizon, at, what",
        [
            (100.1, F(2), "horizon at 100.1 ms"),
            (True, F(0), "horizon at True ms"),
            (F(80), 2.0, "event for cell 'pcell' at 2.0 ms"),
            (F(80), True, "event for cell 'pcell' at True ms"),
        ],
        ids=["float-horizon", "bool-horizon", "float-event", "bool-event"],
    )
    def test_times_must_be_int_or_fraction(self, horizon, at, what):
        # times the trace writer refuses: a float horizon of 100.1 would be
        # written as its binary expansion, an event at 2.0 would fail inside
        # the run, and True would run as 1 ms
        scn = adaptation_scenario()
        scn.horizon_ms, scn.events = horizon, [b.SimEvent(at, "pcell", b.EventKind.RACH_START)]
        with pytest.raises(b.ScenarioInvalid, match=f"^{re.escape(what)}: a time must be an int or Fraction$"):
            b.run(scn)


def test_rejected_events_are_traced_and_counted():
    cfg = centered_cell()
    events = [
        b.SimEvent(F(5), "c", b.EventKind.DCI, dci=b.DciEvent(b.DciFormat.FMT_1_1, "01")),
        b.SimEvent(F(5), "c", b.EventKind.DCI, dci=b.DciEvent(b.DciFormat.FMT_1_1, "10")),
        b.SimEvent(F(5), "c", b.EventKind.DATA_DL_ASSIGNMENT),
        b.SimEvent(F(20), "c", b.EventKind.RACH_COMPLETE),
    ]
    scn = b.Scenario(cells={"c": cfg}, capability=CAP4, events=events, horizon_ms=F(30))
    trace, metrics = b.run(scn)
    rejected = [r for r in trace if r.record == "EventRejected"]
    reasons = {(r.fields["event_kind"], r.fields["reason"]) for r in rejected}
    assert ("Dci", "DciDuringSwitchWindow") in reasons
    assert ("DataDlAssignment", "DataDuringSwitchWindow") in reasons
    assert ("RachComplete", "NotInRach") in reasons
    assert metrics.cells["c"].rejected_event_count == 3


def _burst_idle_scenario(timer_ms):
    cfg = adaptation_cell()._replace(inactivity_timer_ms=timer_ms)
    events = [b.SimEvent(F(10), "pcell", b.EventKind.RRC_RECONFIG,
                         first_active_dl=1, first_active_ul=1)]
    # 100 ms burst of scheduling on the wide BWP, then 500 ms of silence
    for t in range(25, 125, 10):
        events.append(b.SimEvent(F(t), "pcell", b.EventKind.DCI,
                                 dci=b.DciEvent(b.DciFormat.FMT_1_0)))
        events.append(b.SimEvent(F(t), "pcell", b.EventKind.DATA_DL_ASSIGNMENT))
    return b.Scenario(cells={"pcell": cfg}, capability=CAP4, events=events,
                      horizon_ms=F(650))


def test_narrow_default_with_timer_reduces_bandwidth_time():
    _, with_timer = b.run(_burst_idle_scenario(20))
    _, without_timer = b.run(_burst_idle_scenario(None))
    proxy_with = with_timer.cells["pcell"].bandwidth_time_proxy_rb_ms
    proxy_without = without_timer.cells["pcell"].bandwidth_time_proxy_rb_ms
    assert proxy_with < proxy_without


class TestReplayRejectsMalformedTraces:
    def _base(self):
        trace, _ = b.run(adaptation_scenario())
        return trace

    def test_decreasing_timestamps(self):
        trace = self._base()
        trace[2].at_ms = F(1000)  # later than everything that follows
        with pytest.raises(b.MalformedTrace):
            b.replay_metrics(trace)

    def test_missing_run_start(self):
        trace = self._base()
        with pytest.raises(b.MalformedTrace):
            b.replay_metrics(trace[1:])

    def test_missing_run_end(self):
        trace = self._base()
        with pytest.raises(b.MalformedTrace):
            b.replay_metrics(trace[:-1])

    def test_record_after_run_end(self):
        trace = self._base()
        extra = b.TraceRecord(trace[-1].at_ms, "pcell", "TimerExpiry", {})
        with pytest.raises(b.MalformedTrace):
            b.replay_metrics(trace + [extra])

    def test_cells_ending_at_different_horizons(self):
        trace = self._base()
        start, end = trace[0], trace[-1]
        other = [b.TraceRecord(F(0), "scell", RUN_START, dict(start.fields)),
                 b.TraceRecord(end.at_ms + 1, "scell", RUN_END, {})]
        with pytest.raises(b.MalformedTrace, match="cells end at different horizons"):
            b.replay_metrics([start, other[0], *trace[1:], other[1]])

    def test_duplicate_run_start(self):
        trace = self._base()
        with pytest.raises(b.MalformedTrace, match="^duplicate RunStart for cell 'pcell'$"):
            b.replay_metrics([trace[0], *trace])

    def test_payload_field_missing(self):
        trace = self._base()
        del trace[0].fields["dl_rbs"]
        with pytest.raises(b.MalformedTrace, match="^RunStart missing field 'dl_rbs'$"):
            b.replay_metrics(trace)

    def test_empty_trace(self):
        with pytest.raises(b.MalformedTrace):
            b.replay_metrics([])

    @pytest.mark.parametrize("record", [STATE_CHANGE, "WindowOpen", RUN_END])
    @pytest.mark.parametrize("kind", [float, Decimal])
    def test_time_that_is_not_an_int_or_fraction(self, record, kind):
        """A time of equal value but inexact type, here a float or Decimal
        in a record built by hand, is refused, naming the record."""
        trace = self._base()
        rec = next(r for r in trace if r.record == record)
        rec.at_ms = kind(rec.at_ms.numerator) / rec.at_ms.denominator
        with pytest.raises(b.MalformedTrace, match=f"^{record} for cell 'pcell' at .*int or Fraction"):
            b.replay_metrics(trace)

    def test_a_bool_is_not_a_time(self):
        """A bool is an int to isinstance, but `parse_ms` refuses `true`,
        and so does replay: False in place of RunStart's 0."""
        trace = self._base()
        trace[0].at_ms = False
        with pytest.raises(b.MalformedTrace, match="^RunStart for cell 'pcell' at False ms: a time must be"):
            b.replay_metrics(trace)

    def test_a_first_time_that_is_not_a_time(self):
        """The first record's time is checked too, not only a time that differs from the one before."""
        trace = self._base()
        trace[0].at_ms = None
        with pytest.raises(b.MalformedTrace, match="^RunStart for cell 'pcell' at None ms: a time must be"):
            b.replay_metrics(trace)

    def test_a_bool_is_not_a_time_after_a_time(self):
        """True, between the times 0 and 20, is refused as a time rather than compared as 1."""
        trace = self._base()
        trace[1].at_ms = True
        with pytest.raises(b.MalformedTrace, match="^WindowOpen for cell 'pcell' at True ms: a time must be"):
            b.replay_metrics(trace)

    @pytest.mark.parametrize("before,after", [(F(32), 31), (32, F(63, 2))], ids=["fraction-int", "int-fraction"])
    def test_a_decrease_across_an_int_and_a_fraction(self, before, after):
        trace = self._base()
        trace[1].at_ms, trace[2].at_ms = before, after
        message = re.escape(f"timestamps decrease at {after} ms (after {before} ms)")
        with pytest.raises(b.MalformedTrace, match=f"^{message}$"):
            b.replay_metrics(trace)

    def test_equal_times_of_different_types_replay(self):
        """An int and a Fraction of one value, 31 and Fraction(31) on
        consecutive records, are one time: the trace replays to its metrics."""
        trace, metrics = b.run(adaptation_scenario())
        for rec in trace[2::2]:
            rec.at_ms = int(rec.at_ms) if rec.at_ms.denominator == 1 else rec.at_ms
        assert [type(r.at_ms) for r in trace[2:5]] == [int, F, int]
        assert trace[2].at_ms == trace[3].at_ms == trace[4].at_ms == 31
        assert b.replay_metrics(trace) == metrics

    @pytest.mark.parametrize(
        "record,name,value",
        [
            (RUN_START, "default_dl", "0"),
            (RUN_START, "active_dl", None),
            (RUN_START, "dl_rbs", 24.0),
            (STATE_CHANGE, "new_dl", True),
            (STATE_CHANGE, "new_dl_rbs", "x"),
            (STATE_CHANGE, "cause", ["Dci"]),
        ],
    )
    def test_payload_field_of_wrong_type(self, record, name, value):
        trace = self._base()
        rec = next(r for r in trace if r.record == record)
        rec.fields[name] = value
        with pytest.raises(b.MalformedTrace, match=name):
            b.replay_metrics(trace)

    def test_a_cause_that_is_not_a_switch_cause(self):
        """A StateChange cause outside SWITCH_CAUSES is refused, naming the
        cause, rather than counted under a key the metrics never have."""
        trace = self._base()
        for rec in trace:
            if rec.record == STATE_CHANGE:
                rec.fields["cause"] = "Bogus"
        with pytest.raises(b.MalformedTrace, match="^StateChange field 'cause' must be a switch cause, got 'Bogus'$"):
            b.replay_metrics(trace)


def test_docs_list_every_switch_cause_and_record_kind():
    """docs/file_formats.md's "Causes:" line names exactly `fsm.SWITCH_CAUSES`,
    and its record table exactly the record kinds that `bwpsim.trace` defines."""
    docs = (FIXTURES.parent / "docs" / "file_formats.md").read_text(encoding="utf-8")
    causes = re.search(r"^Causes: ([^.]*)\.", docs, re.MULTILINE).group(1)
    assert sorted(re.findall(r"`(\w+)`", causes)) == sorted(fsm.SWITCH_CAUSES)
    table = docs.split("| record | payload |\n", 1)[1].split("\n\n", 1)[0]
    listed = [kind for row in table.splitlines()[1:] for kind in re.findall(r"`(\w+)`", row.split(" | ")[0])]
    kinds = [v for k, v in vars(trace_module).items() if k.isupper() and not k.startswith("_") and type(v) is str]
    assert sorted(listed) == sorted(kinds)
    assert len(kinds) == 10


class TestReadTrace:
    def _lines(self):
        trace, _ = b.run(adaptation_scenario())
        return [r.to_json() for r in trace]

    def test_missing_at_ms_names_its_line(self):
        lines = self._lines()
        lines[1] = lines[1].replace('"at_ms"', '"at"')
        with pytest.raises(b.MalformedTrace, match=r"^line 2: .*at_ms"):
            b.read_trace(lines)

    def test_non_decimal_time_names_its_line(self):
        lines = self._lines()
        lines[2] = lines[2].replace('"at_ms": "', '"at_ms": "1e999999999', 1)
        with pytest.raises(b.MalformedTrace, match=r"^line 3: "):
            b.read_trace(lines)

    @pytest.mark.parametrize(
        "line",
        [
            "[" * 100_000 + "]" * 100_000,
            pytest.param('{"at_ms": ' + "1" * 5000 + "}", marks=NEEDS_DIGIT_LIMIT),
        ],
        ids=["nested-100000-deep", "int-of-5000-digits"],
    )
    def test_undecodable_line_names_its_line(self, line):
        lines = self._lines()
        lines[1] = line
        with pytest.raises(b.MalformedTrace, match=r"^line 2: not valid JSON"):
            b.read_trace(lines)

    @pytest.mark.parametrize(
        "line,message",
        [
            ('{"at_ms": "1", "cell": "c", "record": "R"} x', "Extra data: line 1 column 44 (char 43)"),
            ('{"at_ms": "1", "cell": "c", "record": "R"}{}', "Extra data: line 1 column 43 (char 42)"),
            ('{"at_ms": }', "Expecting value: line 1 column 11 (char 10)"),
            ('x{"at_ms": "1", "cell": "c", "record": "R"}', "Expecting value: line 1 column 1 (char 0)"),
            ('\ufeff{"at_ms": "1", "cell": "c", "record": "R"}',
             "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ],
        ids=["trailing-text", "second-object", "missing-value", "no-value", "byte-order-mark"],
    )
    def test_bad_json_keeps_json_s_message_after_its_line(self, line, message):
        lines = self._lines()
        lines[1] = "  " + line + " \n"
        with pytest.raises(b.MalformedTrace) as exc:
            b.read_trace(lines)
        assert str(exc.value) == "line 2: not valid JSON: " + message

    @pytest.mark.parametrize("key", ["cell", "record"])
    def test_cell_and_record_must_be_strings(self, key):
        lines = self._lines()
        obj = json.loads(lines[0])
        obj[key] = 7
        lines[0] = json.dumps(obj)
        with pytest.raises(b.MalformedTrace, match=r"^line 1: "):
            b.read_trace(lines)

    def test_non_object_line(self):
        with pytest.raises(b.MalformedTrace, match=r"^line 1: expected an object"):
            b.read_trace(["[1, 2]"])

    def test_blank_lines_are_skipped(self):
        lines = self._lines()
        spaced = [lines[0], "", *lines[1:3], " \n", *lines[3:], "\n"]
        assert b.read_trace(spaced) == b.read_trace(lines)

    def test_records_of_one_time_share_one_fraction(self):
        lines = self._lines()
        back = b.read_trace(lines)
        spelled = [json.loads(line)["at_ms"] for line in lines]
        assert len(set(spelled)) < len(spelled)
        for (a, ra), (z, rz) in zip(zip(spelled, back), zip(spelled[1:], back[1:])):
            assert (ra.at_ms is rz.at_ms) == (a == z), (a, z)

    def test_spellings_of_one_time_read_as_equal_values(self):
        lines = [f'{{"at_ms": {t}, "cell": "c", "record": "R"}}' for t in ("5", "5.0", '"5"', '"5.000"')]
        assert [r.at_ms for r in b.read_trace(lines)] == [F(5)] * 4

    @pytest.mark.parametrize("text", ["1_0", " 2.5 ", "\u0663", "\uff11.\uff15"])
    def test_a_lenient_time_string_names_its_line(self, text):
        """A time string outside the ASCII decimal grammar is refused, also
        where `Decimal` would read it."""
        lines = self._lines()
        lines[1] = json.dumps({**json.loads(lines[1]), "at_ms": text})
        with pytest.raises(b.MalformedTrace, match=f"^line 2: .*at_ms: not a decimal time value: {re.escape(repr(text))}$"):
            b.read_trace(lines)

    @pytest.mark.parametrize("bad", ['"2.5x"', "NaN", "true", "null"])
    def test_bad_time_after_a_cached_one_names_its_line(self, bad):
        """1 is read first, so a JSON true (equal to 1 in Python) cannot pass as it."""
        lines = [f'{{"at_ms": {t}, "cell": "c", "record": "R"}}' for t in ("1", "1", bad)]
        with pytest.raises(b.MalformedTrace, match=r"^line 3: .*at_ms"):
            b.read_trace(lines)

    @pytest.mark.parametrize(
        "line",
        [
            '{"at_ms": "1", "cell": "a", "record": "RunStart", "cell": "b"}',
            '{"at_ms": "1", "cell": "a", "record": "R", "n": 1, "n": 2}',
            '{"at_ms": "1", "cell": "a", "record": "R", "p": [{"k": 1, "k": 1}]}',
        ],
        ids=["header", "payload", "nested"],
    )
    def test_repeated_key_names_its_line(self, line):
        lines = self._lines()
        lines[1] = line
        with pytest.raises(b.MalformedTrace, match=r"^line 2: .*repeated key '(cell|n|k)'"):
            b.read_trace(lines)

    def test_record_fields_are_the_payload(self):
        back = b.read_trace(['{"at_ms": "1.5", "cell": "c", "record": "R", "n": [1, {"k": null}]}'])
        assert back == [b.TraceRecord(F(3, 2), "c", "R", {"n": [1, {"k": None}]})]

    def test_from_obj_leaves_its_argument_alone(self):
        obj = {"at_ms": "2", "cell": "c", "record": "R", "n": 1}
        rec = b.TraceRecord.from_obj(obj)
        assert obj == {"at_ms": "2", "cell": "c", "record": "R", "n": 1}
        assert rec == b.TraceRecord(F(2), "c", "R", {"n": 1})
        rec.fields["m"] = 2
        assert "m" not in obj


# payloads whose JSON text takes escapes and every value type
AWKWARD_PAYLOADS = [
    {"s": "Zürich \u00b5s \u20ac \U0001f4e1", "q": 'say "hi"', "bs": "a\\b", "nl": "a\nb\tc\x00"},
    {"none": None, "t": True, "f": False, "x": 0.1, "big": 1e300, "neg": -2.5, "i": -7},
    {"nested": [[1, [2.5, None]], {"b": [True, "\u00e9"], "a": {}}], "empty": []},
    {},
]


@pytest.fixture(params=["c-encoder", "pure-python"])
def encoder(request, monkeypatch):
    """The trace encoder, built once from the C accelerator or, as on a
    Python without one, JSONEncoder.encode itself."""
    from bwpsim import trace

    if request.param == "pure-python":
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(trace, "_encode", trace._one_shot_encoder(json.encoder.c_make_encoder))
    return request.param


class TestWriteTrace:
    @pytest.mark.parametrize("fields", AWKWARD_PAYLOADS, ids=["strings", "scalars", "nested", "empty"])
    def test_each_line_is_json_dumps_of_the_record(self, encoder, fields):
        records = [b.TraceRecord(F(5, 2), "c\u00e9ll", "R", fields), b.TraceRecord(F(3), "c", "S", fields)]
        lines = written(records).splitlines()
        for rec, line in zip(records, lines, strict=True):
            assert line == json.dumps(rec.to_obj(), sort_keys=True, separators=(", ", ": "))
            assert line == rec.to_json()
            assert b.read_trace([line]) == [rec]

    @pytest.mark.parametrize(
        "times",
        [[F(5, 2)] * 3, [F(5, 2), F(5, 2), F(10, 4)], [3, 3, F(3)],
         [F(0), F(1, 8), F(7, 4), F(10**30 + 3, 8), F(-5, 2), F(9, 16), F(7, 10), 3, F(-3)]],
        ids=["one-fraction", "equal-fractions", "int-time", "eighths-and-others"],
    )
    def test_bytes_are_the_records_json_lines(self, times):
        records = [b.TraceRecord(t, f"c{k}", "R", {"k": k}) for k, t in enumerate(times)]
        assert written(records) == "".join(r.to_json() + "\n" for r in records)

    @pytest.mark.parametrize("at_ms", [0.1, Decimal("2.5"), True], ids=["float", "decimal", "bool"])
    def test_a_time_that_is_not_an_int_or_fraction_is_refused(self, at_ms):
        """Rather than a float's binary expansion (0.1 would be written as
        0.1000000000000000055...), a ValueError naming the record, as replay does."""
        rec = b.TraceRecord(at_ms, "pcell", "TimerStart", {})
        message = re.escape(f"TimerStart for cell 'pcell' at {at_ms!r} ms: a time must be an int or Fraction")
        for render in (rec.to_obj, rec.to_json, lambda: written([rec])):
            with pytest.raises(ValueError, match=f"^{message}$"):
                render()

    def test_a_non_decimal_time_after_eighths_is_refused(self):
        records = [b.TraceRecord(t, "c", r, {}) for t, r in ((F(1, 2), "R"), (F(1, 3), "S"))]
        with pytest.raises(ValueError, match="^1/3 has no finite decimal representation$"):
            written(records)

    def test_an_inexact_time_after_exact_ones_is_refused(self):
        """The writer checks a time each time the time object changes."""
        records = [b.TraceRecord(t, "c", r, {}) for t, r in ((F(1, 2), "R"), (F(1, 2), "S"), (0.5, "T"))]
        with pytest.raises(ValueError, match="^T for cell 'c' at 0.5 ms"):
            written(records)

    @pytest.mark.parametrize("key", ["at_ms", "cell", "record"])
    def test_a_payload_field_cannot_overwrite_the_header(self, key):
        rec = b.TraceRecord(F(5, 2), "pcell", "DataServed", {key: "x", "n_rbs": 3})
        for render in (rec.to_obj, rec.to_json, lambda: written([rec])):
            with pytest.raises(ValueError, match=repr(key)):
                render()


def test_rrc_goes_before_rach_at_one_timestamp():
    """Same-time ties deliver RRC before RACH, whatever the input order."""
    scn = b.Scenario(
        cells={"c": centered_cell()}, capability=CAP4,
        events=[b.SimEvent(F(5), "c", b.EventKind.RACH_START),
                b.SimEvent(F(5), "c", b.EventKind.RRC_RECONFIG, first_active_dl=1, first_active_ul=1)],
        horizon_ms=F(30),
    )
    trace, _ = b.run(scn)
    at_5 = [(r.record, r.fields.get("cause") or r.fields.get("event_kind")) for r in trace if r.at_ms == 5]
    assert at_5 == [("WindowOpen", "RrcReconfig"), ("EventRejected", "RachStart")]


def test_rach_goes_before_dci_at_one_timestamp():
    """Same-time ties deliver RACH before DCI, whatever the input order: the
    switching DCI then starts no timer, and RACH start is not rejected."""
    dci = b.DciEvent(b.DciFormat.FMT_1_1, "01")
    scn = b.Scenario(
        cells={"c": centered_cell()}, capability=CAP4,
        events=[b.SimEvent(F(5), "c", b.EventKind.DCI, dci=dci), b.SimEvent(F(5), "c", b.EventKind.RACH_START)],
        horizon_ms=F(30),
    )
    trace, _ = b.run(scn)
    assert [(r.record, r.fields.get("cause")) for r in trace if r.at_ms == 5] == [("WindowOpen", "Dci")]


def test_ul_and_dl_data_at_one_timestamp_keep_input_order():
    """UL and DL data share one tie class: at one time they are served in
    the order the scenario lists them."""
    scn = b.Scenario(
        cells={"c": centered_cell()}, capability=CAP4,
        events=[b.SimEvent(F(5), "c", b.EventKind.DATA_UL_GRANT),
                b.SimEvent(F(5), "c", b.EventKind.DATA_DL_ASSIGNMENT),
                b.SimEvent(F(5), "c", b.EventKind.DATA_UL_GRANT)],
        horizon_ms=F(10),
    )
    trace, _ = b.run(scn)
    assert [r.fields["direction"] for r in trace if r.record == "DataServed"] == ["ul", "dl", "ul"]


def test_records_of_one_time_share_one_fraction_across_cells():
    """Consecutive records of one time carry one Fraction object, whichever
    cells they come from and whether they record a rejection, so
    write_trace renders each time once. Only RunEnd, which carries the
    horizon, may differ."""
    for seed in range(100):
        trace, _ = b.run(random_multicell_scenario(random.Random(seed)))
        for prev, rec in zip(trace, trace[1:]):
            if rec.at_ms == prev.at_ms and RUN_END not in (prev.record, rec.record):
                assert rec.at_ms is prev.at_ms, (seed, prev, rec)


def test_window_ending_after_the_last_tick_commits_at_the_horizon():
    # 60 kHz type 1: the window opened at 10 ends at 10.75, after the last
    # 1 ms tick (10) and before the horizon (10.9)
    scn = b.Scenario(
        cells={"c": centered_cell(mu=2)}, capability=CAP4,
        events=[b.SimEvent(F(10), "c", b.EventKind.DCI, dci=b.DciEvent(b.DciFormat.FMT_1_1, "01"))],
        horizon_ms=F(109, 10),
    )
    trace, metrics = b.run(scn)
    assert [(r.record, r.at_ms) for r in trace if r.at_ms > 10] == [
        ("WindowClose", F(43, 4)), ("StateChange", F(43, 4)), ("RunEnd", F(109, 10)),
    ]
    assert metrics.cells["c"].switch_count_by_cause["Dci"] == 1


def test_window_close_time_equals_open_plus_delay():
    for mu, delay_type, expected in [
        (0, b.DelayType.TYPE1, F(1)),
        (1, b.DelayType.TYPE2, F(5, 2)),
        (2, b.DelayType.TYPE2, F(9, 4)),
    ]:
        cfg = centered_cell(mu=mu)
        cap = b.UeCapability(max_rrc_bwps=4, switch_delay_type=delay_type)
        scn = b.Scenario(
            cells={"c": cfg}, capability=cap,
            events=[b.SimEvent(F(2), "c", b.EventKind.DCI,
                               dci=b.DciEvent(b.DciFormat.FMT_1_1, "01"))],
            horizon_ms=F(10),
        )
        trace, _ = b.run(scn)
        opens = [r for r in trace if r.record == "WindowOpen"]
        closes = [r for r in trace if r.record == "WindowClose"]
        assert closes[0].at_ms - opens[0].at_ms == expected


def _fallback_dl_dci(at, cell):
    return b.SimEvent(at, cell, b.EventKind.DCI, dci=b.DciEvent(b.DciFormat.FMT_1_0))


def test_last_tick_before_an_off_grid_horizon_is_visited():
    # a fallback DL assignment at 10 arms the 20 ms timer off the default
    # BWP; it expires at the tick 30, the last one before the horizon 30.5
    scn = b.Scenario(cells={"c": centered_cell()}, capability=CAP4,
                     events=[_fallback_dl_dci(F(10), "c")], horizon_ms=F(61, 2))
    trace, _ = b.run(scn)
    assert [r.at_ms for r in trace if r.record == "TimerExpiry"] == [F(30)]


def test_cells_tick_in_document_order():
    """At one time, cells tick in the order the scenario lists them."""
    scn = b.Scenario(cells={"z": centered_cell(), "a": centered_cell()}, capability=CAP4,
                     events=[_fallback_dl_dci(F(10), "a"), _fallback_dl_dci(F(10), "z")],
                     horizon_ms=F(40))
    trace, _ = b.run(scn)
    expiries = [(r.at_ms, r.cell) for r in trace if r.record == "TimerExpiry"]
    assert expiries == [(F(30), "z"), (F(30), "a")]


def test_event_at_the_horizon_is_delivered():
    scn = b.Scenario(cells={"c": centered_cell()}, capability=CAP4,
                     events=[b.SimEvent(F(20), "c", b.EventKind.DATA_DL_ASSIGNMENT)],
                     horizon_ms=F(20))
    trace, _ = b.run(scn)
    assert [r.record for r in trace if r.at_ms == 20] == ["DataServed", RUN_END]


def test_same_time_commits_keep_handling_order():
    # both type 2 windows end at 2.25: the FR2 cell handles its commit at
    # the tick 2.5, the FR1 cell, listed first, at the tick 3, after the
    # FR2 cell has served data at 2.5; the trace puts that data after both commits
    dci = [b.SimEvent(F(0), c, b.EventKind.DCI, dci=b.DciEvent(b.DciFormat.FMT_1_1, "01")) for c in "ab"]
    scn = b.Scenario(cells={"a": centered_cell(mu=2), "b": centered_cell(fr=b.FrequencyRange.FR2, mu=3)},
                     capability=b.UeCapability(max_rrc_bwps=4, switch_delay_type=b.DelayType.TYPE2),
                     events=dci + [b.SimEvent(F(5, 2), "b", b.EventKind.DATA_DL_ASSIGNMENT)], horizon_ms=F(5))
    trace, _ = b.run(scn)
    assert [(r.at_ms, r.cell, r.record) for r in trace if F(9, 4) <= r.at_ms <= F(5, 2)] == [
        (F(9, 4), "b", "WindowClose"), (F(9, 4), "b", STATE_CHANGE),
        (F(9, 4), "a", "WindowClose"), (F(9, 4), "a", STATE_CHANGE), (F(5, 2), "b", "DataServed"),
    ]


def test_run_memory_does_not_grow_with_the_horizon():
    # an FR1 and an FR2 cell over 2 s: 2,000 + 4,000 cell ticks, 21 records.
    # Measured peaks: about 0.01 MB for a step loop, about 0.62 MB for an
    # engine that first builds the set of every tick time.
    dci = [b.SimEvent(at, c, b.EventKind.DCI, dci=b.DciEvent(b.DciFormat.FMT_1_1, "01"))
           for at, c in ((F(10), "a"), (F(21, 2), "b"))]
    scn = b.Scenario(cells={"a": centered_cell(), "b": centered_cell(fr=b.FrequencyRange.FR2, mu=3)},
                     capability=CAP4, horizon_ms=F(2000),
                     events=dci + [b.SimEvent(F(500), "a", b.EventKind.DATA_DL_ASSIGNMENT)])
    tracemalloc.start()
    try:
        trace, _ = b.run(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 21
    assert peak < 100_000, peak


def test_multicell_runs_are_deterministic_and_replay():
    """Mixed FR1/FR2 cells, mixed numerology, off-grid horizons, same-time events."""
    for seed in range(200):
        scn = random_multicell_scenario(random.Random(seed))
        trace, metrics = b.run(scn)
        rerun, remetrics = b.run(scn)
        text = written(trace)
        assert written(rerun) == text, seed
        assert json.dumps(remetrics.to_obj()) == json.dumps(metrics.to_obj()), seed
        times = [r.at_ms for r in trace]
        assert times == sorted(times), seed
        assert b.replay_metrics(b.read_trace(text.splitlines())) == metrics, seed


def test_asymmetric_cells_match_the_oracles():
    """DL-only FDD and TDD cells, FDD cells with UL BWPs of their own,
    PSCells and extended CP: run() writes the step loop's trace, and the
    trace replays, read back, to the metrics that plain Fraction sums give."""
    for seed in range(200):
        scn = random_asymmetric_scenario(random.Random(seed))
        trace, metrics = b.run(scn)
        text = written(trace)
        assert text == written(tick_run(scn)[0]), seed
        assert b.replay_metrics(b.read_trace(text.splitlines())) == metrics, seed
        assert reference_metrics(trace) == metrics, seed


def count_ticks(monkeypatch, limit=None):
    """Count CellStateMachine.on_tick calls; past `limit` of them, raise."""
    calls = [0]
    on_tick = CellStateMachine.on_tick

    def counted(self, now):
        calls[0] += 1
        if limit is not None and calls[0] > limit:
            raise AssertionError(f"on_tick called over {limit} times, now at {F(now, 8)} ms")
        return on_tick(self, now)

    monkeypatch.setattr(CellStateMachine, "on_tick", counted)
    return calls


@pytest.mark.parametrize("make", [random_multicell_scenario, random_scenario])
def test_run_matches_the_tick_oracle(make, monkeypatch):
    """The deadline-driven run() writes the step loop's trace, byte for byte,
    and ticks a cell only at its deadlines and once at the horizon."""
    for seed in range(200):
        scn = make(random.Random(seed))
        calls = count_ticks(monkeypatch)
        trace, metrics = b.run(scn)
        monkeypatch.undo()
        oracle, reached = tick_run(scn)
        assert written(trace) == written(oracle), seed
        assert b.replay_metrics(oracle) == metrics, seed
        assert reference_metrics(oracle) == metrics, seed
        assert calls[0] == reached + len(scn.cells), seed


def test_run_cost_follows_the_records_not_the_horizon(monkeypatch):
    """The TDD fixture over 1e9 ms: its 17 records and few ticks, not 1e9 of them."""
    count_ticks(monkeypatch, limit=1000)
    doc = json.loads((FIXTURES / "tdd_scenario.json").read_text())
    doc["horizon_ms"] = "1e9"
    trace, metrics = b.run(scenario_from_obj(doc))
    golden = (FIXTURES / "tdd_trace.golden.jsonl").read_text().splitlines()
    assert len(golden) - 1 == 17
    assert [r.to_json() for r in trace[:-1]] == golden[:-1]
    assert trace[-1].record == RUN_END
    assert metrics.total_time_ms == 10**9


@pytest.mark.parametrize("horizon", ["60.3", "100." + "0" * 299 + "1", "50.5"],
                         ids=["off-grid", "denominator-1e300", "inside-open-window"])
def test_awkward_horizons_run_and_replay(horizon, monkeypatch):
    """The TDD fixture at an off-grid horizon, at one whose denominator is
    10**300, and at one inside the expiry window open from 50 to 51 ms: each
    run writes the step loop's trace, replays to its metrics, and ticks its
    cells a few dozen times, not once per eighth of a ms."""
    doc = json.loads((FIXTURES / "tdd_scenario.json").read_text())
    doc["horizon_ms"] = horizon
    scn = scenario_from_obj(doc)
    count_ticks(monkeypatch, limit=100)
    trace, metrics = b.run(scn)
    monkeypatch.undo()
    text = written(trace)
    assert text == written(tick_run(scn)[0])
    assert b.replay_metrics(b.read_trace(text.splitlines())) == metrics
    assert reference_metrics(trace) == metrics
    assert trace[-1].record == RUN_END and trace[-1].to_obj()["at_ms"] == horizon
    assert metrics.total_time_ms == b.parse_ms(horizon)
    if horizon == "50.5":
        assert [r.record for r in trace[-3:]] == ["TimerExpiry", "WindowOpen", RUN_END]


def test_replay_of_mixed_denominators_matches_plain_fractions():
    """Hand-written decimal traces whose times mix denominators 1, 2, 8, 10,
    1000 and 10**k replay, as records and as written text, to the metrics
    that plain Fraction sums give."""
    for seed in range(300):
        trace = mixed_denominator_trace(random.Random(seed))
        expected = reference_metrics(trace)
        assert b.replay_metrics(trace) == expected, seed
        assert b.replay_metrics(b.read_trace(written(trace).splitlines())) == expected, seed


def test_a_horizon_only_bounds_the_run(monkeypatch):
    """At the horizon 10**-300 ms past 100 ms the TDD fixture's cells tick
    in eighths of a ms up to 100 ms, 800 eighths, and no further."""
    times = []
    on_tick = CellStateMachine.on_tick

    def ticked(self, now):
        times.append(now)
        return on_tick(self, now)

    monkeypatch.setattr(CellStateMachine, "on_tick", ticked)
    doc = json.loads((FIXTURES / "tdd_scenario.json").read_text())
    doc["horizon_ms"] = "100." + "0" * 299 + "1"
    b.run(scenario_from_obj(doc))
    assert max(times) == 800


def test_run_drives_the_machines_on_an_integer_clock(monkeypatch):
    """Every on_tick time, deadline, window end and timer expiry that run()
    hands a machine or gets back is an int; records still carry Fractions."""
    seen = []
    on_tick, next_deadline = CellStateMachine.on_tick, CellStateMachine.next_deadline

    def ticked(self, now):
        st = self.state
        seen.extend([now, st.timer_expires_at, *(
            (st.switch_window.end_ms, st.switch_window.commit_at) if st.switch_window else ())])
        return on_tick(self, now)

    def deadline(self):
        d = next_deadline(self)
        seen.append(d)
        return d

    monkeypatch.setattr(CellStateMachine, "on_tick", ticked)
    monkeypatch.setattr(CellStateMachine, "next_deadline", deadline)
    for seed in range(50):
        trace, _ = b.run(random_multicell_scenario(random.Random(seed)))
        assert {type(r.at_ms) for r in trace} == {F}, seed
    assert seen and {type(t) for t in seen} <= {int, type(None)}
    assert int in {type(t) for t in seen}


def test_cell_tables_are_derived_once_per_machine(monkeypatch):
    """A machine builds at most its two indicator contexts, however many DCIs
    it handles, and calls `switch_delay_khz` and `dci_switch_available` only
    in `__init__`: once per governing SCS and once for BWP #0. The DCIs and
    switches the runs handle, several 240 kHz switches rejected among them,
    read the facts fixed there. The mixed-SCS golden decodes more DCIs than
    twice its cells."""
    made, contexts, building = [], [0], [False]
    calls, late = collections.Counter(), collections.Counter()
    events = collections.Counter()
    init, on_dci, switch_delay = CellStateMachine.__init__, CellStateMachine.on_dci, CellStateMachine._switch_delay
    context = fsm.IndicatorContext

    def counted_init(self, *args):
        made.append(self)
        building[0] = True
        try:
            init(self, *args)
        finally:
            building[0] = False

    def counted_context(n):
        contexts[0] += 1
        return context(n)

    def counted(name, method):
        def call(*args):
            events[name] += 1
            return method(*args)
        return call

    def watched(name, fn):
        def call(*args):
            (calls if building[0] else late)[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(CellStateMachine, "__init__", counted_init)
    monkeypatch.setattr(CellStateMachine, "on_dci", counted("dci", on_dci))
    monkeypatch.setattr(CellStateMachine, "_switch_delay", counted("switch", switch_delay))
    monkeypatch.setattr(fsm, "IndicatorContext", counted_context)
    for name in ("switch_delay_khz", "dci_switch_available"):
        monkeypatch.setattr(fsm, name, watched(name, getattr(fsm, name)))
    mixed_scs = scenario_from_obj(json.loads((FIXTURES / "mixed_scs_scenario.json").read_text()))
    machines = 0
    for seed, scn in [("mixed_scs", mixed_scs),
                      *((seed, random_multicell_scenario(random.Random(seed))) for seed in range(100))]:
        made.clear()
        contexts[0] = 0
        trace, _ = b.run(scn)
        assert contexts[0] <= 2 * len(made), seed
        machines += len(made)
        events["240"] += sum(r.fields.get("reason") == "UnsupportedScs" for r in trace)
    assert not late
    assert calls == {"switch_delay_khz": len(fsm.SWITCH_DELAY_SLOTS) * machines, "dci_switch_available": machines}
    assert events["dci"] > 0
    assert events["switch"] > events["240"] > 1


def _profiled_run(scn, watched):
    """run(scn) under cProfile: its trace, and the calls of each code object
    in `watched`, counted under its name there."""
    prof = cProfile.Profile()
    trace, _ = prof.runcall(b.run, scn)
    calls = collections.Counter()
    for entry in prof.getstats():
        if entry.code in watched:
            calls[watched[entry.code]] += entry.callcount
    return trace, calls


def _grown_scenarios(seed):
    """A random multicell scenario with 150 random events, and the same with 150 more."""
    rng = random.Random(seed)
    scn = random_multicell_scenario(rng)
    end = int(scn.horizon_ms)
    events, grown = [], []
    for n in (150, 300):
        while len(events) < n:
            cell = rng.choice(list(scn.cells))
            tick = scn.cells[cell].tick_ms
            events.append(random_event(rng, tick * rng.randint(0, int(end / tick)), cell, scn.cells[cell]))
        grown.append(scn._replace(events=list(events)))
    return grown


def test_fixed_facts_are_looked_up_per_cell_not_per_event():
    """`run()` calls the Enum `value` descriptor, the `DciFormat`,
    `CellConfig` and `CellRole` properties only per cell (validation and
    machine construction): their calls, counted by cProfile, are the same
    for a random multicell scenario and for its cells with twice the events."""
    watched = {vars(enum.Enum)["value"].fget.__code__: "Enum.value"}
    for cls in (b.DciFormat, b.CellConfig, b.CellRole):
        watched.update({p.fget.__code__: f"{cls.__name__}.{name}" for base in cls.__mro__
                        for name, p in vars(base).items() if isinstance(p, property)})

    for seed in range(3):
        few, many = _grown_scenarios(seed)
        base_trace, base = _profiled_run(few, watched)
        trace, calls = _profiled_run(many, watched)
        assert len(trace) > len(base_trace), seed
        assert calls == base, seed
        assert calls["CellConfig.channel_span"] == len(many.cells), seed  # the counter sees each validate


def test_run_hashes_no_enum_member_and_converts_only_the_horizon():
    """`run()` keys its delivery table by each event kind's value and sorts
    the trace by the eighths of a ms that each machine logs with a record
    as it makes it, so no record's time is converted back: under cProfile,
    for random multicell scenarios of 150 and 300 events, `Enum.__hash__`
    runs never, `to_units` as often as in a run of the same cells without
    events (the machines convert their config times when built), and
    `run()` itself calls `to_units` and `_exact_time` exactly once each, for
    the horizon: it checks each event time inline and calls `_exact_time`
    only to raise."""
    enum_hash = vars(enum.Enum)["__hash__"].__code__
    for seed in range(3):
        for scn in _grown_scenarios(seed):
            _, base = _profiled_run(scn._replace(events=[]), {to_units.__code__: "to_units"})
            prof = cProfile.Profile()
            trace, _ = prof.runcall(b.run, scn)
            stats = {entry.code: entry for entry in prof.getstats()}
            assert len(trace) > len(scn.events) and enum_hash not in stats, seed
            assert stats[to_units.__code__].callcount == base["to_units"], seed
            for fn in (to_units, _exact_time):
                assert [sub.callcount for sub in stats[b.run.__code__].calls
                        if sub.code is fn.__code__] == [1], (seed, fn)


def test_records_at_an_event_s_time_carry_that_event_s_parsed_time():
    """run() seeds its table of record times with each event's own `at_ms`,
    the first event's in input order where several name one time: every
    record at an event's time, but RunEnd with the horizon, carries that
    object, so a time is one Fraction across the whole trace."""
    for seed in range(3):
        for scn in _grown_scenarios(seed):
            first = {}
            for ev in scn.events:
                first.setdefault(ev.at_ms, ev.at_ms)
            trace, _ = b.run(scn)
            at_events = [r for r in trace if r.record != RUN_END and r.at_ms in first]
            assert len(at_events) > len(scn.events) // 2, seed
            for rec in at_events:
                assert rec.at_ms is first[rec.at_ms], (seed, rec)


def test_run_makes_fewer_fractions_than_record_times():
    """A record time becomes a Fraction once per run, and not at all when an
    event's parsed time names it: under cProfile, `Fraction.__new__` runs
    beyond what a run of the same cells without events makes (validation,
    the machines, the metrics) at most once per record time that no event
    names, fewer times than the trace has distinct times."""
    watched = {F.__new__.__code__: "Fraction"}
    for seed in range(3):
        for scn in _grown_scenarios(seed):
            _, base = _profiled_run(scn._replace(events=[]), watched)
            trace, calls = _profiled_run(scn, watched)
            times = {r.at_ms for r in trace}
            made = calls["Fraction"] - base["Fraction"]
            assert made <= len(times - {ev.at_ms for ev in scn.events}) < len(times), (seed, made, len(times))


def test_window_end_is_rendered_from_eighths():
    """`_open_window` renders `end_ms` without `ms_str`, which run() never
    calls; each rendering is the exact time its window commits at."""
    watched = {b.ms_str.__code__: "ms_str"}
    opened = 0
    for seed in range(3):
        for scn in _grown_scenarios(seed):
            trace, calls = _profiled_run(scn, watched)
            assert calls["ms_str"] == 0, seed
            pending = {}
            for rec in trace:
                if rec.record == "WindowOpen":
                    pending[rec.cell] = rec.fields["end_ms"]
                    opened += 1
                elif rec.record == "WindowClose":
                    assert b.ms_str(rec.at_ms) == pending.pop(rec.cell), (seed, rec)
    assert opened > 10


def test_int_event_times_still_give_fraction_record_times():
    """A library SimEvent may carry an int time; the table is seeded only
    with Fractions, so the records at that time carry a Fraction all the same."""
    scn = b.Scenario(cells={"c": centered_cell()}, capability=CAP4,
                     events=[_fallback_dl_dci(10, "c"), b.SimEvent(10, "c", b.EventKind.DATA_UL_GRANT),
                             b.SimEvent(0, "c", b.EventKind.DATA_DL_ASSIGNMENT)],
                     horizon_ms=F(40))
    trace, metrics = b.run(scn)
    assert [(r.at_ms, r.record) for r in trace if r.at_ms in (0, 10)] == [
        (0, RUN_START), (0, "DataServed"), (10, "TimerStart"), (10, "DataServed")]
    assert {type(r.at_ms) for r in trace} == {F}
    assert written(trace) == written(b.run(scn._replace(events=[
        ev._replace(at_ms=F(ev.at_ms)) for ev in scn.events]))[0])
