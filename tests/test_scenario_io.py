"""Scenario document parsing and the exact-decimal time syntax."""

import hashlib
import itertools
import json
import re
from decimal import Decimal, localcontext
from fractions import Fraction as F
from pathlib import Path
from typing import NamedTuple

import pytest

import bwpsim as b
from bwpsim.scenario import ParseError, _read, _reader, load_scenario, scenario_from_obj
from bwpsim.trace import eighths_str
from support import adaptation_scenario

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def adaptation_doc():
    return json.loads((FIXTURES / "adaptation_fdd_scenario.json").read_text())


# sha256 of repr(load_scenario(...)) of each fixture: the differential's
# parse digest, pinned here so that a change of repr shows in tier-1 too
FIXTURE_REPR_SHA256 = {
    "adaptation_fdd": "b20b295c8e1e541576836794892d1838b747a1646b25e4f01c7206aedfe0ede0",
    "mixed_scs": "6fbd8c88315ae5683d3b2bab7d7c7570d1b11e9b939165f87409c5f8cd95e8f8",
    "tdd": "b4302ea96625a1199e6fb14a7fb8596e8add4d29e61513c2b245ce98dd90adb1",
}


@pytest.mark.parametrize("name", sorted(FIXTURE_REPR_SHA256))
def test_a_parsed_fixture_s_repr_is_pinned(name):
    text = repr(load_scenario(FIXTURES / f"{name}_scenario.json"))
    assert hashlib.sha256(text.encode()).hexdigest() == FIXTURE_REPR_SHA256[name], text


def test_fixture_runs_identically_to_in_code_scenario():
    # opaque link_params differ, behavior must not
    from_file = load_scenario(FIXTURES / "adaptation_fdd_scenario.json")
    t1, m1 = b.run(from_file)
    t2, m2 = b.run(adaptation_scenario())
    assert [r.to_json() for r in t1] == [r.to_json() for r in t2]
    assert m1 == m2


def test_parsed_fields_match_document():
    scn = load_scenario(FIXTURES / "adaptation_fdd_scenario.json")
    cfg = scn.cells["pcell"]
    assert cfg.duplex is b.Duplex.FDD
    dl, ul = ({x.id: x for x in bwps} for bwps in (cfg.dl_bwps, cfg.ul_bwps))
    assert dl[1].geometry.n_rbs == 270
    assert dl[0].dedicated is None
    assert ul[1].dedicated.uplink_waveform is b.UplinkWaveform.CP_OFDM
    assert ul[2].dedicated.uplink_waveform is b.UplinkWaveform.DFT_S_OFDM
    assert dl[1].common.link_params == {"pdcch": "wideband"}
    assert scn.capability.max_rrc_bwps == 4
    assert scn.horizon_ms == F(80)
    assert scn.events[0].kind is b.EventKind.RRC_RECONFIG
    assert scn.events[1].dci == b.DciEvent(b.DciFormat.FMT_1_1, "01")


class Duplexes(NamedTuple):
    modes: tuple[b.Duplex, ...] = ()
    ids: frozenset[int] = frozenset()


def test_a_list_reads_its_enum_items_as_members():
    """Into the container that the field declares, a tuple or a frozenset."""
    read = _reader(Duplexes)
    value = read({"modes": ["TDD", "FDD"], "ids": [2, 0, 2]}, "x")
    assert type(value.modes) is tuple and value.modes == (b.Duplex.TDD, b.Duplex.FDD)
    assert type(value.ids) is frozenset and value.ids == {0, 2}
    with pytest.raises(ParseError) as info:
        read({"modes": ["TDD", "tdd"]}, "x")
    assert str(info.value) == "x.modes[1]: expected one of 'FDD', 'TDD', got 'tdd'"


@pytest.mark.parametrize("name", ["adaptation_fdd", "mixed_scs", "tdd"])
def test_a_parsed_cell_is_built_and_checked_once(name, monkeypatch):
    doc = json.loads((FIXTURES / f"{name}_scenario.json").read_text())
    checks = []
    post_init = b.CellConfig.__post_init__
    monkeypatch.setattr(b.CellConfig, "__post_init__", lambda self: checks.append(self) or post_init(self))
    cells = scenario_from_obj(doc).cells
    assert len(checks) == len(doc["cells"]) == len(cells)
    assert [id(c) for c in checks] == [id(c) for c in cells.values()]


def test_version_is_checked():
    doc = adaptation_doc()
    doc["version"] = "bwpsim/99"
    with pytest.raises(ParseError):
        scenario_from_obj(doc)


@pytest.mark.parametrize("where,key", [
    (("cells", 0), "point_a_hz"),
    (("cells", 0, "dl_bwps", 1, "common", "geometry"), "n_rbs"),
])
def test_missing_required_field(where, key):
    with pytest.raises(ParseError) as info:
        scenario_from_obj(without(adaptation_doc(), where, key))
    assert str(info.value) == f"{json_path(where)}: missing required field {key!r}"


def test_absent_link_params_are_distinct_empty_dicts():
    doc = adaptation_doc()
    for where in (("dl_bwps", 0, "common"), ("dl_bwps", 1, "common"), ("dl_bwps", 1, "dedicated")):
        doc = without(doc, ("cells", 0, *where), "link_params")
    bwps = scenario_from_obj(doc).cells["pcell"].dl_bwps
    params = [bwps[0].common.link_params, bwps[1].common.link_params, bwps[1].dedicated.link_params]
    assert params == [{}, {}, {}] and len({id(p) for p in params}) == 3


@pytest.mark.parametrize("name", ["adaptation_fdd", "mixed_scs", "tdd"])
def test_only_top_level_and_event_ids_reach_read(name, monkeypatch):
    """On a valid document `_read` sees the top-level fields, each cell's
    id and an RRC event's first-active ids: no config field (an Enum
    member, an absent default) and no event time goes there."""
    seen = []

    def counting(value, where, key, *args):
        seen.append((where, key))
        return _read(value, where, key, *args)

    monkeypatch.setattr("bwpsim.scenario._read", counting)
    load_scenario(FIXTURES / f"{name}_scenario.json")
    assert {key for where, key in seen if where == ""} == {"version", "cells", "capability", "events", "horizon_ms"}
    assert {key for where, key in seen if where != ""} <= {"cell_id", "first_active_dl", "first_active_ul"}


def test_bad_enum_value():
    doc = adaptation_doc()
    doc["cells"][0]["duplex"] = "XDD"
    with pytest.raises(ParseError):
        scenario_from_obj(doc)


def test_bad_indicator_bits():
    doc = adaptation_doc()
    doc["events"][1]["bwp_indicator_bits"] = "012"
    with pytest.raises(ParseError):
        scenario_from_obj(doc)


def test_fallback_with_indicator_bits_rejected():
    doc = adaptation_doc()
    doc["events"][1]["format"] = "1_0"
    with pytest.raises(ParseError):
        scenario_from_obj(doc)


def test_duplicate_cell_id():
    doc = adaptation_doc()
    doc["cells"].append(doc["cells"][0])
    with pytest.raises(ParseError):
        scenario_from_obj(doc)


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("cells",), [], "top level: at least one cell is required"),
        (("cells", 0, "cell_id"), "", "cells[0].cell_id: expected a non-empty string"),
        (("cells", 0, "fr"), "Unassigned", "cells[0]: cell must sit in FR1 or FR2"),
    ],
    ids=["no-cells", "empty-cell-id", "unassigned-fr"],
)
def test_documents_without_a_cell_to_run(path, value, message):
    """No cell, a cell without a name and a cell outside FR1 and FR2."""
    with pytest.raises(ParseError) as info:
        scenario_from_obj(mutated(adaptation_doc(), path, value))
    assert str(info.value) == message


def test_unknown_event_kind():
    doc = adaptation_doc()
    doc["events"][0]["kind"] = "Handover"
    with pytest.raises(ParseError):
        scenario_from_obj(doc)


def mutated(doc, path, value):
    """A copy of doc with the field at path (keys and list indexes) replaced."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# Documents that once escaped as a raw exception or slipped through with a
# wrong type; each must end in ParseError.
BAD_FIELDS = [
    (("cells", 0, "channel_bandwidth_mhz"), "nan"),
    (("cells", 0, "channel_bandwidth_mhz"), "inf"),
    (("cells", 0, "channel_bandwidth_mhz"), 1e303),
    (("cells", 0, "channel_bandwidth_mhz"), -5),
    (("cells", 0, "dl_bwps", 1, "dedicated"), ["not", "an", "object"]),
    (("cells", 0, "dl_bwps", 1, "common"), "geometry"),
    (("cells", 0, "dl_bwps"), 5),
    (("cells", 0, "first_active_dl"), "1"),
    (("cells", 0, "default_dl_bwp"), "2"),
    (("cells", 0, "prach_configured_on"), ["0"]),
    (("cells",), 5),
    (("events",), 5),
    (("events", 0, "at_ms"), "Infinity"),
    (("events", 0, "at_ms"), "NaN"),
    (("events", 0, "at_ms"), "soon"),
    (("events", 0, "cell"), ["pcell"]),
    (("events", 0, "first_active_dl"), "1"),
    (("events", 0, "first_active_ul"), 1.0),
    (("events", 1, "bwp_indicator_bits"), 1),
    (("events", 1, "bwp_indicator_bits"), ["0", "1"]),
    (("horizon_ms",), "Infinity"),
    (("horizon_ms",), "-Infinity"),
    # wrong JSON types that a coercion would turn into a plausible value
    *[(("capability", flag), value)
      for flag in ("mixed_numerology_bwps", "supports_no_bandwidth_restriction")
      for value in ("no", 1, None)],
    (("cells", 0, "channel_bandwidth_mhz"), True),
    (("cells", 0, "channel_bandwidth_mhz"), "100"),
    pytest.param(
        ("cells", 0, "channel_bandwidth_mhz"), 10**400, id="('cells', 0, 'channel_bandwidth_mhz')-10**400"
    ),
    (("cells", 0, "dl_bwps", 1, "common", "link_params"), ["ab"]),
    (("cells", 0, "dl_bwps", 1, "common", "link_params"), []),
    (("cells", 0, "dl_bwps", 1, "common", "link_params"), ""),
    (("cells", 0, "dl_bwps", 1, "dedicated", "link_params"), ["ab"]),
    # exponents whose exact Fraction never finishes building
    (("events", 0, "at_ms"), "1e999999999"),
    (("events", 0, "at_ms"), "1e-999999999"),
    (("horizon_ms",), "1e999999999"),
    (("horizon_ms",), "1e-999999999"),
]


@pytest.mark.parametrize("path,value", BAD_FIELDS, ids=lambda x: repr(x))
def test_wrong_types_and_non_finite_numbers_are_parse_errors(path, value):
    with pytest.raises(ParseError):
        scenario_from_obj(mutated(adaptation_doc(), path, value))


def test_json_nan_and_infinity_literals_are_parse_errors():
    text = json.dumps(adaptation_doc())
    for old, new in [('"channel_bandwidth_mhz": 50.0', '"channel_bandwidth_mhz": NaN'),
                     ('"horizon_ms": 80', '"horizon_ms": Infinity')]:
        assert old in text
        with pytest.raises(ParseError):
            scenario_from_obj(json.loads(text.replace(old, new)))


def test_horizon_optional_for_validation_but_not_run():
    doc = adaptation_doc()
    del doc["horizon_ms"]
    scn = scenario_from_obj(doc)
    assert scn.horizon_ms is None
    assert not b.validate(scn.cells["pcell"], scn.capability).has_errors
    with pytest.raises(b.ScenarioInvalid):
        b.run(scn)


def test_unreadable_and_unparsable_files(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": "bwpsim/1", ')
    with pytest.raises(ParseError):
        load_scenario(bad)


@pytest.mark.parametrize(
    "obj,message",
    [
        ([], "top level: expected an object, got []"),
        ({}, "top level: missing required field 'version'"),
        (mutated(adaptation_doc(), ("cells", 0, "prach_configured_on"), ["0"]),
         "cells[0].prach_configured_on[0]: expected an integer, got '0'"),
        (mutated(adaptation_doc(), ("cells",), 5), "cells: expected a list, got 5"),
        (mutated(adaptation_doc(), ("cells", 0, "dl_bwps", 1, "common", "link_params"), ["ab"]),
         "cells[0].dl_bwps[1].common.link_params: expected an object, got ['ab']"),
        (mutated(adaptation_doc(), ("cells", 0, "channel_bandwidth_mhz"), -5),
         "cells[0]: channel bandwidth must be a positive finite number of MHz, got -5.0"),
        (mutated(adaptation_doc(), ("events", 1, "bwp_indicator_bits"), 1),
         "events[1].bwp_indicator_bits: expected a string, got 1"),
        (mutated(adaptation_doc(), ("cells", 0, "dl_bwps", 0, "common", "geometry", "numerology", "mu"), 7),
         "cells[0].dl_bwps[0].common.geometry.numerology: mu must be an integer in [0, 4], got 7"),
        (mutated(adaptation_doc(), ("cells", 0, "dl_bwps", 1, "common", "geometry", "n_rbs"), 0),
         "cells[0].dl_bwps[1].common.geometry: n_rbs must be >= 1, got 0"),
        (mutated(adaptation_doc(), ("events", 2), 5), "events[2]: expected an object, got 5"),
        (mutated(adaptation_doc(), ("events", 1, "format"), "1_0"),
         "events[1]: fallback format 1_0 cannot carry a BWP indicator"),
        (mutated(adaptation_doc(), ("events", 0, "kind"), "RRC_RECONFIG"),
         "events[0].kind: expected one of 'RrcReconfig', 'ScellActivate', 'Dci', 'RachStart', 'RachComplete',"
         " 'DataDlAssignment', 'DataUlGrant', got 'RRC_RECONFIG'"),
        (mutated(adaptation_doc(), ("events", 1, "format"), "FMT_1_1"),
         "events[1].format: expected one of '0_0', '0_1', '1_0', '1_1', got 'FMT_1_1'"),
        (mutated(adaptation_doc(), ("events", 3, "at_ms"), "35ms"),
         "events[3].at_ms: not a decimal time value: '35ms'"),
    ],
    ids=["not-an-object", "no-version", "list-item", "not-a-list", "nested-object", "constructor", "event-index",
         "nested-constructor", "geometry-constructor", "event-not-an-object", "fallback-dci-bits", "kind-by-name",
         "format-by-name", "at-ms-string"],
)
def test_top_level_errors_say_so(obj, message):
    """Top-level errors say so; the others name the JSON path of the value
    or the object whose constructor refused it."""
    with pytest.raises(ParseError) as info:
        scenario_from_obj(obj)
    assert str(info.value) == message


# The document format field by field, typed from docs/file_formats.md and
# not from the config types: one object of each kind in
# adaptation_fdd_scenario.json, by its path, and its fields in the order
# they are read, each REQUIRED or with the JSON value that its absence means.
REQUIRED = "required"
FORMAT = [
    ((), {"version": REQUIRED, "cells": REQUIRED, "capability": REQUIRED, "events": [], "horizon_ms": None}),
    (("capability",), {
        "max_rrc_bwps": REQUIRED, "mixed_numerology_bwps": False,
        "supports_no_bandwidth_restriction": False, "switch_delay_type": "type1",
    }),
    (("cells", 0), {
        "cell_id": REQUIRED, "cell_role": REQUIRED, "duplex": REQUIRED, "fr": REQUIRED, "point_a_hz": REQUIRED,
        "channel_bandwidth_mhz": REQUIRED, "coreset0_span": REQUIRED, "ssb_span": REQUIRED, "dl_bwps": REQUIRED,
        "ul_bwps": [], "first_active_dl": None, "first_active_ul": None, "default_dl_bwp": None,
        "inactivity_timer_ms": None, "rrc_processing_delay_ms": 10, "prach_configured_on": [0],
    }),
    (("cells", 0, "ssb_span"), {"low_hz": REQUIRED, "high_hz": REQUIRED}),
    (("cells", 0, "ul_bwps", 1), {"id": REQUIRED, "common": REQUIRED, "dedicated": None}),
    (("cells", 0, "ul_bwps", 1, "common"), {"geometry": REQUIRED, "link_params": {}}),
    (("cells", 0, "ul_bwps", 1, "common", "geometry"), {
        "start_rb": REQUIRED, "n_rbs": REQUIRED, "numerology": REQUIRED, "cyclic_prefix": "normal",
    }),
    (("cells", 0, "ul_bwps", 1, "common", "geometry", "numerology"), {"mu": REQUIRED}),
    (("cells", 0, "ul_bwps", 1, "dedicated"), {"link_params": {}, "uplink_waveform": None}),
    (("events", 0), {  # RrcReconfig
        "kind": REQUIRED, "at_ms": REQUIRED, "cell": REQUIRED, "first_active_dl": None, "first_active_ul": None,
    }),
    (("events", 1), {  # Dci, non-fallback
        "kind": REQUIRED, "at_ms": REQUIRED, "cell": REQUIRED, "format": REQUIRED, "bwp_indicator_bits": None,
    }),
]
FIELDS = [(where, key, absent) for where, fields in FORMAT for key, absent in fields.items()]
REQUIRED_FIELDS = [(where, key) for where, key, absent in FIELDS if absent == REQUIRED]
DEFAULTED_FIELDS = [field for field in FIELDS if field[2] != REQUIRED]
# the int fields of the docs' tables, and the enum fields with their types,
# whose members' names are not their values
INTEGER = {
    "max_rrc_bwps", "point_a_hz", "low_hz", "high_hz", "id", "start_rb", "n_rbs", "mu", "first_active_dl",
    "first_active_ul", "default_dl_bwp", "inactivity_timer_ms", "rrc_processing_delay_ms",
}
ENUMS = {
    "switch_delay_type": b.DelayType, "cell_role": b.CellRole, "duplex": b.Duplex, "fr": b.FrequencyRange,
    "cyclic_prefix": b.CyclicPrefix, "uplink_waveform": b.UplinkWaveform, "kind": b.EventKind,
    "format": b.DciFormat,
}
INTEGER_FIELDS = [(where, key) for where, key, _ in FIELDS if key in INTEGER]
MEMBER_NAMES = [(where, key, m.name) for where, key, _ in FIELDS if key in ENUMS
                for m in ENUMS[key] if m.name != m.value]
# the fields in which the docs let null mean absent
NULLABLE = {
    "first_active_dl", "first_active_ul", "default_dl_bwp", "inactivity_timer_ms",
    "dedicated", "uplink_waveform", "bwp_indicator_bits", "horizon_ms",
}


def json_path(where):
    """A path tuple as parse errors spell it: cells[0].ssb_span."""
    text = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in where).lstrip(".")
    return text or "top level"


def node_at(doc, where):
    for key in where:
        doc = doc[key]
    return doc


def without(doc, where, *keys):
    """A copy of doc with the named fields of the object at `where` deleted."""
    doc = json.loads(json.dumps(doc))
    node = node_at(doc, where)
    for key in keys:
        del node[key]
    return doc


def field_ids(fields):
    return [f"{json_path(where)}:{key}" for where, key, *_ in fields]


class TestFormatTable:
    def test_the_table_covers_every_field_of_its_objects(self):
        doc = adaptation_doc()
        for where, fields in FORMAT:
            assert set(fields) == set(node_at(doc, where)), where

    def test_the_nullable_fields_are_the_docs_list(self):
        docs = (FIXTURES.parent / "docs" / "file_formats.md").read_text()
        sentence = re.search(r"`null` means \"absent\" only in the fields[^:]*:(.*?)\. Anywhere else", docs, re.S)
        assert set(re.findall(r"`(\w+)`", sentence.group(1))) == NULLABLE
        assert {key for _, key, absent in FIELDS if absent is None} == NULLABLE

    @pytest.mark.parametrize("where,key", REQUIRED_FIELDS, ids=field_ids(REQUIRED_FIELDS))
    def test_a_missing_required_field_is_named(self, where, key):
        with pytest.raises(ParseError) as info:
            scenario_from_obj(without(adaptation_doc(), where, key))
        assert str(info.value) == f"{json_path(where)}: missing required field {key!r}"

    @pytest.mark.parametrize("where,key,absent", DEFAULTED_FIELDS, ids=field_ids(DEFAULTED_FIELDS))
    def test_a_missing_defaulted_field_reads_as_its_documented_default(self, where, key, absent):
        doc = adaptation_doc()
        assert scenario_from_obj(without(doc, where, key)) == scenario_from_obj(mutated(doc, (*where, key), absent))

    @pytest.mark.parametrize("where,key", [field[:2] for field in FIELDS], ids=field_ids(FIELDS))
    def test_null_means_absent_only_in_the_documented_fields(self, where, key):
        doc = adaptation_doc()
        if key in NULLABLE:
            assert scenario_from_obj(mutated(doc, (*where, key), None)) == scenario_from_obj(without(doc, where, key))
        else:
            with pytest.raises(ParseError, match=f"^{re.escape(json_path((*where, key)))}: "):
                scenario_from_obj(mutated(doc, (*where, key), None))

    @pytest.mark.parametrize("where,key", INTEGER_FIELDS, ids=field_ids(INTEGER_FIELDS))
    def test_an_integer_field_refuses_true(self, where, key):
        with pytest.raises(ParseError) as info:
            scenario_from_obj(mutated(adaptation_doc(), (*where, key), True))
        assert str(info.value) == f"{json_path((*where, key))}: expected an integer, got True"

    @pytest.mark.parametrize("where,key,name", MEMBER_NAMES, ids=[f"{json_path(w)}:{k}={n}" for w, k, n in MEMBER_NAMES])
    def test_an_enum_field_refuses_a_member_name(self, where, key, name):
        with pytest.raises(ParseError, match=f"^{re.escape(json_path((*where, key)))}: expected one of "):
            scenario_from_obj(mutated(adaptation_doc(), (*where, key), name))

    @pytest.mark.parametrize("where", list(dict.fromkeys(where for where, _ in REQUIRED_FIELDS)), ids=json_path)
    def test_fields_are_read_in_order(self, where):
        """With every required field gone, the error names the first."""
        required = [key for w, key in REQUIRED_FIELDS if w == where]
        with pytest.raises(ParseError) as info:
            scenario_from_obj(without(adaptation_doc(), where, *required))
        assert str(info.value) == f"{json_path(where)}: missing required field {required[0]!r}"


def events_doc(*events):
    """The adaptation document with its events replaced."""
    doc = adaptation_doc()
    doc["events"] = [dict(ev, cell="pcell") for ev in events]
    return doc


def dci(fmt, bits=None, at_ms=33):
    ev = {"at_ms": at_ms, "kind": "Dci", "format": fmt}
    return ev if bits is None else dict(ev, bwp_indicator_bits=bits)


def data(at_ms):
    return {"at_ms": at_ms, "kind": "DataDlAssignment"}


class TestSharedEventValues:
    def test_events_of_one_spelling_share_one_fraction(self):
        spellings = [5, 5, "5", 5.0, "5.000", 5, "5", 5.0, "5.000", 7]
        events = scenario_from_obj(events_doc(*map(data, spellings))).events
        assert [ev.at_ms for ev in events] == [F(5)] * 9 + [F(7)]
        for (x, ex), (y, ey) in itertools.combinations(zip(spellings, events), 2):
            same = type(x) is type(y) and x == y
            assert (ex.at_ms is ey.at_ms) == same, (x, y)

    @pytest.mark.parametrize("cached,bad", [(1, True), (0, False), (1.0, True)])
    def test_true_after_a_cached_one_is_still_an_error(self, cached, bad):
        with pytest.raises(ParseError, match=r"^events\[1\]\.at_ms: not a time value"):
            scenario_from_obj(events_doc(data(cached), data(bad)))

    def test_dcis_of_one_format_and_bits_share_one_dci_event(self):
        pairs = [("1_1", "01"), ("1_1", "10"), ("1_1", "01"), ("1_0", None), ("0_1", "01"), ("1_0", None)]
        events = scenario_from_obj(events_doc(*(dci(f, bits) for f, bits in pairs))).events
        assert [(ev.dci.format.value, ev.dci.bwp_indicator_bits) for ev in events] == pairs
        for (p, ep), (q, eq) in itertools.combinations(zip(pairs, events), 2):
            assert (ep.dci is eq.dci) == (p == q), (p, q)

    def test_a_bad_dci_after_a_good_one_of_its_format_is_an_error(self):
        with pytest.raises(ParseError, match=r"^events\[1\]: indicator bits"):
            scenario_from_obj(events_doc(dci("1_1", "01"), dci("1_1", "011")))

    def test_nothing_is_kept_between_documents(self, monkeypatch):
        """A document that fails after some events parsed leaves no cached
        value behind: the next document parses each of its own spellings."""
        parsed = []

        def counting(value):
            parsed.append(value)
            return b.parse_ms(value)

        monkeypatch.setattr("bwpsim.scenario.parse_ms", counting)
        with pytest.raises(ParseError, match=r"^events\[2\]"):
            scenario_from_obj(events_doc(dci("1_1", "01", 5), data("5"), dci("1_1", "0x1", 5)))
        parsed.clear()
        doc = events_doc(dci("1_1", "01", 5), data("5"), data(5), dci("1_1", "01", "5"))
        first, second = scenario_from_obj(doc), scenario_from_obj(doc)
        assert parsed == [5, "5", 80] * 2  # the two spellings and the horizon, per call
        for a, z in zip(first.events, second.events):
            assert a.at_ms == z.at_ms and a.at_ms is not z.at_ms
            assert a.dci == z.dci and (a.dci is None or a.dci is not z.dci)


class TestTimeSyntax:
    @pytest.mark.parametrize(
        "text,value",
        [("2.25", F(9, 4)), ("0.5", F(1, 2)), ("3", F(3)), ("0", F(0)), ("12.125", F(97, 8))],
    )
    def test_parse_and_format_round_trip(self, text, value):
        assert b.parse_ms(text) == value
        assert b.ms_str(value) == text

    def test_float_means_its_decimal_literal(self):
        assert b.parse_ms(0.3) == F(3, 10)
        assert b.parse_ms(0.5) == F(1, 2)

    @pytest.mark.parametrize("per_ms", [1, 2, 4, 8, 40, 80, 1000, 2**10 * 5**3])
    def test_ms_str_matches_a_decimal_reference(self, per_ms):
        """k/per_ms as a Fraction, and k as an int, render as Decimal does, and
        so do k >= 0 whole eighths, so `ms_str` and `eighths_str` cannot drift apart."""

        def reference(num, den):
            with localcontext() as ctx:
                ctx.prec = 100
                return format((Decimal(num) / Decimal(den)).normalize(), "f")

        for k in [*range(-300, 301), 10**30 + 1, -(10**30) - 7]:
            assert b.ms_str(F(k, per_ms)) == reference(k, per_ms), (k, per_ms)
            assert b.ms_str(k) == reference(k, 1), k
            if per_ms == 8 and k >= 0:
                assert eighths_str(k) == reference(k, 8), k

    def test_parse_ms_matches_a_decimal_reference(self):
        """Every spelling of k/8 ms parses to `Fraction(Decimal(text))`: the
        minimal one that `ms_str` writes, which the eighths table reads, and
        those that go through `Decimal`, so the two paths cannot drift apart."""
        spellings = ["1.50", "007.5", "+1.5", ".5", "-.5", "1.", "15e-1", "1.5E0", "0.125e1", "+0", "-0", "00"]
        for k in range(-300, 301):
            text = b.ms_str(F(k, 8))
            sign, digits = ("-", text[1:]) if text.startswith("-") else ("", text)
            spellings += [text, f"{sign}00{digits}", f"{text}0" if "." in text else f"{text}.", f"+{text}" * (not sign)]
        for text in filter(None, spellings):
            value = b.parse_ms(text)
            assert type(value) is F and value == F(Decimal(text)), text

    @pytest.mark.parametrize(
        "text", ["1_0", " 2.5 ", "2.5\n", "\u0663", "\uff11.\uff15", "1.\u0665", "", ".", "+", "1e", "e1", "1.5.5",
                 "0x10", "1/2", "1e+", "--1"],
    )
    def test_time_strings_are_ascii_decimals(self, text):
        """Only `[+-]digits[.digits]` or `[+-].digits`, with an optional
        exponent, in ASCII: not the underscores, surrounding whitespace and
        non-ASCII digits that `Decimal` takes. NaN and the infinities stay
        "not a finite time value"."""
        with pytest.raises(ValueError, match=f"^not a decimal time value: {re.escape(repr(text))}$"):
            b.parse_ms(text)

    @pytest.mark.parametrize("text", ["1_0", " 2.5 ", "\u0663", "\uff11.\uff15"])
    def test_a_lenient_time_string_is_a_parse_error_at_its_path(self, text):
        for path, where in ((("events", 3, "at_ms"), r"events\[3\]\.at_ms"), (("horizon_ms",), "horizon_ms")):
            with pytest.raises(ParseError, match=f"^{where}: not a decimal time value: {re.escape(repr(text))}$"):
                scenario_from_obj(mutated(adaptation_doc(), path, text))

    @pytest.mark.parametrize("value", [0.5, 0.1, Decimal("-2.250"), True, False])
    def test_ms_str_refuses_floats_and_decimals(self, value):
        """A float is not written as its binary expansion (0.1 would be
        '0.1000000000000000055...'), nor a Decimal as its digits, nor a
        bool as 1 or 0: `parse_ms` refuses `true` too."""
        with pytest.raises(ValueError, match=r"ms: a time must be an int or Fraction"):
            b.ms_str(value)

    def test_non_decimal_fraction_has_no_string(self):
        with pytest.raises(ValueError):
            b.ms_str(F(1, 3))

    def test_booleans_are_not_times(self):
        with pytest.raises(ValueError):
            b.parse_ms(True)

    @pytest.mark.parametrize("value", [F(1, 3), F(1, 2), Decimal("0.5"), type("Ms", (int,), {})(5), None, [1]],
                             ids=["fraction-1/3", "fraction-1/2", "decimal", "int-subclass", "null", "list"])
    def test_only_json_types_are_times(self, value):
        """Exactly an int, float or str: a Fraction such as 1/3 has no
        decimal form, and no JSON decoder makes an int subclass."""
        with pytest.raises(ValueError, match=re.escape(f"not a time value: {value!r}")):
            b.parse_ms(value)

    @pytest.mark.parametrize(
        "value",
        ["Infinity", "-inf", "NaN", float("inf"), float("nan"), "1/2", "soon", "1e999999999", "1e-999999999"],
    )
    def test_non_finite_and_non_decimal_values_are_value_errors(self, value):
        with pytest.raises(ValueError):
            b.parse_ms(value)

    def test_exponent_bound_keeps_every_finite_float(self):
        assert b.parse_ms(5e-324) == F(5, 10**324)
        assert b.parse_ms(1.7976931348623157e308) == F(17976931348623157 * 10**292)
        assert b.parse_ms("1e400") == F(10**400)
        assert b.parse_ms("-9.99e-400") == F(-999, 10**402)
        with pytest.raises(ValueError):
            b.parse_ms("1e401")
        with pytest.raises(ValueError, match="^not a decimal time value"):
            b.parse_ms("1e" + "9" * 20)  # past the exponent that `Decimal` itself can hold
