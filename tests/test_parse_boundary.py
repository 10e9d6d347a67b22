"""Mutated scenario documents: every one parses or is a ParseError, what
parses validates without raising, and the CLI exits 0, 1 or 2 without a
traceback. What parses with a horizon also runs, whatever the horizon (a
mutation can set it to anything up to 1e400 ms): it raises
ScenarioInvalid or gives a trace whose written and read-back form
replays to the run's metrics.
"""

import contextlib
import io
import json
import json.scanner
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bwpsim as b
from bwpsim.cli import main
from bwpsim import trace
from bwpsim.scenario import ParseError, scenario_from_obj

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DOC_FILES = sorted(FIXTURES.glob("*_scenario.json")) + sorted((FIXTURES / "invalid").glob("*.json"))
DOCS = [json.loads(p.read_text()) for p in DOC_FILES]

# strings the format gives a meaning to, so mutations also land on valid
# enum values, times and indicator bits
MEANINGFUL = [
    "", "FDD", "TDD", "FR1", "FR2", "Unassigned", "PCell", "SCell", "normal", "extended",
    "type2", "CP-OFDM", "Dci", "RrcReconfig", "RachStart", "1_0", "1_1", "0", "01", "11",
    "2.5", "0.5", "-1", "1e999999999", "1e-999999999", "nan", "Infinity", "bwpsim/1",
]

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 300)
    | st.integers()
    | st.floats()
    | st.sampled_from(MEANINGFUL)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(MEANINGFUL), inner, max_size=3),
    max_leaves=6,
)


def paths(node, prefix=()):
    """Every key and index path inside a JSON value, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """A fixture document with one path set to a JSON value or deleted, as JSON text."""
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCS))))
    path = draw(st.sampled_from(list(paths(doc))))
    delete = bool(path) and draw(st.booleans())
    value = None if delete else draw(JSON_VALUES)
    if not path:
        return json.dumps(value)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(doc)


@pytest.fixture(scope="module")
def doc_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "doc.json"


@settings(max_examples=200, deadline=None)
@given(text=mutated_documents())
def test_mutated_documents_parse_or_fail_cleanly(doc_file, text):
    try:
        scenario = scenario_from_obj(json.loads(text))
    except ParseError:
        scenario = None
    if scenario is not None:
        for cfg in scenario.cells.values():
            b.validate(cfg, scenario.capability)  # never raises
        if scenario.horizon_ms is not None:
            try:
                trace, metrics = b.run(scenario)
            except b.ScenarioInvalid:
                pass
            else:
                written = io.StringIO()
                b.write_trace(trace, written)
                assert b.replay_metrics(b.read_trace(written.getvalue().splitlines())) == metrics
    doc_file.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["validate", str(doc_file)])
    assert code == 2 if scenario is None else code in (0, 1)
    assert "Traceback" not in err.getvalue()


def test_repeated_key_is_a_parse_error_naming_it(tmp_path):
    """A document that says two things for one field is refused, not read as its last."""
    text = (FIXTURES / "tdd_scenario.json").read_text()
    assert text.count('"horizon_ms": 60') == 1
    doc = tmp_path / "doc.json"
    doc.write_text(text.replace('"horizon_ms": 60', '"horizon_ms": 5, "horizon_ms": 60'))
    with pytest.raises(ParseError, match=r"doc\.json: .*repeated key 'horizon_ms'"):
        b.load_scenario(doc)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(doc)])
    assert code == 2
    assert out.getvalue() == ""
    assert "repeated key 'horizon_ms'" in err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "old,new",
    [
        ('"switch_delay_type": "type1"', '"switch_delay_type": "type1", "switch_delay_type": "type2"'),
        ('"pdcch": "wideband"', '"pdcch": "wideband", "pdcch": "narrowband"'),
        ('"at_ms": 30, "cell": "tdd0"', '"at_ms": 30, "cell": "tdd0", "at_ms": 31'),
    ],
    ids=["capability", "link-params", "event"],
)
def test_repeated_key_at_any_depth_is_a_parse_error(tmp_path, old, new):
    text = (FIXTURES / "tdd_scenario.json").read_text()
    assert text.count(old) == 1
    path = tmp_path / "doc.json"
    path.write_text(text.replace(old, new))
    with pytest.raises(ParseError, match="repeated key " + repr(old.split('"')[1])):
        b.load_scenario(path)


def test_a_byte_order_mark_keeps_json_s_own_message(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("\ufeff" + (FIXTURES / "tdd_scenario.json").read_text(), encoding="utf-8")
    with pytest.raises(ParseError, match="Unexpected UTF-8 BOM"):
        b.load_scenario(path)


# texts whose value or error json.loads decides; decode_json must agree
DECODE_CASES = {
    "empty": "",
    "whitespace-only": " \t\r\n ",
    "leading-whitespace": " \t\n{\"a\": [1, 2.5, null]}",
    "trailing-whitespace": '{"a": "b"}\r\n\t ',
    "both-whitespace": "\n 7 \n",
    "plain": '{"a": {"b": [true, false, "\\u00e9"]}}',
    "trailing-text": '{"a":1} x',
    "two-objects": '{"a":1}{"b":2}',
    "two-numbers": "1 2",
    "whitespace-then-extra": "  1  2  ",
    "bad-value": "  x",
    "bad-member": '{"a": }',
    "byte-order-mark": "\ufeff{}",
    "nested-100000-deep": "[" * 100_000,
}


def _outcome(decode, text):
    try:
        return "value", decode(text)
    except json.JSONDecodeError as exc:
        return type(exc), str(exc), exc.pos
    except RecursionError:  # its wording differs between the C and Python scanners
        return (RecursionError,)


@pytest.fixture(params=["c-scanner", "py-scanner"])
def decode(request, monkeypatch):
    """decode_json as it is here, and as on a Python whose json has no C scanner."""
    if request.param == "py-scanner":
        monkeypatch.setattr(trace._DECODER, "scan_once", json.scanner.py_make_scanner(trace._DECODER))
    assert (type(trace._DECODER.scan_once).__module__ == "_json") == (request.param == "c-scanner")
    return trace.decode_json


class TestDecodeJson:
    @pytest.mark.parametrize("text", DECODE_CASES.values(), ids=DECODE_CASES.keys())
    def test_values_and_errors_are_json_loads_s(self, decode, text):
        assert _outcome(decode, text) == _outcome(json.loads, text)

    @pytest.mark.parametrize("text", ['{"a": 1, "a": 1}', ' [{"b": {"a": 1, "a": 2}}] '], ids=["top", "nested"])
    def test_a_repeated_key_is_a_value_error_naming_it(self, decode, text):
        with pytest.raises(ValueError, match=r"^repeated key 'a'$"):
            decode(text)
