"""tools/differential.py: every input whose digests differ is reported."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("differential", ROOT / "tools" / "differential.py")
differential = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(differential)


def line(name, **changed):
    digests = {key: key * 16 for key in differential.DIGESTS}
    return json.dumps({"name": name, **digests, **changed})


OLD = [line("a"), line("b"), line("c"), line("d")]


def test_same_digests_report_nothing_and_exit_0(capsys):
    assert differential.differences(OLD, OLD) == []
    assert differential.report(OLD, OLD) == 0
    assert capsys.readouterr().out == "4 inputs: the same parse, findings, run and cli digests\n"


def test_every_differing_input_and_digest_is_reported(capsys):
    new = [line("a"), line("b", parse="p" * 16, cli="c" * 16), line("c"), line("d", run="r" * 16)]
    assert differential.report(OLD, new) == 1
    assert capsys.readouterr().out.splitlines() == [
        "b: the parse digest differs (parseparsepa old, pppppppppppp new); "
        "the cli digest differs (clicliclicli old, cccccccccccc new)",
        "d: the run digest differs (runrunrunrun old, rrrrrrrrrrrr new)",
        "2 of 4 inputs differ",
    ]


def test_corpora_of_different_lengths_are_refused():
    with pytest.raises(ValueError):
        differential.differences(OLD, OLD[:3])
