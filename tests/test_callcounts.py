"""tools/callcounts.py: one tree against itself counts the same calls."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_tree_against_itself_counts_the_same_calls():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "callcounts.py"), str(ROOT), str(ROOT),
         "--workload", "validate_corpus", "--seed", "0", "--scale", "0.02", "--top", "3"],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"validate_corpus, seed 0, scale 0\.02: (\d+) documents, \1 parse", lines[0])
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:5]}
    assert rows["old"] == rows["new"]
    assert all(int(calls.replace(",", "")) > 0 for calls in rows["old"])
    assert lines[1].split() == ["parse", "python", "parse", "builtin", "validate", "python", "validate", "builtin"]
    assert rows["change"] == ["+0.0%"] * 4
    assert len(lines) == 5 + 2 * 2 * 3  # the 3 most-called functions of each pass, in each tree


def test_a_run_workload_counts_a_run_pass_too():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "callcounts.py"), str(ROOT), str(ROOT),
         "--workload", "ca_dense", "--seed", "0", "--scale", "0.02", "--top", "2"],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"ca_dense, seed 0, scale 0\.02: (\d+) documents, \1 parse", lines[0])
    assert lines[1].split() == [word for p in ("parse", "validate", "run") for word in (p, "python", p, "builtin")]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:5]}
    assert rows["old"] == rows["new"]
    assert all(int(calls.replace(",", "")) > 0 for calls in rows["old"])
    assert rows["change"] == ["+0.0%"] * 6
    assert [line.split()[1] for line in lines[5:]] == ["parse:", "parse:", "validate:", "validate:", "run:", "run:"] * 2
