"""Mutant gate: every mutant listed in tools/mutants.json must fail tier-1.

Run from anywhere, with pytest and hypothesis installed:

    python tools/mutants.py

Each mutant names a file under src/, an exact `old` text that must occur
there once, the `new` text that replaces it, and why the change is not
equivalent. The runner copies the tier-1 tree (src/, tests/, fixtures/,
demos/, docs/, pyproject.toml, and perfbench/ and tools/, which a test
runs) to a temporary directory, first checks that the unmutated copy
passes, then applies one mutant at a time to a fresh copy of src/ and
runs the tier-1 command with -x. A mutant the suite
passes on is a survivor; a mutant run that takes longer than TIMEOUT_FACTOR
times the baseline's wall time is stopped and counts as an error. Exit
status 1 on any survivor or error, on an `old` text that no longer
matches, or on a failing baseline; 0 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
TREE = ("src", "tests", "fixtures", "demos", "docs", "perfbench", "tools", "pyproject.toml")
IGNORE = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT_FACTOR = 5


def _copy_tree(dest: Path) -> None:
    for name in TREE:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=IGNORE)
        else:
            shutil.copy2(src, dest / name)


def _tier1(work: Path, timeout: float | None = None) -> int | None:
    """Tier-1's exit status on `work`, or None if it ran past `timeout` seconds."""
    env = {**os.environ, "PYTHONPATH": str(work / "src")}
    try:
        return subprocess.run(TIER1, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="bwpsim-mutants-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        pristine = work / "src.orig"
        shutil.copytree(work / "src", pristine)
        start = time.monotonic()
        if _tier1(work) != 0:
            print("baseline: tier-1 fails on the unmutated tree", file=sys.stderr)
            return 1
        timeout = TIMEOUT_FACTOR * (time.monotonic() - start)
        bad = []
        for m in mutants:
            shutil.rmtree(work / "src")
            shutil.copytree(pristine, work / "src")
            target = work / "src" / m["file"]
            text = target.read_text(encoding="utf-8")
            if text.count(m["old"]) != 1:
                print(f"{m['id']}: STALE (old text occurs {text.count(m['old'])} times in {m['file']})")
                bad.append(m["id"])
                continue
            target.write_text(text.replace(m["old"], m["new"]), encoding="utf-8")
            start = time.monotonic()
            rc = _tier1(work, timeout)
            verdict = ("killed" if rc == 1 else "SURVIVED" if rc == 0
                       else f"ERROR (timed out after {timeout:.0f} s)" if rc is None
                       else f"ERROR (pytest exit {rc})")
            print(f"{m['id']}: {verdict} in {time.monotonic() - start:.1f} s")
            if verdict != "killed":
                bad.append(m["id"])
    print(f"{len(mutants)} mutants, {len(bad)} not killed" + (f": {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
