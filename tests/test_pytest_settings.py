"""The suite's own pytest settings: a failing property test is a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_given_test_fails_the_run_without_internalerror(tmp_path):
    """Under the repo's ini options (warnings are errors), a failing `@given`
    test ends pytest with exit 1, not INTERNALERROR (exit 3): hypothesis's
    report hook, which may import libcst to write a patch for the failing
    example, raises no warning-turned-error that aborts the whole run."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n",
        encoding="utf-8",
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout
