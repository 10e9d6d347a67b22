"""The correctness gate: no number is reported for a wrong answer."""

from __future__ import annotations

import hashlib


class GateFailure(Exception):
    """An output differs from its golden bytes, its digest or its rerun."""


class Tally:
    """Checks attempted and failed, for the result line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failure = ""

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.first_failure = self.first_failure or what
        return ok


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def expect_equal(tally: Tally, what: str, got, want) -> None:
    """Gate on an exact match (bytes, text or structured outcome)."""
    if not tally.record(got == want, what):
        raise GateFailure(f"{what}: output differs from the expected one")


def expect_digest(tally: Tally, what: str, data: str | bytes, want_hex: str) -> None:
    """Gate on the sha256 of `data`."""
    got = sha256(data)
    if not tally.record(got == want_hex, what):
        raise GateFailure(f"{what}: sha256 {got} != recorded {want_hex}")

