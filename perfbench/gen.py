"""Seeded generators for the benchmark's scenario documents.

Every generator takes a seed and returns `bwpsim/1` documents as JSON
text; the simulator only ever sees that text. The generators do not import
`bwpsim`, so a change to the program cannot change its own inputs. The
same seed gives the same bytes; sizes (cells, events, horizons) are fixed
per workload so that run-to-run cost does not depend on the seed.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

FORMAT_VERSION = "bwpsim/1"

# (frequency range, mu) -> Point A in Hz and a channel that fits a 100-RB grid
POINT_A_HZ = {"FR1": 3_400_000_000, "FR2": 27_000_000_000}
CHANNEL_MHZ = {1: 40.0, 3: 200.0}
TICK_MS = {"FR1": 1.0, "FR2": 0.5}
# Longest switch window in ms for the governing SCS (type 2 delay), per mu;
# half of it bounds the type 1 window.
MAX_SWITCH_MS = {1: 2.5, 3: 2.25}
# Share of switches whose next event does not wait for the window to end.
EARLY_SHARE = 0.15

# validate_corpus: mutations that each trip one validator rule
MUTATIONS = (
    "timer_range",
    "rrc_delay",
    "channel_bw",
    "first_active_ref",
    "default_ref",
    "bwp_count",
    "tdd_center",
    "coreset_outside",
    "prach_ref",
    "scell_first_active",
)


def rng_for(workload: str, seed: int) -> random.Random:
    """Independent stream per workload; string seeds hash stably."""
    return random.Random(f"perfbench/{workload}/{seed}")


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _num(ms: float):
    """A time as JSON: an int when whole, else a float with an exact repr."""
    return int(ms) if ms == int(ms) else ms


def _bwp(bwp_id: int, width: int, mu: int, dedicated: bool) -> dict:
    # All BWPs are centered on RB 50 of a 100-RB grid, so DL/UL pairs share
    # their center (TDD rule) and every BWP holds the SSB/CORESET block.
    geom = {"start_rb": (100 - width) // 2, "n_rbs": width, "numerology": {"mu": mu}, "cyclic_prefix": "normal"}
    return {
        "id": bwp_id,
        "common": {"geometry": geom, "link_params": {"pdcch": f"bwp{bwp_id}"}},
        "dedicated": {"link_params": {"pdsch": "ue-profile"}} if dedicated else None,
    }


def make_cell(rng: random.Random, cell_id: str, role: str, duplex: str, fr: str) -> dict:
    """A cell that validates cleanly; the seed picks widths and timers."""
    mu = 1 if fr == "FR1" else 3
    rb_hz = 12 * 15_000 * 2**mu
    point_a = POINT_A_HZ[fr]
    n_bwps = rng.choice((3, 4))
    widths = [rng.randint(20, 30)] + [rng.randint(30, 100) for _ in range(n_bwps - 1)]
    bwps = [_bwp(i, w, mu, dedicated=True) for i, w in enumerate(widths)]
    first = rng.randint(1, n_bwps - 1)
    block = {"low_hz": point_a + 40 * rb_hz, "high_hz": point_a + 60 * rb_hz}
    return {
        "cell_id": cell_id,
        "cell_role": role,
        "duplex": duplex,
        "fr": fr,
        "point_a_hz": point_a,
        "channel_bandwidth_mhz": CHANNEL_MHZ[mu],
        "coreset0_span": dict(block),
        "ssb_span": dict(block),
        "dl_bwps": bwps,
        "ul_bwps": copy.deepcopy(bwps),
        "first_active_dl": first,
        "first_active_ul": first,
        "default_dl_bwp": rng.choice((0, 1)),
        "inactivity_timer_ms": rng.choice((10, 20, 40, 80)),
        "rrc_processing_delay_ms": rng.choice((5, 10)),
        "prach_configured_on": sorted({0, rng.randint(0, n_bwps - 1)}),
    }


def _indicator(target: int, n_bwps: int) -> str:
    """Indicator bits for `target` with BWPs 0..n_bwps-1 (TS 38.212 table)."""
    return format(target, "02b") if n_bwps - 1 >= 2 else format(target, "b")


class _CellScript:
    """Event script for one cell, steering clear of its own switch windows.

    The generator tracks which BWP it asked for and when each switch it
    caused ends, and leaves a gap after it. Timer-expiry windows are not
    modelled, and a share of switches is followed at once by the next
    event, so a minority of events lands in a window and is rejected,
    which keeps the rejection path in the workload.
    """

    def __init__(self, rng: random.Random, cell: dict, delay_ms: float):
        self.rng = rng
        self.cell = cell
        self.id = cell["cell_id"]
        self.tick = TICK_MS[cell["fr"]]
        self.n_bwps = len(cell["dl_bwps"])
        self.window_ms = delay_ms
        self.rrc_ms = cell["rrc_processing_delay_ms"] + delay_ms
        self.active = 0
        self.in_rach = False

    def _after(self, t: float, ms: float) -> float:
        """First tick strictly after t + ms; now and then the next tick
        instead, so that some events land inside the window."""
        if self.rng.random() < EARLY_SHARE:
            return t + self.tick
        k = int((t + ms) / self.tick) + 1
        return k * self.tick

    def next_event(self, t: float) -> tuple[dict, float]:
        """The event at time t and the time of this cell's next event."""
        rng = self.rng
        ev: dict = {"at_ms": _num(t), "cell": self.id}
        gap_ticks = rng.randint(1, 3)
        nxt = t + gap_ticks * self.tick
        roll = rng.random()
        if self.in_rach and roll < 0.15:
            ev["kind"] = "RachComplete"
            self.in_rach = False
        elif roll < 0.40:
            ev["kind"] = rng.choice(("DataDlAssignment", "DataUlGrant"))
        elif roll < 0.70:
            ev["kind"] = "Dci"
            ev["format"] = rng.choice(("1_0", "0_0"))
        elif roll < 0.90:
            ev["kind"] = "Dci"
            ev["format"] = rng.choice(("1_1", "0_1"))
            target = rng.randrange(self.n_bwps)
            ev["bwp_indicator_bits"] = _indicator(target, self.n_bwps)
            if target != self.active:
                self.active = target
                nxt = self._after(t, self.window_ms)
        elif roll < 0.94 and not self.in_rach:
            ev["kind"] = "RachStart"
            self.in_rach = True
            self.active = 0
            nxt = self._after(t, self.window_ms)
        elif roll < 0.97 and self.cell["cell_role"] == "SCell":
            ev["kind"] = "ScellActivate"
            self.active = self.cell["first_active_dl"]
            nxt = self._after(t, self.rrc_ms)
        else:
            target = rng.randrange(self.n_bwps)
            ev.update(kind="RrcReconfig", first_active_dl=target, first_active_ul=target)
            self.active = target
            nxt = self._after(t, self.rrc_ms)
        return ev, nxt


def _merge_scripts(scripts: list[_CellScript], per_cell: int) -> list[dict]:
    """Interleave `per_cell` events of every cell's script in time order."""
    events = []
    due = [(1.0, i, 0) for i in range(len(scripts))]
    while due:
        due.sort()
        t, i, n = due.pop(0)
        ev, nxt = scripts[i].next_event(t)
        events.append(ev)
        if n + 1 < per_cell:
            due.append((nxt, i, n + 1))
    return events


def _capability(delay_type: str) -> dict:
    return {
        "max_rrc_bwps": 4,
        "mixed_numerology_bwps": False,
        "supports_no_bandwidth_restriction": False,
        "switch_delay_type": delay_type,
    }


# ca_dense: the cell mix is fixed; the seed picks every parameter inside it.
CA_CELLS = (
    ("pcell", "PCell", "TDD", "FR1"),
    ("scell1", "SCell", "FDD", "FR1"),
    ("scell2", "SCell", "TDD", "FR1"),
    ("scell3", "SCell", "TDD", "FR2"),
    ("scell4", "SCell", "TDD", "FR2"),
    ("scell5", "SCell", "FDD", "FR2"),
)


def ca_doc(rng: random.Random, specs, per_cell: int) -> dict:
    """A CA scenario over the cell mix `specs`, with an event every few
    ticks on every cell. The event count is fixed and the horizon ends
    10 ms after the last event, so the size does not depend on the seed."""
    delay_type = rng.choice(("type1", "type2"))
    cells = [make_cell(rng, *spec) for spec in specs]
    scripts = []
    for cell in cells:
        mu = cell["dl_bwps"][0]["common"]["geometry"]["numerology"]["mu"]
        delay = MAX_SWITCH_MS[mu] if delay_type == "type2" else MAX_SWITCH_MS[mu] / 2
        scripts.append(_CellScript(rng, cell, delay))
    events = _merge_scripts(scripts, per_cell)
    return {
        "version": FORMAT_VERSION,
        "capability": _capability(delay_type),
        "cells": cells,
        "events": events,
        "horizon_ms": int(events[-1]["at_ms"]) + 10,
    }


def ca_dense(seed: int, n_docs: int = 4, per_cell: int = 200) -> list[str]:
    rng = rng_for("ca_dense", seed)
    return [dumps(ca_doc(rng, CA_CELLS, per_cell)) for _ in range(n_docs)]


def idle_horizon(seed: int, fixtures: Path, horizon_ms: int = 100_000) -> list[str]:
    """Long horizons with sparse events: the TDD golden scenario stretched
    to `horizon_ms` on the 1 ms grid, and a seeded FR2 120 kHz cell on the
    0.5 ms grid over a third of that horizon, which costs about as much
    to run, so the two operations take about the same time.
    """
    rng = rng_for("idle_horizon", seed)
    horizon_ms += rng.randrange(max(1, horizon_ms // 100))  # seeded, within 1%
    tdd = json.loads((fixtures / "tdd_scenario.json").read_text(encoding="utf-8"))
    tdd["horizon_ms"] = horizon_ms
    fr2_horizon = horizon_ms // 3
    cell = make_cell(rng, "fr2", "PCell", "TDD", "FR2")
    n_bwps = len(cell["dl_bwps"])
    events = []
    step = fr2_horizon // 8
    for k in range(1, 8):
        t = k * step + 0.5 * rng.randrange(max(1, step // 2))  # on the 0.5 ms grid
        events.append({
            "at_ms": _num(t), "cell": "fr2", "kind": "Dci", "format": "1_1",
            "bwp_indicator_bits": _indicator(rng.randrange(n_bwps), n_bwps),
        })
        events.append({"at_ms": _num(t + step // 2), "cell": "fr2", "kind": "DataDlAssignment"})
    fr2 = {
        "version": FORMAT_VERSION,
        "capability": _capability(rng.choice(("type1", "type2"))),
        "cells": [cell],
        "events": events,
        "horizon_ms": fr2_horizon,
    }
    return [dumps(tdd), dumps(fr2)]


def _mutate(rng: random.Random, doc: dict) -> str:
    """Break one rule in one cell; returns the mutation's name."""
    name = rng.choice(MUTATIONS)
    cell = rng.choice(doc["cells"])
    if name == "timer_range":
        cell["inactivity_timer_ms"] = rng.choice((1, 3000))
    elif name == "rrc_delay":
        cell["rrc_processing_delay_ms"] = rng.choice((2, 100))
    elif name == "channel_bw":
        cell["channel_bandwidth_mhz"] = 4.0
    elif name == "first_active_ref":
        cell["first_active_dl"] = cell["first_active_ul"] = 4 if len(cell["dl_bwps"]) < 5 else 3
    elif name == "default_ref":
        cell["default_dl_bwp"] = len(cell["dl_bwps"])
    elif name == "bwp_count":
        mu = cell["dl_bwps"][0]["common"]["geometry"]["numerology"]["mu"]
        while len(cell["dl_bwps"]) < 5:
            cell["dl_bwps"].append(_bwp(len(cell["dl_bwps"]), 40, mu, dedicated=True))
    elif name == "tdd_center":
        cell["duplex"] = "TDD"
        geom = cell["ul_bwps"][1]["common"]["geometry"]
        geom["start_rb"] += 1 if geom["start_rb"] == 0 else -1  # moves the center by one RB
    elif name == "coreset_outside":
        cell["coreset0_span"]["high_hz"] += 60 * 12 * 15_000 * 2 ** cell["dl_bwps"][0]["common"]["geometry"]["numerology"]["mu"]
    elif name == "prach_ref":
        cell["prach_configured_on"] = [0, 4]
    elif name == "scell_first_active":
        cell["cell_role"] = "SCell"
        cell["first_active_dl"] = None
        cell["first_active_ul"] = None
    return name


def validate_corpus(
    seed: int, fixtures: Path, n_docs: int = 400, mutated_share: float = 0.25
) -> list[tuple[str, str]]:
    """Valid and rule-breaking scenario documents, plus the invalid fixtures.

    Valid documents are 2-cell CA scenarios with a short event script, so
    parsing covers cells, BWPs and events. A fixed share is mutated to
    break one validator rule each. Returns (label, text) pairs; the label
    is "valid", "mutated:<mutation>" or "fixture:<file name>".
    """
    rng = rng_for("validate_corpus", seed)
    docs = []
    n_mutated = round(n_docs * mutated_share)
    for i in range(n_docs):
        doc = ca_doc(rng, [CA_CELLS[0], rng.choice(CA_CELLS[1:])], per_cell=10)
        label = f"mutated:{_mutate(rng, doc)}" if i < n_mutated else "valid"
        docs.append((label, dumps(doc)))
    rng.shuffle(docs)
    for path in sorted((fixtures / "invalid").glob("*.json")):
        docs.append((f"fixture:{path.name}", path.read_text(encoding="utf-8")))
    return docs
