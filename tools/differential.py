"""Same-bytes differential: two source trees, one corpus, the same digests.

Run from anywhere, on Python 3.10 or later, with nothing installed:

    git archive HEAD | tar -x -C /tmp/parent
    python tools/differential.py /tmp/parent .

The corpus is built once, as `bwpsim/1` JSON texts, in a child
interpreter on the NEW tree:

- `tests/support.py`'s `random_scenario`, `random_multicell_scenario` and
  `random_asymmetric_scenario`, seeds 0-299, serialized by
  `write_scenario` below; each text must parse back to a Scenario equal
  to the one it was written from;
- the seed-0 and seed-1 documents of `perfbench/gen.py` (`ca_dense`,
  `idle_horizon` and `validate_corpus`), imported and not changed;
- `fixtures/*_scenario.json` and `fixtures/invalid/*.json`;
- MUTATED documents made from those fixtures by `mutate` with a fixed
  seed: each has 1-3 edits at random key or index paths, and an edit
  deletes the value there or sets it to one of MEANINGFUL, values that
  mean something in the format. Most of them are parse errors, so they
  compare the messages and the null, default and required-field rules
  that the generated scenarios, all valid, never reach.

Then each tree runs the whole corpus in one child interpreter of its own,
and hashes for each input: the parse outcome (the Scenario's repr, or the
error), each cell's validation findings, the written trace and metrics
JSON of `run()` (or its error), and the exit code (or the error) and
stdout of `cli.main` for `run` and for `validate`. Every input whose digests
differ is printed with each digest that differs, and the exit status is 1;
0 when every digest agrees, 2 when a child fails. Only the standard
library is used here; the corpus child also imports the tree's
`tests/support.py` and perfbench generators, which need no more.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from decimal import Decimal, localcontext
from enum import Enum
from pathlib import Path
from typing import Any

TOOLS = Path(__file__).resolve().parent
SEEDS = range(300)
PERFBENCH_SEEDS = (0, 1)
DIGESTS = ("parse", "findings", "run", "cli")
INPUT = "input.json"  # every input is read from this name, so messages that quote it agree
MUTATED = 2000
MUTATION_SEED = 0
# enum strings, times, indicator bits, BWP ids and counts, and the wrong
# JSON types around them
MEANINGFUL = [
    None, True, False, 0, 1, 2, 4, 5, -1, 0.5, 2.5, 50.0, 10**30, [], [0], {}, {"mu": 2},
    "", "bwpsim/1", "pcell", "FDD", "TDD", "FR1", "FR2", "Unassigned", "PCell", "PSCell", "SCell",
    "normal", "extended", "type1", "type2", "CP-OFDM", "DFT-s-OFDM",
    "RrcReconfig", "ScellActivate", "Dci", "RachStart", "RachComplete", "DataDlAssignment", "DataUlGrant",
    "0_0", "0_1", "1_0", "1_1", "0", "1", "01", "10", "11", "2.25", "-1", "1e400", "1e-999999999", "nan", "Infinity",
]


def _use_tree(tree: Path, *subdirs: str) -> None:
    """Import bwpsim (and the named helper directories) from `tree` only."""
    sys.path[:0] = [str(tree / "src"), *(str(tree / d) for d in subdirs)]
    import bwpsim

    if Path(bwpsim.__file__).resolve().parent != (tree / "src" / "bwpsim").resolve():
        raise SystemExit(f"bwpsim imported from {bwpsim.__file__}, not from {tree}")


# ----------------------------------------------------------------------
# corpus child (new tree)


def _plain(value):
    """A config value as the JSON value of its document field: the field
    names of the documents mirror those of the config types."""
    if hasattr(value, "_asdict"):  # a NamedTuple config type, before the tuples below
        return {k: _plain(v) for k, v in value._asdict().items()}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _ms(t):
    """A Fraction time as a JSON int or decimal string."""
    if t.denominator == 1:
        return t.numerator
    with localcontext() as ctx:
        ctx.prec = 100
        return format(Decimal(t.numerator) / Decimal(t.denominator), "f")


def write_scenario(scenario) -> str:
    """A Scenario as a `bwpsim/1` document."""
    events = []
    for ev in scenario.events:
        obj = {"at_ms": _ms(ev.at_ms), "cell": ev.cell, "kind": ev.kind.value}
        if ev.dci is not None:
            obj["format"] = ev.dci.format.value
            obj["bwp_indicator_bits"] = ev.dci.bwp_indicator_bits
        for key in ("first_active_dl", "first_active_ul"):
            if getattr(ev, key) is not None:
                obj[key] = getattr(ev, key)
        events.append(obj)
    doc = {
        "version": "bwpsim/1",
        "cells": [{"cell_id": cid, **_plain(cfg)} for cid, cfg in scenario.cells.items()],
        "capability": _plain(scenario.capability),
        "events": events,
    }
    if scenario.horizon_ms is not None:
        doc["horizon_ms"] = _ms(scenario.horizon_ms)
    return json.dumps(doc, sort_keys=True)


def _paths(node, prefix=()):
    """Every key and index path below a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def mutate(doc, rng: random.Random):
    """`doc`, changed in place by 1-3 edits at paths drawn from `rng`."""
    for _ in range(rng.randint(1, 3)):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = rng.choice(paths)
        node = doc
        for parent in parents:
            node = node[parent]
        if rng.random() < 0.5:
            del node[key]
        else:
            node[key] = copy.deepcopy(rng.choice(MEANINGFUL))
    return doc


def build_corpus(tree: Path) -> list[tuple[str, str]]:
    """(name, text) for every input, from `tree`'s generators and fixtures."""
    import gen  # these three from the tree, which `_use_tree` put first on sys.path
    import support
    from bwpsim.scenario import scenario_from_obj

    corpus = []
    for make in (support.random_scenario, support.random_multicell_scenario, support.random_asymmetric_scenario):
        for seed in SEEDS:
            scenario = make(random.Random(seed))
            text = write_scenario(scenario)
            if scenario_from_obj(json.loads(text)) != scenario:
                raise SystemExit(f"{make.__name__}({seed}): the written document reads back differently")
            corpus.append((f"{make.__name__}:{seed}", text))
    fixtures = tree / "fixtures"
    for seed in PERFBENCH_SEEDS:
        docs = [("ca_dense", text) for text in gen.ca_dense(seed)]
        docs += [("idle_horizon", text) for text in gen.idle_horizon(seed, fixtures)]
        docs += [(f"validate_corpus/{label}", text) for label, text in gen.validate_corpus(seed, fixtures)
                 if not label.startswith("fixture:")]  # the invalid fixtures follow once
        corpus += [(f"perfbench:{seed}:{i}:{label}", text) for i, (label, text) in enumerate(docs)]
    paths = sorted(fixtures.glob("*_scenario.json")) + sorted((fixtures / "invalid").glob("*.json"))
    corpus += [(f"fixtures/{p.relative_to(fixtures)}", p.read_text(encoding="utf-8")) for p in paths]
    rng = random.Random(MUTATION_SEED)
    for i in range(MUTATED):
        p = rng.choice(paths)
        doc = mutate(json.loads(p.read_text(encoding="utf-8")), rng)
        corpus.append((f"mutated:{i}:{p.relative_to(fixtures)}", json.dumps(doc)))
    return corpus


# ----------------------------------------------------------------------
# digest child (each tree)


def _outcome(call) -> tuple[bool, Any]:
    """(True, call()) or (False, the error it raised as `Type: message`)."""
    try:
        return True, call()
    except Exception as exc:  # every failure is an outcome to compare
        return False, f"{type(exc).__name__}: {exc}"


def digests(text: str) -> dict[str, str]:
    """The digests of one input, read from INPUT in the working directory."""
    from bwpsim import cli, run, validate, write_trace  # from the tree under test
    from bwpsim.scenario import load_scenario

    Path(INPUT).write_text(text, encoding="utf-8")
    parsed, scenario = _outcome(lambda: load_scenario(INPUT))
    out = {"parse": repr(scenario), "findings": "", "run": ""}
    if parsed:
        out["findings"] = json.dumps(
            {cid: validate(cfg, scenario.capability).to_obj() for cid, cfg in scenario.cells.items()},
            sort_keys=True,
        )

        def run_bytes() -> str:
            trace, metrics = run(scenario)
            buf = io.StringIO()
            write_trace(trace, buf)
            return buf.getvalue() + json.dumps(metrics.to_obj(), sort_keys=True, indent=2)

        out["run"] = _outcome(run_bytes)[1]
    cli_out = []
    for command in ("run", "validate"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = _outcome(lambda: cli.main([command, INPUT]))[1]
        cli_out.append(f"{command} exit {code}\n{stdout.getvalue()}")
    out["cli"] = "\n".join(cli_out)
    return {key: hashlib.sha256(out[key].encode()).hexdigest() for key in DIGESTS}


def corpus_child(tree: str, corpus_path: str) -> None:
    _use_tree(Path(tree), "tests", "perfbench")
    Path(corpus_path).write_text(json.dumps(build_corpus(Path(tree))), encoding="utf-8")


def digest_child(tree: str, corpus_path: str, out_path: str) -> None:
    _use_tree(Path(tree))
    corpus = json.loads(Path(corpus_path).read_text(encoding="utf-8"))
    with open(out_path, "w", encoding="utf-8") as out:
        for name, text in corpus:
            out.write(json.dumps({"name": name, **digests(text)}) + "\n")


# ----------------------------------------------------------------------
# parent


def _child(workdir: Path, function: str, *args: Path) -> None:
    """Call `function(*args)` of this module in a fresh interpreter in `workdir`."""
    code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import differential; " \
           f"differential.{function}(*{tuple(str(a) for a in args)!r})"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no __pycache__ in the trees
    done = subprocess.run([sys.executable, "-c", code], cwd=workdir, env=env)
    if done.returncode != 0:
        print(f"differential: {function} on {args[0]} failed with exit status {done.returncode}", file=sys.stderr)
        raise SystemExit(2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare two bwpsim source trees on one corpus")
    parser.add_argument("old", type=Path, help="source tree of the parent, e.g. a git archive")
    parser.add_argument("new", type=Path, help="source tree of the change; its generators build the corpus")
    args = parser.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    with tempfile.TemporaryDirectory(prefix="bwpsim-differential-") as tmp:
        work = Path(tmp)
        corpus = work / "corpus.json"
        _child(work, "corpus_child", new, corpus)
        results = {}
        for side, tree in (("old", old), ("new", new)):
            (work / side).mkdir()
            results[side] = work / f"{side}.jsonl"
            _child(work / side, "digest_child", tree, corpus, results[side])
        old_lines = results["old"].read_text(encoding="utf-8").splitlines()
        new_lines = results["new"].read_text(encoding="utf-8").splitlines()
    return report(old_lines, new_lines)


def differences(old_lines: list[str], new_lines: list[str]) -> list[str]:
    """One line for each input whose digests differ, naming every digest
    that differs; the two trees' digest lines are of one corpus, in order."""
    found = []
    for a, z in zip(old_lines, new_lines, strict=True):
        a, z = json.loads(a), json.loads(z)
        differ = [f"the {key} digest differs ({a[key][:12]} old, {z[key][:12]} new)"
                  for key in DIGESTS if a[key] != z[key]]
        if differ:
            found.append(f"{a['name']}: {'; '.join(differ)}")
    return found


def report(old_lines: list[str], new_lines: list[str]) -> int:
    """Print every difference and return the exit status: 1 if any input differs, else 0."""
    found = differences(old_lines, new_lines)
    for line in found:
        print(line)
    if found:
        print(f"{len(found)} of {len(new_lines)} inputs differ")
        return 1
    print(f"{len(new_lines)} inputs: the same parse, findings, run and cli digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
