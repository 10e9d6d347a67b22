"""Call counts: how many calls one parse, validate and run pass make.

Run from anywhere, with the standard library only:

    git archive HEAD | tar -x -C /tmp/parent
    python tools/callcounts.py /tmp/parent . --workload validate_corpus --seed 0

Each tree runs in a child interpreter of its own, with its own `src/` and
`perfbench/` first on sys.path. The child sets the perfbench workload up
at the seed (and `--scale`), which generates its documents and gates their
outputs, and decodes each document's JSON text once. It then makes one
unprofiled pass, so that readers built on first use are built, and then
counts under cProfile the calls of one `scenario_from_obj` pass over every
document and of one `validate` pass over every cell of the documents that
parse. On a workload that runs its documents (`ca_dense`, `idle_horizon`)
it also counts one `run()` pass over each parsed document. Counts repeat
exactly from run to run, so unlike timings one run of each tree is enough
to compare them. Calls of Python functions and calls of built-ins (C
functions and methods, such as `dict.get` and `list.append`) are counted
in separate columns: a built-in call costs far less than a Python one, so
a change that trades one kind for the other moves their sum the wrong way.
`--top N` also prints the N functions of each pass with the most calls, in
each tree. Exit status 2 when a child fails, 0 otherwise.

cProfile sees calls only. Reading an attribute is not one, so it does not
see an Enum class-attribute read such as `EventKind.DCI`, which on CPython
3.11 goes through `EnumType.__getattr__` and costs about ten times a module
global's read; a saving of that kind can only be sized by timings.

A count is the sum over the profiler's own entries, one per function.
`pstats` totals are not used: pstats keys a function by file, line and
name, under which the `__new__` that `collections.namedtuple` generates
for each NamedTuple type is `<string>:1(<lambda>)`, and keeps one of the
colliding entries, so its total drops a varying part of them from run to
run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import cProfile, json, re, sys
from pathlib import Path

root, workload, seed, scale, top = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), float(sys.argv[4]), int(sys.argv[5])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from bwpsim import ParseError, run, scenario_from_obj, validate
from gate import Tally
from workloads import WORKLOADS

w = WORKLOADS[workload](root, seed, scale)
w.setup(Tally())
docs = [json.loads(op.text) for op in w.ops]


def label(code):
    if isinstance(code, str):  # a built-in
        return re.sub(r" at 0x[0-9a-f]+", "", code)
    return f"{Path(code.co_filename).name}:{code.co_firstlineno}({code.co_name})"


def parse():
    scenarios = []
    for doc in docs:
        try:
            scenarios.append(scenario_from_obj(doc))
        except ParseError:
            pass
    return scenarios


def check(scenarios):
    for sc in scenarios:
        for cfg in sc.cells.values():
            validate(cfg, sc.capability)


def run_all(scenarios):
    for sc in scenarios:
        run(sc)


scenarios = parse()
passes = [("parse", parse, ()), ("validate", check, (scenarios,))]
if all(op.kind == "run" for op in w.ops):
    passes.append(("run", run_all, (scenarios,)))
for _, call, args in passes[1:]:
    call(*args)
out = {"documents": len(docs), "parsed": len(scenarios), "passes": [name for name, _, _ in passes]}
for name, call, args in passes:
    prof = cProfile.Profile()
    prof.runcall(call, *args)
    entries = prof.getstats()
    ranked = sorted(((e.callcount, label(e.code)) for e in entries), key=lambda x: (-x[0], x[1]))
    python = sum(e.callcount for e in entries if not isinstance(e.code, str))  # a built-in's code is a str
    out[name] = {"python": python, "builtin": sum(nc for nc, _ in ranked) - python, "top": ranked[:top]}
print(json.dumps(out))
"""


def count(tree: Path, workload: str, seed: int, scale: float, top: int) -> dict | None:
    """The child's counts for one tree, or None if it failed."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree.resolve()), workload, str(seed), str(scale), str(top)],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        print(f"{tree}: child failed\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="count the calls of one parse, validate and run pass in two trees")
    parser.add_argument("old", type=Path, help="source tree of the parent, e.g. a git archive")
    parser.add_argument("new", type=Path, help="source tree of the change")
    parser.add_argument("--workload", default="validate_corpus", help="a perfbench workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="the workload's input size factor")
    parser.add_argument("--top", type=int, default=0, help="also list the N most-called functions of each pass")
    args = parser.parse_args(argv)
    results = {}
    for label, tree in (("old", args.old), ("new", args.new)):
        results[label] = count(tree, args.workload, args.seed, args.scale, args.top)
        if results[label] is None:
            return 2
    old, new = results["old"], results["new"]
    print(f"{args.workload}, seed {args.seed}, scale {args.scale}: "
          f"{new['documents']} documents, {new['parsed']} parse")
    columns = [(p, kind) for p in new["passes"] for kind in ("python", "builtin")]
    print(f"{'':>6}" + "".join(f" {f'{p} {kind}':>16}" for p, kind in columns))
    for label, res in results.items():
        print(f"{label:>6}" + "".join(f" {res[p][kind]:>16,}" for p, kind in columns))
    moves = [f"{(new[p][kind] - old[p][kind]) / old[p][kind]:+.1%}" if old[p][kind] else "n/a" for p, kind in columns]
    print(f"{'change':>6}" + "".join(f" {move:>16}" for move in moves))
    for label, res in results.items():
        for name in res["passes"]:
            for nc, fn in res[name]["top"]:
                print(f"{label} {name}: {nc:>9,} {fn}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
