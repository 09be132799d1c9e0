#!/usr/bin/env python3
"""Alternating benchmark runs of a parent tree and a change tree, recorded in a BENCH_<label>.json file.

Runs ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0``
in each tree's directory, K pairs in the order P C, C P, P C, ... (so the
runs go P C C P P C ...), and writes every run with the summaries that
``tests/test_bench_files.py`` recomputes: per end-to-end metric the median
and quartiles of each tree, the ratio of the medians, and the pairs whose
change run made more ops per second than their parent run.  The workload goes
in the file under ``--name`` (default W, or W_seedN for a seed other than
0); an existing file keeps its other workloads, so one file can collect
several invocations of one parent.  The parent's commit is read from
PARENT_DIR, which must be a git checkout.  The first workload written with
two pairs or more also gives the file's ``aa_spread``: the gaps between the
back-to-back runs of one tree (runs 1 and 2, 3 and 4, ...).

A workload's heap layout, and with it its page faults and up to a quarter
of its speed, moves with the length of the checkout's path, so the two
directories must have paths of equal length; the script refuses others.

With ``--interleaved`` both trees run in this one process instead, for
``--seconds`` in all.  Each tree's ``seqcore`` and ``perfbench`` modules
(``workloads``, ``measure``) are imported under a ``sys.modules`` snapshot
of their own, which is swapped in before each of that tree's operations, so
lazy imports inside the package resolve to the same tree.  Operation i of
the cycle runs in both trees back to back, parent first for even i and
change first for odd i, through each tree's own ``measure.Loop``: each
tree's outputs are checked by that tree's own checks.  Per cycle the file
keeps both trees' summed operation times and their ratio, parent time over
change time (above 1 when the change is faster), under ``interleaved``
beside the process-level runs, with the ratio's median and quartiles.  The
two trees share the heap, the garbage collector, numpy (its ``errstate``
and its thread pools) and the warning filters, so an allocator or collector
effect of one tree lands on both; a memory, fault or RSS claim still needs
the process-level runs.  Machine drift moves both trees alike, and the
ratio taken cycle by cycle cancels it.

Usage: python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
       [--seed 0] [--pairs 10] [--seconds 8] --out BENCH_<label>.json
       [--name NAME] [--change TEXT] [--interleaved]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import numpy as np

METRICS = ("ops_per_s", "op_s.p50", "op_s.tail", "setup_s", "peak_rss_mb")
PROTOCOL = (
    "parent and change each in a directory of its own, both paths of equal length; runs alternate parent/change "
    "as P C C P, in pairs in the order listed; untraced; every run made is listed (scripts/bench_pairs.py); "
    "interleaved entries run both trees op by op in one process, P C then C P (scripts/bench_pairs.py --interleaved)"
)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py run in tree: its meta line and its result line."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    meta, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"meta": meta, "result": result}


def summarize(runs: list) -> dict:
    summary = {}
    for metric in METRICS:
        stats = {}
        for tree in ("parent", "change"):
            values = [run["result"]["metrics"][metric]["value"] for run in runs if run["tree"] == tree]
            q1, q3 = np.percentile(values, [25, 75])
            stats[tree] = {"median": statistics.median(values), "q1": float(q1), "q3": float(q3), "n": len(values)}
        stats["change_over_parent"] = stats["change"]["median"] / stats["parent"]["median"]
        summary[metric] = stats
    pairs = [runs[i : i + 2] for i in range(0, len(runs), 2)]
    won = sum(
        next(r for r in pair if r["tree"] == "change")["result"]["metrics"]["ops_per_s"]["value"]
        > next(r for r in pair if r["tree"] == "parent")["result"]["metrics"]["ops_per_s"]["value"]
        for pair in pairs
    )
    summary["ops_per_s_pairs_won_by_change"] = f"{won} of {len(pairs)}"
    summary["all_correct"] = all(run["result"]["correct"] for run in runs)
    return summary


# top-level names of the modules that each tree owns in an interleaved run
_TREE_MODULES = ("seqcore", "workloads", "measure", "run", "tracer")


def _pop_tree_modules() -> dict:
    """Take the modules a tree owns out of sys.modules, and return them."""
    return {name: sys.modules.pop(name) for name in [name for name in sys.modules if name.split(".")[0] in _TREE_MODULES]}


class Tree:
    """One tree's package and benchmark modules, imported under a sys.modules snapshot of their own."""

    def __init__(self, path: Path):
        _pop_tree_modules()
        saved = sys.path[:]
        sys.path[:0] = [str(path / "perfbench"), str(path / "src")]
        try:
            self.measure = __import__("measure")  # imports workloads and seqcore from this tree
        finally:
            sys.path[:] = saved
            self.modules = _pop_tree_modules()
        if not Path(self.modules["seqcore"].__file__).resolve().is_relative_to(path / "src"):
            raise SystemExit(f"seqcore was not imported from {path / 'src'}")
        self.workloads = self.modules["workloads"]

    def activate(self) -> None:
        """Put this tree's modules in sys.modules, for the imports its package makes at call time."""
        _pop_tree_modules()
        sys.modules.update(self.modules)


def interleave(trees: dict, workload: str, seed: int, seconds: float) -> dict:
    """Whole cycles of the workload in both trees, op by op in alternating order, for about seconds in all."""
    loops = {}
    for tree, path in trees.items():
        loaded = Tree(path)
        loaded.activate()
        loop = loaded.measure.Loop(loaded.workloads.build(workload, seed))
        loop.run(0, count=False)  # the warm-up of measure.py
        loops[tree] = (loaded, loop)
    cycle_len = {loop.workload.cycle_len for _, loop in loops.values()}
    if len(cycle_len) != 1:
        raise SystemExit(f"the trees' {workload} cycles differ in length: {sorted(cycle_len)}")
    (cycle_len,) = cycle_len
    env = loops["change"][0].measure.environment(seed)
    cycles, i, start = [], 0, monotonic()
    while not cycles or monotonic() - start < seconds:
        spent = {"parent": 0.0, "change": 0.0}
        for _ in range(cycle_len):
            for tree in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                loaded, loop = loops[tree]
                loaded.activate()
                spent[tree] += loop.run(i)
            i += 1
        cycles.append({"parent_s": spent["parent"], "change_s": spent["change"], "ratio": spent["parent"] / spent["change"]})
    for tree, (_, loop) in loops.items():
        if loop.failed:
            raise SystemExit(f"{tree} tree failed its checks: {loop.errors}")
    return {"cycles": cycles, "ops_per_cycle": cycle_len, "env": env}


def summarize_interleaved(cycles: list, ops_per_cycle: int) -> dict:
    """The per-cycle ratio's median and quartiles, and each tree's ops per second at its median cycle time."""
    ratios = [cycle["ratio"] for cycle in cycles]
    q1, q3 = np.percentile(ratios, [25, 75])
    summary = {"ratio": {"median": statistics.median(ratios), "q1": float(q1), "q3": float(q3), "n": len(ratios)}}
    for tree in ("parent", "change"):
        summary[f"{tree}_ops_per_s"] = ops_per_cycle / statistics.median(cycle[f"{tree}_s"] for cycle in cycles)
    return summary


def aa_spread(name: str, runs: list) -> dict:
    """The back-to-back runs of one tree (runs 1 and 2, 3 and 4, ...): the spread between a tree's own runs."""
    pairs = []
    for i in range(1, len(runs) - 1, 2):
        values = [run["result"]["metrics"]["ops_per_s"]["value"] for run in runs[i : i + 2]]
        gap = (max(values) - min(values)) / min(values)
        pairs.append({"tree": runs[i]["tree"], "runs": [i, i + 1], "ops_per_s": values, "relative_gap": gap})
    note = f"back-to-back runs of the same tree, indices into workloads.{name}.runs"
    return {"workload": name, "metric": "ops_per_s", "note": note, "pairs": pairs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--name", help="the workload's key in the file")
    parser.add_argument("--change", help="what the change tree changes (kept from the file when omitted)")
    parser.add_argument("--interleaved", action="store_true", help="run both trees op by op in this process")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not args.out.name.startswith("BENCH_") or args.out.suffix != ".json":
        parser.error("--out must name a BENCH_<label>.json file")
    trees = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    for tree, path in trees.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} directory {path} has no perfbench/run.py")
    if len(str(trees["parent"])) != len(str(trees["change"])):
        parser.error(
            f"the directories' paths differ in length ({len(str(trees['parent']))} and {len(str(trees['change']))} "
            "characters), which moves the heap layout; use copies at paths of equal length"
        )

    old = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    git = subprocess.run(["git", "-C", str(trees["parent"]), "rev-parse", "HEAD"], stdout=subprocess.PIPE, text=True)
    if git.returncode:
        parser.error(f"parent directory {trees['parent']} is not a git checkout")
    commit = git.stdout.strip()
    if old.get("parent_commit", commit) != commit:
        parser.error(f"{args.out} records runs of parent {old['parent_commit']}, not {commit}")

    name = args.name or (args.workload if args.seed == 0 else f"{args.workload}_seed{args.seed}")
    doc = {
        "label": args.out.name[len("BENCH_") : -len(".json")],
        "change": args.change or old.get("change", ""),
        "parent_commit": commit,
        "protocol": PROTOCOL,
        "machine": old.get("machine", {}),
        "workloads": old.get("workloads", {}),
    }
    if "aa_spread" in old:
        doc["aa_spread"] = old["aa_spread"]
    if "interleaved" in old:
        doc["interleaved"] = old["interleaved"]
    if args.interleaved:
        result = interleave(trees, args.workload, args.seed, args.seconds)
        doc["machine"] = doc["machine"] or {key: result["env"][key] for key in ("nproc", "python", "numpy", "blas", "threads")}
        command = f"python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload {args.workload} --seed {args.seed} --seconds {args.seconds:g} --interleaved"
        summary = summarize_interleaved(result["cycles"], result["ops_per_cycle"])
        entry = {"command": command, "ops_per_cycle": result["ops_per_cycle"], "cycles": result["cycles"], "summary": summary}
        doc.setdefault("interleaved", {})[name] = entry
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        ratio = summary["ratio"]
        print(
            f"{name} interleaved: parent time over change time per cycle, median {ratio['median']:.3f} "
            f"(quartiles {ratio['q1']:.3f}-{ratio['q3']:.3f}, {ratio['n']} cycles); ops_per_s at the median cycle "
            f"{summary['parent_ops_per_s']:.2f} -> {summary['change_ops_per_s']:.2f}"
        )
        return 0

    runs = []
    for pair in range(args.pairs):
        for tree in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            run = {"tree": tree} | run_once(trees[tree], args.workload, args.seed, args.seconds)
            runs.append(run)
            ops = run["result"]["metrics"]["ops_per_s"]["value"]
            print(f"pair {pair}: {tree:6s} {ops:9.2f} ops/s", file=sys.stderr)
            if not run["result"]["correct"]:
                print(f"{tree} run failed its checks: {run['meta']['meta']['errors']}", file=sys.stderr)
                return 1

    env = runs[0]["meta"]["meta"]["env"]
    doc["machine"] = {key: env[key] for key in ("nproc", "python", "numpy", "blas", "threads")}
    command = f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} --seconds {args.seconds:g} --trace 0"
    doc["workloads"][name] = {"command": command, "runs": runs, "summary": summarize(runs)}
    if args.pairs > 1 and ("aa_spread" not in old or old["aa_spread"]["workload"] == name):
        doc["aa_spread"] = aa_spread(name, runs)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    s = doc["workloads"][name]["summary"]
    print(
        f"{name}: ops_per_s median {s['ops_per_s']['parent']['median']:.2f} -> {s['ops_per_s']['change']['median']:.2f} "
        f"({s['ops_per_s_pairs_won_by_change']} pairs won), peak_rss_mb "
        f"{s['peak_rss_mb']['parent']['median']:.2f} -> {s['peak_rss_mb']['change']['median']:.2f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
