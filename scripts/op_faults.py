#!/usr/bin/env python3
"""Minor page faults and wall time per operation of a benchmark workload.

Builds WORKLOAD with ``perfbench/workloads.build`` (the seeded inputs and
output checks of ``perfbench/run.py``) and runs it in this one process the
way ``perfbench/measure.py`` does: one warm-up operation, then whole cycles
through measure's ``Loop``, which times each operation's call and then runs
its check.  Faults are ``resource.getrusage`` minor faults over call and
check; wall time is the call's, as the benchmark times it.  A steady-state
operation that frees and faults its heap back in shows here as hundreds of
faults per operation.

Prints one line per cycle, then one per operation key and the totals over
the steady-state cycles: every cycle but the first, which warms the heap,
when there is more than one.  After the timed cycles, one more cycle runs
untimed under ``tracemalloc``, and each key's line also gives the peak of
memory traced during its operation (the largest over that key's operations
in the cycle), free of page-fault noise: a report that keeps its large
arrays in one block shows that block's size there.  Exits 1 when an
operation fails its check.

Usage: python3 scripts/op_faults.py WORKLOAD [--seed 0] [--cycles 2] [--tiny]
"""

import argparse
import resource
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# this checkout's package and harness, as perfbench/measure.py imports them
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from measure import Loop  # noqa: E402


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--cycles", type=int, default=2)
    parser.add_argument("--tiny", action="store_true", help="the small sizes of the benchmark's smoke test")
    args = parser.parse_args()
    if args.cycles < 1:
        parser.error("--cycles must be at least 1")

    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    loop = Loop(workload)
    loop.run(0, count=False)
    faults, seconds = defaultdict(list), defaultdict(list)
    print(f"{args.workload}, seed {args.seed}{', tiny' if args.tiny else ''}: {workload.cycle_len} ops per cycle")
    for cycle in range(args.cycles):
        cycle_faults = cycle_s = 0.0
        for pos in range(workload.cycle_len):
            key = workload.op_at(pos).key
            before = minor_faults()
            elapsed = loop.run(cycle * workload.cycle_len + pos)
            got = minor_faults() - before
            cycle_faults += got
            cycle_s += elapsed
            if cycle or args.cycles == 1:
                faults[key].append(got)
                seconds[key].append(elapsed)
        ops = workload.cycle_len
        print(f"cycle {cycle}: {cycle_faults / ops:9.1f} faults/op {1e3 * cycle_s / ops:9.3f} ms/op")
    peaks = defaultdict(int)
    tracemalloc.start()
    try:
        for pos in range(workload.cycle_len):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            loop.run(args.cycles * workload.cycle_len + pos, count=False)
            key = workload.op_at(pos).key
            peaks[key] = max(peaks[key], tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    print(f"{'key':<40} {'ops':>4} {'faults/op':>10} {'ms/op':>9} {'peak KiB':>9}")
    for key in faults:
        n = len(faults[key])
        print(f"{key:<40} {n:>4} {sum(faults[key]) / n:>10.1f} {1e3 * sum(seconds[key]) / n:>9.3f} {peaks[key] / 1024:>9.0f}")
    total = sum(len(v) for v in faults.values())
    all_faults = sum(sum(v) for v in faults.values())
    all_s = sum(sum(v) for v in seconds.values())
    print(f"{'all':<40} {total:>4} {all_faults / total:>10.1f} {1e3 * all_s / total:>9.3f} {max(peaks.values()) / 1024:>9.0f}")
    for error in loop.errors:
        print(f"failed: {error}", file=sys.stderr)
    return 1 if loop.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
