#!/usr/bin/env python3
"""One workload in one fresh process: set up, warm up, run the closed loop.

Started by ``run.py``, which pins the BLAS/OpenMP thread counts in this
process's environment before numpy is imported here; no worker pool is
started.  Prints one JSON object with the raw samples on its last stdout
line.

Usage: python3 perfbench/measure.py --workload NAME --seed N --seconds S
       --trace 0|1 --t0 MONOTONIC [--setup-only]
"""

import argparse
import json
import os
import platform
import resource
import sys
import traceback
from hashlib import sha256
from pathlib import Path
from time import monotonic, perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from tracer import Tracer  # noqa: E402


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "seed": seed,
    }


class Loop:
    """Runs operations, times them, and checks every output."""

    def __init__(self, workload):
        self.workload = workload
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, i: int, tracer: Tracer | None = None, count: bool = True) -> float:
        """Run operation ``i``; returns its wall time in seconds."""
        op = self.workload.op_at(i)
        start = perf_counter()
        try:
            if tracer is None:
                text, payload = op.call()
            else:
                with tracer.op():
                    text, payload = op.call()
        except Exception:  # an operation that raises counts as failed
            elapsed = perf_counter() - start
            error = traceback.format_exc(limit=3)
        else:
            elapsed = perf_counter() - start
            error = self._check(op, text, payload)
        if count:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{op.key}: {error}")
        return elapsed

    def _check(self, op, text, payload):
        digest = sha256(text.encode()).hexdigest()
        if self.digests.setdefault(op.key, digest) != digest:
            return "report bytes differ between repeats of the same input"
        try:
            op.check(text, payload)
        except workloads.CheckFailed as exc:
            return str(exc)
        except Exception:  # a malformed output can break the check itself
            return traceback.format_exc(limit=3)
        return None


def measure(name: str, seed: int, seconds: float, trace: bool, t0: float, setup_only: bool = False, tiny: bool = False) -> dict:
    """Build the workload, warm up with its first operation, then run whole cycles.

    The loop stops at the first cycle boundary after ``seconds``.  With
    ``trace`` the cycles alternate untraced / traced (an even number of
    them), so the tracing overhead is measured on the same inputs.
    """
    workload = workloads.build(name, seed, tiny=tiny)
    loop = Loop(workload)
    loop.run(0, count=False)
    for key in workload.counts:
        workload.counts[key] = 0
    setup_s = monotonic() - t0
    out = {"workload": name, "setup_s": setup_s, "env": environment(seed)}
    if setup_only:
        return out

    tracer = Tracer() if trace else None
    untraced, traced = [], []
    start = monotonic()
    i = 0
    while True:
        cycle, pos = divmod(i, workload.cycle_len)
        if pos == 0 and i > 0 and monotonic() - start >= seconds and not (trace and cycle % 2):
            break
        if trace and cycle % 2:
            with tracer:
                traced.append(loop.run(i, tracer))
        else:
            untraced.append(loop.run(i))
        i += 1

    out.update(
        op_s=untraced,
        traced_op_s=traced,
        attempted=loop.attempted,
        failed=loop.failed,
        errors=loop.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        counts=dict(workload.counts),
    )
    if tracer is not None:
        out["trace"] = {
            "ops": tracer.ops,
            "op_wall": tracer.op_wall,
            "covered": tracer.covered,
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "work": dict(tracer.work),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="monotonic clock reading at process start")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.t0, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
