#!/usr/bin/env python3
"""seqcore benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: class_ladder, dual_scan, core_regions, roundtrip (see
perfbench/WORKLOADS.md).  The workload runs closed loop in a fresh child
process (perfbench/measure.py) against the package under ``src/``.  With
``--trace 0`` the result carries the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run.  The line before the result is a
``meta`` object: sample counts, the tail percentile, ``error_rate``, the
set-up samples, and the machine (nproc, thread pins, Python, numpy, BLAS,
seed).  Exits 2 without a result when ``src/seqcore`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("class_ladder", "dual_scan", "core_regions", "roundtrip")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# set-up is measured in this many extra fresh processes plus the measured one
SETUP_PROBES = 4
# the whole run, probes included, must end well inside three minutes
DEADLINE_S = 170.0

# Fixed tail percentile per workload: the highest of 50/75/90/95/99 with at
# least ten samples beyond it at the parent's speed.  A faster program only
# adds samples beyond it, so the percentile stays comparable across commits.
TAIL_PERCENTILE = {"class_ladder": 75, "dual_scan": 95, "core_regions": 75, "roundtrip": 95}

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

FN_METRICS = (
    ("matclass.e_matrix", ("calls", "self_s", "distinct_ratio")),
    ("band_ops.inverse_kernel", ("calls", "self_s", "entries", "distinct_ratio")),
    ("matclass.btilde", ("calls", "self_s")),
    ("matclass.eval_condition", ("calls", "self_s")),
    ("matclass.class_report", ("calls", "self_s")),
    ("duals.companion_c", ("calls", "self_s")),
    ("duals.companion_d", ("calls", "self_s")),
    ("duals.dual_report", ("calls", "self_s")),
    ("duals.subset_sup.exact", ("calls", "self_s", "max_columns")),
    ("duals.subset_sup.bound", ("calls", "self_s", "max_columns")),
    ("cores.cluster_hull", ("calls", "self_s")),
    ("cores.disc_core", ("calls", "self_s")),
    ("cores.st_core", ("calls", "self_s")),
    ("cores.alpha_core", ("calls", "self_s")),
    ("generators.random_band_system", ("calls", "self_s", "draws_per_system")),
    ("band_ops.forward_transform", ("calls", "self_s")),
    ("band_ops.inverse_transform", ("calls", "self_s")),
    ("generators.materialize_matrix", ("calls", "self_s")),
    ("verdicts.classify_series", ("calls", "self_s")),
    ("io.canonical_dumps", ("calls", "self_s", "bytes")),
)
FIELD_UNITS = {
    "calls": "calls/op",
    "self_s": "s/op",
    "distinct_ratio": "fraction",
    "entries": "entries/op",
    "max_columns": "count",
    "draws_per_system": "draws/system",
    "bytes": "B/op",
}


def per_layer_units() -> dict:
    units = {"trace.coverage": "fraction", "trace.overhead": "fraction"}
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s/op"
    for fn, fields in FN_METRICS:
        for field in fields:
            units[f"{fn}.{field}"] = FIELD_UNITS[field]
    return units


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile of a nonempty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(child: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    ops = child["op_s"]
    pct = TAIL_PERCENTILE[child["workload"]]
    values = {
        "op_s.p50": statistics.median(ops),
        "op_s.tail": percentile(ops, pct),
        "ops_per_s": len(ops) / sum(ops),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    meta = {
        "samples": len(ops),
        "tail_percentile": pct,
        "beyond_tail": sum(1 for v in ops if v > values["op_s.tail"]),
        "setup_samples": setup_samples,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, meta


def per_layer(child: dict) -> tuple[dict, dict]:
    t = child["trace"]
    ops = max(t["ops"], 1)
    calls, self_s, work = t["calls"], t["self_s"], t["work"]
    values = {
        "trace.coverage": t["covered"] / t["op_wall"] if t["op_wall"] else 0.0,
        "trace.overhead": statistics.median(child["traced_op_s"]) / statistics.median(child["op_s"]) - 1.0,
    }
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / ops
    counts = child["counts"]
    for fn, fields in FN_METRICS:
        n_calls = calls.get(fn, 0)
        for field in fields:
            if field == "calls":
                value = n_calls / ops
            elif field == "self_s":
                value = self_s.get(fn, 0.0) / ops
            elif field == "distinct_ratio":
                value = work.get(fn + ".distinct", 0.0) / n_calls if n_calls else 0.0
            elif field == "max_columns":
                value = work.get(fn + ".max_columns", 0.0)
            elif field == "draws_per_system":
                value = counts["draws"] / counts["systems"] if counts.get("systems") else 0.0
            else:
                value = work.get(f"{fn}.{field}", 0.0) / ops
            values[f"{fn}.{field}"] = value
    units = per_layer_units()
    meta = {"traced_ops": t["ops"], "untraced_ops": len(child["op_s"]), "self_s_total": sum(self_s.values()) / ops}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, meta


def child_env() -> dict:
    """This environment with the BLAS/OpenMP pools pinned to at most nproc threads."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            env[var] = str(nproc)
    return env


def _child(args, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(monotonic())]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, env=child_env(), timeout=max(1.0, deadline - monotonic()), check=True, text=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seqcore" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no seqcore package under {ROOT / 'src'}\n")
        return 2
    deadline = monotonic() + DEADLINE_S
    try:
        # set-up probes before and after the measured process, so that the
        # median spans more than one phase of the machine's background load
        probes = 0 if args.trace else SETUP_PROBES
        setup = [_child(args, True, deadline)["setup_s"] for _ in range(probes // 2)]
        child = _child(args, False, deadline)
        setup += [child["setup_s"]] + [_child(args, True, deadline)["setup_s"] for _ in range(probes - probes // 2)]
    except (subprocess.SubprocessError, ValueError, KeyError, IndexError) as exc:
        sys.stderr.write(f"perfbench: workload process failed: {exc}\n")
        return 1

    metrics, meta = per_layer(child) if args.trace else end_to_end(child, setup)
    meta.update(
        workload=args.workload,
        trace=args.trace,
        attempted=child["attempted"],
        failed=child["failed"],
        error_rate={"value": child["failed"] / child["attempted"], "unit": "fraction"},
        errors=child["errors"],
        env=child["env"],
    )
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": child["failed"] == 0,
                "attempted": child["attempted"],
                "failed": child["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
