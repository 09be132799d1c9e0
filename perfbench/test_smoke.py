"""Smoke test of the benchmark itself, at tiny sizes.

Run with: python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import monotonic

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from seqcore import band_ops, cores, duals, matclass  # noqa: E402
from seqcore.types import FiniteSeq  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(name, trace):
    return measure.measure(name, 1, 0.0, trace, monotonic(), tiny=True)


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name):
    child = _tiny(name, trace=False)
    assert child["attempted"] >= 1 and child["failed"] == 0, child["errors"]
    metrics, _ = run.end_to_end(child, [child["setup_s"]])
    assert _units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())

    traced = _tiny(name, trace=True)
    assert traced["failed"] == 0, traced["errors"]
    metrics, _ = run.per_layer(traced)
    assert _units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_cli_prints_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip", "--seed", "2", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    meta, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert meta["meta"]["error_rate"] == {"value": 0.0, "unit": "fraction"}
    assert set(meta["meta"]["env"]) == {"nproc", "threads", "python", "numpy", "blas", "seed"}


@pytest.mark.parametrize("name", ["class_ladder", "dual_scan", "core_regions"])
def test_traced_self_times_sum_to_op_wall_within_coverage_gap(name):
    trace = _tiny(name, trace=True)["trace"]
    total_self = sum(trace["self_s"].values())
    assert total_self == pytest.approx(trace["covered"], rel=1e-9)
    assert 0.0 < trace["covered"] <= trace["op_wall"]
    assert trace["covered"] / trace["op_wall"] > 0.8


def test_tracer_wraps_import_sites_and_restores_them():
    originals = {
        (matclass, "inverse_kernel"): band_ops.inverse_kernel,
        (duals, "inverse_kernel"): band_ops.inverse_kernel,
        (matclass, "subset_sup"): duals.subset_sup,
        (cores, "forward_transform"): band_ops.forward_transform,
        (band_ops, "inverse_transform"): band_ops.inverse_transform,
    }
    with Tracer():
        for (module, attr), fn in originals.items():
            assert getattr(module, attr) is not fn
            assert getattr(module, attr).__wrapped__ is fn
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn


def test_corrupted_output_counts_in_error_rate(monkeypatch):
    honest = band_ops.inverse_transform

    def perturbed(y, sys):
        back = honest(y, sys).values.copy()
        back[-1] += 1e-6
        return FiniteSeq(back)

    monkeypatch.setattr(band_ops, "inverse_transform", perturbed)
    child = _tiny("roundtrip", trace=False)
    assert child["attempted"] >= 2
    assert child["failed"] == child["attempted"]
    assert any("round trip error" in e for e in child["errors"])


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
