"""Golden digests of canonical condition reports over a fixed config grid.

Every catalog condition through ``eval_condition``, every mapping class
through ``class_report`` and every dual-set rule through ``dual_report`` is
rendered with ``io.canonical_dumps`` and hashed; the sha256 digests are
committed in ``report_grid.json``.  A refactor of the condition code must
leave every digest in place.  The ladder (6, 12, 24) crosses the exact subset
limit (20), so both the exact and the bound subset paths are pinned.

The core regions of the five C7 sequences at n = 2000 are pinned the same
way: the hull, disc, statistical (three density tolerances) and alpha cores,
plus the disc and statistical cores over one explicit probe grid.

A config whose evaluation raises is pinned by its exception type.

Regenerate the digests (only for a change that moves report bytes on
purpose) with: PYTHONPATH=src python3 tests/test_report_grid.py
"""

import gc
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from seqcore import cores, duals, matclass
from seqcore.generators import make_sequence
from seqcore.io import canonical_dumps
from seqcore.types import BandSystem, ExponentSeq, FiniteSeq

DIGEST_PATH = Path(__file__).with_name("report_grid.json")

LADDER = (6, 12, 24)
N = LADDER[-1]
CORE_N = 2000
CORE_WINDOW = (500, CORE_N)
CORE_SEQUENCES = (
    ("alternating", {}),
    ("roots_of_unity", {"m": 4}),
    ("square_indicator", {}),
    ("random_bounded", {"seed": 7}),
    ("convergent", {"l": 0.6, "rate": 0.9}),
)
ST_TOLS = (0.02, 0.25, 1.0)
CYCLE_PROBES = ("eval|dense|mt27", "class|dense|sc:c_q", "dual|geometric|sinf.beta|p_high")


def _inputs():
    rng = np.random.default_rng(20240611)
    signs = rng.choice([-1.0, 1.0], (2, N))
    sys = BandSystem(signs[0] * rng.uniform(0.5, 2.0, N), signs[1] * rng.uniform(0.5, 2.0, N), rng.uniform(0.5, 2.0, N))
    dense = np.tril(rng.uniform(-1.0, 2.0, (N, N))) / np.arange(1.0, N + 1.0)[:, None]
    p_high = ExponentSeq(1.5 + rng.uniform(0.0, 1.5, N))
    p_low = ExponentSeq(rng.uniform(0.5, 1.0, N))
    q = np.linspace(1.0, 2.0, N)
    k = np.arange(N, dtype=np.float64)
    weights = {
        "geometric": FiniteSeq(0.5**k),
        "harmonic_sq": FiniteSeq(1.0 / (k + 1.0) ** 2),
        "linear": FiniteSeq(k + 1.0),
        "complex_spiral": FiniteSeq(0.8**k * np.exp(1j * k)),
    }
    return sys, {"cesaro": "cesaro", "dense": dense}, p_high, p_low, q, weights


def _configs():
    """config key -> zero-argument call returning a report object."""
    sys, matrices, p_high, p_low, q, weights = _inputs()
    out = {}
    for mname, M in matrices.items():
        for cid, spec in sorted(matclass.CONDITIONS.items()):
            source = {"matrix": M} if spec.source == "matrix" else {"A": M}
            out[f"eval|{mname}|{cid}"] = lambda cid=cid, source=source: matclass.eval_condition(
                cid, sys=sys, p=p_high, q=q, ladder=LADDER, **source
            )
        for class_id in sorted(matclass.CLASS_RULES):
            out[f"class|{mname}|{class_id}"] = lambda class_id=class_id, M=M: matclass.class_report(
                M, class_id, sys, p=p_high, q=q, ladder=LADDER
            )
    for family, a in weights.items():
        for (space, dual), rule in sorted(duals.DUAL_RULES.items()):
            regimes = {"p_low": p_low, "p_high": p_high} if isinstance(rule, dict) else {"p_high": p_high}
            for regime, p in regimes.items():
                out[f"dual|{family}|{space}.{dual}|{regime}"] = lambda a=a, p=p, space=space, dual=dual: (
                    duals.dual_report(a, sys, p, space, dual, LADDER)
                )
    out.update(_core_configs())
    return out


def _core_configs():
    rng = np.random.default_rng(20240612)
    signs = rng.choice([-1.0, 1.0], (2, CORE_N))
    sys = BandSystem(
        signs[0] * rng.uniform(0.5, 2.0, CORE_N), signs[1] * rng.uniform(0.5, 2.0, CORE_N), rng.uniform(0.5, 2.0, CORE_N)
    )
    out = {}
    for name, params in CORE_SEQUENCES:
        x = make_sequence(name, CORE_N, **params)
        out[f"core|{name}|hull"] = lambda x=x: cores.cluster_hull(x, CORE_WINDOW)
        out[f"core|{name}|disc"] = lambda x=x: cores.disc_core(x, CORE_WINDOW)
        for tol in ST_TOLS:
            out[f"core|{name}|st:{tol}"] = lambda x=x, tol=tol: cores.st_core(x, CORE_WINDOW, tol)
        out[f"core|{name}|alpha"] = lambda x=x: cores.alpha_core(x, sys, CORE_WINDOW)
    g = np.linspace(-3.0, 3.0, 41)
    grid = (g[:, None] + 1j * g[None, :]).ravel()
    x = make_sequence("random_bounded", CORE_N, seed=7)
    out["core|random_bounded|disc|z_grid"] = lambda: cores.disc_core(x, CORE_WINDOW, z_grid=grid)
    out["core|random_bounded|st:0.25|z_grid"] = lambda: cores.st_core(x, CORE_WINDOW, 0.25, z_grid=grid)
    return out


def _digest(call) -> str:
    try:
        report = call()
    except ValueError as exc:
        return f"raises {type(exc).__name__}"
    return hashlib.sha256(canonical_dumps(report.to_json()).encode("utf-8")).hexdigest()


def compute_digests(section=None) -> dict:
    return {key: _digest(call) for key, call in _configs().items() if section is None or key.startswith(section + "|")}


@pytest.mark.parametrize("section", ["eval", "class", "dual", "core"])
def test_report_digests_unchanged(section):
    expected = {k: v for k, v in json.loads(DIGEST_PATH.read_text(encoding="utf-8")).items() if k.startswith(section + "|")}
    got = compute_digests(section)
    assert sorted(got) == sorted(expected), "config grid changed; regenerate only on purpose"
    moved = sorted(k for k in got if got[k] != expected[k])
    assert not moved, f"{len(moved)} report digest(s) moved: {moved}"


def test_reports_leave_no_reference_cycles():
    # a cycle through the engine would keep each report's source matrices
    # alive until the next cyclic collection, inflating peak memory
    calls = [call for key, call in _configs().items() if key in CYCLE_PROBES]
    for call in calls:
        call()
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
        assert gc.collect() == 0
    finally:
        gc.enable()


if __name__ == "__main__":
    DIGEST_PATH.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGEST_PATH}")
