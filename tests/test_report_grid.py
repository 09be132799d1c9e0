"""Golden digests of canonical condition reports over a fixed config grid.

Every catalog condition through ``eval_condition``, every mapping class
through ``class_report`` and every dual-set rule through ``dual_report`` is
rendered with ``io.canonical_dumps`` and hashed; the sha256 digests are
committed in ``report_grid.json``.  A refactor of the condition code must
leave every digest in place.  The ladder (6, 12, 24) crosses the exact subset
limit (20), so both the exact and the bound subset paths are pinned.  The
s0/sinf alpha and beta reports are also pinned at ladder (8, 16, 32) for
negative real weights (zeros of both signs included), for real weights whose
imaginary parts are -0.0, and for complex weights.

The core regions of the five C7 sequences at n = 2000 are pinned the same
way: the hull, disc, statistical (three density tolerances) and alpha cores,
plus the disc and statistical cores over one explicit probe grid.  Inputs
near the rounding limits of the extreme-point candidate filter are pinned too:
a disc core over probes ~1e3x the data spread, hull, disc and alpha cores of a
cloud within rounding of a circle, and of a lattice whose zeros carry both
signs.  Statistical cores of windows that repeat few distinct values sit on
either side of the count-weighted radius threshold (window length over
distinct values 7 and 9), and hulls of windows on an axis hold both signs of
zero in the other coordinate.  Statistical cores of random_bounded at
n = 40000 over the window (10000, 40000), at two density tolerances and over
probes ~1e3x the data spread, pin windows long enough for the cell
prefilter of the radii.  Alpha cores of alternating and convergent at
n = 40000 over the same window pin real transformed windows of 30000
distinct values, where the candidate filter keeps every value.  Hull, disc
and statistical (tolerance 0.02) cores of the four other C7 sequences at
n = 40000 over that window pin the benchmark's window length for real,
few-valued and complex windows.

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
LONG_N = 40_000
LONG_WINDOW = (10_000, LONG_N)
EDGE_LADDER = (8, 16, 32)
EDGE_PAIRS = (("s0", "alpha"), ("s0", "beta"), ("sinf", "alpha"), ("sinf", "beta"))
CYCLE_PROBES = ("eval|dense|mt27", "class|dense|sc:c_q", "dual|geometric|sinf.beta|p_high")


def _signed_system(rng, n: int) -> BandSystem:
    """A random band system whose r and s entries carry random signs."""
    signs = rng.choice([-1.0, 1.0], (2, n))
    return BandSystem(signs[0] * rng.uniform(0.5, 2.0, n), signs[1] * rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n))


def _inputs():
    rng = np.random.default_rng(20240611)
    sys = _signed_system(rng, N)
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
    out.update(_edge_weight_configs())
    out.update(_core_configs())
    return out


def _edge_weight_configs():
    """Dual reports at ladder (8, 16, 32) on weights whose zeros carry both signs."""
    n = EDGE_LADDER[-1]
    rng = np.random.default_rng(20240615)
    sys = _signed_system(rng, n)
    p = ExponentSeq(1.5 + rng.uniform(0.0, 1.5, n))
    k = np.arange(n, dtype=np.float64)
    negative = -(0.8**k)
    negative[3::7], negative[5::7] = 0.0, -0.0
    neg_zero_imag = np.empty(n, dtype=np.complex128)
    neg_zero_imag.real, neg_zero_imag.imag = rng.choice([-1.0, 1.0], n) * 0.8**k, -0.0
    neg_zero_imag.real[4::6] = rng.choice([-0.0, 0.0], neg_zero_imag.real[4::6].size)
    zeros = np.empty((2, n), dtype=np.complex128)
    zeros.real, zeros.imag = -0.0, np.array([[0.0], [-0.0]])
    weights = {
        "negative_real": (FiniteSeq(negative), sys),
        "neg_zero_imag": (FiniteSeq(neg_zero_imag), sys),
        "complex_walk": (FiniteSeq(-(0.85**k) * np.exp(2.1j * k)), sys),
        "neg_zero_real": (FiniteSeq(zeros[0]), BandSystem.difference(n)),
        "neg_zero_both": (FiniteSeq(zeros[1]), BandSystem.difference(n)),
    }
    out = {}
    for family, (a, system) in weights.items():
        for space, dual in EDGE_PAIRS:
            out[f"dual|{family}|{space}.{dual}|p_high|ladder_8_16_32"] = lambda a=a, system=system, space=space, dual=dual: (
                duals.dual_report(a, system, p, space, dual, EDGE_LADDER)
            )
    return out


def _core_configs():
    sys = _signed_system(np.random.default_rng(20240612), CORE_N)
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
    # probes up to ~1e3x the data spread, where |x_k - z| rounds coarsest
    rings = np.exp(2j * np.pi * np.arange(48) / 48)
    far = np.concatenate([grid, *(t * rings for t in (10.0, 100.0, 1500.0))])
    out["core|random_bounded|disc|far_grid"] = lambda: cores.disc_core(x, CORE_WINDOW, z_grid=far)
    circle, lattice = _margin_sequences()
    near_identity = BandSystem.constant(1.0, 1e-9, 1.0, CORE_N)
    for name, seq in (("near_circle", circle), ("signed_zero_lattice", lattice)):
        out[f"core|{name}|hull"] = lambda seq=seq: cores.cluster_hull(seq, CORE_WINDOW)
        out[f"core|{name}|disc"] = lambda seq=seq: cores.disc_core(seq, CORE_WINDOW)
    out["core|near_circle|alpha"] = lambda: cores.alpha_core(circle, near_identity, CORE_WINDOW)
    out["core|signed_zero_lattice|alpha"] = lambda: cores.alpha_core(lattice, sys, CORE_WINDOW)
    below, above, imag_axis, real_axis = _repeat_and_axis_sequences()
    out["core|repeats_below_threshold|st:0.02"] = lambda: cores.st_core(below, CORE_WINDOW, 0.02)
    out["core|repeats_above_threshold|st:0.02"] = lambda: cores.st_core(above, CORE_WINDOW, 0.02)
    out["core|imag_axis|hull"] = lambda: cores.cluster_hull(imag_axis, CORE_WINDOW)
    out["core|real_axis_signed_zero|hull"] = lambda: cores.cluster_hull(real_axis, CORE_WINDOW)
    long_x = make_sequence("random_bounded", LONG_N, seed=7)
    for tol in ST_TOLS[:2]:
        out[f"core|random_bounded_40000|st:{tol}"] = lambda tol=tol: cores.st_core(long_x, LONG_WINDOW, tol)
    out["core|random_bounded_40000|st:0.02|far_grid"] = lambda: cores.st_core(long_x, LONG_WINDOW, 0.02, z_grid=far)
    long_sys = _signed_system(np.random.default_rng(20240616), LONG_N)
    for name, params in (CORE_SEQUENCES[0], CORE_SEQUENCES[4]):
        seq = make_sequence(name, LONG_N, **params)
        out[f"core|{name}_40000|alpha"] = lambda seq=seq: cores.alpha_core(seq, long_sys, LONG_WINDOW)
    for name, params in CORE_SEQUENCES:
        if name == "random_bounded":  # its long-window st cores are pinned above
            continue
        seq = make_sequence(name, LONG_N, **params)
        out[f"core|{name}_40000|hull"] = lambda seq=seq: cores.cluster_hull(seq, LONG_WINDOW)
        out[f"core|{name}_40000|disc"] = lambda seq=seq: cores.disc_core(seq, LONG_WINDOW)
        out[f"core|{name}_40000|st:0.02"] = lambda seq=seq: cores.st_core(seq, LONG_WINDOW, 0.02)
    return out


def _margin_sequences() -> tuple[FiniteSeq, FiniteSeq]:
    """A cloud within rounding of the unit circle, and a diamond lattice whose zeros carry both signs."""
    rng = np.random.default_rng(20240613)
    circle = np.exp(2j * np.pi * rng.random(CORE_N)) * (1.0 - 1e-12 * rng.random(CORE_N))
    ab = rng.integers(-3, 4, (4 * CORE_N, 2)).astype(np.float64)
    ab = ab[np.abs(ab).sum(axis=1) <= 3.0][:CORE_N]
    ab[ab == 0.0] *= rng.choice([-1.0, 1.0], int(np.count_nonzero(ab == 0.0)))
    lattice = np.empty(CORE_N, dtype=np.complex128)
    lattice.real, lattice.imag = ab[:, 0], ab[:, 1]
    return FiniteSeq(circle), FiniteSeq(lattice)


def _repeat_and_axis_sequences() -> tuple[FiniteSeq, ...]:
    """Windows cycling through w // 7 and w // 9 distinct values, and two axis-parallel signed-zero windows."""
    rng = np.random.default_rng(20240614)
    w = CORE_WINDOW[1] - CORE_WINDOW[0]
    repeats = []
    for ratio in (7, 9):
        pool = rng.uniform(-1.0, 1.0, w // ratio) + 1j * rng.uniform(-1.0, 1.0, w // ratio)
        repeats.append(FiniteSeq(pool[np.arange(CORE_N) % pool.size]))
    signed_zeros = rng.choice([-0.0, 0.0], (2, CORE_N))
    steps = rng.integers(-6, 7, (2, CORE_N)) * 0.25
    imag_axis = np.empty(CORE_N, dtype=np.complex128)
    imag_axis.real, imag_axis.imag = signed_zeros[0], steps[0]
    real_axis = np.empty(CORE_N, dtype=np.complex128)
    real_axis.real, real_axis.imag = steps[1], signed_zeros[1]
    return (*repeats, FiniteSeq(imag_axis), FiniteSeq(real_axis))


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
