"""Seeded inputs, operations and output checks of the benchmark workloads.

A workload is a closed loop over a fixed cycle of operations.  Each operation
calls the package's public API the way the CLI does (build the report, then
render it with ``io.canonical_dumps``) and returns the rendered text plus
whatever its check needs.  Inputs come only from the seed; the package sees
nothing but the generated inputs.  Functions of the package are looked up on
their module at call time (``matclass.class_report``, never a name imported
into this file), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from seqcore import band_ops, cores, duals, generators, matclass
from seqcore import io as seqio
from seqcore.types import BandSystem, ExponentSeq, FiniteSeq

__all__ = ["DEFAULT_SEED", "WORKLOADS", "CheckFailed", "Op", "Workload", "build", "expected_table"]

DEFAULT_SEED = 0
EXPECTED_PATH = Path(__file__).with_name("expected_verdicts.json")

CLASS_IDS = (
    "sinf:linf", "sinf:c", "sinf:c0",
    "s0:linf_q", "s0:c0_q", "s0:c_q",
    "sc:linf_q", "sc:c0_q", "sc:c_q",
    "linf:sc", "c:sc_reg", "st:sc_reg",
)
CLASS_MATRICES = ("cesaro", "dense")

WEIGHT_FAMILIES = ("geometric", "harmonic_sq", "ones", "linear")
DUAL_PAIRS = (
    [(space, dual, 1.0) for space in ("s0", "sc", "sinf") for dual in ("alpha", "beta", "gamma")]
    + [("lp", "alpha", 1.0), ("lp", "gamma", 1.0)]
    + [("lp", dual, 2.0) for dual in ("alpha", "beta", "gamma")]
)

CORE_SEQUENCES = ("alternating", "roots_of_unity", "square_indicator", "random_bounded", "convergent")
CORE_ESTIMATORS = ("hull", "disc", "st", "alpha")
CORE_DIRECTIONS = 64
# C7's agreement bound, used for hull vs disc and for st inside the hull
CORE_AGREEMENT_TOL = 0.05

ROUNDTRIP_CAP = 1e4
ROUNDTRIP_LONG_SYSTEMS = 4
# screened systems per cycle; their mean draw count sets the seed-to-seed spread
ROUNDTRIP_PAIRS = 192
SCREENED_BOUND = 1e-9  # C1's bound
CONTRACTING_BOUND = 1e-12

# (class_ladder ladder, dual_scan ladder, core n, round-trip n, long round-trip n)
FULL_SIZES = {"class": (64, 128, 256), "dual": (16, 64, 256), "core": 40_000, "c1": 512, "long": 65_536}
TINY_SIZES = {"class": (8, 16, 32), "dual": (8, 16, 32), "core": 400, "c1": 64, "long": 1024}


class CheckFailed(Exception):
    """An operation returned an output that fails its check."""


@dataclass(frozen=True)
class Op:
    """One operation: ``call()`` is timed, ``check(text, payload)`` is not.

    ``key`` names the input; every repeat of one key must render the same
    bytes.
    """

    key: str
    call: Callable[[], tuple]
    check: Callable[[str, object], None]


@dataclass
class Workload:
    cycle_len: int
    op_at: Callable[[int], Op]
    counts: dict = field(default_factory=dict)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


def _fold(verdicts) -> str:
    """Conjunction of verdicts: fails dominates, then inconclusive."""
    verdicts = list(verdicts)
    if not verdicts:
        return "inconclusive"
    if "fails" in verdicts:
        return "fails"
    if "inconclusive" in verdicts:
        return "inconclusive"
    return "holds"


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# condition reports: class_ladder and dual_scan
# ---------------------------------------------------------------------------


def _report_summary(doc: dict) -> dict:
    return {"aggregate": doc["aggregate"], "conditions": {c["id"]: c["verdict"] for c in doc["conditions"]}}


def _check_report(expected, text: str, _payload) -> None:
    doc = json.loads(text)
    for cond in doc["conditions"]:
        values = [e["value"] for e in cond["estimates"]] + [cond["growth_exponent"]]
        if "last_deviation" in cond:
            values.append(cond["last_deviation"])
        _require(all(math.isfinite(v) for v in values), f"{cond['id']}: non-finite estimate")
    fold = _fold(c["verdict"] for c in doc["conditions"])
    _require(doc["aggregate"] == fold, f"aggregate {doc['aggregate']} is not the fold {fold}")
    if expected is not None:
        got = _report_summary(doc)
        _require(got == expected, f"verdicts {got} differ from the expected {expected}")


def _class_op(spec, class_id, system, p, q, ladder):
    A = seqio.matrix_from_spec(spec, ladder[-1])
    report = matclass.class_report(A, class_id, system, p=p, q=q, ladder=ladder)
    return seqio.canonical_dumps(report.to_json()), None


def _class_ladder(seed: int, sizes: dict, expected: dict | None) -> Workload:
    ladder = sizes["class"]
    n = ladder[-1]
    rng = _rng(seed, 1)
    system = BandSystem.constant(rng.uniform(1.5, 2.5), rng.uniform(0.4, 1.2), rng.uniform(0.5, 2.0), n)
    p = ExponentSeq.constant(rng.uniform(1.5, 3.0), n)
    q = np.full(n, rng.uniform(1.0, 2.0))
    # a random averaging block: nonnegative, lower triangular, row sums near 1
    dense = np.tril(rng.uniform(0.0, 2.0, (n, n))) / np.arange(1.0, n + 1.0)[:, None]
    specs = {"cesaro": "cesaro", "dense": {"dense": dense.tolist()}}
    ops = []
    for matrix in CLASS_MATRICES:
        for class_id in CLASS_IDS:
            key = f"{matrix}|{class_id}"
            want = None if expected is None else expected[key]
            ops.append(
                Op(key, partial(_class_op, specs[matrix], class_id, system, p, q, ladder), partial(_check_report, want))
            )
    return Workload(len(ops), lambda i: ops[i % len(ops)])


def _weights(family: str, n: int) -> np.ndarray:
    k = np.arange(n, dtype=np.float64)
    return {
        "geometric": 0.5**k,
        "harmonic_sq": 1.0 / (k + 1.0) ** 2,
        "ones": np.ones(n),
        "linear": k + 1.0,
    }[family]


def _dual_op(a, system, p, space, dual, ladder):
    report = duals.dual_report(a, system, p, space, dual, ladder)
    return seqio.canonical_dumps(report.to_json()), None


def _dual_scan(seed: int, sizes: dict, expected: dict | None) -> Workload:
    ladder = sizes["dual"]
    n = ladder[-1]
    rng = _rng(seed, 2)
    system = BandSystem.constant(1.0, 1.0, 1.0, n)
    exps = {v: ExponentSeq.constant(v, n) for v in (1.0, 2.0)}
    ops = []
    for family in WEIGHT_FAMILIES:
        a = FiniteSeq(_weights(family, n) * rng.uniform(0.5, 2.0))
        for space, dual, pv in DUAL_PAIRS:
            key = f"{family}|{space}.{dual}|p={pv:g}"
            want = None if expected is None else expected[key]
            ops.append(
                Op(key, partial(_dual_op, a, system, exps[pv], space, dual, ladder), partial(_check_report, want))
            )
    return Workload(len(ops), lambda i: ops[i % len(ops)])


# ---------------------------------------------------------------------------
# core_regions
# ---------------------------------------------------------------------------


def _support(values: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Exact support function of the convex hull of complex points."""
    return np.max(np.outer(values.real, np.cos(angles)) + np.outer(values.imag, np.sin(angles)), axis=0)


def _core_op(kind, x, system, window):
    if kind == "hull":
        region, cli_kind = cores.cluster_hull(x, window), "k"
    elif kind == "disc":
        region, cli_kind = cores.disc_core(x, window), "k"
    elif kind == "st":
        region, cli_kind = cores.st_core(x, window), "st"
    else:
        region, cli_kind = cores.alpha_core(x, system, window), "alpha"
    return seqio.canonical_dumps({"command": "core", "kind": cli_kind} | region.to_json()), None


def _check_core(kind, angles, hull_ref, expected, text, _payload) -> None:
    doc = json.loads(text)
    _require(np.allclose(doc["angles"], angles, rtol=0.0, atol=1e-12), "region sampled on unexpected directions")
    support = np.asarray(doc["support"], dtype=np.float64)
    vertices = np.asarray(doc["vertices"], dtype=np.float64)
    _require(bool(np.all(np.isfinite(support)) and np.all(np.isfinite(vertices))), "non-finite region")
    gap = support - hull_ref
    if kind in ("hull", "alpha"):
        tol = 1e-9 * (1.0 + float(np.max(np.abs(hull_ref))))
        _require(float(np.max(np.abs(gap))) <= tol, f"{kind} support is not the hull of the window")
    elif kind == "disc":
        _require(float(np.max(np.abs(gap))) < CORE_AGREEMENT_TOL, f"Hausdorff(hull, disc) {np.max(np.abs(gap)):.3g}")
    else:
        _require(float(np.max(gap)) <= CORE_AGREEMENT_TOL, f"st region leaves the hull by {np.max(gap):.3g}")
    if expected is not None:
        _require({"kind": doc["kind"]} == expected, f"region kind {doc['kind']} differs from {expected}")


def _core_regions(seed: int, sizes: dict, expected: dict | None) -> Workload:
    n = sizes["core"]
    window = (n // 4, n)
    params = {"roots_of_unity": {"m": 4}, "random_bounded": {"seed": int(seed)}, "convergent": {"l": 0.6, "rate": 0.9}}
    rng = _rng(seed, 3)
    signs = rng.choice([-1.0, 1.0], (2, n))
    system = BandSystem(rng.uniform(0.5, 2.0, n) * signs[0], rng.uniform(0.5, 2.0, n) * signs[1], rng.uniform(0.5, 2.0, n))
    angles = 2.0 * np.pi * np.arange(CORE_DIRECTIONS) / CORE_DIRECTIONS
    ops = []
    for name in CORE_SEQUENCES:
        x = generators.make_sequence(name, n, **params.get(name, {}))
        v = x.values
        tau = (system.r * v + np.concatenate([[0.0], system.s[:-1] * v[:-1]])) / system.alpha
        refs = {"plain": _support(v[window[0]:], angles), "alpha": _support(tau[window[0]:], angles)}
        for kind in CORE_ESTIMATORS:
            key = f"{name}|{kind}"
            want = None if expected is None else expected[key]
            ref = refs["alpha" if kind == "alpha" else "plain"]
            ops.append(Op(key, partial(_core_op, kind, x, system, window), partial(_check_core, kind, angles, ref, want)))
    return Workload(len(ops), lambda i: ops[i % len(ops)])


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------


class CountingGenerator:
    """A numpy Generator that counts the candidate systems a sampler draws.

    The band-system sampler draws two sign vectors per candidate (one for r,
    one for s), so candidates = sign draws / 2.
    """

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self.sign_draws = 0

    def choice(self, *args, **kwargs):
        self.sign_draws += 1
        return self._gen.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _complex_uniform(rng: np.random.Generator, n: int) -> FiniteSeq:
    return FiniteSeq(rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n))


def _round_trip(x: FiniteSeq, system: BandSystem) -> tuple[str, FiniteSeq]:
    back = band_ops.inverse_transform(band_ops.forward_transform(x, system), system)
    head = seqio.seq_to_json(FiniteSeq(back.values[:8]))
    return seqio.canonical_dumps({"command": "invert", "n": back.n} | head), back


def _pair_op(gen, x, long_system, long_x, counts):
    system = generators.random_band_system(gen, x.n, amplification_cap=ROUNDTRIP_CAP)
    counts["systems"] += 1
    counts["draws"] += gen.sign_draws / 2
    text, back = _round_trip(x, system)
    long_text, long_back = _round_trip(long_x, long_system)
    return text + long_text, (system, back, long_back)


def _rel_err(back: FiniteSeq, x: FiniteSeq) -> float:
    return float(np.max(np.abs(back.values - x.values)) / np.max(np.abs(x.values)))


def _check_pair(x, long_x, _text, payload) -> None:
    system, back, long_back = payload
    mags = np.abs(np.concatenate([system.r, system.s, system.alpha]))
    _require(bool(np.all((mags >= 0.5) & (mags <= 2.0))), "sampled entries leave [0.5, 2]")
    walk = np.concatenate([[0.0], np.cumsum(np.log(np.abs(system.s[:-1] / system.r[:-1])))])
    amp = max(np.max(walk - np.minimum.accumulate(walk)), np.max(np.maximum.accumulate(walk) - walk))
    _require(amp <= math.log(ROUNDTRIP_CAP), f"sampled system exceeds the amplification cap (log {amp:.3g})")
    err = _rel_err(back, x)
    _require(err < SCREENED_BOUND, f"screened round trip error {err:.3g}")
    err = _rel_err(long_back, long_x)
    _require(err < CONTRACTING_BOUND, f"contracting round trip error {err:.3g}")


def _roundtrip(seed: int, sizes: dict, expected: dict | None) -> Workload:
    n_c1, n_long = sizes["c1"], sizes["long"]
    longs = []
    for m in range(ROUNDTRIP_LONG_SYSTEMS):
        rng = _rng(seed, 4, m)
        r = rng.uniform(1.0, 2.0, n_long) * rng.choice([-1.0, 1.0], n_long)
        s = rng.uniform(0.1, 0.9, n_long) * np.abs(r) * rng.choice([-1.0, 1.0], n_long)
        longs.append((BandSystem(r, s, rng.uniform(0.5, 2.0, n_long)), _complex_uniform(rng, n_long)))
    xs = [_complex_uniform(_rng(seed, 5, j), n_c1) for j in range(ROUNDTRIP_PAIRS)]
    counts = {"systems": 0, "draws": 0.0}

    def op_at(i: int) -> Op:
        j = i % ROUNDTRIP_PAIRS
        long_system, long_x = longs[j % ROUNDTRIP_LONG_SYSTEMS]
        # a fresh Generator per run of the op, so every repeat samples the same system
        gen = CountingGenerator(_rng(seed, 6, j))
        return Op(
            f"pair|{j}",
            partial(_pair_op, gen, xs[j], long_system, long_x, counts),
            partial(_check_pair, xs[j], long_x),
        )

    return Workload(ROUNDTRIP_PAIRS, op_at, counts)


WORKLOADS = {
    "class_ladder": _class_ladder,
    "dual_scan": _dual_scan,
    "core_regions": _core_regions,
    "roundtrip": _roundtrip,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's cycle of operations, generated from ``seed``.

    At the default seed and full size the operations also check their
    verdicts against the committed expected-verdict table.
    """
    expected = None
    if seed == DEFAULT_SEED and not tiny:
        expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8")).get(name)
    return WORKLOADS[name](seed, TINY_SIZES if tiny else FULL_SIZES, expected)


def expected_table(seed: int = DEFAULT_SEED) -> dict:
    """Verdicts (or region kinds) of every cycle operation, keyed like the table."""
    table = {}
    for name in ("class_ladder", "dual_scan", "core_regions"):
        workload = WORKLOADS[name](seed, FULL_SIZES, None)
        entries = {}
        for i in range(workload.cycle_len):
            op = workload.op_at(i)
            doc = json.loads(op.call()[0])
            entries[op.key] = {"kind": doc["kind"]} if name == "core_regions" else _report_summary(doc)
        table[name] = entries
    return table
