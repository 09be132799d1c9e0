"""Truncation-ladder estimates and verdicts for boundedness and limit conditions.

Conditions on infinite matrices ("sup ... < infinity", "lim ... = 0") cannot
be decided from finite blocks, so every condition is evaluated on an
increasing ladder of truncations and classified from the trend:

* bounded-type: holds when the last two ladder estimates agree to within the
  stabilization tolerance, fails when the fitted log-log growth exponent
  exceeds the growth threshold, inconclusive otherwise;
* limit-type: the measured functional is compared against its target; holds
  when the final deviation is below the zero tolerance or decays with a
  clearly negative exponent, fails when the deviation stabilizes away from
  the target or grows, inconclusive otherwise.

All verdicts are truncation-ladder heuristics by construction; they gather
evidence, not proofs, and the thresholds below are fixed constants.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HOLDS",
    "FAILS",
    "INCONCLUSIVE",
    "STABILIZATION_RTOL",
    "GROWTH_THRESHOLD",
    "DECAY_THRESHOLD",
    "ZERO_ATOL",
    "ConditionVerdict",
    "fit_growth_exponent",
    "classify_series",
    "combine_forall",
    "combine_exists",
    "aggregate_verdict",
]

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

# fails dominates, then inconclusive, then holds
_SEVERITY = {HOLDS: 0, INCONCLUSIVE: 1, FAILS: 2}

# ladder classification thresholds
STABILIZATION_RTOL = 0.01  # last two estimates agree to within 1 %
GROWTH_THRESHOLD = 0.05  # fitted log-log exponent above this grows
DECAY_THRESHOLD = -0.05  # fitted log-log exponent at or below this decays
ZERO_ATOL = 1e-8  # a final deviation at or below this is zero


@functools.lru_cache
def _line_fit(ladder: tuple) -> tuple:
    """np.polyfit(log(ladder), y, 1)'s setup, which does not depend on y: its column-scaled Vandermonde matrix, the
    column scales and rcond, read-only."""
    x = np.log(np.array(ladder)) + 0.0
    lhs = np.vander(x, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    lhs.setflags(write=False)
    scale.setflags(write=False)
    return lhs, scale, len(x) * np.finfo(x.dtype).eps


def fit_growth_exponent(ns, values) -> float:
    """Least-squares slope of log(value) against log(N) over the ladder.

    The steps of ``np.polyfit(log(ns), log(values), 1)[0]``, bit for bit, with
    the steps that read the ladder only done once per ladder (:func:`_line_fit`).
    """
    ns = np.asarray(ns, dtype=np.float64)
    vals = np.maximum(np.abs(np.asarray(values, dtype=np.float64)), 1e-300)
    if ns.size < 2:
        return 0.0
    if ns.ndim != 1 or vals.shape != ns.shape:
        raise TypeError("expected one value per ladder point")
    lhs, scale, rcond = _line_fit(tuple(ns.tolist()))
    c, _, rank, _ = np.linalg.lstsq(lhs, np.log(vals) + 0.0, rcond)
    if rank != 2:
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
    return float(c[0] / scale[0])


def _stabilized(a: float, b: float) -> bool:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return True
    return abs(a - b) < STABILIZATION_RTOL * scale


def classify_series(kind: str, ns, values, target: float | None = None) -> tuple[str, float, float | None]:
    """Classify one ladder of estimates.

    Returns (verdict, growth_exponent, last_deviation); last_deviation is the
    final |value - target| for limit-type conditions and None otherwise.
    """
    values = [float(v) for v in values]
    if kind == "bounded":
        growth = fit_growth_exponent(ns, values)
        if len(values) >= 2 and _stabilized(values[-1], values[-2]):
            return HOLDS, growth, None
        if growth > GROWTH_THRESHOLD:
            return FAILS, growth, None
        return INCONCLUSIVE, growth, None
    if kind == "limit":
        if target is None:
            raise ValueError("limit-type classification needs a target")
        dev = [abs(v - target) for v in values]
        growth = fit_growth_exponent(ns, dev)
        last = dev[-1]
        if last <= ZERO_ATOL:
            return HOLDS, growth, last
        if growth <= DECAY_THRESHOLD:
            return HOLDS, growth, last
        if len(dev) >= 2 and _stabilized(dev[-1], dev[-2]):
            return FAILS, growth, last
        if growth > GROWTH_THRESHOLD:
            return FAILS, growth, last
        return INCONCLUSIVE, growth, last
    raise ValueError("kind must be 'bounded' or 'limit'")


def combine_forall(verdicts) -> str:
    """All witnesses must hold; the worst verdict wins."""
    verdicts = list(verdicts)
    if not verdicts:
        return INCONCLUSIVE
    return max(verdicts, key=lambda v: _SEVERITY[v])


def combine_exists(verdicts) -> str:
    """One holding witness suffices; the best verdict wins."""
    verdicts = list(verdicts)
    if not verdicts:
        return INCONCLUSIVE
    return min(verdicts, key=lambda v: _SEVERITY[v])


def aggregate_verdict(verdicts) -> str:
    """Conjunction of member verdicts: fails dominates, then inconclusive."""
    return combine_forall(verdicts)


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of one condition over a truncation ladder.

    estimates holds (truncation, witness, value) triples, where witness names
    the quantifier instance ("B=16", "L=2,M=256") or is None for plain
    conditions; fitted records any parameters estimated from the largest
    truncation (limit rows, limit row sums).
    """

    cond_id: str
    estimates: tuple
    verdict: str
    growth_exponent: float
    kind: str
    target: float | None = None
    last_deviation: float | None = None
    note: str | None = None
    fitted: dict = field(default_factory=dict)
    anchor: str | None = None

    def to_json(self) -> dict:
        out = {
            "id": self.cond_id,
            "verdict": self.verdict,
            "kind": self.kind,
            "growth_exponent": self.growth_exponent,
            "estimates": [
                {"n": int(n), "witness": w, "value": float(v)} for (n, w, v) in self.estimates
            ],
        }
        if self.target is not None:
            out["target"] = self.target
        if self.last_deviation is not None:
            out["last_deviation"] = self.last_deviation
        if self.note:
            out["note"] = self.note
        if self.fitted:
            out["fitted"] = self.fitted
        if self.anchor:
            out["anchor"] = self.anchor
        return out
