"""Deterministic constructors for classical summability matrices and test sequences.

Matrices are produced as exact dense truncations of the named infinite
operators (Cesaro and Riesz means, band and double-band triangles, summation,
difference, identity, zero).  Random families use a counter-based generator
(numpy Philox) keyed by an integer seed so the draws are reproducible across
platforms and process restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .types import BandSystem, FiniteSeq, SchemaError, coerce_int

__all__ = [
    "GeneratorSpec",
    "make_matrix",
    "make_sequence",
    "materialize_matrix",
    "rng_from_seed",
    "random_band_system",
    "band_system_from_spec",
]

MATRIX_NAMES = (
    "cesaro",
    "riesz",
    "band",
    "double_band",
    "summation",
    "difference",
    "identity",
    "zero",
)

SEQUENCE_NAMES = (
    "alternating",
    "roots_of_unity",
    "square_indicator",
    "convergent",
    "random_bounded",
    "e",
    "e_n",
)


@dataclass(frozen=True)
class GeneratorSpec:
    """A named generator plus its parameters; produces any truncation deterministically."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in MATRIX_NAMES and self.name not in SEQUENCE_NAMES:
            raise ValueError(f"unknown generator {self.name!r}")


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator; identical streams for identical seeds."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def make_matrix(spec, n: int, **params) -> np.ndarray:
    """Dense n x n truncation of the named infinite matrix.

    The triangular means are one ``np.where`` over the lower-triangle mask
    ``idx[:, None] >= idx``, with no n x n product before the mask.
    """
    if isinstance(spec, GeneratorSpec):
        name, params = spec.name, dict(spec.params)
    else:
        name = str(spec)
    if n < 1:
        raise ValueError("truncation must be >= 1")
    idx = np.arange(n)

    if name == "cesaro":
        out = np.where(idx[:, None] >= idx, 1.0 / (idx + 1.0)[:, None], 0.0)
    elif name == "riesz":
        t = np.asarray(params.get("t", np.ones(n)), dtype=np.float64)
        if t.ndim == 0:
            t = np.full(n, float(t))
        if t.size < n:
            raise ValueError("riesz weight sequence shorter than requested truncation")
        t = t[:n]
        if not np.all((t > 0.0) & np.isfinite(t)):
            raise ValueError("riesz weights must be finite and strictly positive")
        out = np.where(idx[:, None] >= idx, t, 0.0)
        out /= np.cumsum(t)[:, None]
    elif name == "band":
        r, s = float(params["r"]), float(params["s"])
        if r == 0.0 or s == 0.0:
            raise ValueError("band parameters must be nonzero")
        out = r * np.eye(n)
        if n > 1:
            out[idx[1:], idx[:-1]] = s
    elif name == "double_band":
        r = np.asarray(params["r"], dtype=np.float64)[:n]
        s = np.asarray(params["s"], dtype=np.float64)[:n]
        if r.size < n or np.any(r == 0.0) or np.any(s == 0.0):
            raise ValueError("double_band needs nonzero r, s of length >= n")
        out = np.diag(r)
        if n > 1:
            out[idx[1:], idx[:-1]] = s[:-1]
    elif name == "summation":
        out = np.where(idx[:, None] >= idx, 1.0, 0.0)
    elif name == "difference":
        out = np.eye(n)
        if n > 1:
            out[idx[1:], idx[:-1]] = -1.0
    elif name == "identity":
        out = np.eye(n)
    elif name == "zero":
        out = np.zeros((n, n))
    else:
        raise ValueError(f"unknown matrix generator {name!r}")
    return out


def materialize_matrix(matrix, n: int) -> np.ndarray:
    """Resolve a matrix argument (dense block, GeneratorSpec, or name) to n x n.

    A dense block must be at least n x n with finite entries, all of it, not
    only its leading n x n block; else SchemaError.
    """
    if isinstance(matrix, (GeneratorSpec, str)):
        return make_matrix(matrix, n)
    dense = np.asarray(matrix)
    if dense.ndim != 2 or dense.shape[0] < n or dense.shape[1] < n:
        raise SchemaError(f"dense matrix smaller than requested truncation {n}")
    if not np.all(np.isfinite(dense)):
        raise SchemaError("dense matrix entries must be finite")
    return np.array(dense[:n, :n])


def make_sequence(spec, n: int, **params) -> FiniteSeq:
    """Deterministic test sequences of length n."""
    if isinstance(spec, GeneratorSpec):
        name, params = spec.name, dict(spec.params)
    else:
        name = str(spec)
    if n < 1:
        raise ValueError("sequence length must be >= 1")
    k = np.arange(n)

    if name == "alternating":
        vals = np.where(k % 2 == 0, 1.0, -1.0).astype(np.complex128)
    elif name == "roots_of_unity":
        m = coerce_int(params.get("m", 4), "roots_of_unity parameter m")
        if m < 1:
            raise ValueError("roots_of_unity needs m >= 1")
        vals = np.exp(2j * np.pi * (k % m) / m)  # k mod m keeps equal angles bit-identical
    elif name == "square_indicator":
        roots = np.floor(np.sqrt(k + 0.5)).astype(np.int64)
        vals = (roots * roots == k).astype(np.complex128)
    elif name == "convergent":
        limit = complex(params.get("l", 1.0))
        rate = float(params.get("rate", 0.5))
        if not 0.0 < rate < 1.0:
            raise ValueError("convergent rate must lie in (0, 1)")
        vals = limit + rate ** k.astype(np.float64)
    elif name == "random_bounded":
        rng = rng_from_seed(coerce_int(params.get("seed", 0), "random_bounded parameter seed"))
        vals = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    elif name == "e":
        vals = np.ones(n, dtype=np.complex128)
    elif name == "e_n":
        pos = coerce_int(params.get("k", 0), "e_n parameter k")
        if not 0 <= pos < n:
            raise ValueError("unit sequence position out of range")
        vals = np.zeros(n, dtype=np.complex128)
        vals[pos] = 1.0
    else:
        raise ValueError(f"unknown sequence generator {name!r}")
    return FiniteSeq(vals)


def _log_amplification(r: np.ndarray, s: np.ndarray) -> float:
    """Largest rise or fall of the running log |s_i / r_i| prefix sums.

    exp of this value bounds how strongly forward substitution through the
    band triangle can amplify a perturbation, so it is the condition measure
    for round trips through the transform.
    """
    if r.size <= 1:
        return 0.0
    walk = np.concatenate([[0.0], np.cumsum(np.log(np.abs(s[:-1] / r[:-1])))])
    rise = float(np.max(walk - np.minimum.accumulate(walk)))
    fall = float(np.max(np.maximum.accumulate(walk) - walk))
    return max(rise, fall)


# magnitude box of every drawn r_k, s_k and alpha_k
_LOW, _HIGH = 0.5, 2.0

# relative shrink of the walk band the capped sampler aims for, so rounding in
# the band arithmetic never pushes the drawn walk past the cap itself
_BAND_SHRINK = 1e-9


def _capped_moduli(r_mod: np.ndarray, u: np.ndarray, log_cap: float) -> np.ndarray:
    """|s_i| in the magnitude box keeping the log-ratio walk within ``log_cap``.

    The walk w_{i+1} = w_i + log(|s_i| / |r_i|) has range at most L = log_cap
    when every step lands in [max w - L, min w + L] over the walk so far.  Each
    |s_i| is uniform (through ``u``) over the part of [0.5, 2] that does so;
    |s_i| = |r_i| is a zero step, so that part is never empty, and it is also
    the fallback should rounding carry a drawn |s_i| outside the band or the
    box.  s_{n-1} does not enter the walk and ranges over the whole box.
    """
    width = log_cap * (1.0 - _BAND_SHRINK)
    exp, log = math.exp, math.log
    walk = top = bottom = 0.0
    out = []
    append = out.append
    for rk, uk in zip(r_mod[:-1].tolist(), u[:-1].tolist()):
        lo = rk * exp(top - width - walk)
        if lo < _LOW:
            lo = _LOW
        hi = rk * exp(bottom + width - walk)
        if hi > _HIGH:
            hi = _HIGH
        sk = lo + uk * (hi - lo)
        nxt = walk + log(sk / rk)
        if nxt - bottom > width or top - nxt > width or not _LOW <= sk <= _HIGH:
            sk, nxt = rk, walk
        append(sk)
        walk = nxt
        if walk > top:
            top = walk
        elif walk < bottom:
            bottom = walk
    append(_LOW + float(u[-1]) * (_HIGH - _LOW))
    return np.array(out)


def random_band_system(rng: np.random.Generator, n: int, amplification_cap: float | None = None) -> BandSystem:
    """Random system with |r_k|, |s_k|, alpha_k in [0.5, 2] and random signs.

    With ``amplification_cap`` set, the log-ratio walk of the system (the
    running sums of log|s_i / r_i|) is kept within log(cap) as it is drawn:
    r is drawn as without a cap, then each |s_i| is drawn from the part of
    [0.5, 2] that keeps the walk's range within the cap.  That bounds the
    condition number of forward substitution, and every cap >= 1 is met in
    one pass (cap 1 gives |s_i| = |r_i| along the walk).  A cap below 1 or NaN
    raises ``ValueError``, as no walk has a negative range; a cap of +inf is
    no cap.  Without a cap the ratio walk at large n routinely reaches e^20
    and beyond, where no double-precision round trip can hold a tight
    tolerance.
    """
    if n < 1:
        raise ValueError("system length must be >= 1")
    if amplification_cap is not None and not amplification_cap >= 1.0:
        raise ValueError(f"amplification cap must be >= 1, got {amplification_cap}")
    r = rng.uniform(_LOW, _HIGH, n) * rng.choice([-1.0, 1.0], n)
    if amplification_cap is None or amplification_cap == math.inf:
        s = rng.uniform(_LOW, _HIGH, n) * rng.choice([-1.0, 1.0], n)
        return BandSystem(r, s, rng.uniform(_LOW, _HIGH, n))
    log_cap = float(np.log(amplification_cap))
    signs = rng.choice([-1.0, 1.0], n)
    s = _capped_moduli(np.abs(r), rng.random(n), log_cap) * signs
    if _log_amplification(r, s) > log_cap:
        raise RuntimeError("capped band system left its amplification cap")
    return BandSystem(r, s, rng.uniform(_LOW, _HIGH, n))


SYSTEM_NAMES = ("constant", "difference", "delta", "band", "random")


def band_system_from_spec(name: str, params: dict, length: int) -> BandSystem:
    """Band systems by generator name, for configs and the CLI."""
    if name in ("difference", "delta"):
        return BandSystem.difference(length)
    if name in ("constant", "band"):
        return BandSystem.constant(
            float(params.get("r", 1.0)),
            float(params.get("s", 1.0)),
            float(params.get("alpha", 1.0)),
            length,
        )
    if name == "random":
        rng = rng_from_seed(coerce_int(params.get("seed", 0), "random parameter seed"))
        cap = params.get("amplification_cap")
        return random_band_system(rng, length, amplification_cap=None if cap is None else float(cap))
    raise ValueError(f"unknown band system generator {name!r}; known: {SYSTEM_NAMES}")
