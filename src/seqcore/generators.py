"""Deterministic constructors for classical summability matrices and test sequences.

Matrices are produced as exact dense truncations of the named infinite
operators (Cesaro and Riesz means, band and double-band triangles, summation,
difference, identity, zero).  Random families use a counter-based generator
(numpy Philox) keyed by an integer seed so the draws are reproducible across
platforms and process restarts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .types import BandSystem, FiniteSeq

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
    """Dense n x n truncation of the named infinite matrix."""
    if isinstance(spec, GeneratorSpec):
        name, params = spec.name, dict(spec.params)
    else:
        name = str(spec)
    if n < 1:
        raise ValueError("truncation must be >= 1")
    idx = np.arange(n)

    if name == "cesaro":
        out = np.tril(1.0 / (idx + 1.0)[:, None] * np.ones(n))
    elif name == "riesz":
        t = np.asarray(params.get("t", np.ones(n)), dtype=np.float64)
        if t.ndim == 0:
            t = np.full(n, float(t))
        if t.size < n:
            raise ValueError("riesz weight sequence shorter than requested truncation")
        t = t[:n]
        if np.any(t <= 0.0):
            raise ValueError("riesz weights must be strictly positive")
        out = np.tril(np.ones((n, n)) * t[None, :]) / np.cumsum(t)[:, None]
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
        out = np.tril(np.ones((n, n)))
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
    """Resolve a matrix argument (dense block, GeneratorSpec, or name) to n x n."""
    if isinstance(matrix, (GeneratorSpec, str)):
        return make_matrix(matrix, n)
    dense = np.asarray(matrix)
    if dense.ndim != 2 or dense.shape[0] < n or dense.shape[1] < n:
        raise ValueError(f"dense block smaller than requested truncation {n}")
    if not np.all(np.isfinite(dense)):
        raise ValueError("dense block entries must be finite")
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
        m = int(params.get("m", 4))
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
        rng = rng_from_seed(int(params.get("seed", 0)))
        vals = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    elif name == "e":
        vals = np.ones(n, dtype=np.complex128)
    elif name == "e_n":
        pos = int(params.get("k", 0))
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


# Far above the mean draws of every screened configuration in use: about 160
# for C1's (n = 512, cap 1e4) and about 18 000 for n = 256 with cap 100, so
# the limit ends only requests the sampler cannot meet in practice.
MAX_SYSTEM_DRAWS = 100_000

# magnitude box of every drawn r_k, s_k and alpha_k
_LOW, _HIGH = 0.5, 2.0


def random_band_system(rng: np.random.Generator, n: int, amplification_cap: float | None = None) -> BandSystem:
    """Random system with |r_k|, |s_k|, alpha_k in [0.5, 2] and random signs.

    With ``amplification_cap`` set, draws are rejected until the log-ratio
    walk of the system stays within the cap; this bounds the condition number
    of forward substitution while every entry still ranges over the full
    stated magnitude box.  Without a cap the ratio walk at large n routinely
    reaches e^20 and beyond, where no double-precision round trip can hold a
    tight tolerance.  After ``MAX_SYSTEM_DRAWS`` rejected candidates it raises
    ``ValueError`` instead of drawing forever.
    """
    if n < 1:
        raise ValueError("system length must be >= 1")
    for _ in range(MAX_SYSTEM_DRAWS):
        r = rng.uniform(_LOW, _HIGH, n) * rng.choice([-1.0, 1.0], n)
        s = rng.uniform(_LOW, _HIGH, n) * rng.choice([-1.0, 1.0], n)
        if amplification_cap is None or _log_amplification(r, s) <= np.log(amplification_cap):
            return BandSystem(r, s, rng.uniform(_LOW, _HIGH, n))
    raise ValueError(
        f"no band system of length {n} within amplification cap {amplification_cap} "
        f"after {MAX_SYSTEM_DRAWS} draws"
    )


_SYSTEM_GENERATORS = ("constant", "difference", "delta", "band", "random")


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
        rng = rng_from_seed(int(params.get("seed", 0)))
        cap = params.get("amplification_cap")
        return random_band_system(rng, length, amplification_cap=None if cap is None else float(cap))
    raise ValueError(f"unknown band system generator {name!r}; known: {_SYSTEM_GENERATORS}")
