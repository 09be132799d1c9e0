"""The kernel and companion producers return plain read-only arrays.

band_ops.triangle_kernel (T), band_ops.inverse_kernel (V), duals.companion_c (C)
and duals.companion_d (D) each build an n x n array that is lower triangular by
construction, check its range where it builds it, and freeze it.  Every reader
takes the array as it is, so each result must own its data (no writable base),
be read-only and C-contiguous, vanish strictly above the diagonal (a -0.0 there
is allowed) and be finite.
"""

import numpy as np
import pytest

from seqcore import band_ops, duals
from seqcore.generators import random_band_system, rng_from_seed
from seqcore.types import BandSystem

# name -> (system, truncation); V of "expanding" is (-4)^(m-k), up to 4^511 = 2^1022 at n = 512
SYSTEMS = {
    "constant": (BandSystem.constant(2.0, 1.0, 1.0, 64), 64),
    "difference": (BandSystem.difference(64), 64),
    "random": (random_band_system(rng_from_seed(7), 64), 64),
    "expanding": (BandSystem.constant(1.0, 4.0, 1.0, 512), 512),
    "one_by_one": (BandSystem.constant(-2.5, 1.0, 1.0, 1), 1),
}


def _weights(kind, n):
    """Weights of modulus below 1, so C and D stay finite on every system above."""
    rng = rng_from_seed(3)
    if kind == "real":
        return rng.uniform(0.5, 1.0, n)
    if kind == "negative":
        a = -rng.uniform(0.5, 1.0, n)
        a[::3] = -0.0
        return a
    return rng.uniform(-0.7, 0.7, n) + 1j * rng.uniform(-0.7, 0.7, n)


PRODUCERS = [("triangle_kernel", None), ("inverse_kernel", None)] + [
    (name, weights) for name in ("companion_c", "companion_d") for weights in ("real", "negative", "complex")
]


def _build(name, weights, sys, n):
    if weights is None:
        return getattr(band_ops, name)(sys, n)
    return getattr(duals, name)(_weights(weights, n), sys, n)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("name, weights", PRODUCERS, ids=[f"{name}-{w or 'kernel'}" for name, w in PRODUCERS])
def test_producer_returns_a_read_only_lower_triangle(name, weights, system):
    sys, n = SYSTEMS[system]
    X = _build(name, weights, sys, n)
    assert type(X) is np.ndarray and X.shape == (n, n)
    assert X.dtype == (np.complex128 if weights == "complex" else np.float64)
    assert X.flags.owndata and X.flags.c_contiguous and not X.flags.writeable
    with pytest.raises(ValueError):
        X[0, 0] = 1.0
    upper = X[np.triu_indices(n, 1)]
    assert not upper.any()
    if weights == "negative" and n > 1:  # -|a_n| V[n, k] is -0.0 above the diagonal, which is allowed
        assert np.signbit(upper).any()
    assert np.isfinite(X).all()


@pytest.mark.parametrize("band", ["diagonal", "subdiagonal"])
def test_triangle_kernel_band_overflow_raises(band):
    # r_k / alpha_k and s_{k-1} / alpha_k overflow once alpha_k is subnormal
    r, s, alpha = np.ones(3), np.ones(3), np.ones(3)
    (r if band == "diagonal" else s)[:2] = 1e10
    alpha[1] = 5e-324
    with np.errstate(all="raise"), pytest.raises(OverflowError, match="^band triangle entries overflow"):
        band_ops.triangle_kernel(BandSystem(r, s, alpha), 3)
