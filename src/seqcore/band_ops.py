"""Forward and inverse double-band transforms, paranorms, and basis machinery.

The transform attached to a :class:`~seqcore.types.BandSystem` is the lower
two-band triangle

    y_n = (r_n x_n + s_{n-1} x_{n-1}) / alpha_n,      x_{-1} = 0.

Its inverse is the full lower triangle

    V[n, k] = (-1)^(n-k) (alpha_k / r_n) prod_{i=k..n-1} (s_i / r_i),

whose entries are evaluated through log-magnitude prefix sums with separate
sign accumulation, so long products neither overflow nor underflow.  The
magnitudes are exponentiated in one n x n buffer, and the signs enter as a
row vector times a column vector of +-1 factors, which is exact in any
order.  The inverse of a concrete vector is computed by forward substitution
(solving the band recurrence), which is the numerically preferred path; the
tests keep the explicit series through V as an independent cross-check.

Forward substitution is serial, but on a long contracting system it runs on
blocks of _BLOCK steps at once and still gives the serial loop's bits.  Its
float lanes repeat CPython's complex arithmetic, where a float is promoted
to complex(f, 0.0), term for term, so every step rounds, zero signs
included, as the loop does.  Pass 1 starts each block from the last serial
value; a contracting block forgets that start to below an ulp.  Pass 2
restarts each block from pass 1's end of the block before.  The result is
kept only at a fixed point: every pass-2 start equals pass 2's own end of
the block before, so pass 2 is the serial chain from the exact first value
(Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 8, on
triangular solves).  Any other system runs the serial loop.

Accuracy convention: products of the band ratios s_i/r_i act as the condition
measure for everything here.  Residuals of identities that cancel huge
intermediates (e.g. the triangle times its inverse) are therefore reported
componentwise relative to the cancelled magnitude, which is the standard
backward-error scaling; an absolute reading would be meaningless once the
intermediates exceed 1/eps.
"""

from __future__ import annotations

import math

import numpy as np

from .types import BandSystem, ExponentSeq, FiniteSeq, TriangleKernel

__all__ = [
    "forward_transform",
    "inverse_transform",
    "triangle_kernel",
    "inverse_kernel",
    "kernel_identity_residual",
    "maddox_paranorm",
    "space_paranorm",
    "basis_vector",
    "z_vector",
    "expansion_residual",
    "tail_paranorm",
]


def forward_transform(x, sys: BandSystem) -> FiniteSeq:
    """Apply the band triangle: y_n = (r_n x_n + s_{n-1} x_{n-1}) / alpha_n.

    Row 0 has no subdiagonal entry (x_{-1} = 0), so y_0 = r_0 x_0 / alpha_0.
    """
    x = FiniteSeq.coerce(x)
    r, s, a = sys.params(x.n)
    v = x.values
    y = np.empty(x.n, dtype=np.complex128)
    y[0] = r[0] * v[0] / a[0]
    if x.n > 1:
        y[1:] = (r[1:] * v[1:] + s[:-1] * v[:-1]) / a[1:]
    return FiniteSeq(y)


def inverse_transform(y, sys: BandSystem) -> FiniteSeq:
    """Invert the band triangle by forward substitution.

    Solves r_k x_k + s_{k-1} x_{k-1} = alpha_k y_k in index order, which is
    the stable evaluation of the inverse series.  Long contracting systems go
    through _blocked_substitute, every other system through _substitute; both
    give the same bits.
    """
    y = FiniteSeq.coerce(y)
    r, s, a = sys.params(y.n)
    x = _blocked_substitute(r, s, a, y.values)
    if x is None:
        x = np.fromiter(_substitute(r.tolist(), s.tolist(), a.tolist(), y.values.tolist()), np.complex128, y.n)
    return FiniteSeq(x)


def _substitute(r: list, s: list, a: list, yv: list) -> list:
    """x_0 = a_0 y_0 / r_0, then x_k = (a_k y_k - s_{k-1} x_{k-1}) / r_k, on Python scalars."""
    prev = a[0] * yv[0] / r[0]
    out = [prev]
    append = out.append
    for ak, yk, sk, rk in zip(a[1:], yv[1:], s, r[1:]):
        prev = (ak * yk - sk * prev) / rk
        append(prev)
    return out


# steps per block of _blocked_substitute
_BLOCK = 128
# shorter systems run _substitute: timed on 2 vCPUs, the two passes take 2-2.7 ms (median) at
# every n up to 6144, while the serial loop takes 0.2 ms at n = 512 and 2.7 ms at n = 6144
_MIN_BLOCKED_N = 48 * _BLOCK
# pass 2 compares its row with pass 1's after every this many steps
_CHECK_EVERY = 16
# a block must shrink the error of its pass-1 start by 2**-60 (below an ulp) to meet the serial values
_MIN_LOG_CONTRACTION = 60.0 * math.log(2.0)
# CPython 3.11 promotes a float operand of complex arithmetic to complex(f, 0.0), so
# 1.0 * (-0.0 - 1j) has real part -0.0 - 0.0 * -1.0 = +0.0; a real-times-complex rule gives -0.0
_PROMOTES = math.copysign(1.0, (1.0 * complex(-0.0, -1.0)).real) > 0.0


def _blocked_substitute(r: np.ndarray, s: np.ndarray, a: np.ndarray, yv: np.ndarray) -> np.ndarray | None:
    """_substitute's result, bit for bit, from numpy lanes run over all blocks at once; None to fall back.

    The first 1 + (n - 1) % _BLOCK values come from _substitute.  The remaining
    steps form blocks of _BLOCK consecutive indices, and each step is a few
    ufunc calls over every block, on a real and an imaginary float lane that
    repeat CPython's complex arithmetic term for term: a float f is promoted
    to (f, 0.0), a product is (ac - bd, ad + bc), and the quotient by (r, 0.0)
    takes ratio = 0/r and denom = r + 0*ratio = r, as _Py_c_quot does.  Pass 1
    starts every block from the head's last value x_h; blocks are an even
    number of steps long, so on constant data that settles into a rounding
    cycle of period 2 the start has the cycle's phase.  Pass 2 restarts
    block b from pass 1's end of block b - 1, and once its row of values
    equals pass 1's bitwise it keeps pass 1's rows.  If every pass-2 start
    equals pass 2's end of the block before, pass 2 is the serial chain
    started from the exact head, so it is returned.  None when n < _MIN_BLOCKED_N, when a block
    after the first has a ratio walk sum log|s_{k-1}/r_k| above -60 ln 2, when
    the check fails, when a value is not finite, or when the interpreter does
    not promote floats to complex.
    """
    n = yv.size
    if n < _MIN_BLOCKED_N or not _PROMOTES:
        return None
    h = (n - 1) % _BLOCK  # the head x_0..x_h is serial; step k of the blocks solves for x_k, k > h
    nb = (n - 1) // _BLOCK
    with np.errstate(all="ignore"):
        walk = np.log(np.abs(s[h:-1] / r[h + 1 :])).reshape(nb, _BLOCK).sum(axis=1)
        if not np.all(walk[1:] <= -_MIN_LOG_CONTRACTION):
            return None
        head = _substitute(r[: h + 1].tolist(), s[: h + 1].tolist(), a[: h + 1].tolist(), yv[: h + 1].tolist())

        def lanes(v):  # (nb * _BLOCK,) or (nb * _BLOCK, 2) -> (_BLOCK, 1 or 2, nb): row j is step j of every block
            return np.ascontiguousarray(v.reshape(nb, _BLOCK, -1).transpose(1, 2, 0))

        yk = lanes(yv[h + 1 :].view(np.float64))  # real and imaginary lane
        zero_sign = np.array([[-0.0], [0.0]])
        # (a, 0) * (yr, yi) = (a yr - 0 yi, a yi + 0 yr)
        ay = lanes(a[h + 1 :]) * yk
        ay += zero_sign * yk[:, ::-1]
        rk = lanes(r[h + 1 :])
        rat = (0.0 / rk) * np.array([[1.0], [-1.0]])  # (ratio, -ratio)
        sk = lanes(s[h:-1])

        xs = np.empty((_BLOCK, 2, nb))
        t, u = np.empty((2, nb)), np.empty((2, nb))

        def step(j, prev, out):
            # (s, 0) * (xr, xi) = (s xr - 0 xi, s xi + 0 xr), with u = (-0 xi, 0 xr)
            np.multiply(sk[j], prev, out=t)
            np.multiply(zero_sign, prev[::-1], out=u)
            np.add(t, u, out=t)
            np.subtract(ay[j], t, out=t)
            # (nr, ni) / (r, 0) = ((nr + ni ratio) / denom, (ni - nr ratio) / denom), denom = r + 0 ratio = r
            np.multiply(t[::-1], rat[j], out=u)
            np.add(t, u, out=t)
            np.divide(t, rk[j], out=out)

        start = np.repeat([[head[-1].real], [head[-1].imag]], nb, axis=1)
        prev = start
        for j in range(_BLOCK):
            step(j, prev, xs[j])
            prev = xs[j]
        ends = xs[-1].copy()  # pass 1's end of every block
        start[:, 1:] = ends[:, :-1]
        row = np.empty((2, nb))
        prev = start
        for j in range(_BLOCK):
            if (j + 1) % _CHECK_EVERY:
                step(j, prev, xs[j])
            else:
                step(j, prev, row)
                if np.array_equal(row.view(np.int64), xs[j].view(np.int64)):
                    break  # pass 1's later rows are what pass 2 would compute
                xs[j] = row
            prev = xs[j]
        if not np.array_equal(ends[:, :-1].view(np.int64), xs[-1, :, :-1].view(np.int64)):
            return None
        if not np.isfinite(xs).all():
            return None
    out = np.empty(n, dtype=np.complex128)
    out[: h + 1] = head
    out[h + 1 :].view(np.float64).reshape(nb, _BLOCK, 2)[:] = xs.transpose(2, 0, 1)
    return out


def triangle_kernel(sys: BandSystem, n: int) -> TriangleKernel:
    """Dense truncation of the band triangle itself."""
    if n < 1:
        raise ValueError("truncation must be >= 1")
    r, s, a = sys.params(n)
    ent = np.zeros((n, n))
    idx = np.arange(n)
    ent[idx, idx] = r / a
    if n > 1:
        ent[idx[1:], idx[:-1]] = s[:-1] / a[1:]
    return TriangleKernel(ent)


def _log_prefix(sys: BandSystem, n: int):
    """Prefix data for products prod_{i=k..n-1} (s_i/r_i): cum log-magnitudes and signs."""
    r, s, _ = sys.params(n)
    cum = np.zeros(n)
    sgn = np.ones(n)
    if n > 1:
        ratio = s[:-1] / r[:-1]
        cum[1:] = np.cumsum(np.log(np.abs(ratio)))
        sgn[1:] = np.cumprod(np.sign(ratio))
    return cum, sgn


def inverse_kernel(sys: BandSystem, n: int, method: str = "log") -> TriangleKernel:
    """Dense inverse V of the band triangle.

    method="log" (default) evaluates every entry as

        exp((log a_k - log|r_n|) + (cum_n - cum_k)) * (-1)^n sgn_n sign(r_n) * (-1)^k sgn_k,

    with cum and sgn the prefix log-magnitudes and signs of the ratios
    s_i/r_i, in one n x n buffer, and is safe for arbitrary truncations;
    method="direct" accumulates the raw products and is intended as a
    cross-check at small truncations (<= a few hundred) where the products
    cannot overflow.
    """
    if n < 1:
        raise ValueError("truncation must be >= 1")
    r, s, a = sys.params(n)
    if method == "log":
        cum, sgn = _log_prefix(sys, n)
        ent = np.log(a)[None, :] - np.log(np.abs(r))[:, None]
        ent += np.subtract.outer(cum, cum)
        # +-1 factors (0 after a ratio that underflowed), so their products are exact in any order
        col = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * sgn
        with np.errstate(over="ignore"):  # overflow surfaces as OverflowError below
            np.exp(ent, out=ent)
            ent *= (col * np.sign(r))[:, None]
            ent *= col
        ent = np.tril(ent)
    elif method == "direct":
        # column recurrence V[m, k] = -(s_{m-1}/r_m) V[m-1, k], V[k, k] = a_k/r_k
        q = np.ones(n)
        if n > 1:
            q[1:] = np.cumprod(-s[:-1] / r[1:])
        with np.errstate(over="ignore"):
            ent = np.tril((a / r)[None, :] * (q[:, None] / q[None, :]))
    else:
        raise ValueError("method must be 'log' or 'direct'")
    if not np.isfinite(ent).all():
        raise OverflowError("inverse kernel entries overflow double precision at this truncation")
    return TriangleKernel(ent)


def kernel_identity_residual(sys: BandSystem, n: int) -> float:
    """Componentwise residual of (triangle @ inverse) = identity.

    Each entry of the product is |T V - I| divided by max(1, |T| |V|), i.e.
    the deviation relative to the magnitude that had to cancel to produce it.
    For well-scaled systems the denominator is O(1) and this is the plain
    absolute entry error; for systems whose ratio products grow, it measures
    how completely the inverse cancels the triangle, which is the strongest
    statement double precision supports.
    """
    T = triangle_kernel(sys, n).entries
    V = inverse_kernel(sys, n).entries
    resid = np.abs(T @ V - np.eye(n))
    scale = np.maximum(1.0, np.abs(T) @ np.abs(V))
    return float(np.max(resid / scale))


def maddox_paranorm(v, p: ExponentSeq, kind: str) -> float:
    """Variable-exponent paranorms of a truncation.

    kind="sup" returns sup_k |v_k|^(p_k/M) and requires inf p_k bounded away
    from zero (the sup functional is not a paranorm otherwise); kind="sum"
    returns (sum_k |v_k|^(p_k))^(1/M).
    """
    v = FiniteSeq.coerce(v)
    p.require_length(v.n)
    mag = np.abs(v.values)
    exps = p.p[: v.n]
    if kind == "sup":
        if not p.inf_positive:
            raise ValueError("sup-type paranorm requires inf p_k > 0")
        return float(np.max(mag ** (exps / p.M)))
    if kind == "sum":
        return float(np.sum(mag ** exps) ** (1.0 / p.M))
    raise ValueError("kind must be 'sup' or 'sum'")


def space_paranorm(x, sys: BandSystem, p: ExponentSeq, kind: str) -> float:
    """Paranorm of the transformed sequence: the g / g* functionals of the spaces."""
    return maddox_paranorm(forward_transform(x, sys), p, kind)


def basis_vector(sys: BandSystem, k: int, n: int) -> FiniteSeq:
    """Basis element b^(k): column k of the inverse kernel, via its recurrence."""
    if not 0 <= k < n:
        raise IndexError(f"basis index {k} out of range for truncation {n}")
    r, s, a = sys.params(n)
    col = np.zeros(n)
    col[k] = a[k] / r[k]
    for m in range(k + 1, n):
        col[m] = -s[m - 1] * col[m - 1] / r[m]
    return FiniteSeq(col)


def z_vector(sys: BandSystem, n: int) -> FiniteSeq:
    """Inverse transform of the all-ones sequence (the extra basis element
    needed for spaces of convergent transforms)."""
    return inverse_transform(FiniteSeq(np.ones(n)), sys)


def tail_paranorm(y, p: ExponentSeq, n: int) -> float:
    """sup_{k > n} |y_k|^(p_k/M); zero when the tail is empty."""
    y = FiniteSeq.coerce(y)
    p.require_length(y.n)
    if n >= y.n - 1:
        return 0.0
    tail = np.abs(y.values[n + 1 :])
    return float(np.max(tail ** (p.p[n + 1 : y.n] / p.M)))


def expansion_residual(x, sys: BandSystem, p: ExponentSeq, n: int) -> float:
    """Paranorm of x minus its basis expansion truncated after coefficient n.

    The expansion coefficients are the transform values mu_k = y_k, so the
    residual paranorm equals the tail functional sup_{k>n} |y_k|^(p_k/M);
    this function computes the left-hand side by direct subtraction
    (x - sum_{k<=n} mu_k b^(k)) and re-transforming.  Rounding noise in the
    cancelled prefix is raised to exponents p_k/M <= 1, so agreement with the
    tail functional is meaningful when the genuine tail dominates that noise
    floor (always the case away from full expansion on well-scaled systems).
    """
    x = FiniteSeq.coerce(x)
    if not 0 <= n < x.n:
        raise IndexError(f"expansion cutoff {n} out of range for truncation {x.n}")
    y = forward_transform(x, sys)
    V = inverse_kernel(sys, x.n).entries
    partial = V[:, : n + 1] @ y.values[: n + 1]
    return maddox_paranorm(forward_transform(FiniteSeq(x.values - partial), sys), p, "sup")
