"""Forward and inverse double-band transforms, paranorms, and basis machinery.

The transform attached to a :class:`~seqcore.types.BandSystem` is the lower
two-band triangle

    y_n = (r_n x_n + s_{n-1} x_{n-1}) / alpha_n,      x_{-1} = 0.

Its inverse is the full lower triangle

    V[n, k] = (-1)^(n-k) (alpha_k / r_n) prod_{i=k..n-1} (s_i / r_i),

built by its row recurrence (:func:`inverse_kernel`), within (m - k + 1) eps
of exact entry by entry; its columns are the basis vectors.  V depends on the
system and the truncation only, not on a weight, space or matrix class, so
each system keeps the V of the largest truncation built from it, and every
report on that system reads that one read-only array or a copy of its
leading block (a leading block of V is bit-identical to V built at that
size).  The inverse of
a concrete vector is computed by forward substitution (solving the band
recurrence), which is the numerically preferred path; the tests keep the
explicit series through V as an independent cross-check.

Forward substitution is serial, but on a long contracting system it runs on
blocks of _BLOCK steps at once and still gives the serial loop's values.  Pass
1 starts each block from the last serial value; a contracting block forgets
that start to below an ulp.  Pass 2 restarts each block from pass 1's end of
the block before.  The result is kept only at a fixed point: every pass-2
start equals pass 2's own end of the block before, so pass 2 is the serial
chain from the exact first value (Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 8, on triangular solves).  A step is three float
ufuncs, x = (a y - s x) / r, on a row of two planes: the real parts of
every block, then the imaginary parts.  s and r are stored once per step, as
one plane that numpy broadcasts over the outer (plane) axis, so each ufunc's
inner loop still runs over contiguous blocks.  The lanes a y, s, r and x
thus take 48 bytes per term, not the 64 of (real, imaginary) pairs with s
and r written into both places of each pair.  Any other system, and a block
run that fails the fixed-point check, runs the serial loop.

Zero contract: the blocked path equals the serial loop up to the sign of
zero parts, which :mod:`seqcore.io` renders as 0.  CPython 3.11 to 3.13
promote a float operand of complex arithmetic to complex(f, 0.0), which adds
+-0 terms to every product and quotient of the loop; the float ufuncs leave
them out.  Such a term can change only the sign of a zero result, so every
nonzero bit and the position of every zero match on any interpreter.

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

from .types import BandSystem, ExponentSeq, FiniteSeq, SchemaError

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
    y = _band_rows(x.values, sys, np.empty(x.n, dtype=np.complex128))
    y.setflags(write=False)  # nothing else refers to y, so FiniteSeq keeps it without a copy
    return FiniteSeq(y)


def _band_rows(x: np.ndarray, sys: BandSystem, out: np.ndarray) -> np.ndarray:
    """The band triangle applied down the first axis of x, into out: out[k] = (r_k x[k] + s_{k-1} x[k-1]) / alpha_k.

    x is a vector or a matrix whose rows are transformed.  Rows 1 on are
    built in place by three ufuncs, so one temporary, not three, and the
    same bits as the plain expression.  Returns out.
    """
    n = x.shape[0]
    r, s, a = (v.reshape((n,) + (1,) * (x.ndim - 1)) for v in sys.params(n))
    out[0] = r[0] * x[0] / a[0]
    if n > 1:
        tail = out[1:]
        np.multiply(r[1:], x[1:], out=tail)
        tail += s[:-1] * x[:-1]
        tail /= a[1:]
    return out


def inverse_transform(y, sys: BandSystem) -> FiniteSeq:
    """Invert the band triangle by forward substitution.

    Solves r_k x_k + s_{k-1} x_{k-1} = alpha_k y_k in index order, which is
    the stable evaluation of the inverse series.  Long contracting systems go
    through _blocked_substitute, every other system through _substitute; both
    give the same bits up to the sign of zero parts.
    """
    y = FiniteSeq.coerce(y)
    r, s, a = sys.params(y.n)
    x = _blocked_substitute(r, s, a, y.values)
    if x is None:
        x = np.fromiter(_substitute(r.tolist(), s.tolist(), a.tolist(), y.values.tolist()), np.complex128, y.n)
    x.setflags(write=False)  # nothing else refers to x, so FiniteSeq keeps it without a copy
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
# shorter systems run _substitute, at the crossover of medians of 200 alternating calls on a random
# contracting system (two runs, 2 vCPUs): serial 0.90-1.04 ms vs blocked 0.93-1.09 ms at n = 2048,
# 0.75-0.91 vs 0.61-0.88 at n = 2304 and 0.75-1.07 vs 0.54-0.91 at n = 2560
_MIN_BLOCKED_N = 18 * _BLOCK
# pass 2 compares its row with pass 1's after every this many steps
_CHECK_EVERY = 16
# a block must shrink the error of its pass-1 start by 2**-60 (below an ulp) to meet the serial values
_MIN_LOG_CONTRACTION = 60.0 * math.log(2.0)


def _fast_step(x: np.ndarray, s: np.ndarray, ay: np.ndarray, r: np.ndarray, out: np.ndarray) -> None:
    """out = (ay - s x) / r on a row of float planes, s and r broadcast over them: three float ufuncs."""
    np.multiply(x, s, out=out)
    np.subtract(ay, out, out=out)
    np.divide(out, r, out=out)


def _blocked_substitute(r: np.ndarray, s: np.ndarray, a: np.ndarray, yv: np.ndarray) -> np.ndarray | None:
    """_substitute's result up to the sign of zero parts, from numpy rows run over all blocks at once; None to fall back.

    The first 1 + (n - 1) % _BLOCK values x_0..x_h come from _substitute, and
    _solve_blocks computes the others in blocks of _BLOCK consecutive steps.
    None when n < _MIN_BLOCKED_N, when a block after the first has a ratio
    walk sum log|s_{k-1}/r_k| above -60 ln 2, or when _solve_blocks gives up.
    """
    n = yv.size
    if n < _MIN_BLOCKED_N:
        return None
    h = (n - 1) % _BLOCK  # the head x_0..x_h is serial; step k of the blocks solves for x_k, k > h
    nb = (n - 1) // _BLOCK
    with np.errstate(all="ignore"):
        walk = s[h:-1] / r[h + 1 :]
        np.log(np.abs(walk, out=walk), out=walk)
        contracts = np.all(walk.reshape(nb, _BLOCK).sum(axis=1)[1:] <= -_MIN_LOG_CONTRACTION)
        del walk  # freed before the lanes are built
        if not contracts:
            return None
        head = _substitute(r[: h + 1].tolist(), s[: h + 1].tolist(), a[: h + 1].tolist(), yv[: h + 1].tolist())
        # the lanes live in _solve_blocks, so the output below reuses their freed memory
        xs = _solve_blocks(r[h + 1 :], s[h:-1], a[h + 1 :], yv[h + 1 :], head[-1])
    if xs is None:
        return None
    out = np.empty(n, dtype=np.complex128)
    out[: h + 1] = head
    out[h + 1 :].view(np.float64).reshape(nb, _BLOCK, 2)[:] = xs.transpose(2, 0, 1)
    return out


def _solve_blocks(r: np.ndarray, s: np.ndarray, a: np.ndarray, yv: np.ndarray, start: complex) -> np.ndarray | None:
    """x_k = (a[k] yv[k] - s[k] x_{k-1}) / r[k] for k < m = nb * _BLOCK, x_{-1} = start; None to fall back.

    The values come back as (_BLOCK, 2, nb) floats: row j holds step j of
    every block as two planes, the real parts and then the imaginary parts.
    a y and x are stored that way; s and r are stored once, as (_BLOCK, nb)
    rows that _fast_step broadcasts over the two planes.  The broadcast is
    over the outer axis, so every ufunc's inner loop runs over nb contiguous
    values (a (nb, 1) broadcast inside (real, imaginary) pairs would not),
    and s and r take half the memory of pair lanes that repeat them.

    Pass 1 starts every block from start; blocks are an even number of
    steps long, so on constant data that settles into a rounding cycle of
    period 2 the start has the cycle's phase.  Pass 2 restarts block b from
    pass 1's end of block b - 1, and once its row equals pass 1's bitwise it
    keeps pass 1's rows.  If every pass-2 start equals pass 2's end of the
    block before, pass 2 is the serial chain from start.

    Both checks compare values, not bits: _fast_step maps inputs that differ
    only in the signs of zeros to outputs that differ only there, so pass 2
    equals the serial chain up to the sign of zero parts, the contract of
    the module docstring.  None when a value is not finite or when the
    fixed-point check fails.
    """
    nb = yv.size // _BLOCK
    by_step = a.reshape(nb, _BLOCK).T
    # a y's two planes, s and r in one block: once glibc has mapped and freed a block this large, it serves the next
    # from its heap and keeps the pages (a loop of inverse_transform at n = 65 536 on glibc 2.36, 2 vCPU: about 1
    # minor fault per call, against 607 with three separate lanes)
    lanes = np.empty((4, _BLOCK, nb))
    ay = lanes[:2].reshape(_BLOCK, 2, nb)
    ay[:, 0] = yv.reshape(nb, _BLOCK).T.real
    ay[:, 1] = yv.reshape(nb, _BLOCK).T.imag
    ay[:, 0] *= by_step
    ay[:, 1] *= by_step
    lanes[2] = s.reshape(nb, _BLOCK).T  # row j holds step j of every block
    lanes[3] = r.reshape(nb, _BLOCK).T
    rows = list(zip(lanes[2], ay, lanes[3]))
    xs = np.empty((_BLOCK, 2, nb))
    first = np.empty((2, nb))
    first[0], first[1] = start.real, start.imag
    prev = first
    for j in range(_BLOCK):
        _fast_step(prev, *rows[j], xs[j])
        prev = xs[j]
    ends = xs[-1].copy()  # pass 1's end of every block
    first[:, 1:] = ends[:, :-1]
    row = np.empty((2, nb))
    prev = first
    for j in range(_BLOCK):
        if (j + 1) % _CHECK_EVERY:
            _fast_step(prev, *rows[j], xs[j])
        else:
            _fast_step(prev, *rows[j], row)
            if np.array_equal(row, xs[j]):
                break  # pass 1's later rows are what pass 2 would compute
            xs[j] = row
        prev = xs[j]
    if not np.array_equal(ends[:, :-1], xs[-1, :, :-1]) or not np.isfinite(xs).all():
        return None
    return xs


def triangle_kernel(sys: BandSystem, n: int) -> np.ndarray:
    """Dense truncation of the band triangle itself, read-only; OverflowError when a band entry overflows."""
    if n < 1:
        raise ValueError("truncation must be >= 1")
    r, s, a = sys.params(n)
    with np.errstate(over="ignore"):  # overflow surfaces as OverflowError below
        ent = np.diag(r / a)
        np.fill_diagonal(ent[1:], s[:-1] / a[1:])
    if not (np.isfinite(ent.diagonal()).all() and np.isfinite(ent.diagonal(-1)).all()):
        raise OverflowError("band triangle entries overflow double precision")
    ent.setflags(write=False)
    return ent


# the smallest positive normal double; an entry below it keeps fewer than 53 bits
_TINY = float(np.finfo(np.float64).tiny)


def _regrows(ent: np.ndarray, r: np.ndarray, s: np.ndarray, a: np.ndarray) -> bool:
    """Whether a column of V falls below the normal range and grows back into it, which the recurrence cannot follow.

    log(|V[m, k]| / tiny) = low_k + W_m, with W the walk of log|c_m|.  An O(n) gate passes each column whose
    minimum keeps that log above 1; a flagged column regrows if W's maximum after its first entry below the
    normal range (read off V) lifts the log back to 0.
    """
    logr = np.log(np.abs(r))
    walk = np.concatenate(([0.0], np.cumsum(np.log(np.abs(s[:-1])) - logr[1:])))
    low = np.log(a) - logr - walk - math.log(_TINY)
    cols = np.flatnonzero(low + np.minimum.accumulate(walk[::-1])[::-1] < 1.0)
    below = (np.abs(ent[:, cols]) < _TINY) & (np.arange(r.size)[:, None] >= cols)
    later = np.append(np.maximum.accumulate(walk[:0:-1])[::-1], -math.inf)  # later[j]: W's maximum over m > j
    return bool(np.any(below.any(axis=0) & (low[cols] + later[below.argmax(axis=0)] >= 0.0)))


def inverse_kernel(sys: BandSystem, n: int, method: str = "rows") -> np.ndarray:
    """Dense inverse V of the band triangle, read-only, by its row recurrence; "rows" is the only method.

    V[k, k] = alpha_k / r_k, and row m is row m - 1 times c_m = -s_{m-1}/r_m, each factor rounded once, so
    V[m, k] is within (m - k + 1) eps of exact.  Raises OverflowError when an entry overflows, or when one
    below the normal range would grow back into it (:func:`_regrows`).

    V is built once per system, at the largest truncation N asked of it so far, and kept on the system
    (``sys._inverse``).  A call at N returns that array itself, one at n < N a read-only copy of its leading
    n x n block: row m reads only rows < m, and V_N passing both checks implies V_n passes them (the flagged
    columns and the walk maxima only grow with N), so the copy has the bits of a build at n.  A build that
    raises is not kept, so every later call at that truncation raises again.
    """
    if method != "rows":
        raise ValueError("method must be 'rows'")
    if n < 1:
        raise ValueError("truncation must be >= 1")
    kept = sys._inverse.get("V")
    if kept is None or kept.shape[0] < n:
        kept = _build_inverse(sys, n)
        sys._inverse["V"] = kept
    if kept.shape[0] == n:
        return kept
    block = kept[:n, :n].copy()
    block.setflags(write=False)
    return block


def _build_inverse(sys: BandSystem, n: int) -> np.ndarray:
    """V at truncation n by its row recurrence, range-checked and read-only."""
    r, s, a = sys.params(n)
    ent = np.zeros((n, n))
    with np.errstate(over="ignore", under="ignore"):  # overflow surfaces as OverflowError below
        ent.reshape(-1)[:: n + 1] = a / r  # the diagonal
        for m, c in enumerate((-s[:-1] / r[1:]).tolist(), 1):
            prev, row = ent[m - 1, :m], ent[m, :m]
            if _TINY <= abs(c) < math.inf:
                np.multiply(prev, c, out=row)
                continue
            # c outside the normal range: f 2^e from the exponents of s and r, f rounded once
            (ms, es), (mr, er) = math.frexp(s[m - 1]), math.frexp(r[m])
            f, e = math.frexp(-ms / mr)
            e += es - er
            if e > 0:  # |f| in [1, 2), so prev f cannot underflow where prev c is normal; else [0.5, 1), no overflow
                f, e = 2.0 * f, e - 1
            np.ldexp(np.multiply(prev, f, out=row), e, out=row)
    if not np.isfinite(ent[-1]).all():  # no factor is 0 or inf, so an overflow stays inf down its column
        raise OverflowError("inverse kernel entries overflow double precision at this truncation")
    if _regrows(ent, r, s, a):
        raise OverflowError("inverse kernel entries underflow and regrow, which double precision loses, at this truncation")
    ent.setflags(write=False)
    return ent


def kernel_identity_residual(sys: BandSystem, n: int) -> float:
    """Componentwise residual of (triangle @ inverse) = identity.

    Each entry of the product is |T V - I| divided by max(1, |T| |V|), i.e.
    the deviation relative to the magnitude that had to cancel to produce it.
    For well-scaled systems the denominator is O(1) and this is the plain
    absolute entry error; for systems whose ratio products grow, it measures
    how completely the inverse cancels the triangle, which is the strongest
    statement double precision supports.
    """
    T = triangle_kernel(sys, n)
    V = inverse_kernel(sys, n)
    resid = np.abs(T @ V - np.eye(n))
    scale = np.maximum(1.0, np.abs(T) @ np.abs(V))
    return float(np.max(resid / scale))


def maddox_paranorm(v, p: ExponentSeq, kind: str) -> float:
    """Variable-exponent paranorms of a truncation.

    kind="sup" returns sup_k |v_k|^(p_k/M) and requires inf p_k bounded away
    from zero (the sup functional is not a paranorm otherwise; SchemaError);
    kind="sum" returns (sum_k |v_k|^(p_k))^(1/M).
    """
    v = FiniteSeq.coerce(v)
    p.require_length(v.n)
    mag = np.abs(v.values)
    exps = p.p[: v.n]
    if kind == "sup":
        if not p.inf_positive:
            raise SchemaError(f"the sup paranorm needs exponents bounded away from zero: inf p_k = {float(np.min(p.p))!r}")
        return float(np.max(mag ** (exps / p.M)))
    if kind == "sum":
        return float(np.sum(mag ** exps) ** (1.0 / p.M))
    raise ValueError("kind must be 'sup' or 'sum'")


def space_paranorm(x, sys: BandSystem, p: ExponentSeq, kind: str) -> float:
    """Paranorm of the transformed sequence: the g / g* functionals of the spaces."""
    return maddox_paranorm(forward_transform(x, sys), p, kind)


def basis_vector(sys: BandSystem, k: int, n: int) -> FiniteSeq:
    """Basis element b^(k): column k of the inverse kernel, with its OverflowError contract."""
    if not 0 <= k < n:
        raise IndexError(f"basis index {k} out of range for truncation {n}")
    return FiniteSeq(inverse_kernel(sys, n)[:, k])


def z_vector(sys: BandSystem, n: int) -> FiniteSeq:
    """Inverse transform of the all-ones sequence (the extra basis element
    needed for spaces of convergent transforms)."""
    return inverse_transform(FiniteSeq(np.ones(n)), sys)


def tail_paranorm(y, p: ExponentSeq, n: int) -> float:
    """sup_{k > n} |y_k|^(p_k/M); zero when the tail is empty, IndexError when n < 0."""
    y = FiniteSeq.coerce(y)
    p.require_length(y.n)
    if n < 0:
        raise IndexError(f"tail cutoff {n} is negative")
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
    V = inverse_kernel(sys, x.n)
    partial = V[:, : n + 1] @ y.values[: n + 1]
    return maddox_paranorm(forward_transform(FiniteSeq(x.values - partial), sys), p, "sup")
