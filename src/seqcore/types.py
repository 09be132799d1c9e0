"""Value types shared across the package.

Everything here is a finite truncation: sequences are length-N arrays with
index origin 0.  Operators are not value types: the kernels of
:mod:`seqcore.band_ops` and the companions of :mod:`seqcore.duals` are plain
read-only N x N numpy arrays, each range-checked by its producer.  Instances
are immutable after construction (arrays are frozen), so values can be
shared freely between threads; construction validates the declared
invariants and raises ``ValueError`` on violations, since the value types
also wrap computed results, where a violation is an evaluation error.  The
one exception is a ``BandSystem``'s private ``_inverse`` memo, which
``band_ops.inverse_kernel`` fills lazily with the read-only V of the largest
truncation built so far.  It lives and dies with its system and is safe to
race: every build at one truncation has the same bits, so a lost or smaller
store costs at most a rebuild.

Equality is identity: two values compare equal only when they are the same
object, and hash by identity, so they can key dicts and sets.  To compare
the parameters of two values, compare their arrays (``np.array_equal``).

``SchemaError`` lives here, in the bottom layer, so that every module can
raise it for a caller argument outside its documented range;
:mod:`seqcore.io` re-exports it and the CLI maps it to exit 3.
``ExponentSeq.coerce`` is the one coercion of a caller's exponents (p or q,
a scalar or a sequence, at a truncation): the class, single-condition and
dual reports and the CLI all read their exponents through it, so a bad
value or a short sequence raises ``SchemaError`` with one message wherever
it enters.
Likewise :func:`coerce_int` is the one reader of an integer, and
:func:`coerce_ints` of a list of them.  The library functions that read a
caller's integers call them: the ladder readers (a truncation ladder, a
witness ladder), the core readers (a window, a direction count, a probe
grid side) and the generators' integer params (a seed, ``m``, ``k``).  So
2.5, "2", ``true``, ``np.True_`` or ``np.array(True)`` raises
``SchemaError`` where the integer is read, and the CLI passes config values
to those readers as they are.

Construction copies an array unless it already owns its data and is
read-only: a writable array, or any view (a slice, a reshape, a buffer
read as an array), is copied and the copy frozen, so mutating the source
afterwards leaves the value unchanged.  An array that owns its data and is
read-only is kept as it is, which spares a producer such as
``band_ops.inverse_transform`` a copy of the result it has just built and
frozen.  A producer that freezes its array this way must hold no writable
view of it.  A conversion (an int or float array given where complex is
wanted) builds a fresh array, which is copied once more.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SchemaError", "coerce_int", "coerce_ints", "FiniteSeq", "BandSystem", "ExponentSeq"]

# inf p_k below this is treated as "not bounded away from zero"
INF_POSITIVE_TOL = 1e-9


class SchemaError(ValueError):
    """Raised when an input document or a caller argument does not match its expected schema."""


def coerce_int(value, what: str) -> int:
    """value as an int: an integer, or a float with an integer value; else SchemaError naming it (a string and a boolean, or boolean array, too)."""
    if isinstance(value, (str, bool, np.bool_)) or isinstance(value, np.ndarray) and value.dtype == np.bool_:
        raise SchemaError(f"{what} must be an integer, not {'a string' if isinstance(value, str) else 'a boolean'}: {value!r:.40}")
    try:
        integer = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{what} must be an integer: {value!r:.40}") from exc
    if integer != value:
        raise SchemaError(f"{what} must be an integer: {value!r}")
    return integer


def coerce_ints(values, what: str) -> list[int]:
    """values as a list of ints: a list, tuple, range or 1-D array, each item read by coerce_int; else SchemaError naming it."""
    if not (isinstance(values, (list, tuple, range)) or isinstance(values, np.ndarray) and values.ndim == 1):
        raise SchemaError(f"{what} must be a list of integers: {values!r:.40}")
    return [coerce_int(v, what) for v in values]


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr itself when it owns its data and is read-only, else a read-only copy."""
    if arr.flags.owndata and not arr.flags.writeable:
        return arr
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FiniteSeq:
    """A length-N complex-valued sequence truncation, indices 0..N-1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("sequence must be one-dimensional with N >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("sequence entries must be finite")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def n(self) -> int:
        return self.values.size

    @staticmethod
    def coerce(x) -> "FiniteSeq":
        return x if isinstance(x, FiniteSeq) else FiniteSeq(np.asarray(x))


@dataclass(frozen=True, eq=False)
class BandSystem:
    """Parameter triple (r_k), (s_k), (alpha_k) of the double-band transform.

    The transform maps x to y with

        y_n = (r_n x_n + s_{n-1} x_{n-1}) / alpha_n,   x_{-1} = 0,

    i.e. a lower two-band triangle with diagonal r_n/alpha_n and subdiagonal
    s_{n-1}/alpha_n.  All r_k and s_k must be nonzero reals and all alpha_k
    strictly positive, so the triangle is invertible by forward substitution.
    """

    r: np.ndarray
    s: np.ndarray
    alpha: np.ndarray
    # band_ops.inverse_kernel's memo: {"V": V at the largest truncation built so far}
    _inverse: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.float64)
        s = np.asarray(self.s, dtype=np.float64)
        a = np.asarray(self.alpha, dtype=np.float64)
        if not (r.ndim == s.ndim == a.ndim == 1) or not (r.size == s.size == a.size):
            raise ValueError("r, s, alpha must be one-dimensional and equally long")
        if r.size < 1:
            raise ValueError("band system must have length >= 1")
        for name, arr in (("r", r), ("s", s), ("alpha", a)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} entries must be finite")
        if np.any(r == 0.0) or np.any(s == 0.0):
            raise ValueError("r and s entries must be nonzero")
        if np.any(a <= 0.0):
            raise ValueError("alpha entries must be strictly positive")
        object.__setattr__(self, "r", _frozen(r))
        object.__setattr__(self, "s", _frozen(s))
        object.__setattr__(self, "alpha", _frozen(a))

    @property
    def length(self) -> int:
        return self.r.size

    def require_length(self, n: int) -> None:
        if n > self.length:
            raise ValueError(
                f"band system of length {self.length} cannot serve truncation {n}"
            )

    def params(self, n: int):
        """The (r, s, alpha) arrays truncated to length n."""
        self.require_length(n)
        return self.r[:n], self.s[:n], self.alpha[:n]

    @classmethod
    def constant(cls, r: float, s: float, alpha: float = 1.0, length: int = 1024) -> "BandSystem":
        return cls(np.full(length, float(r)), np.full(length, float(s)), np.full(length, float(alpha)))

    @classmethod
    def difference(cls, length: int = 1024) -> "BandSystem":
        """The system whose transform is the first-difference matrix."""
        return cls.constant(1.0, -1.0, 1.0, length)


@dataclass(frozen=True, eq=False)
class ExponentSeq:
    """A bounded sequence of strictly positive exponents (p_k).

    Carries the derived quantities H = sup p_k (over the truncation) and
    M = max(1, H), plus the flag ``inf_positive`` telling whether inf p_k is
    bounded away from zero, which gates the sup-type paranorm.
    """

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("exponent sequence must be one-dimensional with N >= 1")
        if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
            raise ValueError("exponents must be finite and strictly positive")
        object.__setattr__(self, "p", _frozen(p))

    @property
    def H(self) -> float:
        return float(np.max(self.p))

    @property
    def M(self) -> float:
        return max(1.0, self.H)

    @property
    def inf_positive(self) -> bool:
        return bool(np.min(self.p) > INF_POSITIVE_TOL)

    @property
    def length(self) -> int:
        return self.p.size

    def require_length(self, n: int) -> None:
        if n > self.length:
            raise ValueError(
                f"exponent sequence of length {self.length} cannot serve truncation {n}"
            )

    def conjugate(self) -> np.ndarray:
        """Conjugate exponents p_k' with 1/p_k + 1/p_k' = 1; needs p_k > 1."""
        if np.any(self.p <= 1.0):
            raise ValueError("conjugate exponents require p_k > 1 for all k")
        return self.p / (self.p - 1.0)

    @classmethod
    def constant(cls, value: float, length: int) -> "ExponentSeq":
        return cls(np.full(length, float(value)))

    @staticmethod
    def coerce(x, n: int, name: str) -> "ExponentSeq":
        """x as an exponent sequence (a scalar stands for n equal values) of at least n terms, else SchemaError naming it."""
        try:
            seq = x if isinstance(x, ExponentSeq) else ExponentSeq(np.full(n, x, dtype=np.float64) if np.ndim(x) == 0 else x)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{name}: {exc}") from exc
        if seq.length < n:
            raise SchemaError(f"{name} of length {seq.length} cannot serve truncation {n}")
        return seq
