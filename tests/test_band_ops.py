import gc
import threading
import tracemalloc
import warnings
import weakref
from sys import getswitchinterval, setswitchinterval
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcore import band_ops, types
from seqcore.generators import make_matrix, random_band_system, rng_from_seed
from seqcore.types import BandSystem, ExponentSeq, FiniteSeq

from conftest import complex_uniform, twin

# the blocked substitution runs its float lanes under np.errstate, so a numpy warning leaking
# from them, or from any other band operation, fails the test that raised it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

DELTA = BandSystem.difference(512)
PLUS = BandSystem.constant(1.0, 1.0, 1.0, 512)
TWO_ONE = BandSystem.constant(2.0, 1.0, 1.0, 512)


def _inverse_transform_series(y, sys: BandSystem) -> FiniteSeq:
    """Oracle for the recurrence-based inverse: the explicit series x = V y, O(N^2)."""
    y = FiniteSeq.coerce(y)
    return FiniteSeq(band_ops.inverse_kernel(sys, y.n) @ y.values)


class TestForward:
    def test_difference_recurrence(self):
        y = band_ops.forward_transform([1, 2, 3, 4], DELTA)
        assert np.allclose(y.values, [1, 1, 1, 1])

    def test_zero_maps_to_zero(self):
        y = band_ops.forward_transform(np.zeros(6), TWO_ONE)
        assert np.all(y.values == 0)

    def test_two_one_on_ones(self):
        y = band_ops.forward_transform([1, 1, 1], TWO_ONE)
        assert np.allclose(y.values, [2, 3, 3])

    def test_length_guard(self):
        with pytest.raises(ValueError):
            band_ops.forward_transform(np.ones(4), BandSystem.constant(1, 1, 1, 3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            band_ops.forward_transform([np.nan, 1.0], DELTA)


class TestInverse:
    def test_unit_impulse_alternates(self):
        x = band_ops.inverse_transform([1, 0, 0, 0], PLUS)
        assert np.allclose(x.values, [1, -1, 1, -1])

    def test_zero(self):
        x = band_ops.inverse_transform(np.zeros(5), TWO_ONE)
        assert np.all(x.values == 0)

    def test_round_trip_by_construction(self):
        x0 = np.array([1.0, -1.0, 2.0])
        y = band_ops.forward_transform(x0, TWO_ONE)
        x = band_ops.inverse_transform(y, TWO_ONE)
        assert np.allclose(x.values, x0, rtol=1e-12)

    def test_series_path_agrees_with_recurrence(self, rng):
        n = 64
        for _ in range(10):
            sys = random_band_system(rng, n, amplification_cap=1e3)
            y = FiniteSeq(complex_uniform(rng, n))
            a = band_ops.inverse_transform(y, sys).values
            b = _inverse_transform_series(y, sys).values
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))


class TestKernels:
    def test_triangle_entries(self):
        T = band_ops.triangle_kernel(TWO_ONE, 3)
        assert np.allclose(T, [[2, 0, 0], [1, 2, 0], [0, 1, 2]])
        D = band_ops.triangle_kernel(DELTA, 2)
        assert np.allclose(D, [[1, 0], [-1, 1]])

    def test_triangle_is_two_band(self, rng):
        sys = random_band_system(rng, 16)
        T = band_ops.triangle_kernel(sys, 16)
        assert np.array_equal(np.tril(T, -2), np.zeros_like(T))
        assert np.array_equal(np.triu(T, 1), np.zeros_like(T))

    def test_inverse_kernel_example(self):
        V = band_ops.inverse_kernel(TWO_ONE, 3)
        assert np.allclose(V, [[0.5, 0, 0], [-0.25, 0.5, 0], [0.125, -0.25, 0.5]])

    def test_inverse_diagonal_is_alpha_over_r(self, rng):
        sys = random_band_system(rng, 32)
        V = band_ops.inverse_kernel(sys, 32)
        assert np.allclose(np.diagonal(V), sys.alpha[:32] / sys.r[:32], rtol=1e-13)

    def test_rows_is_the_only_method(self):
        assert np.array_equal(band_ops.inverse_kernel(TWO_ONE, 8, method="rows"), band_ops.inverse_kernel(twin(TWO_ONE), 8))
        for method in ("log", "direct"):
            with pytest.raises(ValueError):
                band_ops.inverse_kernel(TWO_ONE, 8, method=method)

    def test_forward_of_inverse_columns_gives_units(self, mild_system):
        n = 32
        V = band_ops.inverse_kernel(mild_system, n)
        for k in (0, 3, 17):
            y = band_ops.forward_transform(V[:, k], mild_system).values
            unit = np.zeros(n)
            unit[k] = 1.0
            assert np.max(np.abs(y - unit)) < 1e-12

    def test_matrix_paths_match_recurrences(self, mild_system):
        n = 64
        rng = rng_from_seed(77)
        x = complex_uniform(rng, n)
        T = band_ops.triangle_kernel(mild_system, n)
        V = band_ops.inverse_kernel(mild_system, n)
        assert np.max(np.abs(T @ x - band_ops.forward_transform(x, mild_system).values)) < 1e-10
        assert np.max(np.abs(V @ x - band_ops.inverse_transform(x, mild_system).values)) < 1e-10

    def test_identity_residual_small_even_when_ill_scaled(self):
        sys = BandSystem.constant(2.0, 3.0, 1.0, 256)  # |s/r| = 1.5 for 256 steps
        assert band_ops.kernel_identity_residual(sys, 256) < 1e-10

    def test_zero_truncation_rejected(self):
        with pytest.raises(ValueError):
            band_ops.triangle_kernel(TWO_ONE, 0)
        with pytest.raises(ValueError):
            band_ops.inverse_kernel(TWO_ONE, 0)

    def test_kernel_overflow_is_reported(self):
        runaway = BandSystem.constant(1.0, 3.0, 1.0, 2000)  # 3^2000 overflows
        with pytest.raises(OverflowError):
            band_ops.inverse_kernel(runaway, 2000)


class TestParanorm:
    def test_sup_example(self):
        p = ExponentSeq.constant(1.0, 3)
        assert band_ops.maddox_paranorm([1, 0.5, 0.25], p, "sup") == 1.0

    def test_sum_example(self):
        p = ExponentSeq.constant(2.0, 9)
        assert band_ops.maddox_paranorm(np.ones(9), p, "sum") == pytest.approx(3.0, abs=1e-14)

    def test_zero_vector(self):
        p = ExponentSeq(np.array([0.5, 1.5]))
        assert band_ops.maddox_paranorm(np.zeros(2), p, "sup") == 0.0
        assert band_ops.maddox_paranorm(np.zeros(2), p, "sum") == 0.0

    def test_sup_requires_inf_positive(self):
        p = ExponentSeq(np.array([1e-12, 1.0]))
        with pytest.raises(ValueError):
            band_ops.maddox_paranorm([1.0, 1.0], p, "sup")
        band_ops.maddox_paranorm([1.0, 1.0], p, "sum")  # sum kind stays legal

    def test_space_paranorm_matches_direct_formula(self, rng):
        n = 48
        sys = random_band_system(rng, n)
        p = ExponentSeq(rng.uniform(0.5, 2.0, n))
        x = complex_uniform(rng, n)
        shifted = np.concatenate([[0.0], x[:-1]])
        direct = np.max(
            np.abs((sys.r[:n] * x + np.concatenate([[0.0], sys.s[: n - 1]]) * shifted) / sys.alpha[:n])
            ** (p.p / p.M)
        )
        assert band_ops.space_paranorm(x, sys, p, "sup") == pytest.approx(direct, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=24),
    beta=st.floats(min_value=-4.0, max_value=4.0),
)
def test_paranorm_axioms_property(data, n, beta):
    seed = data.draw(st.integers(min_value=0, max_value=2**30))
    rng = rng_from_seed(seed)
    sys = random_band_system(rng, n)
    p = ExponentSeq(rng.uniform(0.3, 2.5, n))
    x = FiniteSeq(complex_uniform(rng, n))
    z = FiniteSeq(complex_uniform(rng, n))
    for kind in ("sup", "sum"):
        g = lambda v: band_ops.space_paranorm(v, sys, p, kind)
        gx, gz = g(x), g(z)
        assert g(FiniteSeq(np.zeros(n))) == 0.0
        assert g(FiniteSeq(-x.values)) == gx
        assert g(FiniteSeq(x.values + z.values)) <= gx + gz + 1e-12 * (1 + gx + gz)
        assert g(FiniteSeq(beta * x.values)) <= max(1.0, abs(beta)) * gx + 1e-12 * (1 + gx)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30))
def test_round_trip_property(seed):
    n = 128
    rng = rng_from_seed(seed)
    sys = random_band_system(rng, n, amplification_cap=1e3)
    x = complex_uniform(rng, n)
    back = band_ops.inverse_transform(band_ops.forward_transform(x, sys), sys).values
    assert np.max(np.abs(back - x)) <= 1e-9 * np.max(np.abs(x))
    y = complex_uniform(rng, n)
    fwd = band_ops.forward_transform(band_ops.inverse_transform(y, sys), sys).values
    assert np.max(np.abs(fwd - y)) <= 1e-9 * np.max(np.abs(y))


def _indexed_substitution(r, s, a, yv):
    """The index-loop forward substitution, the oracle of ``band_ops._substitute``."""
    out = [0j] * len(yv)
    out[0] = a[0] * yv[0] / r[0]
    for k in range(1, len(yv)):
        out[k] = (a[k] * yv[k] - s[k - 1] * out[k - 1]) / r[k]
    return out


def _indexed_inverse(y, sys):
    lists = (arr.tolist() for arr in sys.params(y.n))
    return FiniteSeq(np.asarray(_indexed_substitution(*lists, y.values.tolist()), dtype=np.complex128)).values


def _bits(call) -> str:
    """The complex128 bytes of a result (NaN payloads and zero signs included), or the exception raised."""
    try:
        return np.asarray(call(), dtype=np.complex128).tobytes().hex()
    except (ValueError, ZeroDivisionError) as exc:
        return f"raises {type(exc).__name__}"


def _canonical(values) -> bytes:
    """The complex128 bytes of values with every -0.0 part made +0.0, as io renders them: the blocked path's contract."""
    return (np.asarray(values, dtype=np.complex128) + 0.0).tobytes()


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 1e308, -1e308, np.inf, -np.inf, np.nan]
_ANY_FLOAT = st.one_of(st.sampled_from(_SPECIAL), st.floats())
_FINITE = st.one_of(st.sampled_from([v for v in _SPECIAL if np.isfinite(v)]), st.floats(allow_nan=False, allow_infinity=False))


def _float_lists(elements, n):
    return st.lists(elements, min_size=n, max_size=n)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=12))
def test_substitution_matches_indexed_loop_bitwise(data, n):
    # r, s, a and y over every double, +-0.0, subnormals, +-inf and NaN included
    r, s, a, re, im = (data.draw(_float_lists(_ANY_FLOAT, n)) for _ in range(5))
    yv = [complex(u, v) for u, v in zip(re, im)]
    assert _bits(lambda: band_ops._substitute(r, s, a, yv)) == _bits(lambda: _indexed_substitution(r, s, a, yv))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=40))
def test_inverse_transform_matches_indexed_loop_bitwise(data, n):
    # finite systems and inputs; overflowing outputs are rejected the same way by both
    nonzero = _FINITE.filter(lambda v: v != 0.0)
    r, s = data.draw(_float_lists(nonzero, n)), data.draw(_float_lists(nonzero, n))
    alpha = data.draw(_float_lists(_FINITE.filter(lambda v: v > 0.0), n))
    re, im = data.draw(_float_lists(_FINITE, n)), data.draw(_float_lists(_FINITE, n))
    sys, y = BandSystem(r, s, alpha), FiniteSeq(np.array([complex(u, v) for u, v in zip(re, im)]))
    assert _bits(lambda: band_ops.inverse_transform(y, sys).values) == _bits(lambda: _indexed_inverse(y, sys))


def test_inverse_transform_matches_indexed_loop_on_long_contracting_system():
    rng = rng_from_seed(9)
    n = 65_536
    r = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
    sys = BandSystem(r, rng.uniform(0.1, 0.9, n) * r, rng.uniform(0.5, 2.0, n))
    y = FiniteSeq(complex_uniform(rng, n))
    assert band_ops.inverse_transform(y, sys).values.tobytes() == _indexed_inverse(y, sys).tobytes()
    # real data written with -0.0 imaginary parts takes the blocked path too
    y = FiniteSeq(_with_zero_lane(y.values, -0.0))
    x = _blocked(y, sys)
    assert x is not None and _canonical(x) == _canonical(_indexed_inverse(y, sys))


def _contracting_system(rng, n, r_sign=None, s_sign=None, alpha=None):
    """|s_k| / |r_k| in [0.1, 0.9], so every block's ratio walk falls fast; r and s take both signs unless given."""
    r = rng.uniform(1.0, 2.0, n) * (rng.choice([-1.0, 1.0], n) if r_sign is None else r_sign)
    s = rng.uniform(0.1, 0.9, n) * np.abs(r) * (rng.choice([-1.0, 1.0], n) if s_sign is None else s_sign)
    return BandSystem(r, s, rng.uniform(0.5, 2.0, n) if alpha is None else alpha)


def _blocked(y, sys):
    return band_ops._blocked_substitute(*sys.params(y.n), y.values)


def _with_zero_lane(y, zero):
    """y with its imaginary lane set to a float zero, or its real lane to the imaginary part of +-0j."""
    if isinstance(zero, complex):
        return np.array([complex(zero.imag, v.imag) for v in y])
    return np.array([complex(v.real, zero) for v in y])


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e308, -1e308, 1.7e308]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=band_ops._MIN_BLOCKED_N, max_value=band_ops._MIN_BLOCKED_N + 2500),
    scale=st.sampled_from([1.0, 1e-300, 1e300]),
    zero_lane=st.sampled_from([None, 0.0, -0.0, 0.0j, -0.0j]),
    edges=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), st.sampled_from(_EDGE_VALUES), st.booleans()),
        max_size=40,
    ),
)
def test_blocked_inverse_matches_indexed_loop_bitwise(seed, n, scale, zero_lane, edges):
    # y has +-0.0, subnormals and values near 1e308 in either lane, or a whole lane of +-0.0;
    # bitwise up to the sign of zero parts, and an overflow raises the same ValueError
    rng = np.random.default_rng(seed)
    sys = _contracting_system(rng, n)
    y = complex_uniform(rng, n) * scale
    if zero_lane is not None:
        y = _with_zero_lane(y, zero_lane)
    for where, value, real in edges:
        k = int(where * n)
        y[k] = complex(value, y[k].imag) if real else complex(y[k].real, value)
    y = FiniteSeq(y)
    expected = _bits(lambda: _indexed_inverse(y, sys) + 0.0)
    assert _bits(lambda: band_ops.inverse_transform(y, sys).values + 0.0) == expected
    if all(abs(value) <= scale for _, value, _ in edges):
        # a larger edge value starts a transient that a block started from x_h cannot match
        x = _blocked(y, sys)
        assert x is not None
        assert _bits(lambda: x + 0.0) == expected


@pytest.mark.parametrize("r, s", [(2.0, 1.0), (-2.0, 1.0), (2.0, -1.0), (-2.0, -0.5)])
def test_blocked_path_keeps_zeros_in_place(r, s):
    # zero lanes are where CPython's promotion of floats to complex decides the sign of every zero;
    # the blocked path has a zero wherever the loop has one, and only its sign, which io does not render, may differ
    n = band_ops._MIN_BLOCKED_N + 1000
    u = complex_uniform(rng_from_seed(7), n)
    inputs = [np.full(n, complex(zr, zi)) for zr in (0.0, -0.0) for zi in (0.0, -0.0)]
    inputs += [_with_zero_lane(u, zero) for zero in (0.0, -0.0, 0.0j, -0.0j)]
    for sys in (BandSystem.constant(r, s, 1.5, n), _contracting_system(rng_from_seed(8), n)):
        for y in map(FiniteSeq, inputs):
            expected = _canonical(_indexed_inverse(y, sys))
            x = _blocked(y, sys)
            assert x is not None and _canonical(x) == expected
            assert _canonical(band_ops.inverse_transform(y, sys).values) == expected


def test_blocked_path_gives_up_on_systems_that_do_not_contract():
    n = band_ops._MIN_BLOCKED_N
    y = FiniteSeq(complex_uniform(rng_from_seed(4), n))
    capped = random_band_system(rng_from_seed(5), n, amplification_cap=1e4)
    for sys in (BandSystem.difference(n), capped, BandSystem.constant(1.0, 0.9, 1.0, n)):
        assert _blocked(y, sys) is None
        assert band_ops.inverse_transform(y, sys).values.tobytes() == _indexed_inverse(y, sys).tobytes()
    short = band_ops._MIN_BLOCKED_N - 1
    assert _blocked(FiniteSeq(np.ones(short)), BandSystem.constant(2.0, 1.0, 1.0, short)) is None


@pytest.mark.parametrize("extra", [0, 1, 2000])
def test_constant_contracting_system_takes_blocked_path(extra):
    # on all-ones y the iterates settle into a rounding cycle of period 2 (r = 2, s = 1); at odd n
    # a block started from 0 rather than from x_h lands in the other phase and the check fails
    n = band_ops._MIN_BLOCKED_N + extra
    sys = BandSystem.constant(2.0, 1.0, 1.0, n)
    for y in (complex_uniform(rng_from_seed(n), n), -np.zeros(n), np.ones(n)):
        y = FiniteSeq(y)
        expected = _canonical(_indexed_inverse(y, sys))
        x = _blocked(y, sys)
        assert x is not None and _canonical(x) == expected
        assert _canonical(band_ops.inverse_transform(y, sys).values) == expected


def test_blocked_path_raises_no_runtime_warning():
    n = band_ops._MIN_BLOCKED_N + 1000
    sys = _contracting_system(rng_from_seed(6), n)
    huge = FiniteSeq(np.full(n, 1.7e308) * (1 - 1j))  # alpha * y overflows in the lanes
    tiny = FiniteSeq(np.full(n, 5e-324) * (1 + 1j))  # the lanes run through subnormals and zeros
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _blocked(huge, sys) is None
        with pytest.raises(ValueError):
            band_ops.inverse_transform(huge, sys)
        assert _blocked(tiny, sys) is not None
        assert band_ops.inverse_transform(tiny, sys).values.tobytes() == _indexed_inverse(tiny, sys).tobytes()


@pytest.mark.parametrize("r_sign, s_sign", [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fast_step_alone_solves_contracting_complex_input(seed, r_sign, s_sign):
    rng = rng_from_seed(seed)
    n = band_ops._MIN_BLOCKED_N + 1000 + seed
    sys = _contracting_system(rng, n, r_sign, s_sign)
    y = FiniteSeq(complex_uniform(rng, n))
    x = _blocked(y, sys)
    assert x is not None
    assert x.tobytes() == _indexed_inverse(y, sys).tobytes()


def test_long_inverse_working_set():
    # the lanes a y, s, r and x take 48 bytes per term and the gate's walk is freed before they
    # are built, so at n = 65 536 the traced peak stays near 3.1 MB, output included
    n = 65_536
    rng = rng_from_seed(24)
    sys = _contracting_system(rng, n)
    y = FiniteSeq(complex_uniform(rng, n))
    band_ops.inverse_transform(y, sys)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        x = band_ops.inverse_transform(y, sys)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert _blocked(y, sys) is not None
    assert x.values.tobytes() == _indexed_inverse(y, sys).tobytes()
    assert peak < 3.5 * 2**20


@pytest.mark.parametrize("n", [1, 7, band_ops._MIN_BLOCKED_N + 5])
def test_transform_outputs_are_frozen_and_not_copied(monkeypatch, n):
    # each transform freezes the array it has just built, and FiniteSeq keeps that array
    copied = []

    def frozen(arr):
        out = real(arr)
        copied.append(out is not arr)
        return out

    real = types._frozen
    monkeypatch.setattr(types, "_frozen", frozen)
    rng = rng_from_seed(n)
    sys = _contracting_system(rng, n)
    x = FiniteSeq(complex_uniform(rng, n))
    for transform in (band_ops.forward_transform, band_ops.inverse_transform):
        copied.clear()
        values = transform(x, sys).values
        assert copied == [False]
        assert values.flags.owndata and not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1.0


def _with_exact_zero(rng, n):
    """A system with alpha = 1 and y whose chain has x_k = 0 exactly at k = n // 2."""
    sys = _contracting_system(rng, n, -1.0, 1.0, alpha=np.ones(n))
    y = complex_uniform(rng, n)
    k = n // 2
    # with alpha_k = 1, a_k y_k - s_{k-1} x_{k-1} cancels exactly
    y[k] = float(sys.s[k - 1]) * complex(_indexed_inverse(FiniteSeq(y), sys)[k - 1])
    x = _indexed_inverse(FiniteSeq(y), sys)
    assert x[k] == 0 and np.count_nonzero(x.view(np.float64) == 0.0) == 2
    return sys, FiniteSeq(y)


def _with_subnormal_products(rng, n):
    """A system and y whose chain has no zero but products s_{k-1} x_{k-1} below the normals."""
    sys = _contracting_system(rng, n, 1.0, -1.0)
    y = FiniteSeq(complex_uniform(rng, n) * 1e-306)
    parts = np.abs(_indexed_inverse(y, sys).view(np.float64).reshape(n, 2))
    assert np.all(parts > 0.0) and np.any(np.abs(sys.s[:-1, None]) * parts[:-1] < 2.0**-1022)
    return sys, y


@pytest.mark.parametrize("chain", [_with_exact_zero, _with_subnormal_products])
def test_zeros_and_subnormal_products_in_chain_keep_fast_step(chain):
    # the +-0 terms of CPython's step can only sign a zero, and these chains give it none to sign
    sys, y = chain(rng_from_seed(12), band_ops._MIN_BLOCKED_N + 1000)
    x = _blocked(y, sys)
    assert x is not None
    assert x.tobytes() == _indexed_inverse(y, sys).tobytes()


def _negative_zero_inputs(n):
    u = complex_uniform(rng_from_seed(14), n)
    one = u.copy()
    one[n // 3] = complex(-0.0, u[n // 3].imag)
    tiny = u.copy()
    tiny[n // 2] = complex(u[n // 2].real, -5e-324)  # 0.5 * -5e-324 rounds to -0.0
    return [one, _with_zero_lane(u, -0.0), tiny]


@pytest.mark.parametrize("case", range(3))
def test_negative_zero_in_products_takes_blocked_path(case):
    n = band_ops._MIN_BLOCKED_N + 1000
    sys = _contracting_system(rng_from_seed(15), n, 1.0, -1.0, alpha=np.full(n, 0.5))
    y = FiniteSeq(_negative_zero_inputs(n)[case])
    expected = _canonical(_indexed_inverse(y, sys))
    x = _blocked(y, sys)
    assert x is not None and _canonical(x) == expected
    assert _canonical(band_ops.inverse_transform(y, sys).values) == expected


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


_STEP_SPECIALS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=40))
def test_forward_transform_built_in_place_matches_one_expression(data, n):
    # the products are written into the output buffer; the bits must be those of one numpy expression.
    # x ranges over +-0.0, subnormals and doubles within 1e+-100, r, s and alpha within 1e+-3, so
    # nothing overflows
    moderate = st.floats(min_value=1e-3, max_value=1e3)
    r, s = (np.array(data.draw(_float_lists(_signed(moderate), n))) for _ in range(2))
    alpha = np.array(data.draw(_float_lists(moderate, n)))
    parts = st.one_of(_STEP_SPECIALS, st.floats(min_value=-1e100, max_value=1e100))
    re, im = data.draw(_float_lists(parts, n)), data.draw(_float_lists(parts, n))
    x = np.array([complex(u, v) for u, v in zip(re, im)])
    expected = np.concatenate([[r[0] * x[0] / alpha[0]], (r[1:] * x[1:] + s[:-1] * x[:-1]) / alpha[1:]])
    assert band_ops.forward_transform(x, BandSystem(r, s, alpha)).values.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), nb=st.integers(min_value=1, max_value=8))
def test_steps_match_cpython_complex_arithmetic(data, nb):
    # one step x' = (a y - s x) / r of every lane against CPython's complex arithmetic: equal up to
    # the sign of zero parts, and bitwise when no part of the float product a y is -0.0; x and y
    # range over +-0.0, subnormals and doubles within 1e+-150, s over nonzero doubles there and r
    # within 1e+-3, so no step overflows
    def draw(elements, size):
        return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)))

    moderate = st.floats(min_value=-1e150, max_value=1e150)
    x = draw(st.one_of(_STEP_SPECIALS, moderate), 2 * nb).reshape(nb, 2)
    y = draw(st.one_of(_STEP_SPECIALS, moderate), 2 * nb).reshape(nb, 2)
    a = draw(st.floats(min_value=1e-3, max_value=1e3), nb)
    s = draw(_signed(st.floats(min_value=1e-150, max_value=1e150)), nb)
    r = draw(_signed(st.floats(min_value=1e-3, max_value=1e3)), nb)
    serial = [
        (float(ak) * complex(*yk) - float(sk) * complex(*xk)) / float(rk) for ak, yk, sk, xk, rk in zip(a, y, s, x, r)
    ]
    expected = np.array(serial).view(np.float64).reshape(nb, 2)
    # the planes of _solve_blocks: real parts, then imaginary parts, with s and r broadcast over both
    out = np.empty((2, nb))
    ay = y.T * a
    band_ops._fast_step(np.ascontiguousarray(x.T), s, ay, r, out)
    assert (out.T + 0.0).tobytes() == (expected + 0.0).tobytes()
    if not np.any((ay == 0.0) & np.signbit(ay)):
        assert out.T.tobytes() == expected.tobytes()


def _lattice_kernel(sys, n):
    """V from log-magnitude prefix sums and a sign lattice: the overflow-edge oracle of ``inverse_kernel``."""
    r, s, a = sys.params(n)
    k = np.arange(n)
    cum, sgn = np.zeros(n), np.ones(n)
    if n > 1:
        ratio = s[:-1] / r[:-1]
        cum[1:] = np.cumsum(np.log(np.abs(ratio)))
        sgn[1:] = np.cumprod(np.sign(ratio))
    logmag = (np.log(a)[None, :] - np.log(np.abs(r))[:, None]) + (cum[:, None] - cum[None, :])
    parity = np.where((k[:, None] - k[None, :]) % 2 == 0, 1.0, -1.0)
    signs = parity * (sgn[:, None] * sgn[None, :]) * np.sign(r)[:, None]
    with np.errstate(over="ignore"):
        ent = np.tril(signs * np.exp(logmag))
    if not np.all(np.isfinite(ent[np.tril_indices(n)])):
        raise OverflowError("inverse kernel entries overflow double precision at this truncation")
    return ent


_EPS = Fraction(2) ** -52
_MAX = Fraction(float(np.finfo(np.float64).max))
_TINY = Fraction(float(np.finfo(np.float64).tiny))
# relative width of the band around the largest double and the smallest normal where either outcome
# is right: the entries are rounded (n + 1) eps away from exact, and the regrowth gate reads logs
_EDGE = Fraction(1, 10**9)


def _exact_kernel(sys, n):
    """V in exact rational arithmetic, column by column: V[k][k] = alpha_k/r_k, V[m][k] = V[m-1][k] (-s_{m-1}/r_m)."""
    r, s, a = (list(map(Fraction, v.tolist())) for v in sys.params(n))
    c = [-s[m - 1] / r[m] for m in range(1, n)]
    V = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        v = V[k][k] = a[k] / r[k]
        for m in range(k + 1, n):
            v = V[m][k] = v * c[m - 1]
    return V


def _leaves_range(V, edge):
    """Whether an exact entry exceeds the largest double, or regrows from below the smallest normal to it, past edge."""
    n = len(V)
    for k in range(n):
        below = False
        for m in range(k, n):
            mag = abs(V[m][k])
            if mag > _MAX * (1 + edge) or (below and mag >= _TINY * (1 + edge)):
                return True
            below = below or mag < _TINY * (1 - edge)
    return False


def _assert_kernel_within_exact_bound(sys, n):
    """inverse_kernel against the exact V: it raises OverflowError exactly when V leaves the double range
    (either outcome within _EDGE of the range's ends), and every returned entry whose exact value is a
    normal double is within (m - k + 1) eps of it, relatively."""
    V = _exact_kernel(sys, n)
    must, may = _leaves_range(V, _EDGE), _leaves_range(V, -_EDGE)
    try:
        got = band_ops.inverse_kernel(sys, n)
    except OverflowError:
        assert may, "raised OverflowError on a V inside the double range"
        return
    assert not must, "returned a V that leaves the double range"
    if may:
        return
    assert not np.triu(got, 1).any()
    worst = (Fraction(0), 0, 0)  # (error in units of the bound, m, k)
    for k in range(n):
        for m in range(k, n):
            if abs(V[m][k]) >= _TINY:
                err = abs(Fraction(float(got[m, k])) - V[m][k]) / abs(V[m][k]) / ((m - k + 1) * _EPS)
                worst = max(worst, (err, m, k))
    err, m, k = worst
    assert err <= 1, f"V[{m}, {k}] is {float(err) * (m - k + 1):.3g} eps from exact, bound {m - k + 1} eps"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_inverse_kernel_within_exact_bound_on_seeded_systems(seed):
    _assert_kernel_within_exact_bound(random_band_system(rng_from_seed(seed), 96), 96)
    _assert_kernel_within_exact_bound(random_band_system(rng_from_seed(seed), 96, amplification_cap=1e4), 96)
    for sys in (DELTA, PLUS, TWO_ONE, BandSystem.constant(-1.5, 2.0, 3.0, 300)):
        _assert_kernel_within_exact_bound(sys, 1 + 19 * seed)


@pytest.mark.parametrize(
    "r, s, alpha",
    [(1.0, 4.0, 1.0), (2.0, 1.0, 1.0), (-1.3, 0.7, 1.0), (2.0, 0.8, 1.3), (1.0, -1.0, 1.0), (-2.0, 6.0, 1e3)],
)
def test_inverse_kernel_within_exact_bound_on_constant_systems(r, s, alpha):
    _assert_kernel_within_exact_bound(BandSystem.constant(r, s, alpha, 96), 96)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=96),
    reach=st.floats(min_value=-720.0, max_value=720.0),
    alpha_spread=st.sampled_from([0.0, 1.0, 30.0]),
)
def test_inverse_kernel_within_exact_bound_near_the_range_ends(seed, n, reach, alpha_spread):
    # mixed signs; the log-ratio walk ends near `reach`, so reach ~ 710 sits at the overflow edge, and near
    # -708 the walk's noise can cross the smallest normal and come back (with n <= 2, log|r| and log alpha
    # carry the rest)
    rng = np.random.default_rng(seed)
    steps = np.clip(reach / max(n - 1, 1) + rng.normal(0.0, 0.5, n), -700.0, 700.0)
    r = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-2.0, 2.0, n))
    s = rng.choice([-1.0, 1.0], n) * np.abs(r) * np.exp(steps)
    _assert_kernel_within_exact_bound(BandSystem(r, s, np.exp(rng.uniform(-alpha_spread, alpha_spread, n))), n)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=12))
def test_inverse_kernel_within_exact_bound_on_extreme_doubles(data, n):
    # factors -s/r that overflow or fall below the normal range, subnormal and huge alphas
    nonzero = _FINITE.filter(lambda v: v != 0.0)
    r, s = data.draw(_float_lists(nonzero, n)), data.draw(_float_lists(nonzero, n))
    alpha = data.draw(_float_lists(_FINITE.filter(lambda v: v > 0.0), n))
    _assert_kernel_within_exact_bound(BandSystem(r, s, alpha), n)


@pytest.mark.parametrize(
    "r, s, alpha",
    [
        ([1.0, 5e-324], [1.0, 1.0], [2.0**-60, 2.0**-100]),  # -s_0/r_1 = -2^1074 overflows; V[1, 0] = -2^1014
        ([1.0, 2.0**1000], [2.0**-100, 1.0], [2.0**1000, 2.0**990]),  # -s_0/r_1 = -2^-1100 is below every double
    ],
)
def test_inverse_kernel_rescales_factors_outside_the_normal_range(r, s, alpha):
    # the plain quotient -s_{m-1}/r_m is inf or 0 here, while every entry of V is a normal double
    sys = BandSystem(r, s, alpha)
    _assert_kernel_within_exact_bound(sys, 2)
    assert band_ops.inverse_kernel(sys, 2)[1, 0] == -float(Fraction(alpha[0]) / Fraction(r[0]) * Fraction(s[0]) / Fraction(r[1]))


def test_inverse_kernel_raises_where_a_flushed_entry_would_regrow():
    # V[2, 0] = 1e-348 is below every double, and V[4, 0] = 1 exactly; the recurrence would return 0.0
    sys = BandSystem(np.ones(5), [1e-174, 1e-174, 1e174, 1e174, 1.0], [1.0, 1.0, 1e-100, 1.0, 1.0])
    _assert_kernel_within_exact_bound(sys, 5)
    with pytest.raises(OverflowError):
        band_ops.inverse_kernel(sys, 5)
    assert np.isfinite(band_ops.inverse_kernel(sys, 2)).all()


def _seeded_runaway(n):
    rng = np.random.default_rng(31)
    r = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
    s = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 8.0, n) * np.abs(r)
    return BandSystem(r, s, rng.uniform(0.5, 2.0, n))


# (system, first truncation whose kernel overflows), pinned on the log-magnitude evaluation
OVERFLOW_EDGES = {
    "r=1,s=3": (BandSystem.constant(1.0, 3.0, 1.0, 700), 648),
    "r=1,s=4": (BandSystem.constant(1.0, 4.0, 1.0, 600), 513),  # 4^512 = 2^1024, the first power of 2 past the largest double
    "r=1,s=-4": (BandSystem.constant(1.0, -4.0, 1.0, 600), 513),
    "r=-2,s=6,alpha=1e3": (BandSystem.constant(-2.0, 6.0, 1e3, 700), 642),
    "seeded": (_seeded_runaway(600), 504),
}


@pytest.mark.parametrize("name", sorted(OVERFLOW_EDGES))
def test_inverse_kernel_overflows_at_pinned_truncation(name):
    sys, first = OVERFLOW_EDGES[name]
    assert np.isfinite(band_ops.inverse_kernel(sys, first - 1)).all()
    assert np.isfinite(_lattice_kernel(sys, first - 1)).all()
    with pytest.raises(OverflowError):
        band_ops.inverse_kernel(sys, first)
    with pytest.raises(OverflowError):
        _lattice_kernel(sys, first)


def _memo(sys):
    """The V kept on sys, or None."""
    return sys._inverse.get("V")


def _assert_memo_matches_fresh_builds(sys, n):
    """V served from sys's memo, at n and at leading blocks below it, has the bits of builds on equal, separate systems.

    When the build at n raises, every call raises the same message and the memo stays empty.
    """
    assert _memo(sys) is None
    try:
        want = band_ops.inverse_kernel(twin(sys), n)
    except OverflowError as exc:
        for _ in range(2):
            with pytest.raises(OverflowError) as again:
                band_ops.inverse_kernel(sys, n)
            assert str(again.value) == str(exc)
            assert _memo(sys) is None
        return
    got = band_ops.inverse_kernel(sys, n)
    assert _memo(sys) is got and band_ops.inverse_kernel(sys, n) is got
    _assert_same_bits(got, want, f"memo at n = {n}")
    for m in sorted({1, n // 2, n - 1} - {0}):
        block = band_ops.inverse_kernel(sys, m)
        assert block.flags.owndata and block.flags.c_contiguous and not block.flags.writeable
        _assert_same_bits(block, band_ops.inverse_kernel(twin(sys), m), f"memo block at m = {m} of n = {n}")
    assert _memo(sys) is got


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_memo_served_kernel_matches_fresh_builds_on_seeded_and_constant_systems(seed):
    _assert_memo_matches_fresh_builds(random_band_system(rng_from_seed(seed), 300), 300)
    _assert_memo_matches_fresh_builds(random_band_system(rng_from_seed(seed), 96, amplification_cap=1e4), 96)
    for sys in (DELTA, PLUS, TWO_ONE, BandSystem.constant(-1.5, 2.0, 3.0, 300)):
        _assert_memo_matches_fresh_builds(twin(sys), 1 + 99 * seed)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=12))
def test_memo_served_kernel_matches_fresh_builds_on_extreme_doubles(data, n):
    nonzero = _FINITE.filter(lambda v: v != 0.0)
    r, s = data.draw(_float_lists(nonzero, n)), data.draw(_float_lists(nonzero, n))
    alpha = data.draw(_float_lists(_FINITE.filter(lambda v: v > 0.0), n))
    _assert_memo_matches_fresh_builds(BandSystem(r, s, alpha), n)


REGROWTH = (BandSystem(np.ones(5), [1e-174, 1e-174, 1e174, 1e174, 1.0], [1.0, 1.0, 1e-100, 1.0, 1.0]), 5)


@pytest.mark.parametrize("name", sorted(OVERFLOW_EDGES) + ["regrowth"])
def test_memo_keeps_no_kernel_that_raises(name):
    sys, first = REGROWTH if name == "regrowth" else OVERFLOW_EDGES[name]
    with pytest.raises(OverflowError):
        band_ops.inverse_kernel(twin(sys), first)
    _assert_memo_matches_fresh_builds(twin(sys), first)  # raises the same message on every call, keeps nothing
    _assert_memo_matches_fresh_builds(twin(sys), first - 1)
    # a memo filled below the edge keeps its V when a larger build raises, and keeps serving it
    below, n = twin(sys), 3 if name == "regrowth" else first - 1  # the regrowth system raises from n = 4 on
    kept = band_ops.inverse_kernel(below, n)
    with pytest.raises(OverflowError):
        band_ops.inverse_kernel(below, first)
    assert _memo(below) is kept and band_ops.inverse_kernel(below, n) is kept


def test_memo_grows_to_the_largest_truncation_asked():
    sys = random_band_system(rng_from_seed(4), 64)
    small = band_ops.inverse_kernel(sys, 16)
    assert _memo(sys) is small
    large = band_ops.inverse_kernel(sys, 64)
    assert _memo(sys) is large and large.shape == (64, 64)
    _assert_same_bits(large[:16, :16].copy(), small, "the smaller build is the larger one's leading block")
    assert band_ops.inverse_kernel(sys, 32).base is None  # a copy, not a view that would pin the larger array


def test_memo_is_read_only_and_freed_with_its_system():
    sys = random_band_system(rng_from_seed(6), 32)
    V = band_ops.inverse_kernel(sys, 32)
    with pytest.raises(ValueError):
        V[0, 0] = 1.0
    ref = weakref.ref(V)
    system_ref = weakref.ref(sys)
    del sys, V
    gc.collect()
    assert system_ref() is None and ref() is None


def test_memo_raced_by_threads_serves_the_bits_of_fresh_builds():
    # six threads ask one system for V at sizes in rotated orders, switching every microsecond: whichever store
    # wins, every V served has the bits of a build on a system of its own, and so has the V left in the memo
    sys = random_band_system(rng_from_seed(9), 96)
    sizes = [8, 96, 24, 64, 96, 40] * 3
    want = {n: band_ops.inverse_kernel(twin(sys), n).tobytes() for n in set(sizes)}
    got, errors = [], []

    def work(order):
        try:
            got.extend((n, band_ops.inverse_kernel(sys, n).tobytes()) for n in order)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(sizes[i:] + sizes[:i],)) for i in range(6)]
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert len(got) == 6 * len(sizes) and all(bits == want[n] for n, bits in got)
    assert _memo(sys).tobytes() == want[_memo(sys).shape[0]]


def test_memo_is_neither_an_argument_nor_shown():
    sys = random_band_system(rng_from_seed(6), 8)
    band_ops.inverse_kernel(sys, 8)
    assert "_inverse" not in repr(sys)
    with pytest.raises(TypeError):
        BandSystem(sys.r, sys.s, sys.alpha, {})


def _assert_same_bits(got, want, what):
    """Bitwise equality (zero signs included), reporting the first differing index."""
    assert got.shape == want.shape, f"{what}: shape {got.shape} against {want.shape}"
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert not differ.size, f"{what}: {differ.size} entries differ, first at {differ[0]}: {got[differ[0]]!r} against {want[differ[0]]!r}"


class TestBasis:
    def test_basis_vector_is_kernel_column(self):
        b0 = band_ops.basis_vector(TWO_ONE, 0, 4).values
        assert np.array_equal(b0, [0.5, -0.25, 0.125, -0.0625])
        for seed in range(10):
            sys = random_band_system(rng_from_seed(seed), 300)
            V = band_ops.inverse_kernel(sys, 300)
            for k in (0, 1, 150, 299):
                _assert_same_bits(band_ops.basis_vector(sys, k, 300).values.real, V[:, k], f"seed {seed}, column {k}")

    def test_basis_vector_shares_the_kernel_overflow_contract(self):
        sys = BandSystem(np.ones(5), [1e-174, 1e-174, 1e174, 1e174, 1.0], [1.0, 1.0, 1e-100, 1.0, 1.0])
        with pytest.raises(OverflowError):
            band_ops.basis_vector(sys, 0, 5)

    def test_basis_vanishes_before_its_index(self, mild_system):
        b = band_ops.basis_vector(mild_system, 5, 12).values
        assert np.all(b[:5] == 0)

    def test_index_guard(self):
        with pytest.raises(IndexError):
            band_ops.basis_vector(TWO_ONE, 4, 4)

    def test_z_vector_is_inverse_of_ones(self, mild_system):
        z = band_ops.z_vector(mild_system, 16).values
        ref = band_ops.inverse_transform(np.ones(16), mild_system).values
        assert np.array_equal(z, ref)


class TestExpansionResidual:
    def test_full_expansion_is_exactly_zero_on_integer_data(self):
        p = ExponentSeq.constant(1.0, 4)
        assert band_ops.expansion_residual([1, 2, 3, 4], DELTA, p, 3) == 0.0

    def test_difference_example(self):
        p = ExponentSeq.constant(1.0, 4)
        assert band_ops.expansion_residual([1, 2, 3, 4], DELTA, p, 1) == pytest.approx(1.0, abs=1e-14)

    def test_matches_tail_paranorm_and_monotone(self, rng):
        n = 48
        for _ in range(8):
            sys = random_band_system(rng, n, amplification_cap=100.0)
            p = ExponentSeq(rng.uniform(0.5, 2.0, n))
            x = FiniteSeq(complex_uniform(rng, n))
            y = band_ops.forward_transform(x, sys)
            ladder = [band_ops.expansion_residual(x, sys, p, c) for c in range(0, n, 5)]
            tails = [band_ops.tail_paranorm(y, p, c) for c in range(0, n, 5)]
            assert np.max(np.abs(np.array(ladder) - np.array(tails))) < 1e-10
            assert all(b <= a + 1e-10 for a, b in zip(ladder, ladder[1:]))

    def test_cutoff_guard(self):
        p = ExponentSeq.constant(1.0, 4)
        for cutoff in (4, -5):
            with pytest.raises(IndexError):
                band_ops.expansion_residual([1, 2, 3, 4], DELTA, p, cutoff)
        # the tail past -5 is all of y, whose sup is 10, but y[n + 1:] reads only the last four values
        y, p = np.arange(10.0, 0.0, -1.0), ExponentSeq.constant(1.0, 10)
        with pytest.raises(IndexError):
            band_ops.tail_paranorm(y, p, -5)
        assert band_ops.tail_paranorm(y, p, 0) == 9.0 and band_ops.tail_paranorm(y, p, 9) == 0.0


def test_special_case_collapse_to_classical_matrices():
    n = 8
    r, s = 1.75, -0.5
    sys = BandSystem.constant(r, s, 1.0, n)
    T = band_ops.triangle_kernel(sys, n)
    assert np.allclose(T, make_matrix("band", n, r=r, s=s))
    assert np.allclose(band_ops.triangle_kernel(BandSystem.difference(n), n), make_matrix("difference", n))
