import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcore import band_ops
from seqcore.generators import make_matrix, random_band_system, rng_from_seed
from seqcore.types import BandSystem, ExponentSeq, FiniteSeq

from conftest import complex_uniform

# the blocked substitution runs its float lanes under np.errstate, so a numpy warning leaking
# from them, or from any other band operation, fails the test that raised it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

DELTA = BandSystem.difference(512)
PLUS = BandSystem.constant(1.0, 1.0, 1.0, 512)
TWO_ONE = BandSystem.constant(2.0, 1.0, 1.0, 512)


def _inverse_transform_series(y, sys: BandSystem) -> FiniteSeq:
    """Oracle for the recurrence-based inverse: the explicit series x = V y, O(N^2)."""
    y = FiniteSeq.coerce(y)
    return FiniteSeq(band_ops.inverse_kernel(sys, y.n).entries @ y.values)


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
        T = band_ops.triangle_kernel(TWO_ONE, 3).entries
        assert np.allclose(T, [[2, 0, 0], [1, 2, 0], [0, 1, 2]])
        D = band_ops.triangle_kernel(DELTA, 2).entries
        assert np.allclose(D, [[1, 0], [-1, 1]])

    def test_triangle_is_two_band(self, rng):
        sys = random_band_system(rng, 16)
        T = band_ops.triangle_kernel(sys, 16).entries
        assert np.array_equal(np.tril(T, -2), np.zeros_like(T))
        assert np.array_equal(np.triu(T, 1), np.zeros_like(T))

    def test_inverse_kernel_example(self):
        V = band_ops.inverse_kernel(TWO_ONE, 3).entries
        assert np.allclose(V, [[0.5, 0, 0], [-0.25, 0.5, 0], [0.125, -0.25, 0.5]])

    def test_inverse_diagonal_is_alpha_over_r(self, rng):
        sys = random_band_system(rng, 32)
        V = band_ops.inverse_kernel(sys, 32).entries
        assert np.allclose(np.diagonal(V), sys.alpha[:32] / sys.r[:32], rtol=1e-13)

    def test_log_and_direct_paths_agree(self, rng):
        for _ in range(5):
            sys = random_band_system(rng, 64)
            V_log = band_ops.inverse_kernel(sys, 64, method="log").entries
            V_dir = band_ops.inverse_kernel(sys, 64, method="direct").entries
            scale = np.maximum(np.abs(V_dir), 1e-300)
            assert np.max(np.abs(V_log - V_dir) / scale) < 1e-12

    def test_forward_of_inverse_columns_gives_units(self, mild_system):
        n = 32
        V = band_ops.inverse_kernel(mild_system, n).entries
        for k in (0, 3, 17):
            y = band_ops.forward_transform(V[:, k], mild_system).values
            unit = np.zeros(n)
            unit[k] = 1.0
            assert np.max(np.abs(y - unit)) < 1e-12

    def test_matrix_paths_match_recurrences(self, mild_system):
        n = 64
        rng = rng_from_seed(77)
        x = complex_uniform(rng, n)
        T = band_ops.triangle_kernel(mild_system, n).entries
        V = band_ops.inverse_kernel(mild_system, n).entries
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


def _contracting_system(rng, n):
    """|s_k| / |r_k| in [0.1, 0.9] with both signs of r and s, so every block's ratio walk falls fast."""
    r = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
    s = rng.uniform(0.1, 0.9, n) * np.abs(r) * rng.choice([-1.0, 1.0], n)
    return BandSystem(r, s, rng.uniform(0.5, 2.0, n))


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
    # an overflow raises the same ValueError
    rng = np.random.default_rng(seed)
    sys = _contracting_system(rng, n)
    y = complex_uniform(rng, n) * scale
    if zero_lane is not None:
        y = _with_zero_lane(y, zero_lane)
    for where, value, real in edges:
        k = int(where * n)
        y[k] = complex(value, y[k].imag) if real else complex(y[k].real, value)
    y = FiniteSeq(y)
    expected = _bits(lambda: _indexed_inverse(y, sys))
    assert _bits(lambda: band_ops.inverse_transform(y, sys).values) == expected
    if all(abs(value) <= scale for _, value, _ in edges):
        # a larger edge value starts a transient that a block started from x_h cannot match
        assert _blocked(y, sys) is not None


@pytest.mark.parametrize("r, s", [(2.0, 1.0), (-2.0, 1.0), (2.0, -1.0), (-2.0, -0.5)])
def test_blocked_path_keeps_zero_signs(r, s):
    # zero lanes are where CPython's promotion of floats to complex decides the sign of every zero
    n = band_ops._MIN_BLOCKED_N + 1000
    u = complex_uniform(rng_from_seed(7), n)
    inputs = [np.full(n, complex(zr, zi)) for zr in (0.0, -0.0) for zi in (0.0, -0.0)]
    inputs += [_with_zero_lane(u, zero) for zero in (0.0, -0.0, 0.0j, -0.0j)]
    for sys in (BandSystem.constant(r, s, 1.5, n), _contracting_system(rng_from_seed(8), n)):
        for y in map(FiniteSeq, inputs):
            x = _blocked(y, sys)
            assert x is not None
            assert x.tobytes() == _indexed_inverse(y, sys).tobytes()


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
        x = _blocked(y, sys)
        assert x is not None
        assert x.tobytes() == _indexed_inverse(y, sys).tobytes()
        assert band_ops.inverse_transform(y, sys).values.tobytes() == x.tobytes()


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


def _lattice_kernel(sys, n):
    """V from an n x n parity matrix and sign lattice, the oracle of ``inverse_kernel(method="log")``."""
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


def _kernel_bits(call) -> str:
    """dtype, shape and bytes of a kernel (zero signs included), or the exception raised."""
    try:
        with np.errstate(all="ignore"):
            ent = call()
    except OverflowError as exc:
        return f"raises {type(exc).__name__}"
    return f"{ent.dtype}{ent.shape}:{ent.tobytes().hex()}"


def _assert_kernel_matches_lattice(sys, n):
    got = _kernel_bits(lambda: band_ops.inverse_kernel(sys, n).entries)
    assert got == _kernel_bits(lambda: _lattice_kernel(sys, n))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_inverse_kernel_matches_sign_lattice_on_seeded_systems(seed):
    _assert_kernel_matches_lattice(random_band_system(rng_from_seed(seed), 300), 300)
    _assert_kernel_matches_lattice(random_band_system(rng_from_seed(seed), 300, amplification_cap=1e4), 300)
    for sys in (DELTA, PLUS, TWO_ONE, BandSystem.constant(-1.5, 2.0, 3.0, 300)):
        _assert_kernel_matches_lattice(sys, 1 + 97 * seed)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=300),
    reach=st.floats(min_value=-720.0, max_value=720.0),
    alpha_spread=st.sampled_from([0.0, 1.0, 30.0]),
)
def test_inverse_kernel_matches_sign_lattice_bitwise(seed, n, reach, alpha_spread):
    # mixed signs; the log-ratio walk ends near `reach`, so |reach| ~ 710 sits at the overflow edge
    # (with n <= 2, log|r| and log alpha carry the rest; each step keeps s finite)
    rng = np.random.default_rng(seed)
    steps = np.clip(reach / max(n - 1, 1) + rng.normal(0.0, 0.5, n), -700.0, 700.0)
    r = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-2.0, 2.0, n))
    s = rng.choice([-1.0, 1.0], n) * np.abs(r) * np.exp(steps)
    sys = BandSystem(r, s, np.exp(rng.uniform(-alpha_spread, alpha_spread, n)))
    _assert_kernel_matches_lattice(sys, n)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=12))
def test_inverse_kernel_matches_sign_lattice_on_extreme_doubles(data, n):
    # ratios that overflow to inf or underflow to 0, subnormal and huge alphas
    nonzero = _FINITE.filter(lambda v: v != 0.0)
    r, s = data.draw(_float_lists(nonzero, n)), data.draw(_float_lists(nonzero, n))
    alpha = data.draw(_float_lists(_FINITE.filter(lambda v: v > 0.0), n))
    _assert_kernel_matches_lattice(BandSystem(r, s, alpha), n)


def _seeded_runaway(n):
    rng = np.random.default_rng(31)
    r = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
    s = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 8.0, n) * np.abs(r)
    return BandSystem(r, s, rng.uniform(0.5, 2.0, n))


# (system, first truncation whose kernel overflows), pinned on the sign-lattice evaluation
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
    _assert_kernel_matches_lattice(sys, first - 1)
    assert np.isfinite(band_ops.inverse_kernel(sys, first - 1).entries).all()
    with pytest.raises(OverflowError):
        band_ops.inverse_kernel(sys, first)
    with pytest.raises(OverflowError):
        _lattice_kernel(sys, first)


class TestBasis:
    def test_basis_vector_is_kernel_column(self):
        b0 = band_ops.basis_vector(TWO_ONE, 0, 4).values
        assert np.allclose(b0, [0.5, -0.25, 0.125, -0.0625], rtol=1e-13)
        V = band_ops.inverse_kernel(TWO_ONE, 4).entries
        for k in range(4):
            assert np.allclose(band_ops.basis_vector(TWO_ONE, k, 4).values, V[:, k], rtol=1e-12)

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
        with pytest.raises(IndexError):
            band_ops.expansion_residual([1, 2, 3, 4], DELTA, p, 4)


def test_special_case_collapse_to_classical_matrices():
    n = 8
    r, s = 1.75, -0.5
    sys = BandSystem.constant(r, s, 1.0, n)
    T = band_ops.triangle_kernel(sys, n).entries
    assert np.allclose(T, make_matrix("band", n, r=r, s=s))
    assert np.allclose(band_ops.triangle_kernel(BandSystem.difference(n), n).entries, make_matrix("difference", n))
