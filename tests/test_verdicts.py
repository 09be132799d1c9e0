import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcore.verdicts import (
    DECAY_THRESHOLD,
    FAILS,
    GROWTH_THRESHOLD,
    HOLDS,
    INCONCLUSIVE,
    STABILIZATION_RTOL,
    ZERO_ATOL,
    aggregate_verdict,
    classify_series,
    combine_exists,
    combine_forall,
    fit_growth_exponent,
)

# two rungs an octave apart: the fitted exponent of [1, 2**g] is g
NS = (8, 16)
EPS = 1e-6


def test_threshold_values():
    assert (STABILIZATION_RTOL, GROWTH_THRESHOLD, DECAY_THRESHOLD, ZERO_ATOL) == (0.01, 0.05, -0.05, 1e-8)


class TestBounded:
    def test_stabilized_within_tolerance_holds(self):
        verdict, growth, last = classify_series("bounded", NS, [1.0, 1.0 - (STABILIZATION_RTOL - EPS)])
        assert verdict == HOLDS
        assert last is None

    def test_stabilized_outside_tolerance_is_inconclusive(self):
        verdict, growth, _ = classify_series("bounded", NS, [1.0, 1.0 - (STABILIZATION_RTOL + EPS)])
        assert verdict == INCONCLUSIVE
        assert DECAY_THRESHOLD < growth < 0.0

    def test_growth_above_threshold_fails(self):
        verdict, growth, _ = classify_series("bounded", NS, [1.0, 2.0 ** (GROWTH_THRESHOLD + EPS)])
        assert verdict == FAILS
        assert growth == pytest.approx(GROWTH_THRESHOLD + EPS, abs=1e-12)

    def test_growth_below_threshold_is_inconclusive(self):
        verdict, growth, _ = classify_series("bounded", NS, [1.0, 2.0 ** (GROWTH_THRESHOLD - EPS)])
        assert verdict == INCONCLUSIVE
        assert growth == pytest.approx(GROWTH_THRESHOLD - EPS, abs=1e-12)

    def test_zero_series_is_stabilized(self):
        assert classify_series("bounded", NS, [0.0, 0.0])[0] == HOLDS


class TestLimit:
    def test_decay_past_threshold_holds(self):
        verdict, growth, last = classify_series("limit", NS, [1.0, 2.0 ** (DECAY_THRESHOLD - EPS)], 0.0)
        assert verdict == HOLDS
        assert growth == pytest.approx(DECAY_THRESHOLD - EPS, abs=1e-12)
        assert last == 2.0 ** (DECAY_THRESHOLD - EPS)

    def test_slower_decay_is_inconclusive(self):
        verdict, growth, _ = classify_series("limit", NS, [1.0, 2.0 ** (DECAY_THRESHOLD + EPS)], 0.0)
        assert verdict == INCONCLUSIVE
        assert growth == pytest.approx(DECAY_THRESHOLD + EPS, abs=1e-12)

    def test_last_deviation_within_zero_tolerance_holds(self):
        verdict, _, last = classify_series("limit", NS, [ZERO_ATOL, ZERO_ATOL], 0.0)
        assert verdict == HOLDS
        assert last == ZERO_ATOL

    def test_last_deviation_above_zero_tolerance_fails(self):
        # a deviation that stabilizes just above the tolerance is a stable miss
        value = ZERO_ATOL * (1.0 + 1e-3)
        assert classify_series("limit", NS, [value, value], 0.0)[0] == FAILS

    def test_deviation_measured_from_target(self):
        verdict, _, last = classify_series("limit", NS, [4.0, 3.0], 3.0)
        assert verdict == HOLDS
        assert last == 0.0

    def test_stabilized_deviation_fails(self):
        assert classify_series("limit", NS, [1.0, 1.0 - (STABILIZATION_RTOL - EPS)], 0.0)[0] == FAILS
        assert classify_series("limit", NS, [1.0, 1.0 - (STABILIZATION_RTOL + EPS)], 0.0)[0] == INCONCLUSIVE

    def test_growing_deviation_fails(self):
        assert classify_series("limit", NS, [1.0, 2.0 ** (GROWTH_THRESHOLD + EPS)], 0.0)[0] == FAILS

    def test_limit_needs_a_target(self):
        with pytest.raises(ValueError, match="target"):
            classify_series("limit", NS, [1.0, 0.5])


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        classify_series("mean", NS, [1.0, 1.0])


def test_single_rung_fit_is_zero():
    assert fit_growth_exponent([16], [5.0]) == 0.0
    assert classify_series("bounded", [16], [5.0]) == (INCONCLUSIVE, 0.0, None)


class TestCombine:
    def test_empty_witness_sets_are_inconclusive(self):
        assert combine_forall([]) == INCONCLUSIVE
        assert combine_exists([]) == INCONCLUSIVE

    def test_forall_takes_the_worst_and_exists_the_best(self):
        mixed = [HOLDS, INCONCLUSIVE, FAILS]
        assert combine_forall(mixed) == FAILS
        assert combine_exists(mixed) == HOLDS
        assert combine_forall([HOLDS, INCONCLUSIVE]) == INCONCLUSIVE
        assert combine_exists([FAILS, INCONCLUSIVE]) == INCONCLUSIVE
        assert aggregate_verdict(iter(mixed)) == FAILS


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    ladder=st.lists(st.integers(1, 1 << 20), min_size=2, max_size=8, unique=True).map(sorted),
)
def test_growth_fit_is_polyfit_bit_for_bit(data, ladder):
    # values from the 1e-300 floor to 1e300, of either sign, and zeros, which the floor lifts
    signed = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1e-300, 1e300) | st.just(0.0))
    values = [sign * v for sign, v in data.draw(st.lists(signed, min_size=len(ladder), max_size=len(ladder)))]
    want = np.polyfit(np.log(np.asarray(ladder, dtype=np.float64)), np.log(np.maximum(np.abs(values), 1e-300)), 1)[0]
    got = fit_growth_exponent(ladder, values)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert fit_growth_exponent(np.asarray(ladder), values) == got  # the ladder's setup is shared by value, not by object
