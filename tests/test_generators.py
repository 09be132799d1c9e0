import numpy as np
import pytest

from seqcore import generators
from seqcore.generators import (
    GeneratorSpec,
    make_matrix,
    make_sequence,
    materialize_matrix,
    random_band_system,
    rng_from_seed,
)


def test_cesaro_truncation_matches_definition():
    C = make_matrix("cesaro", 3)
    assert np.allclose(C, [[1, 0, 0], [0.5, 0.5, 0], [1 / 3, 1 / 3, 1 / 3]])


def test_riesz_with_unit_weights_equals_cesaro():
    assert np.array_equal(make_matrix("riesz", 16, t=np.ones(16)), make_matrix("cesaro", 16))


def test_band_matrix_entries():
    B = make_matrix("band", 3, r=2.0, s=1.0)
    assert np.allclose(B, [[2, 0, 0], [1, 2, 0], [0, 1, 2]])


def test_summation_and_difference_are_mutually_inverse():
    for n in (1, 2, 7, 33):
        S = make_matrix("summation", n)
        D = make_matrix("difference", n)
        assert np.array_equal(S @ D, np.eye(n))
        assert np.array_equal(D @ S, np.eye(n))


def test_double_band_special_cases():
    n = 9
    r, s = 2.5, -0.75
    general = make_matrix("double_band", n, r=np.full(n, r), s=np.full(n, s))
    assert np.array_equal(general, make_matrix("band", n, r=r, s=s))
    delta = make_matrix("double_band", n, r=np.ones(n), s=-np.ones(n))
    assert np.array_equal(delta, make_matrix("difference", n))


def test_sequences():
    assert np.allclose(make_sequence("e", 3).values, [1, 1, 1])
    assert np.allclose(make_sequence("e_n", 3, k=1).values, [0, 1, 0])
    assert np.allclose(make_sequence("roots_of_unity", 4, m=4).values, [1, 1j, -1, -1j])
    alt = make_sequence("alternating", 5).values
    assert np.allclose(alt, [1, -1, 1, -1, 1])
    sq = make_sequence("square_indicator", 10).values.real
    assert np.allclose(sq, [1, 1, 0, 0, 1, 0, 0, 0, 0, 1])
    conv = make_sequence("convergent", 64, l=0.5, rate=0.5).values
    assert abs(conv[-1] - 0.5) < 1e-15


def test_random_sequences_are_reproducible():
    a = make_sequence("random_bounded", 32, seed=5).values
    b = make_sequence("random_bounded", 32, seed=5).values
    c = make_sequence("random_bounded", 32, seed=6).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.max(np.abs(a.real)) <= 1.0 and np.max(np.abs(a.imag)) <= 1.0


def test_random_band_system_respects_ranges_and_cap():
    sys = random_band_system(rng_from_seed(3), 256, amplification_cap=100.0)
    for arr in (np.abs(sys.r), np.abs(sys.s), sys.alpha):
        assert np.all((arr >= 0.5) & (arr <= 2.0))
    walk = np.concatenate([[0.0], np.cumsum(np.log(np.abs(sys.s[:-1] / sys.r[:-1])))])
    rise = np.max(walk - np.minimum.accumulate(walk))
    fall = np.max(np.maximum.accumulate(walk) - walk)
    assert np.exp(max(rise, fall)) <= 100.0


def test_random_band_system_gives_up_on_an_unreachable_cap(monkeypatch):
    # the log-amplification is >= 0, so no system meets a cap below 1; a
    # smaller limit keeps the test fast, the real one takes seconds to run out
    monkeypatch.setattr(generators, "MAX_SYSTEM_DRAWS", 500)
    with pytest.raises(ValueError, match="length 4 .* cap 0.5 .* 500 draws"):
        random_band_system(rng_from_seed(0), 4, amplification_cap=0.5)


def test_materialize_checks_size_and_finiteness():
    with pytest.raises(ValueError):
        materialize_matrix(np.eye(3), 4)
    with pytest.raises(ValueError):
        materialize_matrix(np.array([[np.inf]]), 1)
    out = materialize_matrix(GeneratorSpec("identity"), 5)
    assert np.array_equal(out, np.eye(5))


def test_unknown_generators_rejected():
    with pytest.raises(ValueError):
        make_matrix("nope", 3)
    with pytest.raises(ValueError):
        make_sequence("nope", 3)
    with pytest.raises(ValueError):
        GeneratorSpec("nope")
