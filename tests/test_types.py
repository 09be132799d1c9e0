import numpy as np
import pytest

from seqcore.types import BandSystem, ExponentSeq, FiniteSeq, TriangleKernel


def test_finite_seq_rejects_bad_input():
    with pytest.raises(ValueError):
        FiniteSeq(np.array([]))
    with pytest.raises(ValueError):
        FiniteSeq(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        FiniteSeq(np.array([1.0, np.inf]))


def test_finite_seq_is_immutable():
    seq = FiniteSeq(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        seq.values[0] = 5.0


def test_band_system_invariants():
    with pytest.raises(ValueError):
        BandSystem(np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        BandSystem(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        BandSystem(np.array([1.0]), np.array([1.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        BandSystem(np.array([1.0, 1.0]), np.array([1.0]), np.array([1.0, 1.0]))


def test_band_system_length_guard():
    sys = BandSystem.constant(2.0, 1.0, 1.0, 4)
    sys.require_length(4)
    with pytest.raises(ValueError):
        sys.require_length(5)


def test_exponent_seq_derived_quantities():
    p = ExponentSeq(np.array([0.5, 2.0, 1.5]))
    assert p.H == 2.0
    assert p.M == 2.0
    assert p.inf_positive
    small = ExponentSeq(np.array([1e-12, 1.0]))
    assert not small.inf_positive
    assert ExponentSeq(np.array([0.25, 0.5])).M == 1.0


def test_exponent_conjugate_requires_p_above_one():
    with pytest.raises(ValueError):
        ExponentSeq(np.array([0.5, 2.0])).conjugate()
    pc = ExponentSeq(np.array([2.0, 4.0])).conjugate()
    assert np.allclose(pc, [2.0, 4.0 / 3.0])


def test_triangle_kernel_rejects_upper_entries():
    with pytest.raises(ValueError):
        TriangleKernel(np.array([[1.0, 0.5], [0.0, 1.0]]))
    kern = TriangleKernel(np.array([[1.0, 0.0], [2.0, 3.0]]))
    assert kern.n == 2
