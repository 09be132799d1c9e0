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


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.complex128])
def test_triangle_kernel_owns_a_read_only_copy(dtype):
    e = np.array([[1, 0], [2, 3]], dtype=dtype)
    kern = TriangleKernel(e)
    e[1, 0] = 7
    assert kern.entries[1, 0] == 2
    assert not kern.entries.flags.writeable
    with pytest.raises(ValueError):
        kern.entries[0, 0] = 5


@pytest.mark.parametrize("zero", [-0.0, complex(-0.0, -0.0), complex(0.0, -0.0)])
def test_triangle_kernel_accepts_negative_zero_above_diagonal(zero):
    e = np.array([[1.0, zero, zero], [2.0, 3.0, zero], [4.0, 5.0, 6.0]])
    assert TriangleKernel(e).entries.tobytes() == e.tobytes()


@pytest.mark.parametrize("entry", [0.5, -5e-324, 1j, complex(-0.0, 2.0), complex(1e-300, 0.0)])
def test_triangle_kernel_rejects_nonzero_upper_entries(entry):
    for row, col in ((0, 1), (0, 2), (1, 2)):
        e = np.zeros((3, 3), dtype=np.asarray(entry).dtype)
        e[row, col] = entry
        with pytest.raises(ValueError, match="^kernel must vanish strictly above the diagonal$"):
            TriangleKernel(e)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 0.0)])
@pytest.mark.parametrize("where", [(0, 0), (2, 0), (0, 2)])
def test_triangle_kernel_rejects_nonfinite_entries(bad, where):
    e = np.zeros((3, 3), dtype=np.asarray(bad).dtype)
    e[where] = bad
    with pytest.raises(ValueError, match="^kernel entries must be finite$"):
        TriangleKernel(e)


def test_triangle_kernel_one_by_one():
    assert TriangleKernel(np.array([[-2.5]])).n == 1
    assert TriangleKernel(np.array([[1j]])).entries.dtype == np.complex128
    with pytest.raises(ValueError, match="^kernel entries must be finite$"):
        TriangleKernel(np.array([[np.nan]]))
