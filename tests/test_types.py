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


# every type that freezes its arrays: the array it keeps, from a source of the target dtype
_KEPT = {
    "FiniteSeq": (lambda v: FiniteSeq(v).values, lambda: np.array([1.0 + 2.0j, 3.0, -4.0j])),
    "BandSystem.r": (lambda v: BandSystem(v, np.ones(3), np.ones(3)).r, lambda: np.array([2.0, -3.0, 4.0])),
    "BandSystem.s": (lambda v: BandSystem(np.ones(3), v, np.ones(3)).s, lambda: np.array([2.0, -3.0, 4.0])),
    "BandSystem.alpha": (lambda v: BandSystem(np.ones(3), np.ones(3), v).alpha, lambda: np.array([2.0, 3.0, 4.0])),
    "ExponentSeq": (lambda v: ExponentSeq(v).p, lambda: np.array([0.5, 2.0, 1.5])),
    "TriangleKernel": (lambda v: TriangleKernel(v).entries, lambda: np.array([[1.0, 0.0], [2.0, 3.0]])),
}


@pytest.mark.parametrize("source", ["writable", "read_only_view"])
@pytest.mark.parametrize("name", sorted(_KEPT))
def test_frozen_value_does_not_follow_its_source(name, source):
    # a writable array and a view are copied, so mutating the source afterwards leaves the value unchanged
    build, make = _KEPT[name]
    base = make()
    arr = base
    if source == "read_only_view":
        arr = base[...]
        arr.setflags(write=False)
    kept = build(arr)
    before = kept.tobytes()
    base *= 2.0
    assert kept is not arr and kept.tobytes() == before
    assert kept.flags.owndata and not kept.flags.writeable


@pytest.mark.parametrize("name", sorted(_KEPT))
def test_frozen_value_keeps_a_read_only_array_that_owns_its_data(name):
    build, make = _KEPT[name]
    arr = make()
    arr.setflags(write=False)
    assert build(arr) is arr


def test_kept_array_is_still_validated():
    for bad in ([1.0, np.nan], [np.inf]):
        arr = np.array(bad, dtype=np.complex128)
        arr.setflags(write=False)
        with pytest.raises(ValueError, match="finite"):
            FiniteSeq(arr)
    arr = np.array([[1.0, 5.0], [2.0, 3.0]])
    arr.setflags(write=False)
    with pytest.raises(ValueError, match="above the diagonal"):
        TriangleKernel(arr)


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
