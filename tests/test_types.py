import numpy as np
import pytest

from seqcore.types import BandSystem, ExponentSeq, FiniteSeq, SchemaError, coerce_int


def test_finite_seq_rejects_bad_input():
    with pytest.raises(ValueError):
        FiniteSeq(np.array([]))
    with pytest.raises(ValueError):
        FiniteSeq(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        FiniteSeq(np.array([1.0, np.inf]))


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
def test_coerce_int_reads_integral_values(value):
    assert coerce_int(value, "n") == 3 and type(coerce_int(value, "n")) is int


@pytest.mark.parametrize("value", [2.5, "3", True, False, None, [3], float("inf"), float("nan")])
def test_coerce_int_rejects_what_is_not_an_integer(value):
    with pytest.raises(SchemaError, match="n must be an integer"):
        coerce_int(value, "n")


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


def test_value_types_compare_and_hash_by_identity():
    # the dataclass __eq__ once compared array fields and raised on any system longer than 1
    a, b = BandSystem.difference(8), BandSystem.difference(8)
    seq, p = FiniteSeq(np.ones(8)), ExponentSeq.constant(2.0, 8)
    assert a == a and a != b and seq == seq and seq != FiniteSeq(np.ones(8)) and p != ExponentSeq.constant(2.0, 8)
    assert len({a, b, seq, p}) == 4 and {a: 1}[a] == 1
    assert hash(a) == hash(a) and hash(p) == hash(p)
