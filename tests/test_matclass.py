import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcore import band_ops, duals, matclass
from seqcore.generators import GeneratorSpec, make_matrix, materialize_matrix, random_band_system, rng_from_seed
from seqcore.io import canonical_dumps
from seqcore.ladder import window
from seqcore.types import BandSystem, ExponentSeq, SchemaError

from conftest import twin

DELTA = BandSystem.difference(512)
LADDER = (32, 64, 128)
EPS = np.finfo(np.float64).eps


def _rounding_bound(A, V) -> np.ndarray:
    """2 n eps (|A| |V|): the componentwise scale within which E = A V may round.

    The bidiagonal solve and the cumulative sum each round a term of E[i, k]
    by at most a few eps per step of its n-step chain, relative to
    |A[i, j]| |V[j, k]| (Higham, ch. 8); the kernel identity residual is
    scaled the same way.
    """
    return 2 * A.shape[0] * EPS * (np.abs(A) @ np.abs(V))


def _family(block: np.ndarray, n: int) -> np.ndarray:
    """The n x n partial-sum family of a support block: zero columns appended, its last row repeated."""
    stop = block.shape[0]
    out = np.zeros((n, n), dtype=block.dtype)
    out[:stop, :stop] = block
    if stop:
        out[stop:, :stop] = block[-1]
    return out


def _stop(row: np.ndarray) -> int:
    """One past the last nonzero entry of row, 0 for a zero row."""
    nonzero = np.flatnonzero(row)
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def _oracle_blocks(A: np.ndarray, V: np.ndarray, n: int) -> list:
    """(i, support block) of each probe row i < n with a nonzero A[i, :n], by the literal cumulative sum."""
    stops = [(i, _stop(A[i, :n])) for i in range(min(8, n))]
    return [(i, np.cumsum(A[i, :stop, None] * V[:stop, :stop], axis=0)) for i, stop in stops if stop]


def _assert_blocks_are_oracle(blocks: list, A: np.ndarray, V: np.ndarray, n: int):
    """A rung's probe blocks are the literal cumulative sums: the same row indices, dtypes and bytes."""
    want = _oracle_blocks(A, V, n)
    assert [i for i, _ in blocks] == [i for i, _ in want]
    for (_, got), (_, block) in zip(blocks, want):
        assert got.dtype == block.dtype and got.tobytes() == block.tobytes()


def _assert_support_is_family(block: np.ndarray, A_row: np.ndarray, V: np.ndarray):
    """The block is the leading stop x stop block of the cumulative sum over all of V, bit for bit,
    and padded to n x n it equals that cumulative sum (a zero may differ in sign)."""
    stop = _stop(A_row)
    oracle = np.cumsum(A_row[:, None] * V, axis=0)
    assert block.shape == (stop, stop)
    assert block.tobytes() == np.ascontiguousarray(oracle[:stop, :stop]).tobytes()
    assert np.array_equal(_family(block, V.shape[0]), oracle)


class TestBtilde:
    def test_inverse_kernel_transforms_to_identity(self):
        n = 32
        V = band_ops.inverse_kernel(DELTA, n)
        bt = matclass.btilde(V, DELTA, n)
        assert np.array_equal(bt, np.eye(n))

    def test_identity_transforms_to_triangle(self, mild_system):
        n = 16
        bt = matclass.btilde(np.eye(n), mild_system, n)
        assert np.allclose(bt, band_ops.triangle_kernel(mild_system, n), rtol=1e-14)

    def test_zero(self, mild_system):
        assert np.all(matclass.btilde(np.zeros((8, 8)), mild_system, 8) == 0)

    def test_matches_triangle_product(self, mild_system, rng):
        n = 24
        B = rng.uniform(-1.0, 1.0, (n, n))
        bt = matclass.btilde(B, mild_system, n)
        T = band_ops.triangle_kernel(mild_system, n)
        assert np.max(np.abs(bt - T @ B)) < 1e-10

    def test_linearity(self, mild_system, rng):
        n = 16
        B1 = rng.uniform(-1.0, 1.0, (n, n))
        B2 = rng.uniform(-1.0, 1.0, (n, n))
        lhs = matclass.btilde(B1 + B2, mild_system, n)
        rhs = matclass.btilde(B1, mild_system, n) + matclass.btilde(B2, mild_system, n)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_rows_built_in_place_match_the_plain_expression(self, mild_system, field):
        # the three in-place ufuncs on B's rows give the bits of (r B[1:] + s B[:-1]) / alpha, -0.0 entries included
        n = 48
        rng = rng_from_seed(14)
        B = rng.uniform(-1.0, 1.0, (n, n))
        zero = -0.0
        if field == "complex":
            B, zero = B + 1j * rng.uniform(-1.0, 1.0, (n, n)), complex(-0.0, -0.0)
        B[rng.random((n, n)) < 0.2] = zero
        r, s, a = mild_system.params(n)
        plain = np.empty_like(B)
        plain[0] = r[0] * B[0] / a[0]
        plain[1:] = (r[1:, None] * B[1:] + s[:-1, None] * B[:-1]) / a[1:, None]
        assert matclass.btilde(B, mild_system, n).tobytes() == plain.tobytes()


class TestEMatrix:
    def test_triangle_composes_to_identity(self):
        n = 24
        T = band_ops.triangle_kernel(DELTA, n)
        E = matclass.e_matrix(T, DELTA, n)
        # E[:, k] = T[:, k] + E[:, k+1] cancels the -1 below the diagonal exactly and leaves no -0.0
        assert E.tobytes() == np.eye(n).tobytes()
        assert E.flags.c_contiguous

    def test_identity_composes_to_inverse(self, mild_system):
        n = 24
        E = matclass.e_matrix(np.eye(n), mild_system, n)
        V = band_ops.inverse_kernel(mild_system, n)
        assert np.allclose(E, V, rtol=1e-12, atol=1e-14)

    def test_partial_sums_stabilize_exactly_for_banded_input(self, mild_system):
        n = 24
        A = band_ops.triangle_kernel(mild_system, n)  # two-band rows
        V = band_ops.inverse_kernel(mild_system, n)
        blocks = dict(matclass._probe_blocks(A, V, (n,))[n])
        for i in (0, 3, 7):
            block = blocks[i]
            assert block.shape == (i + 1, i + 1)  # row i of A ends at the diagonal
            _assert_support_is_family(block, A[i], V)

    def test_final_partial_sum_matches_e_to_rounding(self, mild_system, rng):
        n = 20
        A = rng.uniform(-1.0, 1.0, (n, n))
        E = matclass.e_matrix(A, mild_system, n)
        V = band_ops.inverse_kernel(mild_system, n)
        bound = _rounding_bound(A, V)
        for i, block in matclass._probe_blocks(A, V, (n,))[n]:
            assert np.all(np.abs(_family(block, n)[-1] - E[i]) <= bound[i])
        # every row's family is its companion D
        for i in range(n):
            assert np.all(np.abs(duals.companion_d(A[i], mild_system, n)[-1] - E[i]) <= bound[i])


def _oracle_input(kind: str, n: int) -> np.ndarray:
    rng = rng_from_seed(31)
    dense = rng.uniform(-1.0, 1.0, (n, n))
    if kind == "lower_triangular":
        return np.tril(dense)
    if kind == "negated_triangular":  # -0.0 above the diagonal
        return -np.tril(np.abs(dense))
    if kind == "complex":
        return dense + 1j * rng.uniform(-1.0, 1.0, (n, n))
    if kind == "zero_rows_and_columns":
        dense[rng.random(n) < 0.3] = 0.0
        dense[:, rng.random(n) < 0.3] = 0.0
        return dense
    if kind == "zero":
        return np.zeros((n, n))
    return dense


class TestEMatrixOracle:
    """E and the partial-sum families against the literal cumulative-sum definition.

    The probe rows' support blocks are that definition, bit for bit: zero
    rows (left out), -0.0 entries, complex entries and full rows (a block of
    n x n); every row's family is its companion D, equal in value.
    E comes from the bidiagonal solve, which adds in another order, so it
    matches the last cumulative sum within the rounding bound; the bound is
    zero where every term is zero, so zero rows and the zero matrix stay
    exact in value.
    """

    @pytest.mark.parametrize(
        "kind", ["lower_triangular", "negated_triangular", "dense", "complex", "zero_rows_and_columns", "zero"]
    )
    @pytest.mark.parametrize("system", ["constant", "random"])
    def test_matches_cumulative_sum_definition(self, kind, system):
        n = 48
        # constant r=-1, s=1 has a negative inverse kernel, so zero terms can sum to -0.0
        sys = BandSystem.constant(-1.0, 1.0, 1.0, n) if system == "constant" else random_band_system(rng_from_seed(7), n)
        A = _oracle_input(kind, n)
        E = matclass.e_matrix(A, twin(sys), n)
        V = band_ops.inverse_kernel(sys, n)
        bound = _rounding_bound(A, V)
        blocks = matclass._probe_blocks(A, V, (n,))[n]
        _assert_blocks_are_oracle(blocks, A, V, n)
        for i, block in blocks:
            _assert_support_is_family(block, A[i], V)
        for i in range(n):
            family = np.cumsum(A[i][:, None] * V, axis=0)
            assert np.array_equal(duals.companion_d(A[i], sys, n), family)
            assert np.all(np.abs(E[i] - family[-1]) <= bound[i])


def _dense_partial_value(cond_id: str, families: list, n: int, pk, qn, L, M) -> float:
    """mt23 and mt25-mt28 read off the full n x n families of the probe rows."""
    win = window(n)
    worst = 0.0
    for i, rows in enumerate(families):
        if cond_id in ("mt23", "mt25"):
            block = rows[win]
            if block.size:
                worst = max(worst, float(np.max(np.abs(block.max(axis=0) - block.min(axis=0)))))
        elif cond_id in ("mt26", "mt27"):
            w = float(M) ** (-1.0 / pk)
            if cond_id == "mt27":
                w = float(L) ** (1.0 / qn[i]) * w
            worst = max(worst, float(np.max(np.abs(rows) @ w)))
        else:
            last = rows[-1]
            fit = complex(np.median(last.real), np.median(last.imag)) if np.iscomplexobj(last) else float(np.median(last))
            dev = np.abs(np.tril(rows[win] - fit, win.start)).sum(axis=1)
            worst = max(worst, float(np.max(dev)) if dev.size else 0.0)
    return worst


class TestPartialConditionsOracle:
    """The partial-sum conditions on support blocks against the same formulas on full n x n families.

    mt23, mt25 and mt28 match bit for bit; mt26 and mt27 sum |S| w in
    another order (a shorter dot product), so they match within n eps.
    Rung 6 has its window (rows 4-5) inside the support of the lower
    triangular probe rows, rungs 12 and 48 start it past their support;
    full rows have stop = n and zero rows stop = 0.
    """

    @pytest.mark.parametrize("cond_id", ["mt23", "mt25", "mt26", "mt27", "mt28"])
    @pytest.mark.parametrize("kind", ["lower_triangular", "negated_triangular", "dense", "complex", "zero_rows_and_columns"])
    @pytest.mark.parametrize("n", [6, 12, 48])
    def test_support_blocks_match_dense_families(self, n, kind, cond_id):
        sys = random_band_system(rng_from_seed(7), n)
        A = _oracle_input(kind, 48)[:n, :n]
        if kind == "zero_rows_and_columns":
            A[2] = 0.0  # a zero probe row at every rung
        V = band_ops.inverse_kernel(sys, n)
        families = [np.cumsum(A[i][:, None] * V, axis=0) for i in range(min(8, n))]
        p = ExponentSeq(np.linspace(1.0, 3.0, n))
        q = np.linspace(1.0, 2.0, n)
        spec = matclass.CONDITIONS[cond_id]
        rung = matclass._Rung(spec, matclass._probe_blocks(A, V, (n,))[n], n, p, q, None, None, matclass._Workspace([n]))
        witnesses = [(2, 2), (16, 4), (256, 256)] if cond_id == "mt27" else [(None, 2), (None, 4), (None, 256)]  # mt26 binds M alone
        for L, M in [(None, None)] if cond_id in ("mt23", "mt25", "mt28") else witnesses:
            got, dev = spec.evaluate(rung, L, M)
            want = _dense_partial_value(cond_id, families, n, p.p[:n], q[:n], L, M)
            if cond_id in ("mt26", "mt27"):
                assert dev is None
                assert abs(got - want) <= n * EPS * want
            else:
                assert got == want and dev == got


# rational band systems whose every parameter is a double, so Fraction(r) is r itself
RATIONAL_SYSTEMS = {
    "constant": BandSystem.constant(-1.0, 1.0, 1.0, 24),
    "contracting": BandSystem.constant(2.0, 1.0, 3.0, 24),
    "expanding": BandSystem.constant(2.0, 3.0, 0.5, 24),
}


def _exact_composition(A: np.ndarray, sys: BandSystem) -> list[list[Fraction]]:
    """E = A V in exact arithmetic, V from its closed form (-1)^(j-k) (alpha_k / r_j) prod_{i=k..j-1} s_i / r_i."""
    n = A.shape[0]
    r, s, a = (list(map(Fraction, v.tolist())) for v in sys.params(n))
    V = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        prod = a[k]
        for j in range(k, n):
            V[j][k] = (-1) ** (j - k) * prod / r[j]
            prod *= s[j] / r[j]
    Af = [list(map(Fraction, row)) for row in A.tolist()]
    return [[sum((Af[i][j] * V[j][k] for j in range(k, n)), Fraction(0)) for k in range(n)] for i in range(n)]


class TestEMatrixExact:
    """E against the composition in exact rational arithmetic."""

    @pytest.mark.parametrize("matrix", ["cesaro", "dense"])
    @pytest.mark.parametrize("system", sorted(RATIONAL_SYSTEMS))
    def test_within_rounding_of_exact_composition(self, system, matrix):
        sys = RATIONAL_SYSTEMS[system]
        n = 24
        A = materialize_matrix(matrix, n) if matrix == "cesaro" else rng_from_seed(9).uniform(-1.0, 1.0, (n, n))
        E = matclass.e_matrix(A, twin(sys), n)
        exact = _exact_composition(A, sys)
        V = band_ops.inverse_kernel(sys, n)
        bound = _rounding_bound(A, V)
        blocks = dict(matclass._probe_blocks(A, V, (n,))[n])
        for i in range(n):
            probe = [_family(blocks[i], n)[-1]] if i in blocks else []
            for got in (E[i], duals.companion_d(A[i], sys, n)[-1], *probe):
                err = [abs(Fraction(v) - e) for v, e in zip(got.tolist(), exact[i])]
                assert all(e <= Fraction(b) for e, b in zip(err, bound[i].tolist()))


EXPANDING = BandSystem.constant(1.0, 4.0, 1.0, 600)  # V first overflows at n = 513 (tests/test_band_ops.py)


def _expanding_kernel(n: int) -> np.ndarray:
    """V of EXPANDING exactly: V[j, k] = (-4)^(j-k), a signed power of two up to 4^511 = 2^1022."""
    d = np.subtract.outer(np.arange(n), np.arange(n))
    return np.tril(np.where(d % 2 == 0, 1.0, -1.0) * np.ldexp(1.0, 2 * np.maximum(d, 0)))


class TestEMatrixOverflow:
    """On an expanding system E raises OverflowError where it leaves double precision, never returns inf.

    The kernel is the oracle for where that happens: e_matrix raises where
    V, or the product A V with it, stops being finite.
    Below that, E matches the product with the exact kernel within rounding.
    """

    def _assert_matches_exact_kernel(self, A, n):
        E = matclass.e_matrix(A, EXPANDING, n)
        dense, V = materialize_matrix(A, n), _expanding_kernel(n)
        assert np.all(np.abs(E - dense @ V) <= _rounding_bound(dense, V))

    def test_kernel_overflow_raises(self):
        self._assert_matches_exact_kernel("cesaro", 512)
        with pytest.raises(OverflowError):
            band_ops.inverse_kernel(EXPANDING, 513)
        with pytest.raises(OverflowError):
            matclass.e_matrix("cesaro", EXPANDING, 513)

    def test_composition_overflow_raises_with_a_finite_kernel(self):
        # |E| ~ 2^300 4^(n-1) / n: finite at n = 200, past the largest double at n = 400, where V is finite
        A = 2.0**300 * materialize_matrix("cesaro", 400)
        self._assert_matches_exact_kernel(A, 200)
        V = band_ops.inverse_kernel(EXPANDING, 400)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(A @ V).all()
        with pytest.raises(OverflowError):
            matclass.e_matrix(A, EXPANDING, 400)

    @pytest.mark.parametrize(
        "A, ladder",
        [
            pytest.param("cesaro", (16, 513), id="kernel"),
            pytest.param(2.0**300 * materialize_matrix("cesaro", 400), (200, 400), id="composition"),
        ],
    )
    def test_class_report_raises_the_same_overflow(self, A, ladder):
        with pytest.raises(OverflowError) as alone:
            matclass.e_matrix(A, EXPANDING, ladder[-1])
        with pytest.raises(OverflowError) as report:
            matclass.class_report(A, "sinf:c0", EXPANDING, p=ExponentSeq.constant(1.0, ladder[-1]), ladder=ladder)
        assert str(report.value) == str(alone.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cond_id", ["mt23", "mt25", "mt26", "mt27", "mt28"])
    def test_partial_sum_overflow_raises(self, cond_id):
        # each family of rows of 1e307 over the summation kernel passes the largest double; its inf - inf is a NaN
        # that max() would drop, so a verdict read off it would hold on no finite number
        n = 256
        p, q = ExponentSeq.constant(2.0, n), np.full(n, 1.5)
        with pytest.raises(OverflowError, match="companion entries overflow"):
            matclass.eval_condition(cond_id, A=np.full((n, n), 1e307), sys=BandSystem.difference(n), p=p, q=q, ladder=(64, 128, n))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_class_report_raises_on_a_family_overflow_with_a_finite_e(self):
        # row 0's family sums 1e308 + 1e308 in column 1, while E's row sums cancel at both rungs
        A = np.array([[-1e308, 1e308, 1e308, -1e308], [0.5, 0, 0, 0], [0.25, 0.25, 0, 0], [0.1, 0.1, 0.1, 0]])
        sys = BandSystem.difference(4)
        assert all(np.isfinite(matclass.e_matrix(A, sys, n)).all() for n in (2, 4))
        with pytest.raises(OverflowError, match="companion entries overflow"):
            matclass.class_report(A, "sinf:linf", sys, p=ExponentSeq.constant(2.0, 4), ladder=(2, 4))


def _column_solve(dense: np.ndarray, sys: BandSystem) -> np.ndarray:
    """E of one truncation by the bidiagonal recurrence, last column first, on a transposed copy of dense.

    E[:, k] = (alpha_k / r_k) (dense[:, k] - (s_k / alpha_{k+1}) E[:, k+1]), each
    step three float ufuncs over one row of the copy (a complex one viewed as
    float pairs): the per-rung solve that every rung's E must reproduce.
    """
    r, s, a = sys.params(dense.shape[0])
    cols = np.array(dense.T, dtype=np.result_type(dense.dtype, np.float64), order="C")
    work = cols.view(np.float64)
    scale, carry = (a / r).tolist(), (s[:-1] / a[1:]).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        work[-1] *= scale[-1]
        for k in reversed(range(len(carry))):
            step = work[k + 1] * carry[k]
            np.subtract(work[k], step, out=work[k])
            np.multiply(work[k], scale[k], out=work[k])
    return np.ascontiguousarray(cols.T)


@settings(max_examples=80, deadline=None)
@given(
    rungs=st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True),
    rows=st.sampled_from(["full", "lower"]),
    field=st.sampled_from(["real", "complex"]),
    signs=st.sampled_from(["negative", "mixed"]),
    zeros=st.sampled_from(["-0.0", "+0.0"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_rung_e_matches_its_own_solve(rungs, rows, field, signs, zeros, seed):
    # a rung whose rows reach past it solves its own E: C-contiguous and bit for bit e_matrix at that rung and the
    # per-rung recurrence; a rung that reads the top rung's leading block matches them bit for bit where A's zeros
    # are +0.0, and up to the sign of a zero where they are -0.0: full and lower-triangular rows, and negative
    # carries s_k / alpha_{k+1}
    ladder = tuple(sorted(rungs))
    top = ladder[-1]
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (top, top))
    zero = float(zeros)
    if field == "complex":
        A = A + 1j * rng.uniform(-1.0, 1.0, (top, top))
        zero = complex(zero, zero)
    A[rng.random((top, top)) < 0.2] = zero
    if rows == "lower":
        A[np.triu_indices(top, 1)] = zero
    s = rng.uniform(0.3, 2.0, top) * (-1.0 if signs == "negative" else rng.choice([-1.0, 1.0], top))
    sys = BandSystem(rng.uniform(0.5, 2.5, top) * rng.choice([-1.0, 1.0], top), s, rng.uniform(0.5, 2.0, top))
    sources, _ = matclass._ladder_sources({"E", "partial"}, A, sys, None, ladder)
    V = band_ops.inverse_kernel(twin(sys), top)
    for n in ladder:
        E = matclass.e_matrix(A, twin(sys), n)
        got = sources[n]["E"]
        assert got.dtype == E.dtype and E.tobytes() == _column_solve(A[:n, :n], sys).tobytes()
        own = n == top or A[:n, n:].any()
        assert got.flags.c_contiguous or not own
        if own or zeros == "+0.0":
            assert got.tobytes() == E.tobytes()
        else:
            assert (got + 0.0).tobytes() == (E + 0.0).tobytes()
        _assert_blocks_are_oracle(sources[n]["partial"], A, V, n)


@settings(max_examples=80, deadline=None)
@given(
    rungs=st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True),
    field=st.sampled_from(["real", "complex"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_probe_blocks_are_the_cumulative_sum_at_every_rung(rungs, field, seed):
    # the families built once at the top rung give every rung the literal cumulative sum over its stop x stop
    # block, bit for bit and in its dtype: interior zero gaps and trailing zeros (so a row's stop differs between
    # rungs), zero rows, -0.0 entries, and complex rows beside real ones in a complex A
    ladder = tuple(sorted(rungs))
    top = ladder[-1]
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (top, top))
    zero = -0.0
    if field == "complex":
        A = A + 1j * rng.uniform(-1.0, 1.0, (top, top))
        A.imag[rng.random(top) < 0.5] = 0.0
        zero = complex(-0.0, -0.0)
    A[rng.random((top, top)) < 0.3] = zero
    A[np.arange(top) >= rng.integers(0, top + 1, top)[:, None]] = zero  # row i ends at a random column, 0 for a zero row
    sys = BandSystem(rng.uniform(0.5, 2.5, top) * rng.choice([-1.0, 1.0], top), rng.uniform(-2.0, 2.0, top), rng.uniform(0.5, 2.0, top))
    sources, _ = matclass._ladder_sources({"partial"}, A, sys, None, ladder)
    V = band_ops.inverse_kernel(twin(sys), top)
    for n in ladder:
        _assert_blocks_are_oracle(sources[n]["partial"], A, V, n)


@pytest.mark.parametrize("rows", ["full", "lower"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_long_ladder_solves_e_once_on_lower_triangular_rows(monkeypatch, rows, field):
    # twelve evenly spaced rungs: on full rows every rung solves its own E at its own n, and on np.tril of the same
    # A the top rung's one solve serves every rung; either way every rung's E is e_matrix's at that rung, bit for
    # bit, and the block is the solved rungs' E regions, a slot per rung and the scratch, no larger
    ladder = tuple(range(8, 97, 8))
    top = ladder[-1]
    rng = rng_from_seed(13)
    A = rng.uniform(-1.0, 1.0, (top, top))
    width = 1
    if field == "complex":
        A, width = A + 1j * rng.uniform(-1.0, 1.0, (top, top)), 2
    if rows == "lower":
        A = np.tril(A)
    sys = BandSystem(rng.uniform(0.5, 2.5, top) * rng.choice([-1.0, 1.0], top), rng.uniform(-2.0, 2.0, top), rng.uniform(0.5, 2.0, top))
    solves = []
    original = matclass._compose

    def recorded(dense, sys, n, buf=None):
        solves.append(n)
        return original(dense, sys, n, buf)

    monkeypatch.setattr(matclass, "_compose", recorded)
    sources, work = matclass._ladder_sources({"E", "partial"}, A, sys, None, ladder)
    own = list(ladder) if rows == "full" else [top]
    assert solves == own
    regions = [*(width * n * n for n in own), *(n * n for n in ladder), width * top * top]
    assert work._block.size == sum(-(-size // 8) * 8 for size in regions)
    monkeypatch.setattr(matclass, "_compose", original)
    V = band_ops.inverse_kernel(twin(sys), top)
    for n in ladder:
        assert sources[n]["E"].tobytes() == matclass.e_matrix(A, twin(sys), n).tobytes()
        _assert_blocks_are_oracle(sources[n]["partial"], A, V, n)


class TestEvalCondition:
    def test_row_sum_condition_on_cesaro_rows(self):
        verdict = matclass.eval_condition("4.8", matrix="cesaro", sys=DELTA, ladder=LADDER)
        assert verdict.verdict == "holds"
        assert all(abs(v - 1.0) < 1e-12 for _, _, v in verdict.estimates)

    def test_row_sum_condition_exact_on_transformed_inverse(self):
        n = 128
        V = band_ops.inverse_kernel(DELTA, n)
        verdict = matclass.eval_condition("4.8", A=V, sys=DELTA, ladder=LADDER)
        assert verdict.verdict == "holds"
        assert all(v == 1.0 for _, _, v in verdict.estimates)

    def test_deflated_rows_on_identity_composition(self):
        p = ExponentSeq.constant(1.0, 128)
        verdict = matclass.eval_condition("mt37", A="difference", sys=DELTA, p=p, ladder=LADDER)
        assert verdict.verdict == "holds"
        n0, witness, value = verdict.estimates[0]
        assert witness == "M=2" and abs(value - 0.5) < 1e-15

    def test_vanishing_row_sums_fail_on_identity_composition(self):
        verdict = matclass.eval_condition("mt40", A="difference", sys=DELTA, q=np.ones(128), ladder=LADDER)
        assert verdict.verdict == "fails"
        assert abs(verdict.estimates[-1][2] - 1.0) < 1e-15
        assert verdict.last_deviation == pytest.approx(1.0)

    def test_stabilization_condition_exact_for_banded(self, mild_system):
        verdict = matclass.eval_condition("mt23", A="difference", sys=mild_system, ladder=LADDER)
        assert verdict.verdict == "holds"
        assert all(v == 0.0 for _, _, v in verdict.estimates)

    def test_partial_conditions_solve_no_composed_matrix(self, monkeypatch):
        def unused(*args):
            raise AssertionError("E solved for a partial-sum condition")

        monkeypatch.setattr(matclass, "_compose", unused)
        p = ExponentSeq.constant(2.0, 128)
        for cid in ("mt23", "mt25", "mt26", "mt27", "mt28"):
            matclass.eval_condition(cid, A="cesaro", sys=DELTA, p=p, q=np.full(128, 1.5), ladder=LADDER)
        # V is read first, so an overflowing kernel raises before any family is built
        with pytest.raises(OverflowError):
            matclass.eval_condition("mt23", A="cesaro", sys=EXPANDING, ladder=(64, 513))

    def test_missing_inputs_rejected(self):
        with pytest.raises(ValueError):
            matclass.eval_condition("mt33", A="cesaro", sys=DELTA, p=ExponentSeq.constant(1.0, 128), ladder=LADDER)
        with pytest.raises(ValueError):
            matclass.eval_condition("mt24", A="cesaro", sys=DELTA, ladder=LADDER)

    def test_conjugate_guard(self):
        p_small = ExponentSeq.constant(0.5, 128)
        with pytest.raises(ValueError):
            matclass.eval_condition("L2.7i", matrix="cesaro", p=p_small, ladder=LADDER)

    def test_unknown_condition(self):
        with pytest.raises(KeyError):
            matclass.eval_condition("mt99", ladder=LADDER)

    def test_q_monotonicity_warning(self):
        q = np.concatenate([np.full(64, 2.0), np.full(64, 1.0)])
        with pytest.warns(UserWarning):
            matclass.eval_condition("mt40", A="difference", sys=DELTA, q=q, ladder=LADDER)

    def test_generic_matrix_conditions(self):
        p = ExponentSeq.constant(1.0, 128)
        v = matclass.eval_condition("L2.5", matrix="cesaro", p=p, ladder=LADDER)
        assert v.verdict == "holds"
        v215 = matclass.eval_condition("2.15", matrix="cesaro", ladder=LADDER)
        assert v215.verdict == "holds"  # columns 1/(n+1) -> 0

    def test_partial_concentration_fit_is_invariant_under_unimodular_scales(self):
        # a complex family fits the medians of its real and imaginary parts, so mt28 reads
        # the same deviations for every scale of modulus one
        sys = BandSystem.constant(2.0, 1.0, 1.0, 64)
        runs = [
            matclass.eval_condition("mt28", A=np.full((64, 64), 1 / 64) * s, sys=sys, ladder=(16, 32, 64))
            for s in (1, -1, 1j, -1j)
        ]
        estimates = [[v for _, _, v in run.estimates] for run in runs]
        assert all(e == pytest.approx(estimates[0], rel=1e-12) for e in estimates[1:])
        assert all(0.005 < v < 0.006 for v in estimates[0])

    @pytest.mark.parametrize("scale", [1 + 1j, 1j])
    def test_complex_column_limits_are_fitted_complex(self, scale):
        # every column is eventually constant, so the limits exist; a real fit of beta_k
        # would leave a deviation of |imag(scale)| = 1
        v = matclass.eval_condition("L2.4b", matrix=np.tril(np.ones((64, 64))) * scale, ladder=(16, 32, 64))
        assert v.verdict == "holds" and v.last_deviation == 0.0
        assert v.fitted["beta_k_head"] == [scale.real] * 8


class TestClassReport:
    def test_averaging_rows_are_regular(self):
        n = 128
        S = make_matrix("summation", n)
        C = make_matrix("cesaro", n)
        report = matclass.class_report(S @ C, "c:sc_reg", DELTA, ladder=LADDER)
        assert report.aggregate == "holds"
        ids = [c.cond_id for c in report.conditions]
        assert ids == ["4.1", "4.2z", "4.5"]

    def test_zero_matrix_fails_regularity(self):
        report = matclass.class_report("zero", "c:sc_reg", DELTA, ladder=LADDER)
        assert report.aggregate == "fails"
        v45 = next(c for c in report.conditions if c.cond_id == "4.5")
        assert v45.verdict == "fails"

    def test_transformed_inverse_is_regular_but_not_statistically(self):
        n = 256
        V = band_ops.inverse_kernel(DELTA, n)
        ladder = (64, 128, 256)
        assert matclass.class_report(V, "c:sc_reg", DELTA, ladder=ladder).aggregate == "holds"
        streg = matclass.class_report(V, "st:sc_reg", DELTA, ladder=ladder)
        assert streg.aggregate == "fails"  # rows over the squares keep hitting 1

    def test_averaging_rows_pass_the_statistical_class(self):
        n = 256
        S = make_matrix("summation", n)
        C = make_matrix("cesaro", n)
        ladder = (64, 128, 256)
        report = matclass.class_report(S @ C, "st:sc_reg", DELTA, ladder=ladder)
        assert report.aggregate == "holds"
        v46 = next(c for c in report.conditions if c.cond_id == "4.6")
        # mass over the squares shrinks like sqrt(n)/n
        assert v46.growth_exponent == pytest.approx(-0.5, abs=0.15)

    def test_composed_class_on_transform_target(self):
        p = ExponentSeq.constant(1.0, 128)
        report = matclass.class_report("difference", "sinf:linf", DELTA, p=p, ladder=LADDER)
        assert report.aggregate == "holds"
        assert [c.cond_id for c in report.conditions] == ["mt23", "mt24", "mt29"]

    def test_q_required_for_q_targets(self):
        p = ExponentSeq.constant(1.0, 128)
        with pytest.raises(ValueError):
            matclass.class_report("cesaro", "s0:c_q", DELTA, p=p, ladder=LADDER)

    def test_short_q_rejected(self):
        p = ExponentSeq.constant(1.0, 16)
        with pytest.raises(SchemaError, match="q of length 2 cannot serve truncation 16"):
            matclass.class_report("cesaro", "s0:c0_q", DELTA, p=p, q=[1.0, 1.0], ladder=(8, 16))

    def test_short_p_rejected(self):
        p = ExponentSeq.constant(1.0, 8)
        with pytest.raises(SchemaError, match="p of length 8 cannot serve truncation 16"):
            matclass.class_report("cesaro", "s0:c0_q", DELTA, p=p, q=np.ones(16), ladder=(8, 16))

    def test_p_and_q_may_be_array_likes(self):
        p, q, ladder = ExponentSeq.constant(2.0, 16), np.full(16, 1.5), (8, 16)
        report = matclass.class_report("cesaro", "sc:c_q", DELTA, p=p, q=q, ladder=ladder)
        assert matclass.class_report("cesaro", "sc:c_q", DELTA, p=[2.0] * 16, q=list(q), ladder=ladder) == report
        assert matclass.eval_condition("mt25", A="cesaro", sys=DELTA, p=[2.0] * 16, q=q, ladder=ladder) == report.conditions[0]

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_q_must_be_finite_and_positive(self, bad):
        p = ExponentSeq.constant(2.0, 16)
        q = np.full(16, 1.5)
        q[5] = bad
        with pytest.raises(SchemaError, match="q: exponents must be finite and strictly positive"):
            matclass.class_report("cesaro", "sc:c_q", DELTA, p=p, q=q, ladder=(8, 16))

    @pytest.mark.parametrize("ladder", [(0, 16), (-4, 16)])
    def test_rungs_below_one_rejected(self, ladder):
        with pytest.raises(ValueError, match=">= 1"):
            matclass.class_report("zero", "c:sc_reg", DELTA, ladder=ladder)
        with pytest.raises(ValueError, match=">= 1"):
            matclass.eval_condition("4.1", A="zero", sys=DELTA, ladder=ladder)

    def test_unknown_class(self):
        with pytest.raises(KeyError):
            matclass.class_report("cesaro", "nope", DELTA, ladder=LADDER)

    def test_rule_table_matches_dispatch(self):
        table = matclass.class_rule_table()
        assert table["s0:c_q"] == ["mt25", "mt26", "mt27", "mt36", "mt37", "mt38"]
        assert set(table) == set(matclass.CLASS_RULES)

    @pytest.mark.parametrize(
        "class_id, builder, matrix, builds",
        [
            pytest.param("sc:c_q", "_compose", "cesaro", 1, id="sc:c_q-compose"),
            pytest.param("sc:c_q", "_compose", "dense", 3, id="sc:c_q-compose-dense"),
            pytest.param("st:sc_reg", "btilde", "cesaro", 1, id="st:sc_reg-btilde"),
        ],
    )
    def test_sources_built_once_per_rung(self, monkeypatch, class_id, builder, matrix, builds):
        ladder = (16, 32, 64)
        p = ExponentSeq.constant(2.0, 64)
        q = np.full(64, 1.5)
        A = "cesaro" if matrix == "cesaro" else rng_from_seed(6).uniform(-1.0, 1.0, (64, 64))
        calls = {"e_matrix": 0, "_compose": 0, "btilde": 0}
        for name in calls:
            original = getattr(matclass, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(matclass, name, counted)
        report = matclass.class_report(A, class_id, DELTA, p=p, q=q, ladder=ladder)
        # btilde is built once at the top rung and lower rungs slice it; so is E on Cesaro's
        # lower-triangular rows, and on full rows each rung solves its own from its leading block of A
        assert calls[builder] == builds
        assert sum(calls.values()) == builds
        for cond in report.conditions:
            alone = matclass.eval_condition(cond.cond_id, A=A, sys=DELTA, p=p, q=q, ladder=ladder)
            assert cond.to_json() == alone.to_json()

    @pytest.mark.parametrize("system", ["constant", "random"])
    @pytest.mark.parametrize("matrix", ["cesaro", "dense"])
    def test_top_rung_blocks_match_per_rung_builds(self, monkeypatch, system, matrix):
        ladder = (8, 24, 48)
        sys = BandSystem.constant(-1.0, 1.0, 1.0, 48) if system == "constant" else random_band_system(rng_from_seed(5), 48)
        A = "cesaro" if matrix == "cesaro" else rng_from_seed(6).uniform(-1.0, 1.0, (48, 48))
        seen = {}
        original = matclass._Rung

        def recording(spec, src, n, *args):
            seen[spec.source, n] = src
            return original(spec, src, n, *args)

        monkeypatch.setattr(matclass, "_Rung", recording)
        matclass.class_report(A, "st:sc_reg", sys, ladder=ladder)
        matclass.eval_condition("2.15", matrix=A, ladder=ladder)
        for n in ladder:
            assert seen["btilde", n].tobytes() == matclass.btilde(A, sys, n).tobytes()
            assert seen["matrix", n].tobytes() == materialize_matrix(A, n).tobytes()

    @staticmethod
    def _count_family_builds(monkeypatch) -> list:
        """Record the ladder and the per-rung probe rows of each family build."""
        calls = []
        original = matclass._probe_blocks

        def counted(dense, V, ladder):
            blocks = original(dense, V, ladder)
            calls.append({n: [i for i, _ in blocks[n]] for n in ladder})
            return blocks

        monkeypatch.setattr(matclass, "_probe_blocks", counted)
        return calls

    def test_probe_families_built_once_per_report(self, monkeypatch):
        calls = self._count_family_builds(monkeypatch)
        n = 256
        p, q = ExponentSeq.constant(2.0, n), np.full(n, 1.5)
        matclass.class_report("cesaro", "sc:c_q", DELTA, p=p, q=q, ladder=(64, 128, 256))
        # one build at the top rung, whose blocks every rung reads and mt25-mt28 share
        assert calls == [{m: list(range(8)) for m in (64, 128, 256)}]

    def test_conditions_on_e_build_no_support_blocks(self, monkeypatch):
        calls = self._count_family_builds(monkeypatch)
        n = 256
        A = rng_from_seed(5).uniform(-1.0, 1.0, (n, n))  # every row full, so a block would be 256 x 256
        matclass.eval_condition("mt24", A=A, sys=DELTA, p=ExponentSeq.constant(2.0, n), ladder=(64, 128, 256))
        assert calls == []

    def test_report_serialization(self):
        report = matclass.class_report("cesaro", "c:sc_reg", DELTA, ladder=(16, 32, 64))
        doc = report.to_json()
        assert doc["class"] == "c:sc_reg"
        assert {c["id"] for c in doc["conditions"]} == {"4.1", "4.2z", "4.5"}
        for cond in doc["conditions"]:
            assert "anchor" in cond and "estimates" in cond


def _lower_triangular_inputs(n: int) -> dict:
    rng = rng_from_seed(31)
    block = rng.uniform(-1.0, 1.0, (n, n))
    inputs = {name: name for name in ("cesaro", "riesz", "summation", "difference", "identity", "zero")}
    inputs["riesz_weighted"] = GeneratorSpec("riesz", {"t": np.linspace(1.0, 3.0, n)})
    inputs["band"] = GeneratorSpec("band", {"r": 2.0, "s": -1.0})
    inputs["double_band"] = GeneratorSpec("double_band", {"r": np.linspace(1.0, 2.0, n), "s": -np.linspace(0.5, 1.0, n)})
    inputs["random"] = np.tril(block)
    inputs["negated"] = -np.tril(np.abs(block))  # -0.0 above the diagonal
    inputs["complex"] = np.tril(block + 1j * rng.uniform(-1.0, 1.0, (n, n)))
    return inputs


def _per_rung_sources(kinds, A, sys, matrix, ladder):
    """E through the public builder and its probe rows' support blocks by the literal cumulative sum, at every rung, and a workspace.

    Each rung composes on an equal but separate system, so its V is a build of its own, not the shared one.
    """
    sources = {}
    for n in ladder:
        rung_sys = twin(sys)
        E = matclass.e_matrix(A, rung_sys, n)
        sources[n] = {"E": E, "partial": _oracle_blocks(materialize_matrix(A, n), band_ops.inverse_kernel(rung_sys, n), n)}
    return sources, matclass._Workspace(ladder, width=2 if np.iscomplexobj(E) else 1)


E_CLASSES = [cid for cid, ids in matclass.CLASS_RULES.items() if matclass.CONDITIONS[ids[0]].source in ("E", "partial")]


class TestComposedSources:
    LADDER = (8, 24, 48)

    @pytest.mark.parametrize("system", ["constant", "random"])
    @pytest.mark.parametrize("kind", list(_lower_triangular_inputs(48)))
    def test_leading_blocks_match_per_rung_compositions(self, system, kind):
        n_top = self.LADDER[-1]
        sys = BandSystem.constant(-1.0, 1.0, 1.0, n_top) if system == "constant" else random_band_system(rng_from_seed(7), n_top)
        A = _lower_triangular_inputs(n_top)[kind]
        sources, _ = matclass._ladder_sources({"E", "partial"}, A, sys, None, self.LADDER)
        for n in self.LADDER:
            rung_sys = twin(sys)
            E = matclass.e_matrix(A, rung_sys, n)
            assert np.array_equal(sources[n]["E"], E)
            if kind == "negated":  # -0.0 above the diagonal, where the top rung's solve may flip the sign of a zero
                assert (sources[n]["E"] + 0.0).tobytes() == (E + 0.0).tobytes()
            else:
                assert sources[n]["E"].tobytes() == E.tobytes()
            _assert_blocks_are_oracle(sources[n]["partial"], materialize_matrix(A, n), band_ops.inverse_kernel(rung_sys, n), n)

    @pytest.mark.parametrize("matrix", ["lower_triangular", "dense"])
    def test_class_reports_match_per_rung_compositions(self, monkeypatch, mild_system, matrix):
        n_top = self.LADDER[-1]
        A = _oracle_input(matrix, n_top)
        p = ExponentSeq.constant(2.0, n_top)
        q = np.full(n_top, 1.5)

        def render():
            return [
                canonical_dumps(matclass.class_report(A, cid, mild_system, p=p, q=q, ladder=self.LADDER).to_json())
                for cid in E_CLASSES
            ]

        assert len(E_CLASSES) == 9
        sliced = render()
        monkeypatch.setattr(matclass, "_ladder_sources", _per_rung_sources)
        assert render() == sliced

    def test_report_order_leaves_no_state(self):
        ladder = (16, 32, 64)
        n_top = ladder[-1]
        sys = random_band_system(rng_from_seed(5), n_top, amplification_cap=50.0)
        p = ExponentSeq.constant(2.0, n_top)
        q = np.full(n_top, 1.5)
        inputs = {"cesaro": "cesaro", "dense": np.tril(rng_from_seed(8).uniform(0.0, 2.0, (n_top, n_top)))}
        runs = [(name, cid) for name in inputs for cid in matclass.CLASS_RULES]
        assert len(matclass.CLASS_RULES) == 12

        def render(order):
            return {
                (name, cid): canonical_dumps(
                    matclass.class_report(inputs[name], cid, sys, p=p, q=q, ladder=ladder).to_json()
                )
                for name, cid in order
            }

        assert render(runs) == render(runs[::-1])


# condition ids that share one evaluator body and differ only in the witness-free array or source they read
TWIN_GROUPS = [
    ("S1", "L2.3"),
    ("S3", "S5", "L2.4a", "L2.5", "L2.4c", "mt37"),
    ("S9", "S11", "mt24", "mt29"),
    ("S12", "L2.6ii"),
    ("S13", "L2.6i"),
    ("S14", "L2.7i"),
    ("S15", "L2.7ii"),
    ("S4", "S16", "mt23", "mt25"),
    ("mt35", "mt38"),
]


@pytest.mark.parametrize("group", TWIN_GROUPS, ids=["-".join(g) for g in TWIN_GROUPS])
def test_twins_resolve_to_one_evaluator(group):
    specs = {**matclass.CONDITIONS, **matclass.DUAL_CONDITIONS}
    assert len({specs[cid].evaluate for cid in group}) == 1


def test_density_set_family_has_vanishing_density():
    from seqcore.cores import natural_density

    for name, mask in matclass.default_density_sets(4096):
        dens = natural_density(mask, (512, 1024, 2048, 4096))
        assert dens.values[-1][1] < dens.values[0][1] < 0.2


# the traced peak above a class report's block and A's materialized copy, by the source its conditions read: the
# E classes measured at most 153.4 KiB with an E region per rung (the probe rows' support blocks, cast buffers)
# and 115.9 KiB with E solved once at the top rung (its row views among them); the btilde classes 414.6 KiB with
# btilde's expression and its n x n temporaries, and 74.2-76.0 KiB on all four inputs with btilde's rows built in
# place and 4.3's window deviations in the slot.  btilde's bound sits 20 KiB above that maximum, so a single n x n
# float64 temporary (512 KiB at n = 256), or an n x n bool mask (64 KiB), beside the block fails it
CLASS_TRACE_BOUND = {"E": 192 * 1024, "btilde": 96 * 1024}
# on full rows every probe row's family is n x n, 4 MiB for the eight at n = 256: measured maxima of 4.09 MiB when
# only mt23 reads the families, and 8.78 MiB when mt26 and mt27 also take the blocks' moduli at every rung; blocks
# built per rung trace 5.76 and 10.03 MiB
FULL_ROW_TRACE_BOUND = {"mt23": 4.5 * 2**20, "mt26": 9.25 * 2**20}
# row 0 full and rows 1-7 lower triangular: row 0's family is n x n (0.5 MiB) and the others at most 8 x 8; measured
# maximum 0.69 MiB, where blocks built per rung traced 1.17 MiB and families sized by the largest stop 4.19 MiB
UNEVEN_ROW_TRACE_BOUND = 0.8 * 2**20


@pytest.mark.parametrize("class_id", sorted(matclass.CLASS_RULES))
@pytest.mark.parametrize("matrix", ["cesaro", "dense", "full", "uneven"])
def test_class_report_traces_little_beside_its_workspace(monkeypatch, matrix, class_id):
    # E and its solve's buffer live in the report's one block, and V on the system since the first call;
    # btilde and the probe rows' families (at most 8 x 8 on the lower-triangular inputs, n x n on full rows, each
    # row's own size on uneven ones) are arrays of their own
    n, ladder = 256, (64, 128, 256)
    sys = BandSystem.constant(2.0, 0.8, 1.2, n)
    p, q = ExponentSeq.constant(2.0, n), np.full(n, 1.5)
    dense = np.tril(rng_from_seed(0).uniform(0.0, 2.0, (n, n))) / np.arange(1.0, n + 1.0)[:, None]
    uneven = dense.copy()
    uneven[0] = rng_from_seed(22).uniform(0.5, 1.5, n)
    A = {"cesaro": "cesaro", "dense": dense, "full": rng_from_seed(22).uniform(0.5, 1.5, (n, n)), "uneven": uneven}[matrix]
    blocks = []
    original = matclass._Workspace

    class Recorded(original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            blocks.append(self._block.nbytes)

    monkeypatch.setattr(matclass, "_Workspace", Recorded)
    matclass.class_report(A, class_id, sys, p=p, q=q, ladder=ladder)  # first calls import and cache what they use
    blocks.clear()
    tracemalloc.start()
    try:
        matclass.class_report(A, class_id, sys, p=p, q=q, ladder=ladder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (block,) = blocks
    rules = matclass.CLASS_RULES[class_id]
    source = "btilde" if matclass.CONDITIONS[rules[0]].source == "btilde" else "E"
    if source == "E":  # E at the top rung and at every rung whose rows reach past it, a slot per rung, and the scratch
        solved = ladder if matrix in ("full", "uneven") else ladder[-1:]
        assert block >= 8 * (sum(m * m for m in solved) + sum(m * m for m in ladder) + n * n)
    bound = CLASS_TRACE_BOUND[source]
    if source == "E" and matrix in ("full", "uneven"):
        bound = FULL_ROW_TRACE_BOUND["mt26" if "mt26" in rules else "mt23"] if matrix == "full" else UNEVEN_ROW_TRACE_BOUND
    assert peak <= block + n * n * 8 + bound


# (evaluator, the witness bound: inflating L or deflating M) -> its value at witness B computed on fresh arrays
# (G the complex source, pk and conj the exponents)
FRESH_COMPLEX = {
    ("weighted_subset_columns", "M"): lambda G, B, pk, conj: duals.subset_estimate(G, "columns", float(B) ** (-1.0 / pk)),
    ("weighted_subset_columns", "L"): lambda G, B, pk, conj: duals.subset_estimate(G, "columns", float(B) ** (1.0 / pk)),
    ("subset_rows_conjugate", "M"): lambda G, B, pk, conj: duals.subset_estimate(G / float(B), "rows", None, conj),
    ("power_rows_conjugate", "M"): lambda G, B, pk, conj: duals.power_row_sup(G / float(B), conj),
}


@pytest.mark.parametrize("n", [16, 48], ids=["exact", "bound"])
@pytest.mark.parametrize("evaluator, witness", sorted(FRESH_COMPLEX))
def test_complex_witness_temporaries_in_the_workspace_match_fresh_arrays(evaluator, witness, n):
    # a complex quotient or weighted product is staged in the scratch and its modulus taken in the slot:
    # the value is that of the functional on fresh arrays, bit for bit, whatever the block held before
    rng = rng_from_seed(11)
    G = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    G[rng.random((n, n)) < 0.2] = complex(-0.0, -0.0)
    p = ExponentSeq(1.5 + rng.uniform(0.0, 1.5, n))
    work = matclass._Workspace([n], width=2)
    work._block.fill(np.nan)
    spec = next(spec for spec in matclass.DUAL_CONDITIONS.values() if spec.evaluate is getattr(matclass._Rung, evaluator))
    rung = matclass._Rung(spec, G, n, p, None, np.zeros(n), None, work)
    for B in (2, 16, 256):
        got, _ = getattr(rung, evaluator)(*((B, None) if witness == "L" else (None, B)))
        fresh = FRESH_COMPLEX[evaluator, witness](G, B, p.p, p.conjugate())
        assert np.float64(got).tobytes() == np.float64(fresh).tobytes()


@pytest.mark.parametrize("builder", ["deviations", "lower_deviations", "window_deviation_sums"])
def test_complex_deviations_in_the_workspace_match_fresh_arrays(builder):
    n = 48
    rng = rng_from_seed(12)
    G = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    beta_k = G[-1].copy()
    work = matclass._Workspace([n], width=2)
    work._block.fill(np.nan)
    spec = matclass.DUAL_CONDITIONS["S5"]
    rung = matclass._Rung(spec, G, n, ExponentSeq.constant(2.0, n), None, beta_k, None, work)
    fresh = np.abs(G - beta_k[None, :])
    if builder == "lower_deviations":
        fresh = np.tril(fresh)
    if builder == "window_deviation_sums":  # condition 4.3: the window's rows in the first rows of the slot, then summed
        fresh = np.abs(G[window(n)] - beta_k[None, :]).sum(axis=1)
    assert getattr(rung, builder)(G).tobytes() == fresh.tobytes()
