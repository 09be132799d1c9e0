import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcore import band_ops, duals, matclass
from seqcore.generators import make_sequence, random_band_system, rng_from_seed
from seqcore.io import SchemaError, canonical_dumps
from seqcore.types import BandSystem, ExponentSeq, FiniteSeq

from conftest import complex_uniform, twin

PLUS = BandSystem.constant(1.0, 1.0, 1.0, 512)
TWO_ONE = BandSystem.constant(2.0, 1.0, 1.0, 512)


class TestCompanions:
    def test_unit_weights_give_inverse_kernel(self):
        C = duals.companion_c(np.ones(8), TWO_ONE, 8)
        V = band_ops.inverse_kernel(TWO_ONE, 8)
        assert np.array_equal(C, V)

    def test_zero_weights_give_zero(self):
        assert np.all(duals.companion_c(np.zeros(6), PLUS, 6) == 0)
        assert np.all(duals.companion_d(np.zeros(6), PLUS, 6) == 0)

    def test_unit_impulse_companion_d(self):
        n = 6
        a = make_sequence("e_n", n, k=0)
        D = duals.companion_d(a, TWO_ONE, n)
        expected = np.zeros((n, n))
        expected[:, 0] = TWO_ONE.alpha[0] / TWO_ONE.r[0]
        assert np.allclose(D, expected, rtol=1e-13)

    def test_length_guard(self):
        with pytest.raises(ValueError):
            duals.companion_c(np.ones(4), PLUS, 8)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
    def test_complex_companion_is_the_broadcast_product_bit_for_bit(self, n, seed):
        # the complex builder scales V + 0j in place instead of casting V in the product's buffers;
        # signed zeros in the weights and in V (negative r) must come out the same
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], (2, n))
        sys = BandSystem(signs[0] * rng.uniform(0.5, 2.0, n), signs[1] * rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n))
        w = complex_uniform(rng, n)
        w.real[rng.random(n) < 0.3] = -0.0
        w.imag[rng.random(n) < 0.3] = -0.0
        w[0] = complex(w[0].real, 0.5)  # some imaginary part is nonzero, so C is complex
        V = band_ops.inverse_kernel(sys, n)
        C = duals.companion_c(w, sys, n)
        assert C.dtype == np.complex128
        assert C.tobytes() == (w[:, None] * V).tobytes()
        assert duals.companion_d(w, sys, n).tobytes() == np.cumsum(w[:, None] * V, axis=0).tobytes()

    def test_companion_c_overflow_raises(self):
        # V of r = 1, s = 4 reaches 4^511 at n = 512, so C = 1e300 V overflows; D is C's column cumsum
        expanding, a = BandSystem.constant(1.0, 4.0, 1.0, 512), np.full(512, 1e300)
        assert np.isfinite(band_ops.inverse_kernel(expanding, 512)).all()
        with np.errstate(all="raise"):  # no numpy overflow warning escapes the builders
            for companion in (duals.companion_c, duals.companion_d):
                with pytest.raises(OverflowError, match="^companion entries overflow double precision"):
                    companion(a, expanding, 512)

    def test_companion_d_overflow_raises(self):
        # on the difference system C = 1e308 is finite and its column cumsum reaches 32e308
        a = np.full(32, 1e308)
        with np.errstate(all="raise"):
            assert np.isfinite(duals.companion_c(a, BandSystem.difference(32), 32)).all()
            with pytest.raises(OverflowError, match="^companion entries overflow double precision"):
                duals.companion_d(a, BandSystem.difference(32), 32)

    def test_multiplier_identities(self, rng):
        worst = 0.0
        for _ in range(20):
            sys = random_band_system(rng, 64)
            a = FiniteSeq(rng.uniform(-1.0, 1.0, 64))
            y = FiniteSeq(complex_uniform(rng, 64))
            r_c, r_d = duals.companion_identity_residuals(a, y, sys)
            worst = max(worst, r_c, r_d)
        assert worst < 1e-8


class TestSubsetSup:
    def test_two_by_two_example(self):
        assert duals.subset_sup(np.array([[1.0, -1.0], [1.0, 1.0]])) == 2.0

    def test_nonnegative_matrix_takes_everything(self, rng):
        mat = rng.uniform(0.0, 1.0, (6, 6))
        assert duals.subset_sup(mat) == pytest.approx(mat.sum(), rel=1e-15)

    def test_single_column(self, rng):
        col = rng.uniform(-1.0, 1.0, (7, 1))
        assert duals.subset_sup(col) == pytest.approx(np.abs(col).sum(), rel=1e-15)

    def test_rows_axis_transposes(self, rng):
        mat = rng.uniform(-1.0, 1.0, (5, 8))
        assert duals.subset_sup(mat, axis="rows") == duals.subset_sup(mat.T, axis="columns")

    def test_exact_limit_enforced(self):
        with pytest.raises(ValueError):
            duals.subset_sup(np.ones((2, 21)), mode="exact")

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("mode", ["exact", "bound"])
    def test_weights_must_be_finite_and_positive(self, bad, mode):
        with pytest.raises(ValueError, match="weights must be finite and positive"):
            duals.subset_sup([[1.0, 2.0]], weights=[bad, 1.0], mode=mode)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("mode", ["exact", "bound"])
    def test_outer_exponents_must_be_finite_and_positive(self, bad, mode):
        with pytest.raises(ValueError, match="outer exponents must be finite and positive"):
            duals.subset_sup([[1.0, 2.0]], outer_exponents=[bad], mode=mode)

    def test_bound_mode_brackets_exact(self, rng):
        for _ in range(20):
            mat = rng.uniform(-1.0, 1.0, (6, 6))
            bound = duals.subset_sup(mat, mode="bound")
            exact = duals.subset_sup(mat, mode="exact")
            assert exact <= bound


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _recursive_subset_sup(matrix, axis="columns", weights=None, outer_exponents=None):
    """The depth-first recursive branch and bound, the oracle of ``subset_sup(mode="exact")``."""
    W = duals._working_matrix(matrix, axis, weights)
    e = np.ones(W.shape[0]) if outer_exponents is None else np.asarray(outer_exponents, dtype=np.float64)
    absW = np.abs(W)
    ncols = W.shape[1]
    order = np.argsort(-absW.sum(axis=0))
    Wo = W[:, order]
    rem = np.zeros((W.shape[0], ncols + 1))
    rem[:, :-1] = np.abs(Wo)[:, ::-1].cumsum(axis=1)[:, ::-1]
    best = duals._canonical_objective(W, list(range(ncols)), e)

    def descend(j, vec, picked):
        nonlocal best
        if j == ncols:
            cols = sorted(int(order[i]) for i in picked)
            best = max(best, duals._canonical_objective(W, cols, e))
            return
        ub = float(((np.abs(vec) + rem[:, j]) ** e).sum())
        if ub * (1.0 + 1e-9) <= best:
            return
        descend(j + 1, vec + Wo[:, j], picked + [j])
        descend(j + 1, vec, picked)

    descend(0, np.zeros(W.shape[0], dtype=W.dtype), [])
    return best


def _subset_test_matrix(family, rng, rows, cols, complex_entries):
    mat = rng.uniform(-1.0, 1.0, (rows, cols))
    if complex_entries:
        mat = mat + 1j * rng.uniform(-1.0, 1.0, (rows, cols))
    if family == "all_zero":
        mat[...] = 0.0
    elif family == "zero_columns":
        mat[:, rng.uniform(size=cols) < 0.5] = 0.0
    elif family == "duplicated_columns":
        mat = mat[:, rng.integers(0, max(1, cols // 2), cols)]
    elif family == "negated_pairs":
        mat[:, 1::2] = -mat[:, 0::2][:, : cols // 2]
    elif family == "negative_zero":
        mat[rng.uniform(size=mat.shape) < 0.5] = -0.0
    elif family == "single_row":
        mat = mat[:1]
    elif family == "single_column":
        mat = mat[:, :1]
    elif family == "decimal_ties":
        # many subsets share an exact sum that different summation orders round apart
        mat = rng.integers(-3, 4, mat.shape) / 10.0
        if complex_entries:
            mat = mat + 1j * rng.integers(-3, 4, mat.shape) / 10.0
    elif family in ("nan_entries", "inf_entries"):
        hit = rng.uniform(size=mat.shape) < 0.1
        hit[rng.integers(mat.shape[0]), rng.integers(mat.shape[1])] = True
        mat[hit] = np.nan if family == "nan_entries" else rng.choice([np.inf, -np.inf], size=int(hit.sum()))
    return mat


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(
        [
            "random",
            "all_zero",
            "zero_columns",
            "duplicated_columns",
            "negated_pairs",
            "negative_zero",
            "single_row",
            "single_column",
            "decimal_ties",
            "overflow",
            "nan_entries",
            "inf_entries",
        ]
    ),
    seed=st.integers(min_value=0, max_value=2**30),
    rows=st.integers(min_value=1, max_value=12),
    cols=st.integers(min_value=1, max_value=12),
    complex_entries=st.booleans(),
    weighted=st.booleans(),
    powered=st.booleans(),
)
def test_subset_sup_equals_bruteforce(family, seed, rows, cols, complex_entries, weighted, powered):
    rng = rng_from_seed(seed)
    mat = _subset_test_matrix(family, rng, rows, cols, complex_entries)
    weights = rng.uniform(0.5, 2.0, mat.shape[1]) if weighted else None
    exponents = rng.uniform(0.5, 2.0, mat.shape[0]) if powered else None
    if family == "overflow":
        # row objectives from 1e200 to past the float range, so some subsets overflow and some do not
        exponents = rng.uniform(1.0, 100.0, mat.shape[0])
        mat = mat * 10.0 ** (rng.uniform(200.0, 330.0, (mat.shape[0], 1)) / exponents[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        exact = duals.subset_sup(mat, weights=weights, outer_exponents=exponents)
        brute = duals.subset_sup_bruteforce(mat, weights=weights, outer_exponents=exponents)
    assert _bits(exact) == _bits(brute)


def test_subset_sup_breaks_rounding_ties_like_bruteforce():
    # the near-best leaves must be re-scored, and pruned only with a rounding slack,
    # for the result to be the brute-force float among subsets tied in exact arithmetic
    for seed in range(100):
        rng = rng_from_seed(seed)
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(6, 13))
        mat = _subset_test_matrix("decimal_ties", rng, rows, cols, bool(seed % 2))
        assert _bits(duals.subset_sup(mat)) == _bits(duals.subset_sup_bruteforce(mat)), seed


def test_subset_sup_of_an_overflowing_objective_is_infinite():
    with np.errstate(over="ignore"):
        brute = duals.subset_sup_bruteforce([[1e160, -1e160]], outer_exponents=[2.0])
        assert duals.subset_sup([[1e160, -1e160]], outer_exponents=[2.0]) == brute == np.inf


def test_subset_sup_prunes_under_large_exponents(monkeypatch):
    # mixed signs and an exponent of 100: the pruning slack must stay relative to the
    # objectives, or all 2^16 leaves would be re-scored one by one
    rng = rng_from_seed(100)
    mat = 10.0 * rng.uniform(-1.0, 1.0, (16, 16))
    exponents = np.full(16, 100.0)
    calls = []
    canonical = duals._canonical_objective
    monkeypatch.setattr(duals, "_canonical_objective", lambda *args: calls.append(1) or canonical(*args))
    exact = duals.subset_sup(mat, outer_exponents=exponents)
    assert len(calls) < 1000
    assert _bits(exact) == _bits(_recursive_subset_sup(mat, outer_exponents=exponents))


@pytest.mark.parametrize("size", [16, 20])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_subset_sup_matches_recursive_solver_on_seeded_matrices(size, complex_entries):
    rng = rng_from_seed(1000 + size)
    mat = rng.uniform(-1.0, 1.0, (size, size))
    if complex_entries:
        mat = mat + 1j * rng.uniform(-1.0, 1.0, (size, size))
    assert _bits(duals.subset_sup(mat)) == _bits(_recursive_subset_sup(mat))


def test_subset_sup_matches_recursive_solver_on_companion_blocks():
    # the blocks S1 (C), S8 (D) and S13 (rows of D/B) read at truncation 16, for four fixed
    # weight families with a seeded scale; S1 and S8 at p = 1, S13 at p = 2
    n = 16
    rng = rng_from_seed(2)
    k = np.arange(n, dtype=np.float64)
    p1, p2 = ExponentSeq.constant(1.0, n), ExponentSeq.constant(2.0, n)
    for family, base in (("geometric", 0.5**k), ("harmonic_sq", 1.0 / (k + 1.0) ** 2), ("ones", np.ones(n)), ("linear", k + 1.0)):
        a = FiniteSeq(base * rng.uniform(0.5, 2.0))
        C, D = duals.companion_c(a, PLUS, n).real, duals.companion_d(a, PLUS, n).real
        for b in duals.DEFAULT_B_LADDER:
            for args in (
                (C, "columns", float(b) ** (-1.0 / p1.p)),
                (D, "columns", float(b) ** (1.0 / p1.p)),
                (D / float(b), "rows", None, p2.conjugate()),
            ):
                assert _bits(duals.subset_sup(*args)) == _bits(_recursive_subset_sup(*args)), (family, b, args[1])


def test_subset_sup_memory_is_bounded():
    rng = rng_from_seed(20)
    mat = rng.uniform(-1.0, 1.0, (20, 20)) + 1j * rng.uniform(-1.0, 1.0, (20, 20))
    tracemalloc.start()
    try:
        duals.subset_sup(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_sandwich_bound_on_random_real_matrices(rng):
    for _ in range(100):
        mat = rng.uniform(-1.0, 1.0, (8, 8))
        exact = duals.subset_sup(mat)
        total = np.abs(mat).sum()
        assert exact <= total <= 4.0 * exact


class TestRuleTable:
    def test_beta_dual_rule_for_vanishing_space(self):
        table = duals.dual_rule_table()
        assert table["s0.beta"] == ["S3", "S4", "S5"]

    def test_all_pairs_present(self):
        table = duals.dual_rule_table()
        assert set(table) == {f"{s}.{d}" for s in duals.SPACES for d in duals.DUALS}


# the (space, dual, p) pairs of the benchmark's dual_scan workload
DUAL_SCAN_PAIRS = (
    [(space, dual, 1.0) for space in ("s0", "sc", "sinf") for dual in ("alpha", "beta", "gamma")]
    + [("lp", "alpha", 1.0), ("lp", "gamma", 1.0)]
    + [("lp", dual, 2.0) for dual in ("alpha", "beta", "gamma")]
)


class TestDualReport:
    LADDER = (16, 32, 64)

    def test_finite_support_weight_holds_for_bounded_style_sets(self):
        a = make_sequence("e_n", 64, k=3)
        p = ExponentSeq.constant(1.0, 64)
        pairs = [
            ("s0", "alpha"),
            ("s0", "beta"),
            ("s0", "gamma"),
            ("sc", "alpha"),
            ("sc", "beta"),
            ("sc", "gamma"),
            ("sinf", "beta"),
            ("sinf", "gamma"),
        ]
        for space, dual in pairs:
            report = duals.dual_report(a, PLUS, p, space, dual, self.LADDER)
            assert report.aggregate == "holds", (space, dual, report)
        p2 = ExponentSeq.constant(2.0, 64)
        for dual in ("beta", "gamma"):
            assert duals.dual_report(a, PLUS, p2, "lp", dual, self.LADDER).aggregate == "holds"

    def test_finite_support_diverges_under_row_accumulating_sets(self):
        # S8, S12, S13 sum a constant column over row subsets, so even a unit
        # weight diverges under the formulas as written; the rule table keeps
        # them verbatim, hence these duals report failure by design.
        a = make_sequence("e_n", 64, k=3)
        assert (
            duals.dual_report(a, PLUS, ExponentSeq.constant(1.0, 64), "sinf", "alpha", self.LADDER).aggregate
            == "fails"
        )
        assert (
            duals.dual_report(a, PLUS, ExponentSeq.constant(2.0, 64), "lp", "alpha", self.LADDER).aggregate
            == "fails"
        )
        assert (
            duals.dual_report(a, PLUS, ExponentSeq.constant(0.5, 64), "lp", "alpha", self.LADDER).aggregate
            == "fails"
        )

    def test_factorial_weights_fail_alpha_dual(self):
        n = 64
        a = FiniteSeq(np.cumprod(np.concatenate([[1.0], np.arange(1.0, n)])))
        p = ExponentSeq.constant(1.0, n)
        report = duals.dual_report(a, PLUS, p, "sc", "alpha", self.LADDER)
        assert report.aggregate == "fails"
        s2 = next(c for c in report.conditions if c.cond_id == "S2")
        assert s2.verdict == "fails"
        assert s2.growth_exponent > 0.05

    def test_geometric_weights_hold(self):
        a = FiniteSeq(0.5 ** np.arange(64))
        p = ExponentSeq.constant(1.0, 64)
        report = duals.dual_report(a, PLUS, p, "s0", "alpha", self.LADDER)
        assert report.aggregate == "holds"
        report_c = duals.dual_report(a, PLUS, p, "sc", "alpha", self.LADDER)
        assert report_c.aggregate == "holds"

    def test_exponent_regime_dispatch(self):
        a = FiniteSeq(0.5 ** np.arange(64))
        low = ExponentSeq.constant(0.5, 64)
        high = ExponentSeq.constant(2.0, 64)
        rep_low = duals.dual_report(a, PLUS, low, "lp", "alpha", self.LADDER)
        assert [c.cond_id for c in rep_low.conditions] == ["S12"]
        rep_high = duals.dual_report(a, PLUS, high, "lp", "alpha", self.LADDER)
        assert [c.cond_id for c in rep_high.conditions] == ["S13"]

    @pytest.mark.parametrize("dual", duals.DUALS)
    def test_lp_pairs_take_array_like_and_scalar_exponents(self, dual):
        # the lp regime split reads p's terms, so p is coerced before it, as every other pair's p is
        a = FiniteSeq(0.5 ** np.arange(64))
        expected = canonical_dumps(duals.dual_report(a, PLUS, ExponentSeq.constant(2.0, 64), "lp", dual, self.LADDER).to_json())
        for p in ([2.0] * 64, 2.0):
            assert canonical_dumps(duals.dual_report(a, PLUS, p, "lp", dual, self.LADDER).to_json()) == expected

    def test_conjugate_conditions_reject_small_exponents(self):
        a = FiniteSeq(0.5 ** np.arange(64))
        p = ExponentSeq.constant(0.5, 64)
        with pytest.raises(ValueError):
            duals.dual_report(a, PLUS, p, "lp", "beta", self.LADDER)

    def test_mixed_regime_rejected(self):
        a = FiniteSeq(0.5 ** np.arange(64))
        p = ExponentSeq(np.where(np.arange(64) % 2 == 0, 0.5, 2.0))
        with pytest.raises(ValueError):
            duals.dual_report(a, PLUS, p, "lp", "alpha", self.LADDER)

    def test_empty_ladder_rejected(self):
        a = FiniteSeq(np.ones(8))
        p = ExponentSeq.constant(1.0, 8)
        with pytest.raises(ValueError):
            duals.dual_report(a, PLUS, p, "s0", "alpha", ())

    @pytest.mark.parametrize("ladder", [(0, 16), (-4, 16)])
    def test_rungs_below_one_rejected(self, ladder):
        a = FiniteSeq(np.ones(16))
        p = ExponentSeq.constant(1.0, 16)
        with pytest.raises(ValueError, match=">= 1"):
            duals.dual_report(a, PLUS, p, "s0", "gamma", ladder)

    @pytest.mark.parametrize("b_ladder", [(-2, 4), (0, 2), (1, 4), ()])
    def test_b_ladder_needs_witnesses_above_one(self, b_ladder):
        a = FiniteSeq(np.ones(16))
        p = ExponentSeq.constant(1.0, 16)
        with pytest.raises(ValueError, match="witness"):
            duals.dual_report(a, PLUS, p, "sinf", "beta", (8, 16), b_ladder)

    @pytest.mark.parametrize(
        "ladder, b_ladder",
        [((8.5, 16.9, 32), (2, 4)), ((8, 16, 32), (2.9, 4)), ((True, 8, 16), (2, 4)), ((8, 16), (np.True_, 4)), (16, (2, 4)), ((8, 16), 4)],
    )
    def test_a_rung_or_witness_that_is_not_an_integer_is_a_schema_error(self, ladder, b_ladder):
        # int() once read (8.5, 16.9, 32) as rungs 8, 16, 32, B = 2.9 as 2 and True as rung 1
        a, p = FiniteSeq(np.ones(32)), ExponentSeq.constant(1.0, 32)
        with pytest.raises(SchemaError, match="ladder must be"):
            duals.dual_report(a, PLUS, p, "sinf", "beta", ladder, b_ladder)

    @pytest.mark.parametrize(
        "ladder, b_ladder", [((16.0, 32.0), (2.0, 4.0, 16.0)), (np.array([16, 32]), np.array([2, 4, 16])), (range(16, 33, 16), [np.int64(2), 4, 16])]
    )
    def test_integral_floats_and_numpy_ints_give_the_bytes_of_plain_ints(self, ladder, b_ladder):
        a, p = FiniteSeq(0.5 ** np.arange(32)), ExponentSeq.constant(1.0, 32)
        plain = duals.dual_report(a, PLUS, p, "sinf", "beta", (16, 32), (2, 4, 16))
        assert canonical_dumps(duals.dual_report(a, PLUS, p, "sinf", "beta", ladder, b_ladder).to_json()) == canonical_dumps(plain.to_json())

    def test_short_exponents_rejected(self):
        a = FiniteSeq(np.ones(16))
        with pytest.raises(ValueError, match="cannot serve truncation 16"):
            duals.dual_report(a, PLUS, ExponentSeq(np.ones(3)), "s0", "gamma", (8, 16))

    @pytest.mark.parametrize("space, dual", sorted(duals.DUAL_RULES))
    def test_every_pair_needs_p(self, space, dual):
        with pytest.raises(SchemaError, match="needs the exponent sequence p"):
            duals.dual_report(FiniteSeq(np.ones(16)), PLUS, None, space, dual, (8, 16))

    def test_forall_quantifier_is_labelled(self):
        a = FiniteSeq(0.5 ** np.arange(64))
        p = ExponentSeq.constant(1.0, 64)
        report = duals.dual_report(a, PLUS, p, "sinf", "gamma", self.LADDER)
        s11 = report.conditions[0]
        assert s11.cond_id == "S11"
        if s11.verdict == "holds":
            assert s11.note == "tested ladder only"

    @pytest.mark.parametrize("weights", ["real", "complex"])
    @pytest.mark.parametrize("space, dual, p", DUAL_SCAN_PAIRS)
    def test_inverse_kernel_built_once_per_report(self, monkeypatch, space, dual, p, weights):
        calls = []
        original = duals.inverse_kernel

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(duals, "inverse_kernel", counted)
        a = FiniteSeq(0.5 ** np.arange(64) * (1.0 if weights == "real" else 1.0 + 1.0j))
        report = partial(duals.dual_report, a, PLUS, ExponentSeq.constant(p, 64), space, dual, self.LADDER)
        if weights == "complex" and (space, dual, p) == ("lp", "alpha", 1.0):  # S12, characterized for real weights only
            with pytest.raises(SchemaError):
                report()
            assert calls == []
            return
        report()
        assert len(calls) == 1

    def test_weights_past_the_top_rung_do_not_change_the_report(self):
        # a complex weight past n_max must not switch C to complex arithmetic
        a = 0.5 ** np.arange(64.0)
        tail = a.astype(np.complex128)
        tail[40] += 1e-3j
        sys = BandSystem.constant(2.0, 1.0, 1.0, 64)
        p = ExponentSeq.constant(0.8, 64)
        ladder = (8, 16, 32)
        plain = canonical_dumps(duals.dual_report(FiniteSeq(a), sys, p, "lp", "alpha", ladder).to_json())
        assert canonical_dumps(duals.dual_report(FiniteSeq(tail), sys, p, "lp", "alpha", ladder).to_json()) == plain

    def test_complex_row_sum_limit_is_fitted_complex(self):
        # S6 compares D's row sums with their fitted limit beta; with weights i 0.5^k the limit is
        # purely imaginary, and a beta cut to its real part leaves a deviation of 0.8 at every rung
        k = np.arange(256.0)
        sys = BandSystem.constant(2.0, 1.0, 1.0, 256)
        p = ExponentSeq.constant(1.0, 256)
        for weights in (0.5**k, 1j * 0.5**k):
            report = duals.dual_report(FiniteSeq(weights), sys, p, "sc", "beta", (64, 128, 256))
            s6 = next(c for c in report.conditions if c.cond_id == "S6")
            assert s6.verdict == "holds" and s6.last_deviation == 0.0
            assert s6.target == s6.fitted["beta"] == (0.0 if np.iscomplexobj(weights) else pytest.approx(0.8))

    @pytest.mark.parametrize("system", ["constant", "random"])
    @pytest.mark.parametrize("weights", ["real", "complex"])
    def test_top_rung_blocks_match_per_rung_companions(self, monkeypatch, system, weights):
        ladder = (8, 24, 48)
        sys = BandSystem.constant(-1.0, 1.0, 1.0, 48) if system == "constant" else random_band_system(rng_from_seed(5), 48)
        rng = rng_from_seed(6)
        a = FiniteSeq(rng.uniform(-1.0, 1.0, 48) if weights == "real" else complex_uniform(rng, 48))
        seen = {}
        original = matclass._Rung

        def recording(spec, src, n, *args):
            seen[spec.source, n] = src
            return original(spec, src, n, *args)

        monkeypatch.setattr(matclass, "_Rung", recording)
        for dual in ("alpha", "gamma"):  # the alpha conditions read C, the gamma conditions D
            duals.dual_report(a, sys, ExponentSeq.constant(1.0, 48), "sc", dual, ladder)
        for n in ladder:
            C, D = duals.companion_c(a, sys, n), duals.companion_d(a, sys, n)
            if weights == "real":
                C, D = C.real, D.real
            assert seen["C", n].tobytes() == C.tobytes()
            assert seen["D", n].tobytes() == D.tobytes()

    def test_report_serialization_shape(self):
        a = FiniteSeq(0.5 ** np.arange(64))
        p = ExponentSeq.constant(1.0, 64)
        doc = duals.dual_report(a, PLUS, p, "s0", "beta", self.LADDER).to_json()
        assert doc["space"] == "s0" and doc["dual"] == "beta"
        assert {c["id"] for c in doc["conditions"]} == {"S3", "S4", "S5"}
        for cond in doc["conditions"]:
            assert {"id", "verdict", "estimates", "growth_exponent", "kind"} <= set(cond)


WEIGHT_FAMILIES = {
    "geometric": lambda k: 0.5**k,
    "harmonic_sq": lambda k: 1.0 / (k + 1.0) ** 2,
    "ones": np.ones_like,
    "linear": lambda k: k + 1.0,
    # complex weights: a complex companion, and complex differences, quotients and products per witness
    "complex_geometric": lambda k: 0.5**k * (1.0 + 0.5j),
}


@pytest.mark.parametrize("family", sorted(WEIGHT_FAMILIES))
@pytest.mark.parametrize("space, dual, p", DUAL_SCAN_PAIRS)
def test_dual_report_traces_little_beside_its_workspace(monkeypatch, space, dual, p, family):
    # the companion, every rung's witness-free array and every witness's n x n temporaries live in the report's
    # one block; beside it the exact subset solver's frontier at n = 16, about 200 KiB, is the largest allocation,
    # and the first report on a system builds the system's V, one n x n array that later reports reuse
    n, ladder = 256, (16, 64, 256)
    sys = twin(PLUS)
    blocks = []
    original = matclass._Workspace

    class Recorded(original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            blocks.append(self._block.nbytes)

    monkeypatch.setattr(matclass, "_Workspace", Recorded)
    a = FiniteSeq(WEIGHT_FAMILIES[family](np.arange(n, dtype=np.float64)))
    if a.values.imag.any() and (space, dual, p) == ("lp", "alpha", 1.0):
        with pytest.raises(SchemaError):  # S12 is characterized for real weights only
            duals.dual_report(a, sys, ExponentSeq.constant(p, n), space, dual, ladder)
        assert blocks == []
        return
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            duals.dual_report(a, sys, ExponentSeq.constant(p, n), space, dual, ladder)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block = blocks[0]
    assert blocks == [block, block] and block >= 3 * n * n * 8  # the companion, the top rung's slot and the scratch
    assert peaks[0] <= block + n * n * 8 + 256 * 1024
    assert peaks[1] <= block + 256 * 1024


# S id, its class-catalog twin, the companion both read, and a (space, dual, exponent regime) that runs the S id
TWINS = [
    ("S1", "L2.3", "C", "s0", "alpha", "high"),
    ("S3", "L2.4a", "D", "s0", "gamma", "high"),
    ("S12", "L2.6ii", "D", "lp", "alpha", "low"),
    ("S13", "L2.6i", "D", "lp", "alpha", "high"),
    ("S14", "L2.7i", "D", "lp", "gamma", "high"),
    ("S15", "L2.7ii", "D", "lp", "gamma", "low"),
]


@pytest.mark.parametrize("weights", ["real", "complex"])
@pytest.mark.parametrize("s_id, twin, source, space, dual, regime", TWINS)
def test_dual_sets_equal_their_catalog_twins_on_the_companion(s_id, twin, source, space, dual, regime, weights):
    ladder = (8, 16, 32)
    n = ladder[-1]
    rng = rng_from_seed(7)
    signs = rng.choice([-1.0, 1.0], (2, n))
    sys = BandSystem(signs[0] * rng.uniform(0.5, 2.0, n), signs[1] * rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n))
    p = ExponentSeq(1.5 + rng.uniform(0.0, 1.5, n) if regime == "high" else rng.uniform(0.5, 1.0, n))
    a = FiniteSeq(rng.uniform(-1.0, 1.0, n) if weights == "real" else complex_uniform(rng, n))
    companion = (duals.companion_c if source == "C" else duals.companion_d)(a, sys, n)
    if weights == "real":
        companion = companion.real
    if s_id == "S12" and weights == "complex":  # signed column sups are defined for real entries only
        with pytest.raises(ValueError):
            duals.dual_report(a, sys, p, space, dual, ladder)
        with pytest.raises(ValueError):
            matclass.eval_condition(twin, matrix=companion, p=p, ladder=ladder)
        return
    (dual_verdict,) = [c for c in duals.dual_report(a, sys, p, space, dual, ladder).conditions if c.cond_id == s_id]
    twin_verdict = matclass.eval_condition(twin, matrix=companion, p=p, ladder=ladder)
    assert [(m, w and w.replace("B=", "M="), _bits(v)) for m, w, v in dual_verdict.estimates] == [
        (m, w, _bits(v)) for m, w, v in twin_verdict.estimates
    ]
    assert dual_verdict.verdict == twin_verdict.verdict


def test_reports_sharing_a_system_give_the_bytes_of_fresh_systems():
    # dual and class reports on one system share its read-only V, which grows with the largest top rung asked and
    # serves smaller tops their leading block; in either order every report renders as it does on a system of its
    # own, and the shared V ends with the bytes of a fresh build
    n = 64
    sys = random_band_system(rng_from_seed(12), n, amplification_cap=50.0)
    a = FiniteSeq(1.0 / np.arange(1.0, n + 1.0) ** 2)
    p, q = ExponentSeq.constant(2.0, n), np.full(n, 1.5)
    runs = [("dual", "s0", "beta", (8, 16, 32)), ("class", "sc:c_q", "cesaro", (16, 32, 64))]
    runs += [("dual", "sinf", "gamma", (16, 32, 64)), ("class", "s0:c_q", "cesaro", (8, 16, 32))]
    runs += [("dual", "lp", "gamma", (16, 32, 48)), ("class", "sinf:c", "cesaro", (16, 32, 48))]

    def render(run, system):
        kind, first, second, ladder = run
        if kind == "dual":
            report = duals.dual_report(a, system, p, first, second, ladder)
        else:
            report = matclass.class_report(second, first, system, p=p, q=q, ladder=ladder)
        return canonical_dumps(report.to_json())

    fresh = [render(run, twin(sys)) for run in runs]
    for order in (runs, runs[::-1]):
        shared = twin(sys)
        assert [render(run, shared) for run in order] == [fresh[runs.index(run)] for run in order]
        V = shared._inverse["V"]
        assert V.shape == (n, n) and not V.flags.writeable
        assert V.tobytes() == band_ops.inverse_kernel(twin(sys), n).tobytes()
