import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcore import band_ops, cores
from seqcore.generators import make_sequence, rng_from_seed
from seqcore.io import canonical_dumps
from seqcore.types import BandSystem, FiniteSeq

DELTA = BandSystem.difference(4096)
PLUS = BandSystem.constant(1.0, 1.0, 1.0, 4096)


def _st_oracle(dist: np.ndarray, density_tol: float) -> np.ndarray:
    """Row-wise statistical limsup by exceedance counts: sort each row, count v > row[i]."""
    d = np.sort(np.atleast_2d(dist), axis=1)
    w = d.shape[1]
    out = np.empty(d.shape[0])
    for i, row in enumerate(d):
        count_gt = w - np.searchsorted(row, row, side="right")
        out[i] = row[int(np.argmax(count_gt < density_tol * w))]
    return out


def _full_matrix_region(x, window, radius_rule, z_grid=None):
    """A disc or st core from the whole (probes, window) distance matrix at once."""
    vals = x.values[window[0] : window[1]]
    angles = cores.direction_angles(64)
    zs = cores.default_z_points(vals, angles) if z_grid is None else z_grid
    radii = radius_rule(np.abs(vals[None, :] - zs[:, None]))
    return cores._disc_region(window, zs, angles, radii, "disc_intersection")


class TestDensities:
    def test_evens(self):
        dens = cores.natural_density(lambda k: k % 2 == 0, (10, 100, 1000))
        assert dens.values[-1] == (1000, 0.5)

    def test_squares_shrink(self):
        dens = cores.natural_density(lambda k: int(np.sqrt(k + 0.5)) ** 2 == k, (100, 400, 1600))
        assert dens.values[0][1] == pytest.approx(0.10)
        vals = [v for _, v in dens.values]
        assert vals[0] > vals[1] > vals[2]

    def test_empty_set(self):
        dens = cores.natural_density(lambda k: False, (10, 100))
        assert dens.estimate == 0.0

    def test_matrix_density_matches_counting_for_averaging_rows(self):
        ladder = (25, 50, 100, 400)
        E = lambda k: k % 3 == 0
        nat = cores.natural_density(E, ladder)
        mat = cores.a_density("cesaro", E, ladder)
        for (n1, v1), (n2, v2) in zip(nat.values, mat.values):
            assert n1 == n2 and abs(v1 - v2) < 1e-12

    def test_matrix_density_of_everything_tends_to_one(self):
        dens = cores.a_density("cesaro", lambda k: True, (10, 100, 1000))
        assert dens.estimate == pytest.approx(1.0)

    def test_matrix_density_of_empty_set_is_zero(self):
        dens = cores.a_density("cesaro", lambda k: False, (10, 100))
        assert all(v == 0.0 for _, v in dens.values)

    def test_matrix_density_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            cores.a_density(-np.eye(8), lambda k: True, (4, 8))

    def test_indicator_input_forms_agree(self):
        ladder = (16, 64)
        want = cores.natural_density(lambda k: k % 5 == 0, ladder).values
        mask = np.arange(64) % 5 == 0
        indices = np.arange(0, 64, 5)
        assert cores.natural_density(mask, ladder).values == want
        assert cores.natural_density(indices, ladder).values == want


class TestStLimsup:
    def test_square_indicator_has_null_level(self):
        v = make_sequence("square_indicator", 10000)
        assert cores.st_limsup(v, (0, 10000), 0.02) == 0.0

    def test_constant_ones(self):
        assert cores.st_limsup(np.ones(100), (0, 100), 0.02) == 1.0

    def test_half_half_mixture(self):
        v = np.maximum(make_sequence("alternating", 1000).values.real, 0.0)
        assert cores.st_limsup(v, (0, 1000), 0.02) == 1.0

    def test_window_guard(self):
        with pytest.raises(ValueError):
            cores.st_limsup(np.ones(10), (5, 5))

    def test_tolerance_guard(self):
        for tol in (0.0, 1.0, 1.5, np.nan):
            with pytest.raises(ValueError, match=r"\(0, 1\)"):
                cores.st_limsup(np.ones(10), (0, 10), tol)
            with pytest.raises(ValueError, match=r"\(0, 1\)"):
                cores.st_core(FiniteSeq(np.ones(10)), (0, 10), tol)


class TestClusterHull:
    def test_fourth_roots_give_square(self):
        x = make_sequence("roots_of_unity", 2000, m=4)
        region = cores.cluster_hull(x, (500, 2000))
        assert region.kind == "polygon"
        assert region.n_vertices == 4
        verts = {(round(a, 9), round(b, 9)) for a, b in region.vertices}
        assert verts == {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}
        x_coords, y_coords = region.vertices[:, 0], region.vertices[:, 1]
        signed_area = 0.5 * np.sum(x_coords * np.roll(y_coords, -1) - np.roll(x_coords, -1) * y_coords)
        assert signed_area > 0  # counterclockwise

    def test_convergent_tail_is_a_point(self):
        x = make_sequence("convergent", 4000, l=0.3, rate=0.9)
        region = cores.cluster_hull(x, (1000, 4000))
        assert region.diameter() < 1e-15
        assert region.contains_point([0.3, 0.0], tol=1e-12)

    def test_alternating_is_a_segment(self):
        region = cores.cluster_hull(make_sequence("alternating", 1000), (250, 1000))
        assert region.kind == "segment"
        assert np.allclose(region.vertices, [[-1.0, 0.0], [1.0, 0.0]])

    def test_support_consistent_with_vertices(self):
        x = make_sequence("random_bounded", 2000, seed=3)
        region = cores.cluster_hull(x, (500, 2000))
        units = np.stack([np.cos(region.angles), np.sin(region.angles)], axis=1)
        resampled = (region.vertices @ units.T).max(axis=0)
        assert np.max(np.abs(resampled - region.support)) < 1e-9

    def test_window_monotonicity(self):
        x = make_sequence("random_bounded", 2000, seed=9)
        wide = cores.cluster_hull(x, (200, 2000))
        narrow = cores.cluster_hull(x, (800, 2000))
        assert np.all(narrow.support <= wide.support + 1e-12)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            cores.cluster_hull(make_sequence("e", 10), (4, 4))

    def test_huge_values_trigger_boundedness_warning(self):
        x = FiniteSeq(np.full(32, 1e9))
        with pytest.warns(UserWarning, match="bounded"):
            cores.cluster_hull(x, (0, 32))


class TestDiscCore:
    def test_constant_sequence_pins_its_value(self):
        x = FiniteSeq(np.full(500, 0.25 + 0.5j))
        region = cores.disc_core(x, (100, 500))
        assert region.diameter() < 1e-6
        assert region.contains_point([0.25, 0.5], tol=1e-6)

    def test_alternating_matches_hull_within_tolerance(self):
        x = make_sequence("alternating", 2000)
        disc = cores.disc_core(x, (500, 2000))
        hull = cores.cluster_hull(x, (500, 2000))
        assert cores.hausdorff_distance(disc, hull) < 0.05

    def test_fourth_roots_match_hull_within_tolerance(self):
        x = make_sequence("roots_of_unity", 2000, m=4)
        disc = cores.disc_core(x, (500, 2000))
        hull = cores.cluster_hull(x, (500, 2000))
        assert cores.hausdorff_distance(disc, hull) < 0.05

    def test_explicit_grid_is_used_verbatim(self):
        x = make_sequence("alternating", 2000)
        g = np.linspace(-3.0, 3.0, 41)
        grid = (g[:, None] + 1j * g[None, :]).ravel()
        region = cores.disc_core(x, (500, 2000), z_grid=grid)
        # a bounded probe grid over-covers: the vertical support cannot close
        # below ~sqrt(10)-3, which is why the default adds far probes
        assert 0.1 < region.support[region.angles.size // 4] < 0.2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            cores.disc_core(make_sequence("e", 100), (0, 100), z_grid=np.array([]))


class TestStCore:
    def test_square_indicator_collapses_to_origin(self):
        x = make_sequence("square_indicator", 4000)
        region = cores.st_core(x, (1000, 4000))
        assert np.max(region.support) < 0.05

    def test_convergent_sequence_is_its_limit(self):
        x = make_sequence("convergent", 4000, l=-0.4, rate=0.9)
        region = cores.st_core(x, (1000, 4000))
        assert region.contains_point([-0.4, 0.0], tol=0.02)
        assert region.diameter() < 0.05

    def test_alternating_matches_plain_core(self):
        x = make_sequence("alternating", 2000)
        st = cores.st_core(x, (500, 2000))
        hull = cores.cluster_hull(x, (500, 2000))
        assert cores.hausdorff_distance(st, hull) < 0.05

    def test_st_core_inside_plain_core(self):
        for name, kw in (("alternating", {}), ("roots_of_unity", {"m": 4}), ("random_bounded", {"seed": 5})):
            x = make_sequence(name, 2000, **kw)
            st = cores.st_core(x, (500, 2000))
            plain = cores.disc_core(x, (500, 2000))
            ok, _ = cores.region_included(st, plain, tol=1e-9)
            assert ok, name


class TestProbeBlocks:
    """Block-wise probe radii against the whole distance matrix, byte for byte."""

    GRID = (np.linspace(-3.0, 3.0, 41)[:, None] + 1j * np.linspace(-3.0, 3.0, 41)[None, :]).ravel()

    @pytest.mark.parametrize("name, kw", [("random_bounded", {"seed": 5}), ("alternating", {}), ("square_indicator", {})])
    @pytest.mark.parametrize("explicit_grid", [False, True])
    def test_many_blocks_match_full_matrix(self, monkeypatch, name, kw, explicit_grid):
        x = make_sequence(name, 2000, **kw)
        window = (500, 2000)
        z_grid = self.GRID if explicit_grid else None
        # 7 probe rows a block: 825 default probes make 117 full blocks and a remainder of 6
        monkeypatch.setattr(cores, "_PROBE_BLOCK", 7 * 1500 + 3)
        cases = [
            (cores.disc_core(x, window, z_grid=z_grid), lambda d: np.max(d, axis=1)),
            (cores.st_core(x, window, 0.02, z_grid=z_grid), lambda d: _st_oracle(d, 0.02)),
            (cores.st_core(x, window, 0.25, z_grid=z_grid), lambda d: _st_oracle(d, 0.25)),
        ]
        for region, rule in cases:
            want = _full_matrix_region(x, window, rule, z_grid)
            assert canonical_dumps(region.to_json()) == canonical_dumps(want.to_json())

    @pytest.mark.parametrize(
        "estimator, name, kw",
        [
            pytest.param(cores.disc_core, "random_bounded", {"seed": 1}, id="disc_core"),
            pytest.param(cores.st_core, "random_bounded", {"seed": 1}, id="st_core"),
            pytest.param(cores.st_core, "alternating", {}, id="st_core-alternating"),
        ],
    )
    def test_peak_memory_is_bounded(self, estimator, name, kw):
        # the whole 825 x 30000 complex distance matrix alone is 396 MB
        x = make_sequence(name, 40_000, **kw)
        tracemalloc.start()
        try:
            estimator(x, (10_000, 40_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20, f"{estimator.__name__} peaked at {peak / 2**20:.1f} MB"


class TestAlphaCore:
    def test_difference_of_alternating_is_wide_segment(self):
        x = make_sequence("alternating", 2000)
        region = cores.alpha_core(x, DELTA, (500, 2000))
        assert region.kind == "segment"
        assert np.allclose(region.vertices, [[-2.0, 0.0], [2.0, 0.0]])

    def test_equals_hull_of_transformed_sequence(self):
        x = make_sequence("random_bounded", 2000, seed=11)
        region = cores.alpha_core(x, DELTA, (500, 2000))
        tau = band_ops.forward_transform(x, DELTA)
        direct = cores.cluster_hull(tau, (500, 2000))
        assert cores.hausdorff_distance(region, direct) == 0.0

    def test_convergent_through_summing_rows(self):
        x = make_sequence("convergent", 2000, l=0.7, rate=0.9)
        region = cores.alpha_core(x, PLUS, (500, 2000))
        assert region.contains_point([1.4, 0.0], tol=1e-3)
        assert region.diameter() < 1e-2

    def test_window_must_skip_index_zero(self):
        with pytest.raises(ValueError):
            cores.alpha_core(make_sequence("e", 100), DELTA, (0, 100))


class TestRegionComparisons:
    def test_point_inside_square(self):
        pt = cores.cluster_hull(FiniteSeq(np.zeros(10)), (0, 10))
        square = cores.cluster_hull(make_sequence("roots_of_unity", 100, m=4), (0, 100))
        ok, violation = cores.region_included(pt, square, tol=0.0)
        assert ok and violation <= 0.0

    def test_wide_segment_not_inside_narrow(self):
        wide = cores.cluster_hull(FiniteSeq(np.array([-2.0, 2.0] * 5)), (0, 10))
        narrow = cores.cluster_hull(make_sequence("alternating", 10), (0, 10))
        ok, violation = cores.region_included(wide, narrow, tol=0.05)
        assert not ok
        assert violation == pytest.approx(1.0)

    def test_region_in_itself(self):
        region = cores.cluster_hull(make_sequence("random_bounded", 500, seed=2), (100, 500))
        ok, violation = cores.region_included(region, region, tol=0.0)
        assert ok and violation == 0.0

    def test_direction_mismatch_rejected(self):
        a = cores.cluster_hull(make_sequence("e", 10), (0, 10), n_directions=32)
        b = cores.cluster_hull(make_sequence("e", 10), (0, 10), n_directions=64)
        with pytest.raises(ValueError):
            cores.region_included(a, b, 0.0)


class TestSignWitness:
    def test_single_real_row(self):
        mat = np.array([[1.0, -2.0, 3.0]])
        y = cores.sign_witness(mat, [(0, (0, 3))])
        assert np.allclose(y.values.real, [1.0, -1.0, 1.0])
        assert np.dot(mat[0], y.values).real == 6.0

    def test_complex_row_phases(self):
        rng = rng_from_seed(5)
        row = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        y = cores.sign_witness(row[None, :], [(0, (0, 6))])
        achieved = np.dot(row, y.values)
        assert abs(achieved.imag) < 1e-15
        assert achieved.real == pytest.approx(np.abs(row).sum(), rel=1e-14)

    def test_block_structure_and_bounds(self):
        rng = rng_from_seed(8)
        mat = np.zeros((4, 12))
        blocks = []
        for i in range(4):
            mat[i, 3 * i : 3 * i + 3] = rng.uniform(-2, 2, 3)
            blocks.append((i, (3 * i, 3 * i + 3)))
        y = cores.sign_witness(mat, blocks)
        assert np.max(np.abs(y.values)) <= 1.0
        for i in range(4):
            assert complex(np.dot(mat[i], y.values)) == complex(np.abs(mat[i]).sum())

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError):
            cores.sign_witness(np.ones((2, 6)), [(0, (0, 4)), (1, (3, 6))])

    def test_zero_entries_get_zero_weights(self):
        mat = np.array([[0.0, 2.0, 0.0]])
        y = cores.sign_witness(mat, [(0, (0, 3))])
        assert np.array_equal(y.values, [0.0, 1.0, 0.0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30), start=st.integers(min_value=0, max_value=300))
def test_hull_window_monotonicity_property(seed, start):
    x = make_sequence("random_bounded", 800, seed=seed)
    wide = cores.cluster_hull(x, (start, 800))
    narrow = cores.cluster_hull(x, (start + 200, 800))
    assert np.all(narrow.support <= wide.support + 1e-12)


_TIE_HEAVY = st.lists(st.integers(min_value=-12, max_value=12), min_size=1, max_size=200)
# tol * w is an integer for many w at the sampled values, where < and <= part
_TOLS = st.one_of(
    st.sampled_from([np.nextafter(1.0, 0.0), 1e-6, 0.5, 0.25, 0.1, 0.02]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)


@settings(max_examples=200, deadline=None)
@given(row=_TIE_HEAVY, tol=_TOLS)
def test_st_limsup_matches_exceedance_count_rule(row, tol):
    v = np.asarray(row, dtype=np.float64)
    got = cores.st_limsup(v, (0, v.size), tol)
    assert np.float64(got).tobytes() == _st_oracle(v, tol)[0].tobytes()


@settings(max_examples=200, deadline=None)
@given(
    vals=_TIE_HEAVY,
    probes=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=12),
    tol=_TOLS,
    block=st.integers(min_value=1, max_value=2400),
)
def test_block_st_radii_match_exceedance_count_rule(vals, probes, tol, block):
    v = np.asarray(vals, dtype=np.complex128)
    zs = np.array([complex(a, b) for a, b in probes])
    j = cores._st_rank(v.size, tol)
    with mock.patch.object(cores, "_PROBE_BLOCK", block):
        got = cores._st_radii(v, zs, j)
    assert got.tobytes() == _st_oracle(np.abs(v[None, :] - zs[:, None]), tol).tobytes()


@st.composite
def _prefilter_cases(draw) -> tuple[np.ndarray, np.ndarray, float]:
    """A window, probes and a tol for the cell prefilter.

    Windows are uniform clouds, real-only lines (cells of zero height),
    tie-heavy lattices, or clouds near 1e308 with probes as large, whose
    bound and distance lengths overflow to inf.  Other probes sit in the
    window's box or 1e6x its spread away; tols include need = 1
    (tol * w < 1) and need = w.
    """
    w = draw(st.integers(min_value=8, max_value=400))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**30)))
    kind = draw(st.sampled_from(["uniform", "real", "lattice", "huge"]))
    n_near, n_far = draw(st.integers(1, 40)), draw(st.integers(0, 8))
    if kind == "lattice":
        re, im = rng.integers(-6, 7, (2, w)).astype(np.float64)
    else:
        re, im = rng.uniform(-1.0, 1.0, (2, w))
    if kind == "huge":  # probes as large as the values: differences and lengths overflow
        vals = _complex(1.5e308 * re, 1.5e308 * im)
        zs = _complex(*(1.7e308 * rng.uniform(-1.0, 1.0, (2, n_near + n_far))))
    else:
        vals = _complex(re, np.zeros(w) if kind == "real" else im)
        spread = float(np.max(np.abs(vals - vals.mean())))
        near = _complex(*rng.uniform(-1.5, 1.5, (2, n_near))) * spread
        zs = np.concatenate([near, 1e6 * spread * np.exp(2j * np.pi * rng.random(n_far))])
    tol = draw(st.sampled_from([1e-9, np.nextafter(1.0, 0.0), 0.02, 0.25, 0.5]) | st.integers(1, w - 1).map(lambda k: k / w))
    return vals, zs, tol


@settings(max_examples=200, deadline=None)
@given(case=_prefilter_cases(), cell=st.sampled_from([1, 2, 3, 5, 8]), block=st.integers(min_value=1, max_value=2400))
def test_prefiltered_st_radii_match_exceedance_count_rule(case, cell, block):
    vals, zs, tol = case
    j = cores._st_rank(vals.size, tol)
    with (
        mock.patch.object(cores, "_PREFILTER_MIN", 1),
        mock.patch.object(cores, "_CELL_VALUES", cell),
        mock.patch.object(cores, "_PROBE_BLOCK", block),
        np.errstate(over="ignore"),  # distances near 1e308 overflow on both sides
    ):
        got = cores._st_radii(vals, zs, j)
        want = _st_oracle(np.abs(vals[None, :] - zs[:, None]), tol)
    assert got.tobytes() == want.tobytes()


def test_prefilter_recomputes_a_probe_that_fails_its_test_from_the_full_row(monkeypatch):
    # a NaN probe's bounds and distances are all NaN, so its radius never exceeds
    # the dropped cells' bound; the finite probes of its block keep their prefiltered radii
    vals = make_sequence("random_bounded", 6000, seed=3).values
    zs = np.array([0.25 + 0.5j, complex(np.nan, 0.0), -2.0 + 1.0j, 30.0])
    j = cores._st_rank(vals.size, 0.02)
    full_rows = mock.Mock(wraps=cores._probe_radii)
    monkeypatch.setattr(cores, "_probe_radii", full_rows)
    got = cores._st_radii(vals, zs, j)
    assert full_rows.call_count == 1 and np.isnan(full_rows.call_args.args[1]).all()
    assert got.tobytes() == _st_oracle(np.abs(vals[None, :] - zs[:, None]), 0.02).tobytes()


# ---------------------------------------------------------------------------
# extreme-point candidates against the full window, byte for byte
# ---------------------------------------------------------------------------

_C7 = (
    ("alternating", {}),
    ("roots_of_unity", {"m": 4}),
    ("square_indicator", {}),
    ("random_bounded", {}),
    ("convergent", {"l": 0.6, "rate": 0.9}),
)
_DIAMOND = np.array([(u, v) for u in range(-3, 4) for v in range(-3, 4) if abs(u) + abs(v) <= 3], dtype=np.float64).T
_FAMILIES = ("c7", "gaussian", "lattice", "decimal_line", "near_circle", "signed_zero")


def _complex(re, im) -> np.ndarray:
    """Complex values with exactly these parts, signs of zero included."""
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _family_values(family: str, seed: int, w: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if family == "c7":
        name, kw = _C7[seed % len(_C7)]
        return make_sequence(name, w, **({"seed": seed} if name == "random_bounded" else kw)).values
    if family == "gaussian":
        return _complex(*(rng.normal(size=(2, w)) + rng.normal(0.0, 3.0, (2, 1))))
    if family == "lattice":  # duplicates, plus a collinear run on y = 2x + 1
        ab = rng.integers(-4, 5, (2, w)).astype(np.float64)
        run = rng.random(w) < 0.4
        ab[1, run] = 2.0 * ab[0, run] + 1.0
        return _complex(*ab)
    if family == "decimal_line":  # collinear in exact arithmetic, not in binary
        t = rng.integers(0, 60, w) * 0.1
        off = rng.random(w) < 0.1
        return _complex(t, 0.3 * t + 0.7 - off * rng.random(w))
    if family == "near_circle":
        eps = (0.0, 1e-15, 1e-12, 1e-9)[seed % 4]
        return np.exp(2j * np.pi * rng.random(w)) * (1.0 - eps * rng.random(w))
    ab = _DIAMOND[:, rng.integers(0, _DIAMOND.shape[1], w)]  # signed_zero: w points of a diamond lattice
    ab[ab == 0.0] *= rng.choice([-1.0, 1.0], int(np.count_nonzero(ab == 0.0)))
    return _complex(*ab)


_CLOUDS = st.tuples(
    st.sampled_from(_FAMILIES),
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=3, max_value=400),
    st.integers(min_value=-6, max_value=6),
)


def _cloud(family, seed, w, scale_exp) -> FiniteSeq:
    return FiniteSeq(_family_values(family, seed, w) * 10.0**scale_exp)


def _bytes(region) -> str:
    return canonical_dumps(region.to_json())


def _full_hull(vals, window) -> str:
    angles = cores.direction_angles(64)
    xy = np.stack([vals.real, vals.imag], axis=1)
    return _bytes(cores._region_from_points(xy, angles, "cluster_hull", window))


@pytest.mark.filterwarnings("ignore:window values are very large")
@settings(max_examples=150, deadline=None)
@given(cloud=_CLOUDS)
def test_hull_candidates_match_full_window(cloud):
    x = _cloud(*cloud)
    window = (0, x.n)
    assert _bytes(cores.cluster_hull(x, window)) == _full_hull(x.values, window)


@pytest.mark.filterwarnings("ignore:window values are very large")
@settings(max_examples=100, deadline=None)
@given(cloud=_CLOUDS, sys_seed=st.integers(min_value=0, max_value=2**30))
def test_alpha_candidates_match_full_window(cloud, sys_seed):
    x = _cloud(*cloud)
    rng = np.random.default_rng(sys_seed)
    signs = rng.choice([-1.0, 1.0], (2, x.n))
    sys = BandSystem(signs[0] * rng.uniform(0.5, 2.0, x.n), signs[1] * rng.uniform(0.5, 2.0, x.n), rng.uniform(0.5, 2.0, x.n))
    window = (1, x.n)
    tau = band_ops.forward_transform(x, sys).values[1:]
    assert _bytes(cores.alpha_core(x, sys, window)) == _full_hull(tau, window)


@pytest.mark.filterwarnings("ignore:window values are very large")
@settings(max_examples=100, deadline=None)
@given(cloud=_CLOUDS, grid=st.sampled_from(["default", "box", "far"]))
def test_disc_candidates_match_full_window(cloud, grid):
    x = _cloud(*cloud)
    window = (0, x.n)
    spread = float(np.max(np.abs(x.values))) or 1.0
    g = np.linspace(-3.0, 3.0, 41) * spread
    box = (g[:, None] + 1j * g[None, :]).ravel()
    z_grid = {"default": None, "box": box, "far": np.concatenate([box, 1e3 * box[::40]])}[grid]
    want = _full_matrix_region(x, window, lambda d: np.max(d, axis=1), z_grid)
    assert _bytes(cores.disc_core(x, window, z_grid=z_grid)) == _bytes(want)


def test_candidates_are_a_small_part_of_a_random_window():
    vals = make_sequence("random_bounded", 40_000, seed=0).values[10_000:]
    assert cores._extreme_candidates(vals, 0.0).size < 0.05 * vals.size
    assert cores._extreme_candidates(vals, 1e3).size < 0.05 * vals.size


# ---------------------------------------------------------------------------
# statistical radii from distinct values, and axis-parallel hulls, against
# the full window and the plain chain, byte for byte
# ---------------------------------------------------------------------------


def _outcome(build) -> str:
    """The canonical bytes of a region, or the exception an empty region raises."""
    try:
        return _bytes(build())
    except ValueError as exc:
        return f"raises {exc}"


@st.composite
def _repeat_cases(draw) -> tuple[FiniteSeq, float]:
    """u distinct values repeated w/u times (2 to 64, or 8u +- 1), some with +-0.0 parts, and a tol.

    Besides fixed tolerances, tol * w is an integer: k of w, or m whole runs
    of w/u, which puts the rank on the first entry of a run of tied distances.
    """
    u = draw(st.integers(min_value=1, max_value=24))
    ratio = draw(st.integers(min_value=2, max_value=64))
    w = draw(st.sampled_from([u * ratio, u * ratio, 8 * u - 1, 8 * u + 1]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**30)))
    kind = draw(st.sampled_from(["lattice", "uniform", "signed_zero"]))
    if kind == "uniform":
        pool = _complex(*rng.uniform(-1.0, 1.0, (2, u)))
    else:  # distinct points of a 7 x 7 lattice: many tied distances to lattice probes
        cells = rng.choice(49, u, replace=False)
        pool = _complex(cells // 7 - 3.0, cells % 7 - 3.0)
    vals = pool[rng.permutation(np.arange(w) % u)]
    if kind == "signed_zero":  # equal values whose zero parts carry either sign
        re, im = vals.real.copy(), vals.imag.copy()
        re[re == 0.0] *= rng.choice([-1.0, 1.0], int(np.count_nonzero(re == 0.0)))
        im[im == 0.0] *= rng.choice([-1.0, 1.0], int(np.count_nonzero(im == 0.0)))
        vals = _complex(re, im)
    tols = [st.sampled_from([0.02, 0.25, 0.5, 1e-6]), st.integers(min_value=1, max_value=w - 1).map(lambda k: k / w)]
    if u > 1:
        tols.append(st.integers(min_value=1, max_value=u - 1).map(lambda m: m * (w // u) / w))
    tol = draw(st.one_of(*tols))
    return FiniteSeq(vals), tol


_HALF_STEPS = np.arange(-8, 9) * 0.5
_LATTICE_PROBES = (_HALF_STEPS[:, None] + 1j * _HALF_STEPS[None, :]).ravel()


@settings(max_examples=60, deadline=None)
@given(case=_repeat_cases(), lattice_probes=st.booleans())
def test_st_core_matches_full_window_oracle(case, lattice_probes):
    x, tol = case
    window = (0, x.n)
    z_grid = _LATTICE_PROBES if lattice_probes else None
    got = _outcome(lambda: cores.st_core(x, window, tol, z_grid=z_grid))
    want = _outcome(lambda: _full_matrix_region(x, window, lambda d: _st_oracle(d, tol), z_grid))
    assert got == want


@st.composite
def _dedupe_windows(draw) -> np.ndarray:
    """Windows for the sort-based dedupe: random, tie-heavy lattices, +-0.0 parts, subnormals, near +-1e308.

    Up to 3000 values, so the sort runs past its small-array insertion sort.
    Real windows with heavy ties have imaginary parts that are all +0.0 (or,
    for real_signed_zero, zeros of either sign in both parts), and tied_real
    windows repeat real parts under different imaginary parts, which the
    real-part order cannot settle.
    """
    w = draw(st.integers(min_value=0, max_value=3000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**30)))
    kinds = ["random", "lattice", "signed_zero", "subnormal", "huge", "real_ties", "real_signed_zero", "tied_real"]
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        ab = rng.normal(size=(2, w))
    elif kind == "huge":  # a few distinct magnitudes within an ulp step of the largest floats
        ab = rng.choice([-1.0, 1.0], (2, w)) * np.nextafter(np.finfo(np.float64).max, 0.0) / rng.integers(1, 4, (2, w))
    elif kind in ("real_ties", "real_signed_zero"):
        ab = np.stack([rng.integers(-3, 4, w) * 0.5, np.zeros(w)])
    elif kind == "tied_real":
        ab = np.stack([rng.integers(-3, 4, w) * 0.5, rng.normal(size=w)])
    else:
        ab = rng.integers(-2, 3, (2, w)) * (5e-324 if kind == "subnormal" else 1.0)
    if kind in ("lattice", "signed_zero", "subnormal", "huge", "real_signed_zero"):  # zeros of either sign in either part
        zero = ab == 0.0
        ab[zero] = rng.choice([-0.0, 0.0], int(np.count_nonzero(zero)))
    return _complex(*ab)


@settings(max_examples=200, deadline=None)
@given(vals=_dedupe_windows())
@example(vals=make_sequence("square_indicator", 40_000).values[10_000:])  # the benchmark's real window
@example(vals=_complex(np.arange(30_000) % 7 - 3.0, np.arange(30_000) % 5 * 0.5))  # real parts tie under 5 imaginary parts
def test_distinct_matches_numpy_unique_bitwise(vals):
    want, want_counts = np.unique(vals, return_counts=True)
    got, counts = cores._distinct(vals, return_counts=True)
    assert got.tobytes() == want.tobytes() and counts.tobytes() == want_counts.tobytes()
    assert cores._distinct(vals).tobytes() == want.tobytes()


def test_distinct_sorts_complex_values_only_for_negative_zeros_or_tied_real_parts(monkeypatch):
    sorted_dtypes = []
    real_sort = np.sort

    def spy(a, *args, **kwargs):
        sorted_dtypes.append(np.asarray(a).dtype)
        return real_sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", spy)
    rng = np.random.default_rng(3)
    ties = rng.integers(-3, 4, 500) * 0.5
    cases = [
        (_complex(ties, 0.0), False),  # real, +0.0 imaginary parts
        (_complex(*rng.normal(size=(2, 500))), False),  # no two real parts tie
        (_complex(ties, ties * 2.0 + 1.0), False),  # tied real parts share their imaginary part
        (_complex(ties, rng.normal(size=500)), True),  # tied real parts under different imaginary parts
        (_complex(ties, -0.0), True),
        (_complex(np.where(ties == 0.0, -0.0, ties), rng.normal(size=500)), True),
    ]
    for vals, complex_sort in cases:
        sorted_dtypes.clear()
        cores._distinct(vals, return_counts=True)
        assert (np.dtype(np.complex128) in sorted_dtypes) == complex_sort


def _chain_hull(xy: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain on every point, with no shortcut for axis-parallel input."""
    pts = np.unique(xy, axis=0)
    if pts.shape[0] <= 2:
        return pts

    def half(points):
        chain = []
        for p in points:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0.0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower, upper = half(pts), half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    return np.array([pts[0], pts[-1]]) if hull.shape[0] < 3 else hull


@pytest.mark.filterwarnings("ignore:window values are very large")
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    w=st.integers(min_value=1, max_value=300),
    vertical=st.booleans(),
    level=st.sampled_from([0.0, 0.0, 1.5, -2.0]),
    scale=st.sampled_from([1e-300, 1e-6, 1.0, 1e6, 3e307]),
)
@example(seed=0, w=12, vertical=False, level=1.5, scale=3e307)  # x spans 3e308: the chain's gaps overflow
@example(seed=1, w=30_000, vertical=False, level=0.0, scale=1.0)  # the benchmark's window length
def test_axis_parallel_hull_matches_chain(seed, w, vertical, level, scale):
    rng = np.random.default_rng(seed)
    along = rng.integers(-5, 6, w) * scale  # at 3e307 a coordinate gap can overflow
    across = np.full(w, level)
    across[across == 0.0] *= rng.choice([-1.0, 1.0], int(np.count_nonzero(across == 0.0)))
    along[along == 0.0] *= rng.choice([-1.0, 1.0], int(np.count_nonzero(along == 0.0)))
    re, im = (across, along) if vertical else (along, across)
    xy = np.stack([re, im], axis=1)
    assert cores._convex_hull(xy).tobytes() == _chain_hull(xy).tobytes()
    x, window, angles = FiniteSeq(_complex(re, im)), (0, w), cores.direction_angles(64)
    want = cores.RegionEstimate(angles, np.zeros(angles.size), _chain_hull(xy), "cluster_hull", window)
    assert _bytes(cores.cluster_hull(x, window)) == _bytes(want)


@pytest.mark.parametrize("family", ["lattice", "signed_zero"])
def test_lattice_hull_matches_chain_at_benchmark_size(family):
    vals = _family_values(family, 11, 30_000)
    xy = np.stack([vals.real, vals.imag], axis=1)
    assert cores._convex_hull(xy).tobytes() == _chain_hull(xy).tobytes()


# ---------------------------------------------------------------------------
# halfplane clipping against the clip on 2-element arrays, byte for byte
# ---------------------------------------------------------------------------


def _array_clip(angles: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Successive polygon clipping with every vertex a 2-element array."""
    radius = float(np.max(np.abs(h))) * 2.0 + 1.0
    poly = [np.array([-radius, -radius]), np.array([radius, -radius]), np.array([radius, radius]), np.array([-radius, radius])]
    slack = 1e-12 * max(1.0, radius)
    for u, bound in zip(cores._unit(angles), h):
        if not poly:
            break
        clipped = []
        dist = [float(p @ u) - float(bound) for p in poly]
        for i, p in enumerate(poly):
            j = (i + 1) % len(poly)
            q = poly[j]
            din, dout = dist[i], dist[j]
            if din <= slack:
                clipped.append(p)
            if (din <= slack) != (dout <= slack) and abs(dout - din) > 0.0:
                t = (0.0 - din) / (dout - din)
                clipped.append(p + t * (q - p))
        poly = clipped
    if not poly:
        return np.zeros((0, 2))
    out = np.array(poly)
    keep = [0]
    tol = 1e-9 * max(1.0, radius)
    for i in range(1, out.shape[0]):
        if np.max(np.abs(out[i] - out[keep[-1]])) > tol:
            keep.append(i)
    if len(keep) > 1 and np.max(np.abs(out[keep[0]] - out[keep[-1]])) <= tol:
        keep.pop()
    return out[keep]


@st.composite
def _halfplane_sets(draw) -> tuple[np.ndarray, np.ndarray]:
    """Direction angles and support samples h of a disc, a point, a segment, an empty set or a disc envelope.

    4 to 128 directions, centres up to 1e+-3, radii from 1e-300 to infinity.
    Segments lie along an axis, in a multiple of 4 directions, so that both
    normals are sampled and the clip is flat.
    """
    shape = draw(st.sampled_from(["disc", "point", "segment", "empty", "envelope"]))
    n = draw(st.integers(min_value=1, max_value=32)) * 4 if shape == "segment" else draw(st.integers(min_value=4, max_value=128))
    angles = cores.direction_angles(n)
    units = cores._unit(angles)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**30)))
    scale = 10.0 ** draw(st.integers(min_value=-3, max_value=3))
    c = rng.uniform(-1.0, 1.0, 2) * scale
    r = draw(st.sampled_from([1e-300, 1e-12, 1e-3, 1.0, 1e6, 1e300, np.inf]))
    if shape == "disc":
        return angles, units @ c + r
    if shape == "point":
        return angles, units @ c
    if shape == "segment":
        step = np.zeros(2)
        step[rng.integers(2)] = rng.normal() * scale
        return angles, np.maximum(units @ c, units @ (c + step))
    if shape == "empty":  # a disc of negative radius
        return angles, units @ c - r
    zs = c + rng.normal(size=(12, 2)) * scale  # the support envelope of 12 discs, as _disc_region takes it
    return angles, np.min(zs @ units.T + (r + rng.uniform(0.0, scale, 12))[:, None], axis=0)


@pytest.mark.filterwarnings("ignore:invalid value encountered", "ignore:overflow encountered")
@settings(max_examples=300, deadline=None)
@given(case=_halfplane_sets())
def test_clip_halfplanes_matches_array_clip_bitwise(case):
    angles, h = case
    got = cores._clip_halfplanes(angles, h)
    want = _array_clip(angles, h)
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30), m=st.integers(min_value=1, max_value=64))
def test_vecdot_rows_equal_two_vector_matmul_bitwise(seed, m):
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(m, 2)) * 10.0 ** rng.integers(-300, 300, (m, 2))
    u = cores._unit(rng.uniform(0.0, 2.0 * np.pi, 1))[0]
    assert np.vecdot(P, u).tobytes() == np.array([p @ u for p in P]).tobytes()
