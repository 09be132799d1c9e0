"""Core regions of bounded sequences as planar convex sets.

A bounded complex sequence has a limiting region (the intersection of the
closed convex hulls of its tails); for a band system the analogous region of
the transformed sequence tau_n = (r_n x_n + s_{n-1} x_{n-1}) / alpha_n is the
"alpha" variant.  Two finite-window estimators are provided:

* cluster_hull: the convex hull of the window values, sampled into a support
  function over D directions;
* disc_core: the intersection of discs centered at probe points z with radius
  limsup |x_k - z| (plain window max, or its statistical variant that ignores
  index sets of small empirical density).

The statistical limsup of a window of w values is one order statistic: the
sorted value at rank _st_rank(w, tol).  It depends only on the window's
distinct values and their counts, so a window with at most w/8 distinct
values reads its radii off the distinct distances weighted by the counts.
Other windows of at least _PREFILTER_MIN values go through a cell
prefilter: equal-count cells with bounding boxes give each probe lower and
upper distance bounds, |x_k - z| is taken only in the cells whose upper
bound reaches the level that enough high lower bounds guarantee, and the
result is accepted only when it exceeds every dropped cell's upper bound
(padded for rounding), so it is the full row's order statistic; a probe
that fails the test, and shorter windows, partition the full row.  Probe
distances |x_k - z| are built in blocks of whole probe rows of about
_PROBE_BLOCK entries each, so memory stays bounded whatever the window
length and the probe count.

Only extreme window values can be a hull vertex or a window max of
|x_k - z|, so cluster_hull (and through it alpha_core) and disc_core first
keep the candidates of _extreme_candidates: the values not inside the
polygon Q of the extremes in eight directions by more than a margin that
exceeds the rounding of the chain's orientation test and of |x_k - z| for
the probes at hand, deduplicated by one sort (_distinct), not by hashing.
The sort is of the float real parts unless real parts tied under different
imaginary parts need the complex sort.  Zero contract: it gives numpy's
unique bytes up to the sign of zero parts, which :mod:`seqcore.io` renders
as 0, so the regions render the same bytes as from every window value; a
degenerate Q keeps every distinct value.  A hull whose points share one x
or one y is the segment between its two lexicographic extremes, returned
without running the chain.

The disc intersection is evaluated through its support envelope
h(u) = min_z (z . u + radius(z)) over a finite z set, then canonicalized by
clipping halfplanes into a polygon (float-pair vertices, one np.vecdot per
halfplane) and re-sampling the support from its vertices, so stored support
values and vertices are always consistent.  A
finite z set yields a superset of the true intersection; probe points are
therefore placed on a central grid plus far samples along each sampled
direction, which pinches the envelope to within O(scale / t_far) of the
exact region and keeps the two estimators comparable at tight tolerances.

Regions are compared through sampled support functions: inclusion is a
directionwise support inequality and the Hausdorff distance of two convex
regions is the sup-norm gap of their supports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .band_ops import forward_transform
from .generators import materialize_matrix
from .ladder import truncation_ladder
from .types import BandSystem, FiniteSeq, SchemaError, coerce_int, coerce_ints

__all__ = [
    "RegionEstimate",
    "DensityEstimate",
    "direction_angles",
    "cluster_hull",
    "disc_core",
    "st_core",
    "alpha_core",
    "st_limsup",
    "natural_density",
    "a_density",
    "region_included",
    "hausdorff_distance",
    "sign_witness",
    "default_z_points",
    "check_grid_n",
    "DEFAULT_DIRECTIONS",
    "DEFAULT_DENSITY_TOL",
    "DEFAULT_GRID_N",
    "MAX_DIRECTIONS",
    "MAX_GRID_N",
]

_BOUNDED_WARN = 1e6
# the defaults of the core readers, and of the CLI's core options
DEFAULT_DIRECTIONS = 64
DEFAULT_DENSITY_TOL = 0.02
DEFAULT_GRID_N = 21
# the most support-function directions a core may sample: a disc or st core's envelope is a (grid_n^2 + 6 D) x D
# float64 array, 54 MB at D = 1024 and the default grid_n, and grows with D^2
MAX_DIRECTIONS = 1024
# the widest central probe grid: its grid_n^2 probes then stay below the 6 D far probes at D = MAX_DIRECTIONS, so
# the envelope stays within (64^2 + 6 * 1024) x 1024 float64, 84 MB
MAX_GRID_N = 64
_FAR_MULTIPLES = (2.0, 4.0, 8.0, 16.0, 64.0, 256.0)
_PROBE_BLOCK = 1 << 20  # distance entries per block of probe rows
_OCTANTS = np.array([[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1]], dtype=np.float64)
# candidate margin per unit of max|v| + max|z|: 64x the few-eps rounding of a
# depth, an orientation test or a distance |v - z| at that scale
_CANDIDATE_MARGIN = 64.0 * np.finfo(np.float64).eps
# no difference of two coordinates this small, nor its length, overflows to inf
_SAFE_MAX = np.finfo(np.float64).max / 4.0
# st radii of windows this long go through the cell prefilter, in cells of about this many values
_PREFILTER_MIN = 4096
_CELL_VALUES = 64
# a few ulps of the subnormal range, where a relative slack on a distance bound vanishes
_TINY = 4.0 * np.finfo(np.float64).smallest_subnormal


def direction_angles(n_directions: int) -> np.ndarray:
    """n equally spaced angles; a count that is not an integer in [4, MAX_DIRECTIONS] is a SchemaError, raised before any is allocated."""
    n_directions = coerce_int(n_directions, "directions")
    if not 4 <= n_directions <= MAX_DIRECTIONS:
        raise SchemaError(f"directions must lie in [4, {MAX_DIRECTIONS}]: {n_directions!r}")
    return 2.0 * np.pi * np.arange(n_directions) / n_directions


def _unit(angles: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _check_window(n: int, window, min_start: int = 0) -> tuple[int, int]:
    """The window's two integer bounds (start, stop), with min_start <= start < stop <= n, else SchemaError."""
    bounds = coerce_ints(window, "window")
    if len(bounds) != 2:
        raise SchemaError(f"window must be two integers (start, stop): {window!r:.40}")
    start, stop = bounds
    if not (min_start <= start < stop <= n):
        raise SchemaError(f"window [{start}, {stop}) invalid for length {n} (start >= {min_start})")
    return start, stop


def _window_values(points, window, min_start=0) -> tuple[np.ndarray, tuple[int, int]]:
    seq = FiniteSeq.coerce(points)
    start, stop = _check_window(seq.n, window, min_start)
    vals = seq.values[start:stop]
    if np.max(np.abs(vals)) > _BOUNDED_WARN:
        warnings.warn("window values are very large; core estimates assume bounded input", stacklevel=3)
    return vals, (start, stop)


# ---------------------------------------------------------------------------
# convex machinery
# ---------------------------------------------------------------------------


def _distinct(vals: np.ndarray, return_counts: bool = False):
    """The distinct complex values in (real, imag) order, and their counts if asked.

    The sort branch of numpy's unique: one sort, then each value that differs from
    the one before it.  Equal values are bitwise equal up to the sign of zero
    parts, so any lexicographic order gives numpy's values and counts, and the
    float real parts (which numpy sorts with SIMD kernels) give it: their sort
    alone when every imaginary part is zero, else their argsort, accepted when
    no two neighbours with equal real parts differ in imaginary part.  +-0.0
    parts compare equal, so the copy that sorts first stands for both, and the
    sign of its zeros may differ from numpy's: the zero contract of the module
    docstring.  Window values are finite (FiniteSeq rejects NaN), so no NaN
    needs merging.
    """
    re, im = vals.real, vals.imag
    if not im.any():
        s = np.sort(re)
    else:
        s = vals[np.argsort(re)]
        if np.any((s.real[1:] == s.real[:-1]) & (s.imag[1:] != s.imag[:-1])):
            s = np.sort(vals)
    first = np.empty(s.size, dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    out = s[starts].astype(np.complex128, copy=False)  # real parts come back with +0.0 imaginary parts
    return (out, np.diff(starts, append=s.size)) if return_counts else out


def _convex_hull(xy: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; returns CCW vertices, degenerate cases exact."""
    rows = np.ascontiguousarray(xy, dtype=np.float64).view(np.complex128).ravel()  # (x, y) bits as x + iy
    pts = _distinct(rows).view(np.float64).reshape(-1, 2)  # lexicographic sort + dedupe
    if pts.shape[0] <= 2:
        return pts
    if np.any(np.all(pts == pts[0], axis=0)) and np.max(np.abs(pts)) <= _SAFE_MAX:
        # one shared x or y: every orientation test below is an exact +-0 (no coordinate
        # gap overflows to inf), so the chain keeps the two lexicographic extremes
        return pts[[0, -1]]

    def half(points):
        chain: list[np.ndarray] = []
        for p in points:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0.0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if hull.shape[0] < 3:  # collinear input collapses to a segment
        return np.array([pts[0], pts[-1]])
    return hull


def _extreme_candidates(vals: np.ndarray, reach: float) -> np.ndarray:
    """The window values that can be a hull vertex or a max of |v - z| over |z| <= reach.

    Q is the convex polygon of the extreme values in eight directions.  For
    every z, some vertex of Q is at least d farther from z than a value at
    depth d inside Q, so a value deeper than the margin (which exceeds the
    rounding of a depth, of |v - z| and of the chain's orientation test) is
    dropped.  The candidates come back deduplicated by _distinct: all distinct
    values when Q is degenerate, or so large that its edges could overflow.
    """
    xy = np.stack([vals.real, vals.imag])
    q = _convex_hull(xy[:, [np.argmax(d @ xy) for d in _OCTANTS]].T)  # no 8 x w temporary
    if q.shape[0] < 3 or np.max(np.abs(q)) > _SAFE_MAX:
        return _distinct(vals)
    margin = _CANDIDATE_MARGIN * (float(np.max(np.abs(vals))) + reach)
    edges = np.roll(q, -1, axis=0) - q
    inward = np.stack([-edges[:, 1], edges[:, 0]], axis=1) / np.hypot(edges[:, 0], edges[:, 1])[:, None]
    depth = np.full(vals.size, np.inf)
    for normal, corner in zip(inward, q):
        np.minimum(depth, normal @ xy - normal @ corner, out=depth)
    return _distinct(vals[depth <= margin])


def _clip_halfplanes(angles: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Intersect {x . u_d <= h_d} by successive polygon clipping.

    Vertices are (x, y) float pairs.  A halfplane's distances x . u_d come from
    one np.vecdot over the vertices, which runs the ddot kernel of a 2-vector
    p @ u (x*u0 + y*u1 in floats can round otherwise: the kernel may fuse a
    multiply-add); the intersections and the near-duplicate pass are the float
    operations of 2-element arrays, so the vertices keep their bits.
    """
    radius = float(np.max(np.abs(h))) * 2.0 + 1.0
    poly = [(-radius, -radius), (radius, -radius), (radius, radius), (-radius, radius)]
    units = _unit(angles)
    slack = 1e-12 * max(1.0, radius)
    for u, bound in zip(units, h):
        if not poly:
            break
        clipped = []
        dist = (np.vecdot(np.array(poly), u) - bound).tolist()
        for i, p in enumerate(poly):
            j = (i + 1) % len(poly)
            q = poly[j]
            din, dout = dist[i], dist[j]
            if din <= slack:
                clipped.append(p)
            if (din <= slack) != (dout <= slack) and abs(dout - din) > 0.0:
                t = (0.0 - din) / (dout - din)
                clipped.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        poly = clipped
    if not poly:
        return np.zeros((0, 2))
    # dedupe nearly coincident vertices, keep order
    tol = 1e-9 * max(1.0, radius)
    kept = [poly[0]]
    for p in poly[1:]:
        if _gap(p, kept[-1]) > tol:
            kept.append(p)
    if len(kept) > 1 and _gap(kept[0], kept[-1]) <= tol:
        kept.pop()
    return np.array(kept)


def _gap(p: tuple, q: tuple) -> float:
    """np.max(np.abs(p - q)) of two float pairs, NaN if either difference is NaN."""
    dx, dy = abs(p[0] - q[0]), abs(p[1] - q[1])
    return dx if dx != dx or dx >= dy else dy


@dataclass(frozen=True)
class RegionEstimate:
    """A convex planar region: CCW vertices plus support samples.

    Support values are always re-sampled from the vertices, so
    max_v <v, u_d> equals support[d] by construction; degenerate regions keep
    their exact one- or two-vertex form.
    """

    angles: np.ndarray
    support: np.ndarray = field(init=False)
    vertices: np.ndarray
    method: str
    window: tuple[int, int]

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=np.float64)
        verts = np.asarray(self.vertices, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 1:
            raise ValueError("vertices must be a nonempty (m, 2) array")
        sup = verts @ _unit(ang).T
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "support", sup.max(axis=0))
        object.__setattr__(self, "vertices", verts)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def kind(self) -> str:
        return {1: "point", 2: "segment"}.get(self.n_vertices, "polygon")

    def diameter(self) -> float:
        d = self.vertices[:, None, :] - self.vertices[None, :, :]
        return float(np.sqrt((d**2).sum(axis=2)).max())

    def contains_point(self, xy, tol: float = 1e-9) -> bool:
        xy = np.asarray(xy, dtype=np.float64)
        return bool(np.all(_unit(self.angles) @ xy <= self.support + tol))

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "window": [int(self.window[0]), int(self.window[1])],
            "kind": self.kind,
            "angles": [float(a) for a in self.angles],
            "support": [float(v) for v in self.support],
            "vertices": [[float(x), float(y)] for x, y in self.vertices],
        }


def _region_from_points(xy, angles, method, window) -> RegionEstimate:
    hull = _convex_hull(np.asarray(xy, dtype=np.float64))
    return RegionEstimate(angles, hull, method, window)


def _region_from_support(h, angles, method, window) -> RegionEstimate:
    poly = _clip_halfplanes(angles, np.asarray(h, dtype=np.float64))
    if poly.shape[0] == 0:
        raise ValueError("support samples describe an empty region")
    hull = _convex_hull(poly)
    return RegionEstimate(angles, hull, method, window)


# ---------------------------------------------------------------------------
# densities and statistical limsup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityEstimate:
    """Ladder of density values with the final value as the limit estimate."""

    values: tuple
    estimate: float

    def to_json(self) -> dict:
        return {
            "values": [{"n": int(n), "density": float(v)} for n, v in self.values],
            "estimate": float(self.estimate),
        }


def _indicator(E, n: int) -> np.ndarray:
    if callable(E):
        return np.fromiter((bool(E(k)) for k in range(n)), dtype=bool, count=n)
    arr = np.asarray(E)
    if arr.dtype == bool:
        if arr.size < n:
            raise ValueError("indicator array shorter than requested range")
        return arr[:n]
    mask = np.zeros(n, dtype=bool)
    idx = arr.astype(np.int64)
    mask[idx[(idx >= 0) & (idx < n)]] = True
    return mask


def natural_density(E, ladder) -> DensityEstimate:
    """Counting densities |{0 <= k < n : k in E}| / n along a ladder."""
    ladder = truncation_ladder(ladder)
    mask = _indicator(E, ladder[-1])
    counts = np.cumsum(mask)
    vals = tuple((n, float(counts[n - 1] / n)) for n in ladder)
    return DensityEstimate(vals, vals[-1][1])


def a_density(A, E, ladder) -> DensityEstimate:
    """Matrix-weighted densities: row n-1 of A summed over the columns in E.

    Requires entrywise nonnegative A; with the Cesaro generator this matches
    the counting density at every ladder point exactly.
    """
    ladder = truncation_ladder(ladder)
    n_max = ladder[-1]
    dense = materialize_matrix(A, n_max)
    if np.iscomplexobj(dense) or np.any(dense < 0.0):
        raise ValueError("matrix densities need entrywise nonnegative A")
    mask = _indicator(E, n_max)
    vals = tuple((n, float(dense[n - 1, :n][mask[:n]].sum())) for n in ladder)
    return DensityEstimate(vals, vals[-1][1])


def _st_rank(w: int, density_tol: float) -> int:
    """Rank j of the statistical limsup among w sorted values.

    j is the first position with fewer than density_tol * w positions after
    it.  Within a run of ties the exceedance count (v_k > L) of the first tied
    position equals that of the last, so the sorted value at j is the
    smallest level whose strict exceedance density is below the tolerance.
    At density_tol = 1 that is the window minimum, every radius is the nearest
    window distance and the discs rarely meet, so the range is open at 1.
    A tolerance outside (0, 1) is a SchemaError.
    """
    if not 0.0 < density_tol < 1.0:
        raise SchemaError(f"density_tol must lie in (0, 1): {density_tol!r}")
    return int(np.argmax((w - 1 - np.arange(w)) < density_tol * w))


def st_limsup(v, window, density_tol: float = DEFAULT_DENSITY_TOL) -> float:
    """Smallest level whose exceedance set has empirical density below tol.

    The returned level is an order statistic of the window values, so it is
    always one of them; exceedance is strict (v_k > L) and at the returned
    level its density is < tol.
    """
    seq = FiniteSeq.coerce(v)
    start, stop = _check_window(seq.n, window)
    vals = np.sort(seq.values[start:stop].real)
    if not np.all(seq.values[start:stop].imag == 0.0):
        raise ValueError("st_limsup needs real values")
    return float(vals[_st_rank(vals.size, density_tol)])


# ---------------------------------------------------------------------------
# region constructors
# ---------------------------------------------------------------------------


def cluster_hull(points, window, n_directions: int = DEFAULT_DIRECTIONS) -> RegionEstimate:
    """Convex hull of the window values: the tail-hull estimate of the core."""
    vals, win = _window_values(points, window)
    angles = direction_angles(n_directions)
    cands = _extreme_candidates(vals, 0.0)
    return _region_from_points(np.stack([cands.real, cands.imag], axis=1), angles, "cluster_hull", win)


def check_grid_n(grid_n: int) -> int:
    """grid_n as an int when it is an integer in [0, MAX_GRID_N], else a SchemaError."""
    grid_n = coerce_int(grid_n, "grid_n")
    if not 0 <= grid_n <= MAX_GRID_N:
        raise SchemaError(f"grid_n must lie in [0, {MAX_GRID_N}]: {grid_n!r}")
    return grid_n


def default_z_points(values: np.ndarray, angles: np.ndarray, grid_n: int = DEFAULT_GRID_N) -> np.ndarray:
    """Probe centers for disc intersections: central grid plus far directional samples.

    The central grid of grid_n x grid_n probes spans 1.5x the data spread
    around its centroid; the far samples sit on the rays opposite every
    sampled direction at multiples of the spread, which is what makes the
    disc envelope tight (the exact region is an intersection over all
    centers, approached as probes recede).  grid_n is checked by
    :func:`check_grid_n` before any probe is allocated.
    """
    grid_n = check_grid_n(grid_n)
    c = complex(np.mean(values))
    spread = float(np.max(np.abs(values - c)))
    scale = max(spread, 1e-9)
    g = np.linspace(-1.5, 1.5, grid_n) * scale
    grid = (c + g[:, None] + 1j * g[None, :]).ravel()
    units = np.exp(1j * angles)
    far = np.concatenate([c - t * scale * units for t in _FAR_MULTIPLES])
    return np.concatenate([grid, far])


def _probe_radii(vals: np.ndarray, zs: np.ndarray, reduce) -> np.ndarray:
    """reduce(|vals - z|) for every probe z, one block of probe rows at a time.

    reduce maps a (rows, w) distance block to its rows' radii.
    """
    rows = max(1, _PROBE_BLOCK // vals.size)
    radii = np.empty(zs.size)
    for lo in range(0, zs.size, rows):
        radii[lo : lo + rows] = reduce(np.abs(vals[None, :] - zs[lo : lo + rows, None]))
    return radii


def _cells(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equal-count cells of the window: strips by real part, then cells by imaginary part.

    The window holds at least _CELL_VALUES values.  Returns the (cells, size)
    table of cell values, the mask of cells that hold size - 1 values (their
    last column repeats the cell's first value), and the (4, cells) bounding
    boxes [x0, x1, y0, y1] of the cells.
    """
    w = vals.size
    n_strips = round(np.sqrt(w / _CELL_VALUES))
    per_strip = w // _CELL_VALUES // n_strips
    order = np.argsort(vals.real)
    edges = np.arange(n_strips + 1) * w // n_strips
    for lo, hi in zip(edges[:-1], edges[1:]):
        order[lo:hi] = order[lo:hi][np.argsort(vals.imag[order[lo:hi]])]
    starts = (edges[:-1, None] + np.arange(per_strip) * np.diff(edges)[:, None] // per_strip).ravel()
    counts = np.diff(starts, append=w)
    size = int(counts.max())
    at = starts[:, None] + np.arange(size)
    short = counts < size
    at[short, -1] = starts[short]
    table = vals[order[at]]
    boxes = np.stack([table.real.min(axis=1), table.real.max(axis=1), table.imag.min(axis=1), table.imag.max(axis=1)])
    return table, short, boxes


def _prefiltered_radii(vals: np.ndarray, zs: np.ndarray, j: int) -> np.ndarray:
    """The sorted |vals - z| at rank j for every probe z, from the cells that can hold it.

    The rank-j distance is the need-th largest, need = w - j.  Per probe, the
    k cells with the largest distance lower bounds hold at least need values
    at distance >= L, the k-th largest lower bound, so a cell whose upper
    bound is below L holds none of the need largest.  The exact |v - z| is
    taken over the kept cells only, and the need-th largest of those is the
    radius whenever it exceeds every dropped cell's upper bound: then every
    distance above that bound is kept.  The test alone makes the result
    exact, so only the upper bounds need a margin, for the rounding of
    |v - z|.  A probe that fails it (say, a non-finite probe) is recomputed
    from its full row, so the radius is always the full row's order
    statistic.  Windows shorter than _PREFILTER_MIN, and blocks of probes
    whose kept cells are most of the window, partition full rows instead.
    """
    def full_rows(d):
        return np.partition(d, j, axis=1)[:, j]

    if vals.size < _PREFILTER_MIN:
        return _probe_radii(vals, zs, full_rows)
    table, short, (x0, x1, y0, y1) = _cells(vals)
    n_cells, size = table.shape
    need = vals.size - j
    k = -(-need // (size - int(short.any())))  # cells of the smallest count that hold need values
    if 2 * k > n_cells:
        return _probe_radii(vals, zs, full_rows)
    radii = np.empty(zs.size)
    exact = np.ones(zs.size, dtype=bool)
    rows = max(1, _PROBE_BLOCK // vals.size)
    for lo in range(0, zs.size, rows):
        z = zs[lo : lo + rows, None]
        left, right, below, above = x0 - z.real, z.real - x1, y0 - z.imag, z.imag - y1
        gap = np.empty(left.shape, dtype=np.complex128)
        with np.errstate(over="ignore"):  # a bound that overflows to inf is still a bound
            gap.real, gap.imag = np.maximum(np.maximum(left, right), 0.0), np.maximum(np.maximum(below, above), 0.0)
            level = np.partition(np.abs(gap), n_cells - k, axis=1)[:, n_cells - k, None]
            gap.real, gap.imag = -np.minimum(left, right), -np.minimum(below, above)
            upper = np.abs(gap) * (1.0 + _CANDIDATE_MARGIN) + _TINY
        kept = max(k, int(np.count_nonzero(upper >= level, axis=1).max()))
        if 2 * kept > n_cells:  # the kept cells hold most of the window
            radii[lo : lo + rows] = full_rows(np.abs(vals - z))
            continue
        order = np.argpartition(upper, n_cells - kept, axis=1)
        dropped = np.take_along_axis(upper, order[:, : n_cells - kept], axis=1).max(axis=1)
        cells = order[:, n_cells - kept :]
        d = np.abs(table[cells] - z[:, :, None])
        d[..., -1][short[cells]] = -np.inf
        d = d.reshape(z.size, -1)
        radii[lo : lo + rows] = np.partition(d, d.shape[1] - need, axis=1)[:, d.shape[1] - need]
        exact[lo : lo + rows] = radii[lo : lo + rows] > dropped
    redo = np.flatnonzero(~exact)
    if redo.size:
        radii[redo] = _probe_radii(vals, zs[redo], full_rows)
    return radii


def _st_radii(vals: np.ndarray, zs: np.ndarray, j: int) -> np.ndarray:
    """The sorted |vals - z| at rank j for every probe z.

    A window with at most w/8 distinct values is read through its distinct
    values and their counts: per probe, the rank-j value is the distinct
    distance whose cumulative count in sorted order first exceeds j.
    Other windows go through the cell prefilter of _prefiltered_radii.  Both
    give the same element as sorting the full row, and +-0.0 copies merged
    by _distinct have equal distances.
    """
    distinct, counts = _distinct(vals, return_counts=True)
    if 8 * distinct.size > vals.size:
        return _prefiltered_radii(vals, zs, j)

    def weighted_rank(d):
        order = np.argsort(d, axis=1)
        pick = np.argmax(np.cumsum(counts[order], axis=1) > j, axis=1)
        return np.take_along_axis(d, np.take_along_axis(order, pick[:, None], axis=1), axis=1)[:, 0]

    return _probe_radii(distinct, zs, weighted_rank)


def _disc_region(win, zs, angles, radii, method) -> RegionEstimate:
    if zs.size == 0:
        raise ValueError("empty probe grid")
    zxy = np.stack([zs.real, zs.imag], axis=1)
    h = np.min(zxy @ _unit(angles).T + radii[:, None], axis=0)
    return _region_from_support(h, angles, method, win)


def _probe_centers(vals: np.ndarray, angles: np.ndarray, z_grid, grid_n) -> np.ndarray:
    """The caller's z_grid as complex probe centers, else :func:`default_z_points`; grid_n is checked on both paths."""
    grid_n = check_grid_n(grid_n)
    return default_z_points(vals, angles, grid_n) if z_grid is None else np.asarray(z_grid, dtype=np.complex128)


def disc_core(
    points,
    window,
    z_grid=None,
    n_directions: int = DEFAULT_DIRECTIONS,
    grid_n: int = DEFAULT_GRID_N,
) -> RegionEstimate:
    """Intersection of discs with window-max radii |x_k - z| over probe centers z."""
    vals, win = _window_values(points, window)
    angles = direction_angles(n_directions)
    zs = _probe_centers(vals, angles, z_grid, grid_n)
    cands = _extreme_candidates(vals, float(np.max(np.abs(zs), initial=0.0)))
    radii = _probe_radii(cands, zs, lambda d: np.max(d, axis=1))
    return _disc_region(win, zs, angles, radii, "disc_intersection")


def st_core(
    points,
    window,
    density_tol: float = DEFAULT_DENSITY_TOL,
    z_grid=None,
    n_directions: int = DEFAULT_DIRECTIONS,
    grid_n: int = DEFAULT_GRID_N,
) -> RegionEstimate:
    """Disc intersection with statistical-limsup radii of |x_k - z|."""
    vals, win = _window_values(points, window)
    j = _st_rank(vals.size, density_tol)
    angles = direction_angles(n_directions)
    zs = _probe_centers(vals, angles, z_grid, grid_n)
    return _disc_region(win, zs, angles, _st_radii(vals, zs, j), "disc_intersection")


def alpha_core(x, sys: BandSystem, window, n_directions: int = DEFAULT_DIRECTIONS) -> RegionEstimate:
    """Hull estimate of the core of the band-transformed sequence.

    The transformed index 0 is excluded from windows (the intersection of
    tail hulls starts at index 1), so the window must start at 1 or later.
    """
    x = FiniteSeq.coerce(x)
    _check_window(x.n, window, min_start=1)
    tau = forward_transform(x, sys)
    return cluster_hull(tau, window, n_directions)


# ---------------------------------------------------------------------------
# comparisons and witnesses
# ---------------------------------------------------------------------------


def _require_same_angles(r1: RegionEstimate, r2: RegionEstimate):
    if r1.angles.size != r2.angles.size or not np.allclose(r1.angles, r2.angles):
        raise SchemaError("regions were sampled on different direction sets")


def region_included(inner: RegionEstimate, outer: RegionEstimate, tol: float = 0.0) -> tuple[bool, float]:
    """Directionwise support test: inner inside outer up to tol, plus the worst gap; SchemaError unless tol is finite."""
    if not np.isfinite(tol):
        raise SchemaError(f"tol must be finite: {tol!r}")
    _require_same_angles(inner, outer)
    gaps = inner.support - outer.support
    max_violation = float(np.max(gaps))
    return bool(np.all(gaps <= tol)), max_violation


def hausdorff_distance(r1: RegionEstimate, r2: RegionEstimate) -> float:
    """Sampled Hausdorff distance of convex regions: sup-norm support gap."""
    _require_same_angles(r1, r2)
    return float(np.max(np.abs(r1.support - r2.support)))


def sign_witness(A, row_blocks) -> FiniteSeq:
    """Bounded multiplier aligning designated rows with their absolute sums.

    For each (row, (c0, c1)) block the witness carries the conjugate phases
    of that row's entries on [c0, c1) (zero where the entry is zero) and is
    zero outside all blocks, so sum_k A[row, k] y_k equals the block's
    absolute sum; with disjoint row supports this is the full row's absolute
    sum, exactly for real entries.
    """
    dense = np.asarray(A)
    if dense.ndim != 2:
        raise ValueError("witness needs a dense matrix")
    n_rows, n_cols = dense.shape
    y = np.zeros(n_cols, dtype=np.complex128)
    taken = np.zeros(n_cols, dtype=bool)
    for row, (c0, c1) in row_blocks:
        if not (0 <= row < n_rows and 0 <= c0 < c1 <= n_cols):
            raise ValueError("block out of range")
        if np.any(taken[c0:c1]):
            raise ValueError("column blocks must be disjoint")
        taken[c0:c1] = True
        seg = dense[row, c0:c1]
        mags = np.abs(seg)
        phases = np.zeros(c1 - c0, dtype=np.complex128)
        nz = mags > 0.0
        if np.isrealobj(dense):
            phases[nz] = np.sign(seg[nz])
        else:
            phases[nz] = np.conj(seg[nz]) / mags[nz]
        y[c0:c1] = phases
    return FiniteSeq(y)
