"""Companion matrices and dual-set condition ladders.

Given a weight sequence a and a band system, two companion operators on the
transformed side encode multiplier statements about the original side:

* row-scaled inverse C[n, k] = V[n, k] a_n, so that (C y)_n = a_n x_n;
* its column-cumulative partner D[n, k] = sum_{j=k..n} a_j V[j, k], so that
  (D y)_n = sum_{k<=n} a_k x_k,

where V is the inverse band kernel and x the inverse transform of y.  The
dual sets S1..S16 are boundedness/limit statements about C and D, optionally
weighted by powers B^(+-1/p_k) and quantified over integers B > 1: the
alpha-, beta- and gamma-duals are the matrix classes C in (lambda, l1), D in
(lambda, c) and D in (lambda, l_inf).  So they are rows of the one condition
catalog in :mod:`seqcore.matclass`, evaluated and run there; this module
keeps the rule table that maps (space, dual) pairs to the required
condition sets, and :func:`dual_report` builds C and D and hands them over.

Numerical policy: "sup over all finite index subsets" is solved exactly up
to the exact cutoff and is otherwise replaced by its absolute-sum upper bound
(which sandwiches the subset sup within a constant factor, so boundedness
trends are preserved).  The exact solver is a branch and bound that expands
a whole frontier of partial subsets per numpy step, in blocks of bounded size
taken depth first.  Its incumbent is always a subset objective scored the way
the brute-force oracle scores it; it prunes a node only when the node's bound,
padded by a proven rounding slack relative to the objectives, cannot beat that
incumbent, and re-scores every surviving leaf the same way, so both return the
same float bit for bit (an overflowing objective gives inf in both).
That switch and the other matrix functionals of the catalog (signed column
sups, power row and entry sups) live here; each takes an ``out`` array for its
n x n intermediate.

A report builds only the companion its rule reads (no rule reads both), once,
at its largest truncation, in the first region of the report's one workspace
block (:class:`seqcore.matclass._Workspace`): the weights multiply the
system's read-only V (:func:`seqcore.band_ops.inverse_kernel`, built once per
system) into that region, a complex one for complex weights, and D is summed
down C's columns in place.  V, C and D at truncation n are bit-identical
leading n x n blocks of their largest versions (no entry depends on a later
index), so every ladder point reads a slice and every condition shares it.
:func:`companion_c`, :func:`companion_d` and
:func:`companion_identity_residuals` run the same builder on an array of
their own.  C is real when every weight has a zero imaginary part (a_n V[n, k]
then equals the real part of the complex product).  The builder raises
OverflowError when an entry leaves double precision, and the public
companions are read-only arrays.
Quantifiers over all B > 1 are sampled over a finite B ladder by the engine in
:mod:`seqcore.ladder`, and universally quantified verdicts are labelled as
tested-ladder evidence only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .band_ops import inverse_kernel, inverse_transform
from .ladder import truncation_ladder, witness_ladder
from .types import BandSystem, ExponentSeq, FiniteSeq, SchemaError
from .verdicts import aggregate_verdict

__all__ = [
    "companion_c",
    "companion_d",
    "subset_sup",
    "subset_sup_bruteforce",
    "subset_estimate",
    "signed_column_sup",
    "power_row_sup",
    "power_entry_sup",
    "companion_identity_residuals",
    "DualReport",
    "dual_report",
    "dual_rule_table",
    "DEFAULT_B_LADDER",
    "EXACT_SUBSET_LIMIT",
]

DEFAULT_B_LADDER = (2, 4, 16, 256)
EXACT_SUBSET_LIMIT = 20
# frontier nodes expanded per numpy step of the exact subset sup; bounds its memory
_FRONTIER_BLOCK = 1024

SPACES = ("s0", "sc", "sinf", "lp")
DUALS = ("alpha", "beta", "gamma")


def _companion_weights(a, n: int) -> np.ndarray:
    """The weights a_0..a_{n-1}, real when all their imaginary parts are zero; weights past n reach no entry."""
    a = FiniteSeq.coerce(a)
    if a.n < n:
        raise ValueError(f"weight sequence of length {a.n} cannot serve truncation {n}")
    w = a.values[:n]
    return w if w.imag.any() else w.real


def _companion(w: np.ndarray, sys: BandSystem, out: np.ndarray, cumulative: bool) -> np.ndarray:
    """C = diag(w) V, or D, its column cumsum, when cumulative; built in out, an n x n array of w's dtype, and returned.

    The products are those of w[:, None] * V, bit for bit.  Complex weights
    multiply V + 0j, copied into out first: the mixed-type product would
    buffer its casts, twice the copy's temporary memory.  Raises
    OverflowError when an entry leaves double precision.
    """
    V = inverse_kernel(sys, out.shape[0])
    if np.iscomplexobj(out):
        out[...] = V
        V = out
    with np.errstate(over="ignore", invalid="ignore"):  # overflow surfaces as OverflowError below
        C = np.multiply(w[:, None], V, out=out)
    if cumulative:
        return _cumulate(C)
    if not np.isfinite(C).all():
        raise OverflowError("companion entries overflow double precision at this truncation")
    return C


def _cumulate(C: np.ndarray) -> np.ndarray:
    """D, the column cumsum of C, in place; a non-finite entry stays so down its column, so the last row shows any."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow surfaces as OverflowError below
        np.cumsum(C, axis=0, out=C)
    if not np.isfinite(C[-1]).all():
        raise OverflowError("companion entries overflow double precision at this truncation")
    return C


def companion_c(a, sys: BandSystem, n: int) -> np.ndarray:
    """Row-scaled inverse kernel: C[n, k] = V[n, k] * a_n, read-only, real when every weight up to n is real."""
    w = _companion_weights(a, n)
    C = _companion(w, sys, np.empty((n, n), w.dtype), cumulative=False)
    C.setflags(write=False)
    return C


def companion_d(a, sys: BandSystem, n: int) -> np.ndarray:
    """Column-cumulative companion: D[n, k] = sum_{j=k..n} a_j V[j, k], the column cumsum of C; read-only."""
    w = _companion_weights(a, n)
    D = _companion(w, sys, np.empty((n, n), w.dtype), cumulative=True)
    D.setflags(write=False)
    return D


def companion_identity_residuals(a, y, sys: BandSystem) -> tuple[float, float]:
    """Relative residuals of (C y)_n = a_n x_n and (D y)_n = sum_{k<=n} a_k x_k.

    Both sides are evaluated through independent code paths (dense companion
    matrices vs the substitution inverse); the residual is the max-norm
    difference relative to the larger side's max norm.
    """
    a = FiniteSeq.coerce(a)
    y = FiniteSeq.coerce(y)
    n = y.n
    x = inverse_transform(y, sys).values
    ax = a.values[:n] * x
    w = _companion_weights(a, n)
    C = _companion(w, sys, np.empty((n, n), w.dtype), cumulative=False)
    lhs_c = C @ y.values
    lhs_d = _cumulate(C) @ y.values  # D overwrites C in place
    rhs_d = np.cumsum(ax)

    def rel(lhs, rhs):
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
        return float(np.max(np.abs(lhs - rhs)) / scale)

    return rel(lhs_c, ax), rel(lhs_d, rhs_d)


# ---------------------------------------------------------------------------
# subset suprema
# ---------------------------------------------------------------------------


def _working_matrix(matrix, axis, weights, out=None, staged=None):
    """W, the matrix with the subset indices as columns, weighted; a real W in out, a complex one in staged (in W's orientation)."""
    W = np.asarray(matrix)
    if W.ndim != 2:
        raise ValueError("subset_sup needs a matrix")
    if axis == "rows":
        W = W.T
    elif axis != "columns":
        raise ValueError("axis must be 'columns' or 'rows'")
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.size != W.shape[1] or not np.all((w > 0.0) & np.isfinite(w)):
            raise ValueError("weights must be finite and positive, one per subset index")
        W = np.multiply(W, w[None, :], out=staged if np.iscomplexobj(W) else out)
    return W


def _canonical_objective(W, cols, exponents):
    """Objective of one subset, computed the same way in every solver path."""
    if len(cols) == 0:
        return 0.0
    inner = np.abs(W[:, cols].sum(axis=1))
    return float((inner**exponents).sum())


def subset_sup_bruteforce(matrix, axis="columns", weights=None, outer_exponents=None) -> float:
    """Exhaustive enumeration over all 2^N subsets; the oracle for the exact solver."""
    W = _working_matrix(matrix, axis, weights)
    e = np.ones(W.shape[0]) if outer_exponents is None else np.asarray(outer_exponents, dtype=np.float64)
    ncols = W.shape[1]
    if ncols > 22:
        raise ValueError("brute force is limited to 22 subset indices")
    best = 0.0
    for mask in range(1 << ncols):
        cols = [c for c in range(ncols) if mask >> c & 1]
        best = max(best, _canonical_objective(W, cols, e))
    return best


def subset_sup(matrix, axis: str = "columns", weights=None, outer_exponents=None, mode: str = "exact", out=None, staged=None):
    """sup over subsets K of one axis of sum_i |sum_{k in K} W[i, k]|^(e_i).

    mode="exact" solves by branch and bound (subset count capped at
    EXACT_SUBSET_LIMIT); mode="bound" returns the absolute-sum upper bound,
    the objective with every |W[i, k]| in place of W[i, k].  Both return a
    float.  In bound mode, out (a float64 array of the matrix's shape, which
    may be the matrix itself) takes |W|, and a real W is weighted in it too;
    a complex W is weighted in staged, a complex128 array of the matrix's
    shape, when one is given.
    """
    if axis == "rows":  # out and staged in W's orientation
        out = None if out is None else out.T
        staged = None if staged is None else staged.T
    bound = mode == "bound"
    W = _working_matrix(matrix, axis, weights, out if bound else None, staged if bound else None)
    e = np.ones(W.shape[0]) if outer_exponents is None else np.asarray(outer_exponents, dtype=np.float64)
    if e.size != W.shape[0] or not np.all((e > 0.0) & np.isfinite(e)):
        raise ValueError("outer exponents must be finite and positive, one per outer index")

    if mode == "bound":
        return float((np.abs(W, out=out).sum(axis=1) ** e).sum())
    if mode != "exact":
        raise ValueError("mode must be 'exact' or 'bound'")
    ncols = W.shape[1]
    if ncols > EXACT_SUBSET_LIMIT:
        raise ValueError(f"exact subset sup is limited to {EXACT_SUBSET_LIMIT} subset indices (got {ncols})")

    return _branch_and_bound(W, np.abs(W), e)


def _bound_slack(absW, e):
    """Slack that turns computed node bounds into strict bounds on re-scored objectives.

    Every partial row sum, in any order, and its modulus lie within
    delta_i = 4 (N + 2) eps S_i of the exact |partial sum|, S_i the absolute
    mass of row i over N columns; the computed remaining masses lie within
    delta_i / 4 of theirs.  So with delta_i added three times to the
    remaining mass, every leaf below a node has |canonical row sum| at most
    the computed |partial sum| plus that remaining mass.  Returns that
    per-row pad, a factor that covers the relative rounding of pow, of the
    outer sums, of the bound itself and of comparing it with a cutoff, and an
    absolute floor for results in the subnormal range (zero for an all-zero
    matrix, whose objectives are all exactly zero).  Both are relative to the
    objectives, so large exponents and overflowing masses still prune.
    """
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
    m, ncols = absW.shape
    mass = absW.sum(axis=1) * (1.0 + ncols * eps)
    pad = 12.0 * (ncols + 2) * eps * mass
    grow = (1.0 + 4.0 * eps) ** (float(e.max(initial=0.0)) + 2 * m + 8)
    floor = 4.0 * (m + 1) * tiny if absW.any() else 0.0
    return pad, grow, floor


def _branch_and_bound(W, absW, e) -> float:
    """Exact subset sup by a branch and bound that expands whole frontiers at once.

    Columns are decided in decreasing-mass order.  A node is a row of partial
    row sums, whose extra last entry accumulates the subset bitmask (adding
    2^j is exact); every node of a frontier branches into include/exclude
    children in one numpy step.  The incumbent is always the re-scored
    (:func:`_canonical_objective`) value of a subset: at each depth the new
    subset with the largest computed objective is re-scored when that
    objective beats it.  A child is pruned when its bound
    sum_i (|vec_i| + rem_i)^e_i, rem the absolute mass of the undecided
    columns padded by :func:`_bound_slack`, provably cannot exceed the
    incumbent; a bound that overflows or is NaN prunes nothing.  A frontier
    of more than _FRONTIER_BLOCK nodes is split and its parts are expanded
    depth first.  The surviving leaves are re-scored, so the result is
    bitwise the brute-force maximum; an infinite one ends the search.
    """
    m, ncols = W.shape
    order = np.argsort(-absW.sum(axis=0))
    cols = np.zeros((ncols, m + 1), dtype=np.result_type(W, np.float64))  # the j-th searched column, and 2^j
    cols[:, :m] = W[:, order].T
    cols[:, m] = 2.0 ** np.arange(ncols)
    pad, grow, floor = _bound_slack(absW, e)
    rem = np.zeros((ncols + 1, m))
    rem[:-1] = np.abs(cols[::-1, :m]).cumsum(axis=0)[::-1]
    rem += pad
    power = e[0] if e.size and np.all(e == e[0]) else e  # a scalar exponent takes numpy's fast paths for 1 and 2

    def rescore(mask):
        mask = int(mask.real)
        return _canonical_objective(W, sorted(int(order[c]) for c in range(ncols) if mask >> c & 1), e)

    def cutoff(best):  # bounds up to this one give b * grow + floor <= best; grow has room for the rounding
        return (best - floor) / grow

    best = max(0.0, _canonical_objective(W, list(range(ncols)), e))  # max() drops a NaN, as brute force does
    cut = cutoff(best)
    stack = [(0, np.zeros((1, m + 1), dtype=cols.dtype))]
    with np.errstate(over="ignore", invalid="ignore"):
        while stack and best != np.inf:
            j, vec = stack.pop()
            while j < ncols and vec.shape[0]:
                vec = np.concatenate((vec + cols[j], vec))  # the new subsets, then the ones already seen
                mag = np.abs(vec[:, :m])
                obj = np.add.reduce(mag[: vec.shape[0] // 2] ** power, axis=1)
                i = obj.argmax()
                if obj[i] > best:
                    best = max(best, rescore(vec[i, m]))
                    cut = cutoff(best)
                j += 1
                mag += rem[j]
                mag **= power
                vec = vec[~(np.add.reduce(mag, axis=1) <= cut)]  # a NaN bound prunes nothing
                if vec.shape[0] > _FRONTIER_BLOCK:
                    stack.append((j, vec[_FRONTIER_BLOCK:].copy()))
                    vec = vec[:_FRONTIER_BLOCK]
            ub = np.add.reduce((np.abs(vec[:, :m]) + rem[ncols]) ** power, axis=1)  # the leaves, or an emptied block
            keep = np.flatnonzero(~(ub <= cut))
            for i in keep[np.argsort(-ub[keep], kind="stable")]:
                if not ub[i] <= cut:
                    best = max(best, rescore(vec[i, m]))
                    cut = cutoff(best)
    return best


def subset_estimate(matrix, axis, weights=None, outer_exponents=None, out=None, staged=None) -> float:
    """Exact subset sup up to EXACT_SUBSET_LIMIT subset indices, absolute-sum upper bound (into out and staged) beyond."""
    exact = np.shape(matrix)[1 if axis == "columns" else 0] <= EXACT_SUBSET_LIMIT
    return subset_sup(matrix, axis, weights, outer_exponents, mode="exact" if exact else "bound", out=out, staged=staged)


# out: a float64 array of the matrix's shape for the functional's n x n intermediate; it may be the matrix itself


def signed_column_sup(matrix: np.ndarray, exponents: np.ndarray, out: np.ndarray | None = None) -> float:
    """sup_k (sup_K |sum_{n in K} matrix[n, k]|)^p_k: the larger signed mass of each column."""
    if np.iscomplexobj(matrix):
        raise ValueError("subset column sups need real entries")
    pos = np.maximum(matrix, 0.0, out=out).sum(axis=0)
    neg = np.maximum(np.negative(matrix, out=out), 0.0, out=out).sum(axis=0)
    return float(np.max(np.maximum(pos, neg) ** exponents))


def power_row_sup(matrix: np.ndarray, exponents: np.ndarray, out: np.ndarray | None = None) -> float:
    """sup_n sum_k |matrix[n, k]|^p_k."""
    powers = np.abs(matrix, out=out).astype(np.float64, copy=False)
    np.power(powers, exponents[None, :], out=powers)
    return float(np.max(powers.sum(axis=1)))


def power_entry_sup(matrix: np.ndarray, exponents: np.ndarray, out: np.ndarray | None = None) -> float:
    """sup_{n,k} |matrix[n, k]|^p_k."""
    powers = np.abs(matrix, out=out).astype(np.float64, copy=False)
    return float(np.max(np.power(powers, exponents[None, :], out=powers)))


# ---------------------------------------------------------------------------
# dual rules
# ---------------------------------------------------------------------------


_LOW, _HIGH = "0<p<=1", "1<p<=H"

# (space, dual) -> condition ids; the lp entries are split by exponent regime
DUAL_RULES: dict = {
    ("s0", "alpha"): ("S1",),
    ("sc", "alpha"): ("S1", "S2"),
    ("s0", "beta"): ("S3", "S4", "S5"),
    ("sc", "beta"): ("S3", "S4", "S5", "S6"),
    ("s0", "gamma"): ("S3",),
    ("sc", "gamma"): ("S3", "S7"),
    ("sinf", "alpha"): ("S8",),
    ("sinf", "beta"): ("S9", "S10"),
    ("sinf", "gamma"): ("S11",),
    ("lp", "alpha"): {_LOW: ("S12",), _HIGH: ("S13",)},
    ("lp", "beta"): ("S14", "S15", "S16"),
    ("lp", "gamma"): {_LOW: ("S15",), _HIGH: ("S14",)},
}


def dual_rule_table() -> dict:
    """The (space, dual) -> condition mapping in serializable form."""
    out = {}
    for (space, dual), rule in DUAL_RULES.items():
        key = f"{space}.{dual}"
        if isinstance(rule, dict):
            out[key] = {regime: list(ids) for regime, ids in rule.items()}
        else:
            out[key] = list(rule)
    return out


def _conditions_for(space, dual, p: ExponentSeq):
    if space not in SPACES or dual not in DUALS:
        raise SchemaError(f"unknown (space, dual) pair ({space!r}, {dual!r})")
    rule = DUAL_RULES[(space, dual)]
    if isinstance(rule, dict):
        if np.all(p.p <= 1.0):
            return rule[_LOW]
        if np.all(p.p > 1.0):
            return rule[_HIGH]
        raise SchemaError("mixed exponent regimes (some p_k <= 1 < others) are not characterized")
    return rule


@dataclass(frozen=True)
class DualReport:
    space: str
    dual: str
    conditions: tuple
    aggregate: str

    def to_json(self) -> dict:
        return {
            "space": self.space,
            "dual": self.dual,
            "aggregate": self.aggregate,
            "conditions": [c.to_json() for c in self.conditions],
        }


def dual_report(
    a,
    sys: BandSystem,
    p: ExponentSeq,
    space: str,
    dual: str,
    ladder,
    b_ladder=DEFAULT_B_LADDER,
) -> DualReport:
    """Evaluate the dual-set conditions for (space, dual) over a truncation ladder.

    The conditions are rows of :data:`seqcore.matclass.DUAL_CONDITIONS`, run
    by the class catalog's runner with the B ladder as witness values.
    Fitted parameters: the column limits beta_k are read off the last row of
    the cumulative companion at the largest truncation, and the scalar beta
    from its last row sum.  Existence quantifiers over B pass on the first
    successful ladder value; universal ones require every ladder value and
    are marked as tested-ladder evidence.
    """
    from .matclass import DUAL_CONDITIONS, _Workspace, _check_inputs, _condition_verdict  # matclass imports this module

    b_ladder = witness_ladder(b_ladder)
    ladder = truncation_ladder(ladder)
    p = ExponentSeq.coerce(p, ladder[-1], "p")  # every pair needs p, and the lp regime split reads its terms
    cond_ids = _conditions_for(space, dual, p)
    _check_inputs(cond_ids, ladder, p, None)
    top = ladder[-1]
    w = _companion_weights(a, top)
    real_only = [cid for cid in cond_ids if DUAL_CONDITIONS[cid].real_only]
    if real_only and np.iscomplexobj(w):
        raise SchemaError(f"{space}.{dual}: condition {real_only[0]} is characterized for real weights only")
    (source,) = {DUAL_CONDITIONS[cid].source for cid in cond_ids}  # no rule reads both C and D
    # the companion at the largest truncation, in the workspace; every rung reads its leading block
    work = _Workspace(ladder, [top * top * w.itemsize // 8], width=w.itemsize // 8)
    companion = _companion(w, sys, work.lead(0, top, w.dtype), source == "D")
    sources = {n: {source: companion[:n, :n]} for n in ladder}
    verdicts = tuple(_condition_verdict(cid, sources, ladder, p, None, b_ladder, work) for cid in cond_ids)
    return DualReport(space, dual, verdicts, aggregate_verdict(v.verdict for v in verdicts))
