"""Matrix-class conditions: transformed-side matrices and the condition catalog.

For a matrix A acting on sequences whose band transform lies in a Maddox-type
space, membership of A in a mapping class reduces to conditions on the
composed matrix

    E[n, k] = sum_{j=k..inf} A[n, j] V[j, k]

(V the inverse band kernel) and on its partial-sum families
E^(n)[m, k] = sum_{j=k..m} A[n, j] V[j, k].  For source spaces built from a
second matrix B the relevant object is the band-transformed matrix

    btilde[n, k] = (r_n B[n, k] + s_{n-1} B[n-1, k]) / alpha_n

(row -1 treated as zero).  The catalog below is one catalog in two rule
tables, and a row is the one place its condition is defined: source,
quantifier, kind, exponent inputs, the witness-free array it reads and the
evaluator that reads it (both methods of :class:`_Rung`).  CONDITIONS holds
the class conditions: mt23..mt41 drive the nine transformed-space mapping
classes, the L2.x entries are classical variable-exponent conditions on a
generic matrix, and the 4.x entries are the regularity/core conditions on
btilde.  DUAL_CONDITIONS holds the dual sets S1..S16 on the companions C and
D of :mod:`seqcore.duals`, whose reports run them through the same runner.
Twins, such as an S set that is a class condition on C or D, share one
evaluator and differ only in their source or array.  Class reports dispatch
the exact condition set of the corresponding characterization and aggregate
verdicts with fails dominating, then inconclusive.

Everything is ladder-based evidence in the sense of :mod:`seqcore.verdicts`;
universally quantified integers L and existentially quantified integers M are
sampled over a finite quantifier ladder by the engine in
:mod:`seqcore.ladder`.  A dual set's B is sampled over the dual report's B
ladder and binds as M when existential and as L when universal.  The matrix
functionals (subset estimates, signed column sups, power row and entry sups)
live in :mod:`seqcore.duals`.  A class report builds its sources once per
rung and hands them to every condition: btilde once at the largest
truncation, sliced per ladder point, and E once per ladder point: T is lower
bidiagonal, so rung n solves E T = A on the leading n x n block of A in
O(n^2).  V is lower triangular, so the partial-sum family of row i is zero
from column stop_i on (one past the last nonzero of A[i]) and repeats its row
stop_i - 1 below it; the partial-sum conditions (mt23, mt25-mt28) share each
probe row's stop_i x stop_i support block, built from the leading blocks of
the top rung's A and V.  A condition's witness-free array (|E|, |D - beta_k|,
|block|) is built once per rung.  beta_k is fitted from the top rung's last
row and kept complex when the source is complex.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .band_ops import inverse_kernel
from .duals import (  # noqa: F401 - perfbench traces matclass.subset_sup as an import site
    power_entry_sup,
    power_row_sup,
    signed_column_sup,
    subset_estimate,
    subset_sup,
)
from .generators import materialize_matrix
from .io import SchemaError
from .ladder import WITNESS_LAYERS, ladder_verdict, truncation_ladder, window
from .types import BandSystem, ExponentSeq
from .verdicts import ConditionVerdict, aggregate_verdict

__all__ = [
    "btilde",
    "e_matrix",
    "EPartial",
    "eval_condition",
    "ClassReport",
    "class_report",
    "condition_catalog",
    "class_rule_table",
    "default_density_sets",
    "CLASS_RULES",
    "DEFAULT_QUANTIFIER_LADDER",
]

DEFAULT_QUANTIFIER_LADDER = (2, 4, 16, 256)

_PROBE_ROWS = 8
_PROBE_COLS = 16


def btilde(B, sys: BandSystem, n: int) -> np.ndarray:
    """Band-transform the rows of B: (r_n B[n] + s_{n-1} B[n-1]) / alpha_n."""
    dense = materialize_matrix(B, n)
    r, s, a = sys.params(n)
    out = np.empty_like(dense, dtype=np.result_type(dense.dtype, np.float64))
    out[0] = r[0] * dense[0] / a[0]
    if n > 1:
        out[1:] = (r[1:, None] * dense[1:] + s[:-1, None] * dense[:-1]) / a[1:, None]
    return out


class EPartial:
    """Partial-sum families of the composed matrix.

    The family of row i is E^(i)[m, k] = sum_{j=k..m} A[i, j] V[j, k],
    accumulated in index order j.  ``support(i)`` returns all of its content:
    the stop x stop block of that cumulative sum, stop one past the last
    nonzero entry of A[i] (0 for a zero row).  V is lower triangular, so the
    family is zero in every column k >= stop, and every row m >= stop adds
    only zero terms, so it repeats row stop - 1: the n x n family is the
    block with zero columns appended and its last row repeated, equal in
    value (and bit for bit up to the sign of a zero) to the cumulative sum
    over all of V.
    """

    def __init__(self, A: np.ndarray, V: np.ndarray):
        self._A = A
        self._V = V

    @property
    def n(self) -> int:
        return self._A.shape[0]

    def support(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} out of range")
        a = self._A[i]
        nonzero = np.flatnonzero(a)
        stop = int(nonzero[-1]) + 1 if nonzero.size else 0
        return np.cumsum(a[:stop, None] * self._V[:stop, :stop], axis=0)


def _solve_composed(dense: np.ndarray, sys: BandSystem) -> np.ndarray:
    """E = dense V without V: solve E T = dense for the bidiagonal T, last column first.

    E[:, k] = (alpha_k / r_k) (dense[:, k] - (s_k / alpha_{k+1}) E[:, k+1])
    is one row of a transposed buffer (a complex one viewed as float pairs),
    so a step is three in-place ufuncs over that row.
    """
    r, s, a = sys.params(dense.shape[0])
    cols = np.array(dense.T, dtype=np.result_type(dense.dtype, np.float64), order="C")
    work = cols.view(np.float64)
    step = np.empty(work.shape[1])
    scale, carry = (a / r).tolist(), (s[:-1] / a[1:]).tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # overflow surfaces as OverflowError below
        work[-1] *= scale[-1]
        for k in reversed(range(len(carry))):
            np.multiply(work[k + 1], carry[k], out=step)
            np.subtract(work[k], step, out=work[k])
            np.multiply(work[k], scale[k], out=work[k])
    if not np.isfinite(work).all():
        raise OverflowError("composed matrix entries overflow double precision at this truncation")
    return np.ascontiguousarray(cols.T)


def e_matrix(A, sys: BandSystem, n: int) -> tuple[np.ndarray, EPartial]:
    """Composed matrix E = A V at truncation n, plus its partial-sum families.

    E is C-contiguous, from the O(n^2) solve :func:`_solve_composed`, and
    within a few n eps (|A| |V|) of the cumulative sums of the partial-sum
    families over the dense V (Higham, ch. 8), not bit for bit.  Raises
    OverflowError when V or E leaves double precision.
    """
    if n < 1:
        raise ValueError("truncation must be >= 1")
    dense = materialize_matrix(A, n)
    V = inverse_kernel(sys, n).entries
    return _solve_composed(dense, sys), EPartial(dense, V)


def default_density_sets(n: int) -> list[tuple[str, np.ndarray]]:
    """Named index sets of natural density zero used by the vanishing condition."""
    k = np.arange(n)
    roots = np.floor(np.sqrt(k + 0.5)).astype(np.int64)
    squares = roots * roots == k
    powers = np.zeros(n, dtype=bool)
    v = 1
    while v < n:
        powers[v] = True
        v *= 2
    return [("squares", squares), ("powers_of_two", powers)]


# ---------------------------------------------------------------------------
# condition catalog
# ---------------------------------------------------------------------------


class _Rung:
    """One ladder point of one condition: its witness-free array and the functionals that read it.

    A catalog row's ``free`` builds ``self.free`` once from the rung's source
    (the source itself when the row names none), and its ``evaluate`` reads
    it at a witness binding, returning (value, deviation | None).
    """

    def __init__(self, spec, src, n: int, p, q, beta_k, beta):
        self.n, self.win, self.p, self.beta_k = n, window(n), p, beta_k
        self.pk = p.p[:n] if p is not None else None
        self.qn = q[:n] if q is not None else None
        self.ref = beta if spec.uses_beta else spec.target
        self.free = spec.free(self, src) if spec.free else src

    # witness-free arrays, from a dense source or (partial sums) the probe rows' support blocks
    def absolute(self, G):
        return np.abs(G)

    def absolute_probe_rows(self, G):
        return np.abs(G[:_PROBE_ROWS])

    def deviations(self, G):
        return np.abs(G - self.beta_k[: self.n][None, :])

    def lower_deviations(self, G):
        return np.abs(np.tril(G - self.beta_k[None, : self.n]))

    def column_deviations(self, G):
        cols = min(_PROBE_COLS, self.n)
        return np.abs(G[self.win, :cols] - self.beta_k[:cols][None, :])

    def column_deviations_in_q(self, G):
        return self.column_deviations(G) ** self.qn[self.win][:, None]

    def window_deviation_sums(self, G):
        return np.abs(G[self.win] - self.beta_k[: self.n][None, :]).sum(axis=1)

    def density_window_sums(self, G):
        return np.array([np.abs(G[:, mask]).sum(axis=1)[self.win] for _, mask in default_density_sets(self.n)])

    def row_sums(self, G):
        return G.sum(axis=1)

    def real_row_sums(self, G):
        return np.real(G.sum(axis=1))

    def absolute_row_sums(self, G):
        return np.abs(G).sum(axis=1)

    def window_columns(self, G):
        return [G[self.win, : min(_PROBE_COLS, max(1, self.n // 2))]]

    def absolute_blocks(self, blocks):
        return [(i, np.abs(block)) for i, block in blocks]

    def window_blocks(self, blocks):
        """The window rows of each support block: a family's later rows repeat its last and add no spread."""
        return [block[self.win.start :] for _, block in blocks]

    # evaluators at one witness binding
    def inflated_rows(self, L, M):
        return float(np.max(self.free @ (float(L) ** (1.0 / self.pk)))), None

    def deflated_rows(self, L, M):
        return float(np.max(self.free @ (float(M) ** (-1.0 / self.pk)))), None

    def scaled_rows(self, L, M):
        return float(np.max((self.free @ (float(M) ** (-1.0 / self.pk))) * (float(L) ** (1.0 / self.qn)))), None

    def deflated_rows_in_q(self, L, M):
        return float(np.max((self.free @ (float(M) ** (-1.0 / self.pk))) ** self.qn)), None

    def inflated_row_sum_spread(self, L, M):
        fw = (self.free @ (float(L) ** (1.0 / self.pk)))[self.win]
        spread = float(np.max(fw) - np.min(fw)) if fw.size else 0.0
        return spread, spread

    def inflated_row_sums_vanish(self, L, M):
        fw = (self.free @ (float(L) ** (1.0 / self.pk)))[self.win]
        val = float(np.max(fw)) if fw.size else 0.0
        return val, val

    def inflated_deviation_rows(self, L, M):
        f = self.free @ (float(L) ** (1.0 / self.pk))
        return float(f[-1]), float(np.max(f[self.win])) if f[self.win].size else 0.0

    def window_max(self, L, M):
        val = float(np.max(self.free)) if self.free.size else 0.0
        return val, val

    def largest_absolute(self, L, M):
        return float(np.max(np.abs(self.free))), None

    def absolute_total(self, L, M):
        return float(np.sum(np.abs(self.free))), None

    def largest_absolute_in_q(self, L, M):
        return float(np.max(np.abs(self.free) ** self.qn)), None

    def row_sums_converge(self, L, M):
        f = self.free
        return float(np.real(f[-1])), float(np.max(np.abs(f[self.win] - self.ref))) if f[self.win].size else 0.0

    def row_sums_converge_in_q(self, L, M):
        f = np.abs(self.free - self.ref) ** self.qn
        return float(f[-1]), float(np.max(f[self.win])) if f[self.win].size else 0.0

    def deflated_subset_columns(self, L, M):
        return subset_estimate(self.free, "columns", float(M) ** (-1.0 / self.pk)), None

    def inflated_subset_columns(self, L, M):
        return subset_estimate(self.free, "columns", float(L) ** (1.0 / self.pk)), None

    def subset_rows_conjugate(self, L, M):
        return subset_estimate(self.free / float(M), "rows", None, self.p.conjugate()[: self.n]), None

    def signed_columns(self, L, M):
        return signed_column_sup(self.free, self.pk), None

    def power_rows_conjugate(self, L, M):
        return power_row_sup(self.free / float(M), self.p.conjugate()[: self.n]), None

    def power_entries(self, L, M):
        return power_entry_sup(self.free, self.pk), None

    def window_spread(self, L, M):
        """The largest spread max - min down a column of any window block."""
        worst = 0.0
        for block in self.free:
            if block.size:
                worst = max(worst, float(np.max(np.abs(block.max(axis=0) - block.min(axis=0)))))
        return worst, worst

    def scaled_partial_rows(self, L, M):
        """Probe row i's largest absolute partial-sum row deflated by M^(-1/p_k), and inflated by L^(1/q_i) when L is bound."""
        deflate = float(M) ** (-1.0 / self.pk)
        worst = 0.0
        for i, block in self.free:
            w = deflate if L is None else float(L) ** (1.0 / self.qn[i]) * deflate
            worst = max(worst, float(np.max(block @ w[: block.shape[0]])))
        return worst, None

    def deflated_partial_rows(self, L, M):
        return self.scaled_partial_rows(None, M)

    def partial_concentration(self, L, M):
        """The largest window deviation sum of a probe row's family from the median of its last row.

        The family is its support block zero-padded to n columns, with row
        n - 1 appended when the family is longer than its block: every later
        row repeats the block's last, and row n - 1's deviation sum bounds
        theirs, since each of its entries is at least theirs and a rounded
        sum of nonnegative terms is monotone in each term.  A complex family
        fits the medians of its real and imaginary parts.
        """
        worst, start = 0.0, self.win.start
        for _, block in self.free:
            stop = block.shape[0]
            below = max(stop - start, 0)
            fam = np.zeros((below + (stop < self.n), self.n), dtype=block.dtype)
            if not fam.size:
                continue
            fam[:below, :stop] = block[stop - below :]
            fam[below:, :stop] = block[-1]
            last = fam[-1]
            fit = complex(np.median(last.real), np.median(last.imag)) if np.iscomplexobj(last) else float(np.median(last))
            dev = np.abs(fam - fit)
            dev[:below] = np.tril(dev[:below], start)
            worst = max(worst, float(np.max(dev.sum(axis=1))))
        return worst, worst


@dataclass(frozen=True)
class ConditionSpec:
    anchor: str
    source: str  # "E" | "partial" | "btilde" | "matrix" | companion "C" | "D"
    quantifier: str  # plain | forall_l | exists_m | forall_l_exists_m | exists_b | forall_b
    kind: str  # bounded | limit
    evaluate: Callable  # a _Rung evaluator; twins share it and differ in free
    free: Callable | None = None  # a _Rung witness-free array builder; None reads the source itself
    needs_p: bool = False
    needs_q: bool = False
    needs_conjugate: bool = False
    uses_beta_k: bool = False
    uses_beta: bool = False
    target: float = 0.0


CONDITIONS: dict[str, ConditionSpec] = {
    # composed-matrix conditions driving the mapping-class reports
    "mt23": ConditionSpec("partial sums defining the composed matrix stabilize", "partial", "plain", "limit", _Rung.window_spread, _Rung.window_blocks),
    "mt24": ConditionSpec("weighted absolute rows finite for every inflation L", "E", "forall_l", "bounded", _Rung.inflated_rows, _Rung.absolute_probe_rows, needs_p=True),
    "mt25": ConditionSpec("partial sums converge rowwise to fitted limits", "partial", "plain", "limit", _Rung.window_spread, _Rung.window_blocks),
    "mt26": ConditionSpec("deflated partial-sum rows bounded for some M", "partial", "exists_m", "bounded", _Rung.deflated_partial_rows, _Rung.absolute_blocks, needs_p=True),
    "mt27": ConditionSpec("jointly inflated/deflated partial-sum rows bounded", "partial", "forall_l_exists_m", "bounded", _Rung.scaled_partial_rows, _Rung.absolute_blocks, needs_p=True, needs_q=True),
    "mt28": ConditionSpec("partial-sum rows concentrate at a single fitted value", "partial", "plain", "limit", _Rung.partial_concentration),
    "mt29": ConditionSpec("inflated absolute rows uniformly bounded", "E", "forall_l", "bounded", _Rung.inflated_rows, _Rung.absolute, needs_p=True),
    "mt30": ConditionSpec("columns converge to fitted limits", "E", "plain", "limit", _Rung.window_max, _Rung.column_deviations, uses_beta_k=True),
    "mt31": ConditionSpec("inflated absolute row sums converge", "E", "forall_l", "limit", _Rung.inflated_row_sum_spread, _Rung.absolute, needs_p=True),
    "mt32": ConditionSpec("inflated absolute row sums vanish", "E", "forall_l", "limit", _Rung.inflated_row_sums_vanish, _Rung.absolute, needs_p=True),
    "mt33": ConditionSpec("deflated absolute rows bounded in target exponents", "E", "exists_m", "bounded", _Rung.deflated_rows_in_q, _Rung.absolute, needs_p=True, needs_q=True),
    "mt34": ConditionSpec("entries vanish in target exponents", "E", "plain", "limit", _Rung.window_max, _Rung.column_deviations_in_q, needs_q=True),
    "mt35": ConditionSpec("jointly scaled absolute rows bounded", "E", "forall_l_exists_m", "bounded", _Rung.scaled_rows, _Rung.absolute, needs_p=True, needs_q=True),
    "mt36": ConditionSpec("column deviations vanish in target exponents", "E", "plain", "limit", _Rung.window_max, _Rung.column_deviations_in_q, needs_q=True, uses_beta_k=True),
    "mt37": ConditionSpec("deflated absolute rows bounded for some M", "E", "exists_m", "bounded", _Rung.deflated_rows, _Rung.absolute, needs_p=True),
    "mt38": ConditionSpec("scaled column-deviation rows bounded", "E", "forall_l_exists_m", "bounded", _Rung.scaled_rows, _Rung.deviations, needs_p=True, needs_q=True, uses_beta_k=True),
    "mt39": ConditionSpec("row sums bounded in target exponents", "E", "plain", "bounded", _Rung.largest_absolute_in_q, _Rung.row_sums, needs_q=True),
    "mt40": ConditionSpec("row sums vanish in target exponents", "E", "plain", "limit", _Rung.row_sums_converge_in_q, _Rung.row_sums, needs_q=True),
    "mt41": ConditionSpec("row sums converge in target exponents", "E", "plain", "limit", _Rung.row_sums_converge_in_q, _Rung.row_sums, needs_q=True, uses_beta=True),
    # classical variable-exponent conditions on a generic matrix
    "L2.3": ConditionSpec("deflated subset column sums summable for some B", "matrix", "exists_m", "bounded", _Rung.deflated_subset_columns, needs_p=True),
    "L2.4a": ConditionSpec("deflated absolute rows bounded for some B", "matrix", "exists_m", "bounded", _Rung.deflated_rows, _Rung.absolute, needs_p=True),
    "L2.4b": ConditionSpec("columns converge to fitted limits", "matrix", "plain", "limit", _Rung.window_max, _Rung.column_deviations, uses_beta_k=True),
    "L2.4c": ConditionSpec("deflated column-deviation rows bounded for some B", "matrix", "exists_m", "bounded", _Rung.deflated_rows, _Rung.deviations, needs_p=True, uses_beta_k=True),
    "L2.5": ConditionSpec("deflated absolute rows bounded for some B", "matrix", "exists_m", "bounded", _Rung.deflated_rows, _Rung.absolute, needs_p=True),
    "L2.6i": ConditionSpec("subset row sums bounded in conjugate exponents", "matrix", "exists_m", "bounded", _Rung.subset_rows_conjugate, needs_p=True, needs_conjugate=True),
    "L2.6ii": ConditionSpec("subset column sups bounded in native exponents", "matrix", "plain", "bounded", _Rung.signed_columns, needs_p=True),
    "L2.7i": ConditionSpec("scaled rows bounded in conjugate exponents", "matrix", "exists_m", "bounded", _Rung.power_rows_conjugate, needs_p=True, needs_conjugate=True),
    "L2.7ii": ConditionSpec("entries bounded in native exponents", "matrix", "plain", "bounded", _Rung.power_entries, needs_p=True),
    "2.15": ConditionSpec("columns converge to fitted limits", "matrix", "plain", "limit", _Rung.window_max, _Rung.column_deviations, uses_beta_k=True),
    # band-transformed-matrix conditions (regularity and core inclusion)
    "4.1": ConditionSpec("absolute row sums bounded", "btilde", "plain", "bounded", _Rung.largest_absolute, _Rung.absolute_row_sums),
    "4.2": ConditionSpec("columns converge to fitted limits", "btilde", "plain", "limit", _Rung.window_max, _Rung.column_deviations, uses_beta_k=True),
    "4.2z": ConditionSpec("columns vanish", "btilde", "plain", "limit", _Rung.window_max, _Rung.column_deviations),
    "4.3": ConditionSpec("absolute column-deviation rows vanish", "btilde", "plain", "limit", _Rung.window_max, _Rung.window_deviation_sums, uses_beta_k=True),
    "4.5": ConditionSpec("row sums tend to one", "btilde", "plain", "limit", _Rung.row_sums_converge, _Rung.real_row_sums, target=1.0),
    "4.6": ConditionSpec("absolute rows over density-zero sets vanish", "btilde", "plain", "limit", _Rung.window_max, _Rung.density_window_sums),
    "4.8": ConditionSpec("absolute row sums tend to one", "btilde", "plain", "limit", _Rung.row_sums_converge, _Rung.absolute_row_sums, target=1.0),
}

# the dual sets: conditions on the companions C and D of a weight sequence
DUAL_CONDITIONS: dict[str, ConditionSpec] = {
    "S1": ConditionSpec("row-scaled inverse, weighted subset column sums", "C", "exists_b", "bounded", _Rung.deflated_subset_columns, needs_p=True),
    "S2": ConditionSpec("row-scaled inverse, absolute row sums", "C", "plain", "bounded", _Rung.absolute_total, _Rung.row_sums),
    "S3": ConditionSpec("cumulative companion, weighted absolute rows", "D", "exists_b", "bounded", _Rung.deflated_rows, _Rung.absolute, needs_p=True),
    "S4": ConditionSpec("cumulative companion, column limits exist", "D", "plain", "limit", _Rung.window_spread, _Rung.window_columns),
    "S5": ConditionSpec("cumulative companion, weighted deviation rows", "D", "exists_b", "bounded", _Rung.deflated_rows, _Rung.lower_deviations, needs_p=True, uses_beta_k=True),
    "S6": ConditionSpec("cumulative companion, row sums converge", "D", "plain", "limit", _Rung.row_sums_converge, _Rung.row_sums, uses_beta=True),
    "S7": ConditionSpec("cumulative companion, bounded row sums", "D", "plain", "bounded", _Rung.largest_absolute, _Rung.row_sums),
    "S8": ConditionSpec("cumulative companion, inflated subset column sums", "D", "forall_b", "bounded", _Rung.inflated_subset_columns, needs_p=True),
    "S9": ConditionSpec("cumulative companion, inflated absolute rows", "D", "forall_b", "bounded", _Rung.inflated_rows, _Rung.absolute, needs_p=True),
    "S10": ConditionSpec("cumulative companion, inflated deviation rows vanish", "D", "forall_b", "limit", _Rung.inflated_deviation_rows, _Rung.lower_deviations, needs_p=True, uses_beta_k=True),
    "S11": ConditionSpec("cumulative companion, inflated absolute rows", "D", "forall_b", "bounded", _Rung.inflated_rows, _Rung.absolute, needs_p=True),
    "S12": ConditionSpec("cumulative companion, subset row sums, native exponents", "D", "plain", "bounded", _Rung.signed_columns, needs_p=True),
    "S13": ConditionSpec("cumulative companion, subset column sums, conjugate exponents", "D", "exists_b", "bounded", _Rung.subset_rows_conjugate, needs_p=True, needs_conjugate=True),
    "S14": ConditionSpec("cumulative companion, scaled rows, conjugate exponents", "D", "exists_b", "bounded", _Rung.power_rows_conjugate, needs_p=True, needs_conjugate=True),
    "S15": ConditionSpec("cumulative companion, entrywise native exponents", "D", "plain", "bounded", _Rung.power_entries, needs_p=True),
    "S16": ConditionSpec("cumulative companion, column limits exist", "D", "plain", "limit", _Rung.window_spread, _Rung.window_columns),
}

_SPECS = {**CONDITIONS, **DUAL_CONDITIONS}


def condition_catalog() -> dict:
    """Catalog metadata in serializable form."""
    return {
        cid: {
            "anchor": spec.anchor,
            "source": spec.source,
            "quantifier": spec.quantifier,
            "kind": spec.kind,
        }
        for cid, spec in sorted(CONDITIONS.items())
    }


def _validate_q(q, n: int) -> np.ndarray:
    qa = np.asarray(q, dtype=np.float64)
    if qa.ndim == 0:
        qa = np.full(n, float(qa))
    if qa.size < n:
        raise ValueError("q sequence shorter than the largest truncation")
    if not np.all((qa[:n] > 0.0) & np.isfinite(qa[:n])):
        raise ValueError("q entries must be finite and strictly positive")
    if np.any(np.diff(qa[:n]) < 0.0) or np.max(qa[:n]) > 1e6:
        warnings.warn("q is expected to be non-decreasing and bounded", stacklevel=4)
    return qa


def _check_inputs(cond_ids, ladder, p, q):
    """Validate the ladder and the exponent inputs of the conditions; returns (ladder, q array)."""
    ladder = truncation_ladder(ladder)
    for cid in cond_ids:
        spec = _SPECS[cid]
        if spec.needs_p and p is None:
            raise SchemaError(f"condition {cid} needs the exponent sequence p")
        if spec.needs_q and q is None:
            raise SchemaError(f"condition {cid} needs the target exponent sequence q")
        if spec.needs_conjugate and p is not None and np.any(p.p <= 1.0):
            raise SchemaError(f"condition {cid} needs conjugate exponents, so p_k > 1")
    if p is not None:
        p.require_length(ladder[-1])
    return ladder, (_validate_q(q, ladder[-1]) if q is not None else None)


def _probe_blocks(partial: EPartial) -> list:
    """(i, support block) of each probe row i; a zero row of A has an empty block and a zero family, and is left out."""
    return [(i, block) for i in range(min(_PROBE_ROWS, partial.n)) if (block := partial.support(i)).size]


def _ladder_sources(source: str, A, sys, matrix, ladder) -> dict:
    """The sources of every ladder point, keyed by rung, then by source kind.

    btilde and a caller-supplied matrix (matrix=, which bypasses the
    composition) are built once, at the top rung, and rung n reads the
    leading n x n block: no entry depends on a later row or column, so the
    block is bit-identical to a build at n.  E comes from one composition at
    the top rung, and every other rung solves E from its leading block of A,
    bit for bit as at n.  A rung's "partial" source is its probe rows'
    support blocks (:func:`_probe_blocks`) from the leading blocks of the top
    rung's A and V; alone, it builds A and V at the top rung (V raises
    OverflowError as in :func:`e_matrix`), no E.
    """
    if source == "partial":  # no partial-sum condition reads E, so none is solved
        dense, V = materialize_matrix(A, ladder[-1]), inverse_kernel(sys, ladder[-1]).entries
        return {n: {"partial": _probe_blocks(EPartial(dense[:n, :n], V[:n, :n]))} for n in ladder}
    if source == "E" and matrix is None:
        E, partial = e_matrix(A, sys, ladder[-1])
        dense, V = partial._A, partial._V
        return {n: {"E": E if n == ladder[-1] else _solve_composed(dense[:n, :n], sys), "partial": _probe_blocks(EPartial(dense[:n, :n], V[:n, :n]))} for n in ladder}
    top = btilde(A, sys, ladder[-1]) if matrix is None else materialize_matrix(matrix, ladder[-1])
    return {n: {source: top[:n, :n]} for n in ladder}


def _condition_verdict(cond_id, sources, ladder, p, qa, witness_values):
    """Fit the condition's parameters at the top rung and run it through the ladder engine.

    beta_k is the top rung's last row and beta its sum, both complex when
    the source is; they are reported by real parts.
    """
    spec = _SPECS[cond_id]
    top = sources[ladder[-1]][spec.source]
    fitted: dict = {}
    beta_k, beta = np.zeros(ladder[-1]), None  # a condition that fits no beta_k reads zero column limits
    if spec.uses_beta_k:
        beta_k = top[-1, :].copy()
        fitted["beta_k_head"] = [float(np.real(v)) for v in beta_k[:8]]
    if spec.uses_beta:
        beta = top[-1, :].sum()
        fitted["beta"] = float(np.real(beta))
    if cond_id == "4.6":
        fitted["density_sets"] = [name for name, _ in default_density_sets(ladder[-1])]
    rungs = {}

    def evaluate(n, witnesses):
        if n not in rungs:
            rungs[n] = _Rung(spec, sources[n][spec.source], n, p, qa, beta_k, beta)
        b = witnesses.get("B")  # a dual set's B: the deflating M when existential, the inflating L when universal
        L = witnesses.get("L", b if spec.quantifier == "forall_b" else None)
        M = witnesses.get("M", b if spec.quantifier == "exists_b" else None)
        return spec.evaluate(rungs[n], L, M)

    layers = WITNESS_LAYERS[spec.quantifier]
    return ladder_verdict(cond_id, ladder, layers, spec.kind, evaluate, witness_values, fitted, spec.target, spec.anchor)


def eval_condition(
    cond_id: str,
    *,
    A=None,
    sys: BandSystem | None = None,
    matrix=None,
    p: ExponentSeq | None = None,
    q=None,
    ladder,
) -> ConditionVerdict:
    """Evaluate one catalog condition over a truncation ladder.

    The condition's source is the composed matrix and its partial sums from
    (A, sys), or the band-transformed matrix from (A, sys) or a
    caller-supplied matrix/generator (see :func:`_ladder_sources`).  beta_k /
    beta are fitted at the largest truncation (last rows, last row sums).
    """
    if cond_id not in CONDITIONS:
        raise KeyError(f"unknown condition {cond_id!r}")
    spec = CONDITIONS[cond_id]
    ladder, qa = _check_inputs((cond_id,), ladder, p, q)
    if spec.source == "matrix":
        matrix = A if matrix is None else matrix
        if matrix is None:
            raise ValueError(f"condition {cond_id} needs a matrix input")
    elif (spec.source == "partial" or matrix is None) and (A is None or sys is None):
        what = "the matrix" if spec.source == "btilde" else "A"
        raise ValueError(f"condition {cond_id} needs {what} and a band system")
    sources = _ladder_sources(spec.source, A, sys, matrix, ladder)
    return _condition_verdict(cond_id, sources, ladder, p, qa, DEFAULT_QUANTIFIER_LADDER)


# ---------------------------------------------------------------------------
# class reports
# ---------------------------------------------------------------------------

# class id -> (source kind, condition ids)
CLASS_RULES: dict[str, tuple[str, tuple[str, ...]]] = {
    "sinf:linf": ("E", ("mt23", "mt24", "mt29")),
    "sinf:c": ("E", ("mt23", "mt24", "mt30", "mt31")),
    "sinf:c0": ("E", ("mt23", "mt24", "mt32")),
    "s0:linf_q": ("E", ("mt25", "mt26", "mt27", "mt33")),
    "s0:c0_q": ("E", ("mt25", "mt26", "mt27", "mt34", "mt35")),
    "s0:c_q": ("E", ("mt25", "mt26", "mt27", "mt36", "mt37", "mt38")),
    "sc:linf_q": ("E", ("mt25", "mt26", "mt27", "mt28", "mt33", "mt39")),
    "sc:c0_q": ("E", ("mt25", "mt26", "mt27", "mt28", "mt34", "mt35", "mt40")),
    "sc:c_q": ("E", ("mt25", "mt26", "mt27", "mt28", "mt36", "mt37", "mt38", "mt41")),
    "linf:sc": ("btilde", ("4.1", "4.2", "4.3")),
    "c:sc_reg": ("btilde", ("4.1", "4.2z", "4.5")),
    "st:sc_reg": ("btilde", ("4.1", "4.2z", "4.5", "4.6")),
}


def class_rule_table() -> dict:
    """class id -> dispatched condition ids, in serializable form."""
    return {cid: list(rule[1]) for cid, rule in sorted(CLASS_RULES.items())}


@dataclass(frozen=True)
class ClassReport:
    class_id: str
    conditions: tuple
    aggregate: str

    def to_json(self) -> dict:
        return {
            "class": self.class_id,
            "aggregate": self.aggregate,
            "conditions": [c.to_json() for c in self.conditions],
        }


def class_report(
    A,
    class_id: str,
    sys: BandSystem,
    p: ExponentSeq | None = None,
    q=None,
    ladder=(32, 64, 128),
) -> ClassReport:
    """Evaluate every condition of one mapping-class characterization."""
    if class_id not in CLASS_RULES:
        raise KeyError(f"unknown class {class_id!r}; known: {sorted(CLASS_RULES)}")
    source, cond_ids = CLASS_RULES[class_id]
    ladder, qa = _check_inputs(cond_ids, ladder, p, q)
    if A is None or sys is None:
        raise ValueError(f"class {class_id} needs A and a band system")
    sources = _ladder_sources(source, A, sys, None, ladder)
    verdicts = tuple(_condition_verdict(cid, sources, ladder, p, qa, DEFAULT_QUANTIFIER_LADDER) for cid in cond_ids)
    return ClassReport(class_id, verdicts, aggregate_verdict(v.verdict for v in verdicts))
