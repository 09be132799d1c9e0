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
evaluator and differ only in their source or array.  The p-weights of a
witness follow one rule (``_Rung._weights``): L^(1/p_k) when L is bound,
else M^(-1/p_k), so an inflating row and its deflating twin (S9 and S3,
S8 and S1) name the same evaluator.  Class reports dispatch
the exact condition set of the corresponding characterization and aggregate
verdicts with fails dominating, then inconclusive.

Everything is ladder-based evidence in the sense of :mod:`seqcore.verdicts`;
universally quantified integers L and existentially quantified integers M are
sampled over a finite quantifier ladder by the engine in
:mod:`seqcore.ladder`.  A dual set's B is sampled over the dual report's B
ladder and binds as M when existential and as L when universal.  The matrix
functionals (subset estimates, signed column sups, power row and entry sups)
live in :mod:`seqcore.duals`.  A class report builds its sources once and
hands them to every condition.  Every source is built once, at the top
rung, and rung n reads its leading block: btilde, a caller's matrix, the
probe rows' partial-sum families and E.  T is lower bidiagonal, so the top
rung solves E T = A backward in O(n^2) (:func:`_compose`), and where A's
first n rows stop at column n - 1, as on every lower-triangular A, the
leading n x n block of the top rung's E is rung n's E; a rung whose rows
reach past it solves its own.
V is lower triangular, so the partial-sum family of row i is zero from
column stop_i on (one past the last nonzero of A[i]) and repeats its row
stop_i - 1 below it; the partial-sum conditions (mt23, mt25-mt28) share each
probe row's stop_i x stop_i support block, a leading block of the row's
family at the top rung (:func:`_probe_blocks`).  A condition's
witness-free array (|E|, |D - beta_k|, |block|) is built once per rung.
beta_k is fitted from the top rung's last row and kept complex when the
source is complex.

Every class, single-condition and dual report runs its conditions in one
:class:`_Workspace`, a float64 block allocated once per report: an n x n
witness-free array goes in its rung's slot, and the n x n temporaries of a
witness (the weighted bound of a subset sup, signed masses, M-deflated
sources and their powers, complex differences, quotients and products) go
in the block's scratch, through the ``out`` arguments of the
:mod:`seqcore.duals` functionals, with the ufuncs, order and layouts of
fresh arrays, so bit for bit.  A dual report's companion is the block's lead
region, and a class report's E takes one at the top rung and one at each
rung that solves its own, each solved in the scratch; V is the band
system's own read-only array, and btilde and the partial-sum families stay
arrays of their own.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .band_ops import _band_rows, inverse_kernel
from .duals import (  # noqa: F401 - perfbench traces matclass.subset_sup as an import site
    DEFAULT_B_LADDER,
    power_entry_sup,
    power_row_sup,
    signed_column_sup,
    subset_estimate,
    subset_sup,
)
from .generators import materialize_matrix
from .ladder import WITNESS_LAYERS, ladder_verdict, truncation_ladder, window
from .types import BandSystem, ExponentSeq, SchemaError
from .verdicts import ConditionVerdict, aggregate_verdict

__all__ = [
    "btilde",
    "e_matrix",
    "eval_condition",
    "ClassReport",
    "class_report",
    "condition_catalog",
    "class_rule_table",
    "default_density_sets",
    "CLASS_RULES",
    "DEFAULT_QUANTIFIER_LADDER",
]

DEFAULT_QUANTIFIER_LADDER = DEFAULT_B_LADDER  # one witness ladder for L, M and B

_PROBE_ROWS = 8
_PROBE_COLS = 16


def btilde(B, sys: BandSystem, n: int) -> np.ndarray:
    """Band-transform the rows of B: (r_n B[n] + s_{n-1} B[n-1]) / alpha_n."""
    dense = materialize_matrix(B, n)
    return _band_rows(dense, sys, np.empty_like(dense, dtype=np.result_type(dense.dtype, np.float64)))


def _compose(dense: np.ndarray, sys: BandSystem, n: int, buf: np.ndarray | None = None) -> np.ndarray:
    """E^T for E = A V at truncation n, from the leading n x n block of dense, by one backward solve.

    T is lower bidiagonal, so E T = A is solved last column first:
    E[:, k] = (alpha_k / r_k) (A[:, k] - (s_k / alpha_{k+1}) E[:, k+1]).  buf,
    an n x n C-contiguous array of E's dtype (a fresh one when None), holds
    E^T, so column k of E is row k of buf and a step is three in-place
    ufuncs over that row, a complex one viewed as float pairs.  Returns buf.
    Raises OverflowError when an entry leaves double precision.
    """
    buf = np.empty((n, n), np.result_type(dense.dtype, np.float64)) if buf is None else buf
    buf[...] = dense[:n, :n].T
    rows = list(buf.view(np.float64))  # each row's view made once, not at every step that reads it
    r, s, a = sys.params(n)
    scale, carry = (a / r).tolist(), (s[:-1] / a[1:]).tolist()
    step = np.empty(rows[0].size)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow surfaces as OverflowError below
        np.multiply(rows[n - 1], scale[n - 1], out=rows[n - 1])
        for k in reversed(range(n - 1)):
            row = rows[k]
            np.multiply(rows[k + 1], carry[k], out=step)
            np.subtract(row, step, out=row)
            np.multiply(row, scale[k], out=row)
    if not np.isfinite(buf).all():
        raise OverflowError("composed matrix entries overflow double precision at this truncation")
    return buf


def e_matrix(A, sys: BandSystem, n: int) -> np.ndarray:
    """Composed matrix E = A V at truncation n.

    E is C-contiguous, from the backward solve of :func:`_compose`, and
    within a few n eps (|A| |V|) of the last rows of the partial-sum
    families over the dense V (Higham, ch. 8), not bit for bit; row i's
    family is :func:`seqcore.duals.companion_d` of A[i].  V is read first,
    so that its overflow raises before E's: raises OverflowError when V or E
    leaves double precision.
    """
    if n < 1:
        raise ValueError("truncation must be >= 1")
    dense = materialize_matrix(A, n)
    inverse_kernel(sys, n)
    return np.ascontiguousarray(_compose(dense, sys, n).T)


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


class _Workspace:
    """One float64 block for a report's n x n arrays, allocated once and freed when the report returns.

    In order, the block holds its lead regions (a dual report's companion,
    or a class report's E at the top rung and at each rung that solves its
    own), a slot per rung for the witness-free array of the condition being
    run, and a scratch of the top rung's size for the temporaries of one
    witness, wide enough for a complex n x n array when ``width`` is 2.
    Conditions run one after another, and each reuses the slots and the
    scratch.  Before the first one runs, the scratch holds each solve's
    buffer (:func:`_compose`).  Every region starts a multiple of 64 bytes into
    the block, and its views are C-contiguous like the fresh arrays they
    replace, so the ufuncs and reductions that fill and read them give the
    same bits.  With no other large array live beside it, freeing the block
    leaves glibc's heap below its dynamic trim threshold (twice the largest
    chunk freed so far), so the next report reuses the same pages instead of
    faulting them back in.
    """

    def __init__(self, ladder, leads=(), width: int = 1):
        sizes = [*leads, *(n * n for n in ladder), width * ladder[-1] ** 2]
        starts = np.cumsum([0] + [-(-size // 8) * 8 for size in sizes]).tolist()
        self._block = np.empty(starts[-1])
        self._leads = starts[: len(leads)]
        self._slots = dict(zip(ladder, starts[len(leads) : -2]))
        self._scratch = starts[-2]

    def _view(self, start: int, n: int, dtype=np.float64) -> np.ndarray:
        size = n * n * np.dtype(dtype).itemsize // 8
        return self._block[start : start + size].view(dtype).reshape(n, n)

    def lead(self, i: int, n: int, dtype=np.float64) -> np.ndarray:
        """Lead region i as an n x n array of dtype (float64 or complex128)."""
        return self._view(self._leads[i], n, dtype)

    def slot(self, n: int) -> np.ndarray:
        """Rung n's n x n float64 slot."""
        return self._view(self._slots[n], n)

    def scratch(self, n: int, dtype=np.float64) -> np.ndarray:
        """An n x n scratch of dtype, n at most the top rung; complex128 needs a workspace of width 2."""
        return self._view(self._scratch, n, dtype)


class _Rung:
    """One ladder point of one condition: its witness-free array and the functionals that read it.

    A catalog row's ``free`` builds ``self.free`` once from the rung's source
    (the source itself when the row names none), and its ``evaluate`` reads
    it at a witness binding, returning (value, deviation | None).  An n x n
    witness-free array lives in the rung's workspace slot, and an evaluator's
    n x n temporaries in the workspace scratch.  A complex difference,
    quotient or product is taken in the scratch viewed as complex; the
    evaluators that deflate or weight a complex source read the source
    itself, so the modulus of that temporary goes in the idle slot.
    """

    def __init__(self, spec, src, n: int, p, q, beta_k, beta, work: _Workspace):
        self.n, self.win, self.p, self.beta_k, self.work = n, window(n), p, beta_k, work
        self.pk = p.p[:n] if p is not None else None
        self.qn = q[:n] if q is not None else None
        self.ref = beta if spec.uses_beta else spec.target
        self.free = spec.free(self, src) if spec.free else src

    def _absolute_deviations(self, G, shift):
        """|G - shift| in the first rows of the rung's slot; a real difference is taken there too, a complex one in the scratch."""
        rows = len(G)
        out = self.work.slot(self.n)[:rows]
        dtype = np.result_type(G, shift)
        diff = self.work.scratch(self.n, dtype)[:rows] if dtype.kind == "c" else out
        return np.abs(np.subtract(G, shift, out=diff), out=out)

    def _deflated(self, M):
        """(free / M, a float64 array for its modulus): the scratch for both when free is real, else the scratch and the slot."""
        out = self.work.scratch(self.n)
        if not np.iscomplexobj(self.free):
            return np.divide(self.free, float(M), out=out), out
        return np.divide(self.free, float(M), out=self.work.scratch(self.n, self.free.dtype)), self.work.slot(self.n)

    def _weights(self, L, M):
        """The p-weights of a witness binding: L^(1/p_k) when L is bound, else M^(-1/p_k).

        A jointly scaled evaluator passes M alone and scales by L^(1/q) itself.
        """
        return float(L) ** (1.0 / self.pk) if L is not None else float(M) ** (-1.0 / self.pk)

    # witness-free arrays, from a dense source or (partial sums) the probe rows' support blocks
    def absolute(self, G):
        return np.abs(G, out=self.work.slot(self.n))

    def absolute_probe_rows(self, G):
        return np.abs(G[:_PROBE_ROWS])

    def deviations(self, G):
        return self._absolute_deviations(G, self.beta_k[: self.n][None, :])

    def lower_deviations(self, G):
        dev = self._absolute_deviations(G, self.beta_k[None, : self.n])
        k = np.arange(self.n)
        np.copyto(dev, 0.0, where=k[:, None] < k)  # the strict upper triangle, as np.tril leaves it
        return dev

    def column_deviations(self, G):
        cols = min(_PROBE_COLS, self.n)
        return np.abs(G[self.win, :cols] - self.beta_k[:cols][None, :])

    def column_deviations_in_q(self, G):
        return self.column_deviations(G) ** self.qn[self.win][:, None]

    def window_deviation_sums(self, G):
        return self._absolute_deviations(G[self.win], self.beta_k[: self.n][None, :]).sum(axis=1)

    def density_window_sums(self, G):
        return np.array([np.abs(G[:, mask]).sum(axis=1)[self.win] for _, mask in default_density_sets(self.n)])

    def row_sums(self, G):
        return G.sum(axis=1)

    def real_row_sums(self, G):
        return np.real(G.sum(axis=1))

    def absolute_row_sums(self, G):
        return np.abs(G, out=self.work.slot(self.n)).sum(axis=1)

    def window_columns(self, G):
        return [G[self.win, : min(_PROBE_COLS, max(1, self.n // 2))]]

    def absolute_blocks(self, blocks):
        return [(i, np.abs(block)) for i, block in blocks]

    def window_blocks(self, blocks):
        """The window rows of each support block: a family's later rows repeat its last and add no spread."""
        return [block[self.win.start :] for _, block in blocks]

    # evaluators at one witness binding
    def weighted_rows(self, L, M):
        return float(np.max(self.free @ self._weights(L, M))), None

    def scaled_rows(self, L, M):
        return float(np.max((self.free @ self._weights(None, M)) * (float(L) ** (1.0 / self.qn)))), None

    def deflated_rows_in_q(self, L, M):
        return float(np.max((self.free @ self._weights(None, M)) ** self.qn)), None

    def inflated_row_sum_spread(self, L, M):
        fw = (self.free @ self._weights(L, None))[self.win]
        spread = float(np.max(fw) - np.min(fw)) if fw.size else 0.0
        return spread, spread

    def inflated_row_sums_vanish(self, L, M):
        fw = (self.free @ self._weights(L, None))[self.win]
        val = float(np.max(fw)) if fw.size else 0.0
        return val, val

    def inflated_deviation_rows(self, L, M):
        f = self.free @ self._weights(L, None)
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

    def weighted_subset_columns(self, L, M):
        """The subset column estimate of free weighted by columns; a complex free is weighted in the scratch, its modulus in the slot."""
        weights = self._weights(L, M)
        if not np.iscomplexobj(self.free):
            return subset_estimate(self.free, "columns", weights, out=self.work.scratch(self.n)), None
        staged = self.work.scratch(self.n, np.result_type(self.free, np.float64))
        return subset_estimate(self.free, "columns", weights, out=self.work.slot(self.n), staged=staged), None

    def subset_rows_conjugate(self, L, M):
        scaled, out = self._deflated(M)
        return subset_estimate(scaled, "rows", None, self.p.conjugate()[: self.n], out=out), None

    def signed_columns(self, L, M):
        return signed_column_sup(self.free, self.pk, out=self.work.scratch(self.n)), None

    def power_rows_conjugate(self, L, M):
        scaled, out = self._deflated(M)
        return power_row_sup(scaled, self.p.conjugate()[: self.n], out=out), None

    def power_entries(self, L, M):
        return power_entry_sup(self.free, self.pk, out=self.work.scratch(self.n)), None

    def window_spread(self, L, M):
        """The largest spread max - min down a column of any window block."""
        worst = 0.0
        for block in self.free:
            if block.size:
                worst = max(worst, float(np.max(np.abs(block.max(axis=0) - block.min(axis=0)))))
        return worst, worst

    def scaled_partial_rows(self, L, M):
        """Probe row i's largest absolute partial-sum row deflated by M^(-1/p_k), and inflated by L^(1/q_i) when L is bound."""
        deflate = self._weights(None, M)
        worst = 0.0
        for i, block in self.free:
            w = deflate if L is None else float(L) ** (1.0 / self.qn[i]) * deflate
            worst = max(worst, float(np.max(block @ w[: block.shape[0]])))
        return worst, None

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
    real_only: bool = False  # characterized for real sources only; a dual report on complex weights raises SchemaError


CONDITIONS: dict[str, ConditionSpec] = {
    # composed-matrix conditions driving the mapping-class reports
    "mt23": ConditionSpec("partial sums defining the composed matrix stabilize", "partial", "plain", "limit", _Rung.window_spread, _Rung.window_blocks),
    "mt24": ConditionSpec("weighted absolute rows finite for every inflation L", "E", "forall_l", "bounded", _Rung.weighted_rows, _Rung.absolute_probe_rows, needs_p=True),
    "mt25": ConditionSpec("partial sums converge rowwise to fitted limits", "partial", "plain", "limit", _Rung.window_spread, _Rung.window_blocks),
    "mt26": ConditionSpec("deflated partial-sum rows bounded for some M", "partial", "exists_m", "bounded", _Rung.scaled_partial_rows, _Rung.absolute_blocks, needs_p=True),
    "mt27": ConditionSpec("jointly inflated/deflated partial-sum rows bounded", "partial", "forall_l_exists_m", "bounded", _Rung.scaled_partial_rows, _Rung.absolute_blocks, needs_p=True, needs_q=True),
    "mt28": ConditionSpec("partial-sum rows concentrate at a single fitted value", "partial", "plain", "limit", _Rung.partial_concentration),
    "mt29": ConditionSpec("inflated absolute rows uniformly bounded", "E", "forall_l", "bounded", _Rung.weighted_rows, _Rung.absolute, needs_p=True),
    "mt30": ConditionSpec("columns converge to fitted limits", "E", "plain", "limit", _Rung.window_max, _Rung.column_deviations, uses_beta_k=True),
    "mt31": ConditionSpec("inflated absolute row sums converge", "E", "forall_l", "limit", _Rung.inflated_row_sum_spread, _Rung.absolute, needs_p=True),
    "mt32": ConditionSpec("inflated absolute row sums vanish", "E", "forall_l", "limit", _Rung.inflated_row_sums_vanish, _Rung.absolute, needs_p=True),
    "mt33": ConditionSpec("deflated absolute rows bounded in target exponents", "E", "exists_m", "bounded", _Rung.deflated_rows_in_q, _Rung.absolute, needs_p=True, needs_q=True),
    "mt34": ConditionSpec("entries vanish in target exponents", "E", "plain", "limit", _Rung.window_max, _Rung.column_deviations_in_q, needs_q=True),
    "mt35": ConditionSpec("jointly scaled absolute rows bounded", "E", "forall_l_exists_m", "bounded", _Rung.scaled_rows, _Rung.absolute, needs_p=True, needs_q=True),
    "mt36": ConditionSpec("column deviations vanish in target exponents", "E", "plain", "limit", _Rung.window_max, _Rung.column_deviations_in_q, needs_q=True, uses_beta_k=True),
    "mt37": ConditionSpec("deflated absolute rows bounded for some M", "E", "exists_m", "bounded", _Rung.weighted_rows, _Rung.absolute, needs_p=True),
    "mt38": ConditionSpec("scaled column-deviation rows bounded", "E", "forall_l_exists_m", "bounded", _Rung.scaled_rows, _Rung.deviations, needs_p=True, needs_q=True, uses_beta_k=True),
    "mt39": ConditionSpec("row sums bounded in target exponents", "E", "plain", "bounded", _Rung.largest_absolute_in_q, _Rung.row_sums, needs_q=True),
    "mt40": ConditionSpec("row sums vanish in target exponents", "E", "plain", "limit", _Rung.row_sums_converge_in_q, _Rung.row_sums, needs_q=True),
    "mt41": ConditionSpec("row sums converge in target exponents", "E", "plain", "limit", _Rung.row_sums_converge_in_q, _Rung.row_sums, needs_q=True, uses_beta=True),
    # classical variable-exponent conditions on a generic matrix
    "L2.3": ConditionSpec("deflated subset column sums summable for some B", "matrix", "exists_m", "bounded", _Rung.weighted_subset_columns, needs_p=True),
    "L2.4a": ConditionSpec("deflated absolute rows bounded for some B", "matrix", "exists_m", "bounded", _Rung.weighted_rows, _Rung.absolute, needs_p=True),
    "L2.4b": ConditionSpec("columns converge to fitted limits", "matrix", "plain", "limit", _Rung.window_max, _Rung.column_deviations, uses_beta_k=True),
    "L2.4c": ConditionSpec("deflated column-deviation rows bounded for some B", "matrix", "exists_m", "bounded", _Rung.weighted_rows, _Rung.deviations, needs_p=True, uses_beta_k=True),
    "L2.5": ConditionSpec("deflated absolute rows bounded for some B", "matrix", "exists_m", "bounded", _Rung.weighted_rows, _Rung.absolute, needs_p=True),
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
    "S1": ConditionSpec("row-scaled inverse, weighted subset column sums", "C", "exists_b", "bounded", _Rung.weighted_subset_columns, needs_p=True),
    "S2": ConditionSpec("row-scaled inverse, absolute row sums", "C", "plain", "bounded", _Rung.absolute_total, _Rung.row_sums),
    "S3": ConditionSpec("cumulative companion, weighted absolute rows", "D", "exists_b", "bounded", _Rung.weighted_rows, _Rung.absolute, needs_p=True),
    "S4": ConditionSpec("cumulative companion, column limits exist", "D", "plain", "limit", _Rung.window_spread, _Rung.window_columns),
    "S5": ConditionSpec("cumulative companion, weighted deviation rows", "D", "exists_b", "bounded", _Rung.weighted_rows, _Rung.lower_deviations, needs_p=True, uses_beta_k=True),
    "S6": ConditionSpec("cumulative companion, row sums converge", "D", "plain", "limit", _Rung.row_sums_converge, _Rung.row_sums, uses_beta=True),
    "S7": ConditionSpec("cumulative companion, bounded row sums", "D", "plain", "bounded", _Rung.largest_absolute, _Rung.row_sums),
    "S8": ConditionSpec("cumulative companion, inflated subset column sums", "D", "forall_b", "bounded", _Rung.weighted_subset_columns, needs_p=True),
    "S9": ConditionSpec("cumulative companion, inflated absolute rows", "D", "forall_b", "bounded", _Rung.weighted_rows, _Rung.absolute, needs_p=True),
    "S10": ConditionSpec("cumulative companion, inflated deviation rows vanish", "D", "forall_b", "limit", _Rung.inflated_deviation_rows, _Rung.lower_deviations, needs_p=True, uses_beta_k=True),
    "S11": ConditionSpec("cumulative companion, inflated absolute rows", "D", "forall_b", "bounded", _Rung.weighted_rows, _Rung.absolute, needs_p=True),
    "S12": ConditionSpec("cumulative companion, subset row sums, native exponents", "D", "plain", "bounded", _Rung.signed_columns, needs_p=True, real_only=True),
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


def _check_inputs(cond_ids, ladder, p, q):
    """Validate the ladder and the exponent inputs of the conditions; returns (ladder, p as an ExponentSeq, q's terms)."""
    ladder = truncation_ladder(ladder)
    top = ladder[-1]
    p = None if p is None else ExponentSeq.coerce(p, top, "p")
    for cid in cond_ids:
        spec = _SPECS[cid]
        if spec.needs_p and p is None:
            raise SchemaError(f"condition {cid} needs the exponent sequence p")
        if spec.needs_q and q is None:
            raise SchemaError(f"condition {cid} needs the target exponent sequence q")
        if spec.needs_conjugate and p is not None and np.any(p.p <= 1.0):
            raise SchemaError(f"condition {cid} needs conjugate exponents, so p_k > 1")
    if q is None:
        return ladder, p, None
    qa = ExponentSeq.coerce(q, top, "q").p
    if np.any(np.diff(qa[:top]) < 0.0) or np.max(qa[:top]) > 1e6:
        warnings.warn("q is expected to be non-decreasing and bounded", stacklevel=3)
    return ladder, p, qa


def _probe_blocks(dense: np.ndarray, V: np.ndarray, ladder) -> dict:
    """Rung n -> (i, support block) of each probe row i < n, from one family per row built at the top rung.

    Row i's partial-sum family is E^(i)[m, k] = sum_{j=k..m} A[i, j] V[j, k],
    accumulated in index order j.  At rung n its support block is the
    stop x stop block of that cumulative sum, stop one past the last nonzero
    of A[i, :n]: V is lower triangular, so the family is zero in every
    column k >= stop, and every row m >= stop adds only zero terms and
    repeats row stop - 1.  The probe rows' products A[i, j] V[j, k] over the
    row's own stop s at the top rung are taken in one s x s array and
    summed down j in place, so rung n's block is a leading block of it: the
    same terms summed in the same order as a build at n alone, bit for bit.
    A zero row (stop 0) has an empty block and a zero family, and is left
    out.
    """
    rows = dense[:_PROBE_ROWS]
    # row i's stop at rung n is stops[i, n - 1]
    stops = np.maximum.accumulate(np.where(rows != 0, np.arange(1, rows.shape[1] + 1), 0), axis=1)
    families = []
    for row, s in zip(rows, stops[:, -1].tolist()):
        family = row[:s, None] * V[:s, :s]
        families.append(np.cumsum(family, axis=0, out=family))
    return {n: [(i, families[i][:stop, :stop]) for i, stop in enumerate(stops[:n, n - 1].tolist()) if stop] for n in ladder}


def _ladder_sources(kinds: set, A, sys, matrix, ladder) -> tuple[dict, _Workspace]:
    """The sources of every ladder point that the conditions read, keyed by rung, then by source kind, and the report's workspace.

    Every source is built once, at the top rung, and rung n reads its
    leading n x n block: btilde, a caller-supplied matrix (matrix=, which
    bypasses the composition), the probe rows' partial-sum families (for a
    "partial" reader only, :func:`_probe_blocks`) and E.  No entry of the
    first three depends on a later row or column, so a block is bit-identical
    to a build at n.  E's exception is a rung whose first n rows of A reach
    past column n - 1: it solves its own E (:func:`_compose`).  Otherwise
    the top solve carries only zeros from column n on into those rows, so
    each entry of the block goes through the ufuncs of a solve at n alone,
    up to the sign of a zero where A holds -0.0, which :mod:`seqcore.io`
    renders as 0.  Each E is a lead region of the workspace, solved in its
    scratch.  V is the system's read-only kernel
    (:func:`seqcore.band_ops.inverse_kernel`), read before E is solved, so
    that its overflow raises before E's.
    """
    top = ladder[-1]
    solve = "E" in kinds and matrix is None
    if not solve and "partial" not in kinds:
        full = btilde(A, sys, top) if matrix is None else materialize_matrix(matrix, top)
        return {n: {kind: full[:n, :n] for kind in kinds} for n in ladder}, _Workspace(ladder, width=1 + np.iscomplexobj(full))
    dense = materialize_matrix(A, top)
    dtype = np.result_type(dense.dtype, np.float64) if solve else np.dtype(np.float64)
    width = dtype.itemsize // 8
    own = [n for n in ladder if n == top or dense[:n, n:].any()] if solve else []
    work = _Workspace(ladder, [width * n * n for n in own], width)
    V = inverse_kernel(sys, top)
    E = {}
    for i, n in enumerate(own):
        E[n] = work.lead(i, n, dtype)
        np.copyto(E[n], _compose(dense, sys, n, work.scratch(n, dtype)).T)
    sources = {n: {"E": E[n] if n in E else E[top][:n, :n]} if solve else {} for n in ladder}
    for n, blocks in _probe_blocks(dense, V, ladder).items() if "partial" in kinds else ():
        sources[n]["partial"] = blocks
    return sources, work


def _condition_verdict(cond_id, sources, ladder, p, qa, witness_values, work: _Workspace):
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
            rungs[n] = _Rung(spec, sources[n][spec.source], n, p, qa, beta_k, beta, work)
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
    ladder, p, qa = _check_inputs((cond_id,), ladder, p, q)
    if spec.source == "matrix":
        matrix = A if matrix is None else matrix
        if matrix is None:
            raise ValueError(f"condition {cond_id} needs a matrix input")
    elif (spec.source == "partial" or matrix is None) and (A is None or sys is None):
        what = "the matrix" if spec.source == "btilde" else "A"
        raise ValueError(f"condition {cond_id} needs {what} and a band system")
    sources, work = _ladder_sources({spec.source}, A, sys, matrix, ladder)
    return _condition_verdict(cond_id, sources, ladder, p, qa, DEFAULT_QUANTIFIER_LADDER, work)


# ---------------------------------------------------------------------------
# class reports
# ---------------------------------------------------------------------------

# class id -> condition ids; each condition's spec names its source
CLASS_RULES: dict[str, tuple[str, ...]] = {
    "sinf:linf": ("mt23", "mt24", "mt29"),
    "sinf:c": ("mt23", "mt24", "mt30", "mt31"),
    "sinf:c0": ("mt23", "mt24", "mt32"),
    "s0:linf_q": ("mt25", "mt26", "mt27", "mt33"),
    "s0:c0_q": ("mt25", "mt26", "mt27", "mt34", "mt35"),
    "s0:c_q": ("mt25", "mt26", "mt27", "mt36", "mt37", "mt38"),
    "sc:linf_q": ("mt25", "mt26", "mt27", "mt28", "mt33", "mt39"),
    "sc:c0_q": ("mt25", "mt26", "mt27", "mt28", "mt34", "mt35", "mt40"),
    "sc:c_q": ("mt25", "mt26", "mt27", "mt28", "mt36", "mt37", "mt38", "mt41"),
    "linf:sc": ("4.1", "4.2", "4.3"),
    "c:sc_reg": ("4.1", "4.2z", "4.5"),
    "st:sc_reg": ("4.1", "4.2z", "4.5", "4.6"),
}


def class_rule_table() -> dict:
    """class id -> dispatched condition ids, in serializable form."""
    return {cid: list(ids) for cid, ids in sorted(CLASS_RULES.items())}


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
    cond_ids = CLASS_RULES[class_id]
    ladder, p, qa = _check_inputs(cond_ids, ladder, p, q)
    if A is None or sys is None:
        raise ValueError(f"class {class_id} needs A and a band system")
    sources, work = _ladder_sources({_SPECS[cid].source for cid in cond_ids}, A, sys, None, ladder)
    verdicts = tuple(_condition_verdict(cid, sources, ladder, p, qa, DEFAULT_QUANTIFIER_LADDER, work) for cid in cond_ids)
    return ClassReport(class_id, verdicts, aggregate_verdict(v.verdict for v in verdicts))
