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
tables, one entry per condition.  CONDITIONS holds the class conditions:
mt23..mt41 drive the nine transformed-space mapping classes, the L2.x entries
are classical variable-exponent conditions on a generic matrix, and the 4.x
entries are the regularity/core conditions on btilde.  DUAL_CONDITIONS holds
the dual sets S1..S16 on the companions C and D of :mod:`seqcore.duals`,
whose reports run them through the same evaluator and runner; an S set that
is a class condition on C or D (S1 = L2.3, S3 = L2.4a, S9 = S11 = mt29,
S12 = L2.6ii, S13 = L2.6i, S14 = L2.7i, S15 = L2.7ii) shares its branch.
Class reports dispatch the exact condition set of the corresponding
characterization and aggregate verdicts with fails dominating, then
inconclusive.

Everything is ladder-based evidence in the sense of :mod:`seqcore.verdicts`;
universally quantified integers L and existentially quantified integers M are
sampled over a finite quantifier ladder by the engine in
:mod:`seqcore.ladder`.  A dual set's B is sampled over the dual report's B
ladder and binds as M when existential and as L when universal.  The matrix
functionals (subset estimates, signed column sups, power row and entry sups)
live in :mod:`seqcore.duals`.  A class report builds its source once and hands it
to every condition: btilde once at the largest truncation, sliced per ladder
point, and E once per ladder point: T is lower bidiagonal, so rung n solves
E T = A on the leading n x n block of A in O(n^2), while the partial-sum
families over V are sliced from the largest truncation.  An array a
condition weights the same way at every witness (|E|, |D|, |E - beta_k| or
|tril(D - beta_k)|) is built once per ladder point.  beta_k is fitted from
the top rung's last row and kept complex when the source is complex.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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

    ``rows(n)`` returns the (m, k) block of sum_{j=k..m} A[n, j] V[j, k],
    accumulated in index order j.  The block is written into one n x n
    buffer that every call reuses, so each call overwrites the block the
    previous call returned.  The cumulative sum runs only up to the
    last nonzero entry of A[n]; every later row adds exact zeros, so it is a
    copy of that row and the block equals the full cumulative sum.
    """

    def __init__(self, A: np.ndarray, V: np.ndarray):
        self._A = A
        self._V = V
        self._out = None

    @property
    def n(self) -> int:
        return self._A.shape[0]

    def rows(self, n: int) -> np.ndarray:
        if not 0 <= n < self.n:
            raise IndexError(f"row {n} out of range")
        a = self._A[n]
        nonzero = np.flatnonzero(a)
        stop = int(nonzero[-1]) + 1 if nonzero.size else 0
        if self._out is None:
            self._out = np.empty((self.n, self.n), dtype=np.result_type(a.dtype, self._V.dtype))
        out = self._out
        if stop == 0:
            out.fill(0)
            return out
        terms = out[:stop]
        np.multiply(a[:stop, None], self._V[:stop], out=terms)
        np.cumsum(terms, axis=0, out=terms)
        out[stop:] = out[stop - 1]
        return out


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


@dataclass(frozen=True)
class ConditionSpec:
    anchor: str
    source: str  # "E" | "partial" | "btilde" | "matrix" | companion "C" | "D"
    quantifier: str  # plain | forall_l | exists_m | forall_l_exists_m | exists_b | forall_b
    kind: str  # bounded | limit
    needs_p: bool = False
    needs_q: bool = False
    needs_conjugate: bool = False
    uses_beta_k: bool = False
    uses_beta: bool = False
    target: float = 0.0


CONDITIONS: dict[str, ConditionSpec] = {
    # composed-matrix conditions driving the mapping-class reports
    "mt23": ConditionSpec("partial sums defining the composed matrix stabilize", "partial", "plain", "limit"),
    "mt24": ConditionSpec("weighted absolute rows finite for every inflation L", "E", "forall_l", "bounded", needs_p=True),
    "mt25": ConditionSpec("partial sums converge rowwise to fitted limits", "partial", "plain", "limit"),
    "mt26": ConditionSpec("deflated partial-sum rows bounded for some M", "partial", "exists_m", "bounded", needs_p=True),
    "mt27": ConditionSpec("jointly inflated/deflated partial-sum rows bounded", "partial", "forall_l_exists_m", "bounded", needs_p=True, needs_q=True),
    "mt28": ConditionSpec("partial-sum rows concentrate at a single fitted value", "partial", "plain", "limit"),
    "mt29": ConditionSpec("inflated absolute rows uniformly bounded", "E", "forall_l", "bounded", needs_p=True),
    "mt30": ConditionSpec("columns converge to fitted limits", "E", "plain", "limit", uses_beta_k=True),
    "mt31": ConditionSpec("inflated absolute row sums converge", "E", "forall_l", "limit", needs_p=True),
    "mt32": ConditionSpec("inflated absolute row sums vanish", "E", "forall_l", "limit", needs_p=True),
    "mt33": ConditionSpec("deflated absolute rows bounded in target exponents", "E", "exists_m", "bounded", needs_p=True, needs_q=True),
    "mt34": ConditionSpec("entries vanish in target exponents", "E", "plain", "limit", needs_q=True),
    "mt35": ConditionSpec("jointly scaled absolute rows bounded", "E", "forall_l_exists_m", "bounded", needs_p=True, needs_q=True),
    "mt36": ConditionSpec("column deviations vanish in target exponents", "E", "plain", "limit", needs_q=True, uses_beta_k=True),
    "mt37": ConditionSpec("deflated absolute rows bounded for some M", "E", "exists_m", "bounded", needs_p=True),
    "mt38": ConditionSpec("scaled column-deviation rows bounded", "E", "forall_l_exists_m", "bounded", needs_p=True, needs_q=True, uses_beta_k=True),
    "mt39": ConditionSpec("row sums bounded in target exponents", "E", "plain", "bounded", needs_q=True),
    "mt40": ConditionSpec("row sums vanish in target exponents", "E", "plain", "limit", needs_q=True),
    "mt41": ConditionSpec("row sums converge in target exponents", "E", "plain", "limit", needs_q=True, uses_beta=True),
    # classical variable-exponent conditions on a generic matrix
    "L2.3": ConditionSpec("deflated subset column sums summable for some B", "matrix", "exists_m", "bounded", needs_p=True),
    "L2.4a": ConditionSpec("deflated absolute rows bounded for some B", "matrix", "exists_m", "bounded", needs_p=True),
    "L2.4b": ConditionSpec("columns converge to fitted limits", "matrix", "plain", "limit", uses_beta_k=True),
    "L2.4c": ConditionSpec("deflated column-deviation rows bounded for some B", "matrix", "exists_m", "bounded", needs_p=True, uses_beta_k=True),
    "L2.5": ConditionSpec("deflated absolute rows bounded for some B", "matrix", "exists_m", "bounded", needs_p=True),
    "L2.6i": ConditionSpec("subset row sums bounded in conjugate exponents", "matrix", "exists_m", "bounded", needs_p=True, needs_conjugate=True),
    "L2.6ii": ConditionSpec("subset column sups bounded in native exponents", "matrix", "plain", "bounded", needs_p=True),
    "L2.7i": ConditionSpec("scaled rows bounded in conjugate exponents", "matrix", "exists_m", "bounded", needs_p=True, needs_conjugate=True),
    "L2.7ii": ConditionSpec("entries bounded in native exponents", "matrix", "plain", "bounded", needs_p=True),
    "2.15": ConditionSpec("columns converge to fitted limits", "matrix", "plain", "limit", uses_beta_k=True),
    # band-transformed-matrix conditions (regularity and core inclusion)
    "4.1": ConditionSpec("absolute row sums bounded", "btilde", "plain", "bounded"),
    "4.2": ConditionSpec("columns converge to fitted limits", "btilde", "plain", "limit", uses_beta_k=True),
    "4.2z": ConditionSpec("columns vanish", "btilde", "plain", "limit"),
    "4.3": ConditionSpec("absolute column-deviation rows vanish", "btilde", "plain", "limit", uses_beta_k=True),
    "4.5": ConditionSpec("row sums tend to one", "btilde", "plain", "limit", target=1.0),
    "4.6": ConditionSpec("absolute rows over density-zero sets vanish", "btilde", "plain", "limit"),
    "4.8": ConditionSpec("absolute row sums tend to one", "btilde", "plain", "limit", target=1.0),
}

# the dual sets: conditions on the companions C and D of a weight sequence
DUAL_CONDITIONS: dict[str, ConditionSpec] = {
    "S1": ConditionSpec("row-scaled inverse, weighted subset column sums", "C", "exists_b", "bounded", needs_p=True),
    "S2": ConditionSpec("row-scaled inverse, absolute row sums", "C", "plain", "bounded"),
    "S3": ConditionSpec("cumulative companion, weighted absolute rows", "D", "exists_b", "bounded", needs_p=True),
    "S4": ConditionSpec("cumulative companion, column limits exist", "D", "plain", "limit"),
    "S5": ConditionSpec("cumulative companion, weighted deviation rows", "D", "exists_b", "bounded", needs_p=True, uses_beta_k=True),
    "S6": ConditionSpec("cumulative companion, row sums converge", "D", "plain", "limit", uses_beta=True),
    "S7": ConditionSpec("cumulative companion, bounded row sums", "D", "plain", "bounded"),
    "S8": ConditionSpec("cumulative companion, inflated subset column sums", "D", "forall_b", "bounded", needs_p=True),
    "S9": ConditionSpec("cumulative companion, inflated absolute rows", "D", "forall_b", "bounded", needs_p=True),
    "S10": ConditionSpec("cumulative companion, inflated deviation rows vanish", "D", "forall_b", "limit", needs_p=True, uses_beta_k=True),
    "S11": ConditionSpec("cumulative companion, inflated absolute rows", "D", "forall_b", "bounded", needs_p=True),
    "S12": ConditionSpec("cumulative companion, subset row sums, native exponents", "D", "plain", "bounded", needs_p=True),
    "S13": ConditionSpec("cumulative companion, subset column sums, conjugate exponents", "D", "exists_b", "bounded", needs_p=True, needs_conjugate=True),
    "S14": ConditionSpec("cumulative companion, scaled rows, conjugate exponents", "D", "exists_b", "bounded", needs_p=True, needs_conjugate=True),
    "S15": ConditionSpec("cumulative companion, entrywise native exponents", "D", "plain", "bounded", needs_p=True),
    "S16": ConditionSpec("cumulative companion, column limits exist", "D", "plain", "limit"),
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


def _witness_free(cond_id: str, G: np.ndarray, n: int, beta_k) -> np.ndarray | None:
    """The array a quantified condition weights the same way at every witness, or None.

    mt24 reads |G| on the probe rows only; the others read all of |G|, of
    |G - beta_k|, or (S5 and S10) of its lower triangle.
    """
    if cond_id == "mt24":
        return np.abs(G[: min(_PROBE_ROWS, n)])
    if cond_id in ("mt29", "mt31", "mt32", "mt33", "mt35", "mt37", "L2.4a", "L2.5", "S3", "S9", "S11"):
        return np.abs(G)
    if cond_id in ("mt38", "L2.4c"):
        return np.abs(G - beta_k[:n][None, :])
    if cond_id in ("S5", "S10"):
        return np.abs(np.tril(G - beta_k[None, :n]))
    return None


def _abs_in_place(block: np.ndarray) -> np.ndarray:
    """|block|, written over a real block; a complex block needs a new real array."""
    return np.abs(block) if np.iscomplexobj(block) else np.abs(block, out=block)


def _row_sup(abs_block: np.ndarray, weights) -> float:
    """sup_n sum_k abs_block[n, k] w_k, for a block that already holds absolute values."""
    return float(np.max(abs_block @ weights))


def _evaluate(cond_id: str, src, p, q, n: int, L, M, beta_k, beta, density_sets, free):
    """One ladder point of one condition; returns (value, deviation | None).

    ``free`` is the condition's witness-free array at this rung (see
    :func:`_witness_free`).
    """
    pk = p.p[:n] if p is not None else None
    qn = q[:n] if q is not None else None
    win = window(n)
    rows = min(_PROBE_ROWS, n)
    cols = min(_PROBE_COLS, n)

    if isinstance(src, EPartial):
        partial = src
        if cond_id in ("mt23", "mt25"):
            spread = 0.0
            for i in range(rows):
                block = partial.rows(i)[win]
                if block.size:
                    spread = max(spread, float(np.max(np.abs(block.max(axis=0) - block.min(axis=0)))))
            return spread, spread
        if cond_id == "mt26":
            w = float(M) ** (-1.0 / pk)
            worst = 0.0
            for i in range(rows):
                worst = max(worst, _row_sup(_abs_in_place(partial.rows(i)), w))
            return worst, None
        if cond_id == "mt27":
            worst = 0.0
            for i in range(rows):
                w = float(L) ** (1.0 / qn[i]) * float(M) ** (-1.0 / pk)
                worst = max(worst, _row_sup(_abs_in_place(partial.rows(i)), w))
            return worst, None
        if cond_id == "mt28":
            worst = 0.0
            for i in range(rows):
                block = partial.rows(i)
                fit = float(np.median(block[-1]))
                dev = np.abs(np.tril(block[win] - fit, win.start)).sum(axis=1)
                worst = max(worst, float(np.max(dev)) if dev.size else 0.0)
            return worst, worst
        raise KeyError(cond_id)

    G = src  # dense matrix: E, btilde, a directly supplied matrix, or a companion C or D
    if cond_id in ("mt24", "mt29", "S9", "S11"):
        return _row_sup(free, float(L) ** (1.0 / pk)), None
    if cond_id in ("mt30", "L2.4b", "2.15", "4.2", "4.2z"):
        ref = np.zeros(cols) if cond_id == "4.2z" else beta_k[:cols]
        dev_block = np.abs(G[win, :cols] - ref[None, :])
        val = float(np.max(dev_block)) if dev_block.size else 0.0
        return val, val
    if cond_id == "4.3":
        dev_full = np.abs(G[win] - beta_k[:n][None, :])
        val = float(np.max(dev_full.sum(axis=1))) if dev_full.size else 0.0
        return val, val
    if cond_id in ("mt31", "mt32"):
        f = free @ (float(L) ** (1.0 / pk))
        fw = f[win]
        if cond_id == "mt31":
            spread = float(np.max(fw) - np.min(fw)) if fw.size else 0.0
            return spread, spread
        val = float(np.max(fw)) if fw.size else 0.0
        return val, val
    if cond_id == "mt33":
        f = free @ (float(M) ** (-1.0 / pk))
        return float(np.max(f**qn)), None
    if cond_id in ("mt34", "mt36"):
        ref = np.zeros(cols) if cond_id == "mt34" else beta_k[:cols]
        dev = np.abs(G[win, :cols] - ref[None, :]) ** qn[win][:, None]
        val = float(np.max(dev)) if dev.size else 0.0
        return val, val
    if cond_id == "mt35":
        w = float(M) ** (-1.0 / pk)
        f = (free @ w) * (float(L) ** (1.0 / qn))
        return float(np.max(f)), None
    if cond_id in ("mt37", "L2.4a", "L2.5", "S3", "S5"):
        return _row_sup(free, float(M) ** (-1.0 / pk)), None
    if cond_id == "mt38":
        w = float(M) ** (-1.0 / pk)
        f = (free @ w) * (float(L) ** (1.0 / qn))
        return float(np.max(f)), None
    if cond_id == "mt39":
        return float(np.max(np.abs(G.sum(axis=1)) ** qn)), None
    if cond_id in ("mt40", "mt41"):
        ref = 0.0 if cond_id == "mt40" else beta
        f = np.abs(G.sum(axis=1) - ref) ** qn
        dev = float(np.max(f[win])) if f[win].size else 0.0
        return float(f[-1]), dev
    if cond_id in ("L2.3", "S1"):
        return subset_estimate(G, "columns", float(M) ** (-1.0 / pk)), None
    if cond_id == "L2.4c":
        return _row_sup(free, float(M) ** (-1.0 / pk)), None
    if cond_id in ("L2.6i", "S13"):
        return subset_estimate(G / float(M), "rows", None, p.conjugate()[:n]), None
    if cond_id in ("L2.6ii", "S12"):
        return signed_column_sup(G, pk), None
    if cond_id in ("L2.7i", "S14"):
        return power_row_sup(G / float(M), p.conjugate()[:n]), None
    if cond_id in ("L2.7ii", "S15"):
        return power_entry_sup(G, pk), None
    if cond_id == "S2":
        return float(np.sum(np.abs(G.sum(axis=1)))), None
    if cond_id in ("S4", "S16"):
        block = G[win, : min(_PROBE_COLS, max(1, n // 2))]
        spread = float(np.max(np.abs(block.max(axis=0) - block.min(axis=0)))) if block.size else 0.0
        return spread, spread
    if cond_id == "S6":
        rowsums = G.sum(axis=1)
        dev = float(np.max(np.abs(rowsums[win] - beta))) if rowsums[win].size else 0.0
        return float(np.real(rowsums[-1])), dev
    if cond_id == "S7":
        return float(np.max(np.abs(G.sum(axis=1)))), None
    if cond_id == "S8":
        return subset_estimate(G, "columns", float(L) ** (1.0 / pk)), None
    if cond_id == "S10":
        dev_rows = free @ (float(L) ** (1.0 / pk))
        return float(dev_rows[-1]), float(np.max(dev_rows[win])) if dev_rows[win].size else 0.0
    if cond_id == "4.1":
        return float(np.max(np.abs(G).sum(axis=1))), None
    if cond_id == "4.5":
        rowsums = np.real(G.sum(axis=1))
        dev = float(np.max(np.abs(rowsums[win] - 1.0))) if rowsums[win].size else 0.0
        return float(rowsums[-1]), dev
    if cond_id == "4.6":
        worst = 0.0
        for _, mask in density_sets:
            f = np.abs(G[:, mask[:n]]).sum(axis=1)
            if f[win].size:
                worst = max(worst, float(np.max(f[win])))
        return worst, worst
    if cond_id == "4.8":
        rowsums = np.abs(G).sum(axis=1)
        dev = float(np.max(np.abs(rowsums[win] - 1.0))) if rowsums[win].size else 0.0
        return float(rowsums[-1]), dev
    raise KeyError(f"unknown condition {cond_id!r}")


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
            raise ValueError(f"condition {cid} needs the exponent sequence p")
        if spec.needs_q and q is None:
            raise ValueError(f"condition {cid} needs the target exponent sequence q")
        if spec.needs_conjugate and p is not None and np.any(p.p <= 1.0):
            raise SchemaError(f"condition {cid} needs conjugate exponents, so p_k > 1")
    if p is not None:
        p.require_length(ladder[-1])
    return ladder, (_validate_q(q, ladder[-1]) if q is not None else None)


def _ladder_sources(source: str, A, sys, matrix, ladder) -> dict:
    """The source matrices of every ladder point, keyed by rung, then by source kind.

    btilde and a caller-supplied matrix (matrix=, which bypasses the
    composition) are built once, at the top rung, and rung n reads the
    leading n x n block: no entry depends on a later row or column, so the
    block is bit-identical to a build at n.  E and its partial-sum families
    come from one composition at the top rung.  Every other rung slices the
    partial sums and solves E from its leading block of A, bit for bit as at n.
    """
    if source == "partial" or (source == "E" and matrix is None):
        E, partial = e_matrix(A, sys, ladder[-1])
        dense, V = partial._A, partial._V
        sources = {n: {"E": _solve_composed(dense[:n, :n], sys), "partial": EPartial(dense[:n, :n], V[:n, :n])} for n in ladder[:-1]}
        sources[ladder[-1]] = {"E": E, "partial": partial}
        return sources
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
    beta_k = beta = density_sets = None
    if spec.uses_beta_k:
        beta_k = top[-1, :].copy()
        fitted["beta_k_head"] = [float(np.real(v)) for v in beta_k[:8]]
    if spec.uses_beta:
        beta = top[-1, :].sum()
        fitted["beta"] = float(np.real(beta))
    if cond_id == "4.6":
        density_sets = default_density_sets(ladder[-1])
        fitted["density_sets"] = [name for name, _ in density_sets]

    free = {}

    def evaluate(n, witnesses):
        src = sources[n][spec.source]
        if n not in free:
            free[n] = _witness_free(cond_id, src, n, beta_k)
        b = witnesses.get("B")  # a dual set's B: the deflating M when existential, the inflating L when universal
        L = witnesses.get("L", b if spec.quantifier == "forall_b" else None)
        M = witnesses.get("M", b if spec.quantifier == "exists_b" else None)
        return _evaluate(cond_id, src, p, qa, n, L, M, beta_k, beta, density_sets, free[n])

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

# class id -> (source kind, condition ids, needs q)
CLASS_RULES: dict[str, tuple[str, tuple[str, ...], bool]] = {
    "sinf:linf": ("E", ("mt23", "mt24", "mt29"), False),
    "sinf:c": ("E", ("mt23", "mt24", "mt30", "mt31"), False),
    "sinf:c0": ("E", ("mt23", "mt24", "mt32"), False),
    "s0:linf_q": ("E", ("mt25", "mt26", "mt27", "mt33"), True),
    "s0:c0_q": ("E", ("mt25", "mt26", "mt27", "mt34", "mt35"), True),
    "s0:c_q": ("E", ("mt25", "mt26", "mt27", "mt36", "mt37", "mt38"), True),
    "sc:linf_q": ("E", ("mt25", "mt26", "mt27", "mt28", "mt33", "mt39"), True),
    "sc:c0_q": ("E", ("mt25", "mt26", "mt27", "mt28", "mt34", "mt35", "mt40"), True),
    "sc:c_q": ("E", ("mt25", "mt26", "mt27", "mt28", "mt36", "mt37", "mt38", "mt41"), True),
    "linf:sc": ("btilde", ("4.1", "4.2", "4.3"), False),
    "c:sc_reg": ("btilde", ("4.1", "4.2z", "4.5"), False),
    "st:sc_reg": ("btilde", ("4.1", "4.2z", "4.5", "4.6"), False),
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
    source, cond_ids, needs_q = CLASS_RULES[class_id]
    if needs_q and q is None:
        raise ValueError(f"class {class_id} targets a variable-exponent space and needs q")
    needs_p = any(CONDITIONS[c].needs_p for c in cond_ids)
    if needs_p and p is None:
        raise ValueError(f"class {class_id} needs the exponent sequence p")
    ladder, qa = _check_inputs(cond_ids, ladder, p, q)
    if A is None or sys is None:
        raise ValueError(f"class {class_id} needs A and a band system")
    sources = _ladder_sources(source, A, sys, None, ladder)
    verdicts = tuple(_condition_verdict(cid, sources, ladder, p, qa, DEFAULT_QUANTIFIER_LADDER) for cid in cond_ids)
    return ClassReport(class_id, verdicts, aggregate_verdict(v.verdict for v in verdicts))
