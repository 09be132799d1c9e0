"""Metamorphic rows: changes of input that must keep every verdict (ROADMAP item 21).

Common scale: the band triangle T has diagonal r_n / alpha_n and subdiagonal
s_{n-1} / alpha_n, so (c r, c s, c alpha) with c > 0 defines the same T, the
same inverse kernel V, and with them the same companions C and D and the
same composed matrix E = A V, up to rounding.  So every condition verdict of
a dual or class report must be the same under both triples.  The rows run
c = 3 on four systems of length 1024, on the nine s0/sc/sinf dual pairs of
four weight families (p = 1) and on the nine E classes of two matrices
(p = q = 1).

The diagonal: alpha_k -> alpha_k u_k turns T into diag(1/u) T.  When u is
bounded and bounded away from 0, c0(T), linf(T) and l(T, p) keep their
members, and c(T) does too when u also converges.  So every s0/sinf dual
and class aggregate must be kept under a seeded u in [0.5, 2], and every
aggregate, sc included, under u_k = 1.5 + 0.5 (-1)^k / (k + 1).  Single
conditions need not be kept (a row-sum condition reads E u where it read
E 1), so the rows compare aggregates only.  A row that moves today is a
strict xfail naming its mechanism.

Item 21's finite perturbation moves verdicts today, so it stays open there.
"""

import itertools

import numpy as np
import pytest

from seqcore import duals, matclass
from seqcore.generators import band_system_from_spec, make_matrix, rng_from_seed
from seqcore.types import BandSystem, ExponentSeq, FiniteSeq

SCALE = 3.0
LENGTH = 1024
DUAL_LADDER = (64, 128, 256, 512)
CLASS_LADDER = (64, 128, 256)

SYSTEMS = {
    "difference": BandSystem.difference(LENGTH),
    "contracting": BandSystem.constant(1.0, 0.5, 1.0, LENGTH),
    "negated_difference": BandSystem.constant(-1.0, 1.0, 1.0, LENGTH),
    "random": band_system_from_spec("random", {"seed": 5, "amplification_cap": 1e4}, LENGTH),
}
SCALED = {name: BandSystem(SCALE * sys.r, SCALE * sys.s, SCALE * sys.alpha) for name, sys in SYSTEMS.items()}

_K = np.arange(1.0, LENGTH + 1.0)
WEIGHTS = {
    "k^-1": FiniteSeq(_K**-1.0),
    "k^-1.5": FiniteSeq(_K**-1.5),
    "k^-3": FiniteSeq(_K**-3.0),
    "seeded": FiniteSeq(rng_from_seed(21).uniform(-1.0, 1.0, LENGTH) / _K**2),
}

_N = CLASS_LADDER[-1]
MATRICES = {
    "cesaro": make_matrix("cesaro", _N),
    "seeded": np.tril(rng_from_seed(22).uniform(-1.0, 1.0, (_N, _N))) / np.arange(1.0, _N + 1.0)[:, None],
}
E_CLASSES = tuple(sorted(cid for cid, ids in matclass.CLASS_RULES.items() if matclass.CONDITIONS[ids[0]].source in ("E", "partial")))
PAIRS = tuple(itertools.product(("s0", "sc", "sinf"), ("alpha", "beta", "gamma")))

_U = {
    "seeded_u": rng_from_seed(23).uniform(0.5, 2.0, LENGTH),
    "convergent_u": 1.5 + 0.5 * (-1.0) ** np.arange(LENGTH) / np.arange(1.0, LENGTH + 1.0),
}
DIAGONAL = {u: {name: BandSystem(sys.r, sys.s, sys.alpha * _U[u]) for name, sys in SYSTEMS.items()} for u in _U}
# (u, system, weight or matrix, pair or class) -> the mechanism of an aggregate the diagonal moves today
DIAGONAL_MOVES = {
    ("seeded_u", "contracting", "cesaro", "sinf:c0"): (
        "item 8's rule: mt32's deviation stays near 1.7, far from 0 (truth: fails), but the seeded u makes it "
        "wobble (1.69, 1.70, 1.67), and a limit that neither settles nor grows reads inconclusive"
    ),
}


def _verdicts(report) -> list:
    return [report.aggregate] + [(c.cond_id, c.verdict) for c in report.conditions]


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("space, dual", PAIRS, ids=[f"{s}.{d}" for s, d in PAIRS])
def test_common_scale_keeps_every_dual_verdict(system, weight, space, dual):
    p = ExponentSeq.constant(1.0, LENGTH)
    plain = duals.dual_report(WEIGHTS[weight], SYSTEMS[system], p, space, dual, DUAL_LADDER)
    scaled = duals.dual_report(WEIGHTS[weight], SCALED[system], p, space, dual, DUAL_LADDER)
    assert _verdicts(scaled) == _verdicts(plain)


@pytest.mark.parametrize("matrix", sorted(MATRICES))
@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("class_id", E_CLASSES)
def test_common_scale_keeps_every_class_verdict(system, matrix, class_id):
    p, q = ExponentSeq.constant(1.0, LENGTH), np.ones(LENGTH)
    plain = matclass.class_report(MATRICES[matrix], class_id, SYSTEMS[system], p=p, q=q, ladder=CLASS_LADDER)
    scaled = matclass.class_report(MATRICES[matrix], class_id, SCALED[system], p=p, q=q, ladder=CLASS_LADDER)
    assert _verdicts(scaled) == _verdicts(plain)


def _diagonal_rows(inputs, targets) -> list:
    """(u, system, input, target) rows: the seeded u runs no sc target, the convergent u runs every one."""
    rows = []
    for u, system, name, target in itertools.product(sorted(_U), sorted(SYSTEMS), sorted(inputs), targets):
        if u == "seeded_u" and target.startswith("sc"):
            continue
        reason = DIAGONAL_MOVES.get((u, system, name, target))
        marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
        rows.append(pytest.param(u, system, name, target, marks=marks, id=f"{u}-{system}-{name}-{target}"))
    return rows


@pytest.mark.parametrize("u, system, weight, pair", _diagonal_rows(WEIGHTS, [f"{s}.{d}" for s, d in PAIRS]))
def test_a_bounded_diagonal_keeps_every_dual_aggregate(u, system, weight, pair):
    space, dual = pair.split(".")
    p = ExponentSeq.constant(1.0, LENGTH)
    plain = duals.dual_report(WEIGHTS[weight], SYSTEMS[system], p, space, dual, DUAL_LADDER)
    diagonal = duals.dual_report(WEIGHTS[weight], DIAGONAL[u][system], p, space, dual, DUAL_LADDER)
    assert diagonal.aggregate == plain.aggregate


@pytest.mark.parametrize("u, system, matrix, class_id", _diagonal_rows(MATRICES, E_CLASSES))
def test_a_bounded_diagonal_keeps_every_class_aggregate(u, system, matrix, class_id):
    p, q = ExponentSeq.constant(1.0, LENGTH), np.ones(LENGTH)
    plain = matclass.class_report(MATRICES[matrix], class_id, SYSTEMS[system], p=p, q=q, ladder=CLASS_LADDER)
    diagonal = matclass.class_report(MATRICES[matrix], class_id, DIAGONAL[u][system], p=p, q=q, ladder=CLASS_LADDER)
    assert diagonal.aggregate == plain.aggregate
