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

Finite perturbation: duals and classes are linear spaces, and a finitely
supported b and a finite block F lie in every one of them, so a and a + b
must get the same dual aggregate, and A and A + F the same class aggregate,
since (A + F)x differs from Ax in finitely many terms.  b is supported on
{0, ..., 7} and F is an 8 x 8 block, each drawn once per bump size, U(-3, 3)
and U(-0.3, 0.3), from seeds fixed before the first run.  The rows run the
nine s0/sc/sinf dual pairs and all twelve classes on the systems, weights,
matrices and ladders above.  The bump moves aggregates today, both ways;
each row that moves is a strict xfail naming item 8's mechanism.
"""

import functools
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


# finite perturbations: bump size -> (seed of b, seed of F)
BUMP_SEEDS = {3.0: (24, 25), 0.3: (26, 27)}
_B = {size: np.pad(rng_from_seed(b).uniform(-size, size, 8), (0, LENGTH - 8)) for size, (b, _) in BUMP_SEEDS.items()}
_F = {size: np.pad(rng_from_seed(f).uniform(-size, size, (8, 8)), (0, _N - 8)) for size, (_, f) in BUMP_SEEDS.items()}
ALL_CLASSES = tuple(sorted(matclass.CLASS_RULES))
_RATE_RULE = (
    "item 8's rule: the 1 % relative stabilization and the log-log slope both shrink when a finite bump adds a "
    "constant to a slowly growing value, so the bumped ladder reads another verdict"
)
# (bump size, system, weight) -> the pairs whose aggregate the bump b moves today
DUAL_BUMP_MOVES = {
    (3.0, "contracting", "k^-1.5"): ("s0.alpha", "s0.beta", "s0.gamma", "sc.alpha", "sc.beta", "sc.gamma", "sinf.beta", "sinf.gamma"),
    (3.0, "difference", "seeded"): ("s0.alpha", "sc.alpha"),
    (3.0, "negated_difference", "seeded"): ("s0.alpha", "sc.alpha"),
    (3.0, "random", "k^-3"): ("s0.alpha", "sc.alpha"),
    (3.0, "random", "seeded"): ("s0.alpha", "s0.beta", "s0.gamma", "sc.alpha", "sc.beta", "sc.gamma", "sinf.gamma"),
    (0.3, "random", "k^-3"): ("s0.alpha", "sc.alpha"),
    (0.3, "random", "seeded"): ("s0.beta", "s0.gamma", "sc.beta", "sc.gamma", "sinf.gamma"),
}
# (bump size, system, matrix) -> the classes whose aggregate the block F moves today
CLASS_BUMP_MOVES = {
    (3.0, "contracting", "cesaro"): ("s0:c_q",),
    (3.0, "contracting", "seeded"): ("s0:c_q",),
    (3.0, "difference", "seeded"): ("s0:c0_q", "s0:c_q", "s0:linf_q", "sinf:linf"),
    (3.0, "negated_difference", "seeded"): ("s0:c0_q", "s0:c_q", "s0:linf_q", "sinf:linf"),
    (3.0, "random", "cesaro"): ("c:sc_reg", "st:sc_reg"),
    (3.0, "random", "seeded"): ("c:sc_reg", "st:sc_reg"),
    (0.3, "random", "cesaro"): ("c:sc_reg", "st:sc_reg"),
    (0.3, "random", "seeded"): ("c:sc_reg", "st:sc_reg"),
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


@functools.cache
def _plain_dual_aggregate(system: str, weight: str, pair: str) -> str:
    space, dual = pair.split(".")
    return duals.dual_report(WEIGHTS[weight], SYSTEMS[system], ExponentSeq.constant(1.0, LENGTH), space, dual, DUAL_LADDER).aggregate


@functools.cache
def _plain_class_aggregate(system: str, matrix: str, class_id: str) -> str:
    p, q = ExponentSeq.constant(1.0, LENGTH), np.ones(LENGTH)
    return matclass.class_report(MATRICES[matrix], class_id, SYSTEMS[system], p=p, q=q, ladder=CLASS_LADDER).aggregate


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
    diagonal = duals.dual_report(WEIGHTS[weight], DIAGONAL[u][system], ExponentSeq.constant(1.0, LENGTH), space, dual, DUAL_LADDER)
    assert diagonal.aggregate == _plain_dual_aggregate(system, weight, pair)


@pytest.mark.parametrize("u, system, matrix, class_id", _diagonal_rows(MATRICES, E_CLASSES))
def test_a_bounded_diagonal_keeps_every_class_aggregate(u, system, matrix, class_id):
    p, q = ExponentSeq.constant(1.0, LENGTH), np.ones(LENGTH)
    diagonal = matclass.class_report(MATRICES[matrix], class_id, DIAGONAL[u][system], p=p, q=q, ladder=CLASS_LADDER)
    assert diagonal.aggregate == _plain_class_aggregate(system, matrix, class_id)


def _finite_rows(inputs, targets, moves) -> list:
    """(bump size, system, input, target) rows, a strict xfail where the bump moves the aggregate today."""
    rows = []
    for size, system, name, target in itertools.product(BUMP_SEEDS, sorted(SYSTEMS), sorted(inputs), targets):
        marks = [pytest.mark.xfail(strict=True, reason=_RATE_RULE)] if target in moves.get((size, system, name), ()) else []
        rows.append(pytest.param(size, system, name, target, marks=marks, id=f"{size}-{system}-{name}-{target}"))
    return rows


@pytest.mark.parametrize("size, system, weight, pair", _finite_rows(WEIGHTS, [f"{s}.{d}" for s, d in PAIRS], DUAL_BUMP_MOVES))
def test_a_finitely_supported_bump_keeps_every_dual_aggregate(size, system, weight, pair):
    space, dual = pair.split(".")
    bumped = FiniteSeq(WEIGHTS[weight].values + _B[size])
    report = duals.dual_report(bumped, SYSTEMS[system], ExponentSeq.constant(1.0, LENGTH), space, dual, DUAL_LADDER)
    assert report.aggregate == _plain_dual_aggregate(system, weight, pair)


@pytest.mark.parametrize("size, system, matrix, class_id", _finite_rows(MATRICES, ALL_CLASSES, CLASS_BUMP_MOVES))
def test_a_finite_block_keeps_every_class_aggregate(size, system, matrix, class_id):
    p, q = ExponentSeq.constant(1.0, LENGTH), np.ones(LENGTH)
    report = matclass.class_report(MATRICES[matrix] + _F[size], class_id, SYSTEMS[system], p=p, q=q, ladder=CLASS_LADDER)
    assert report.aggregate == _plain_class_aggregate(system, matrix, class_id)
