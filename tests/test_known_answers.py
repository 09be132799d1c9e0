"""Dual-set and mapping-class verdicts against answers known in closed form.

With p = 1 and weights a_k = k^(-e), k >= 1, two families have known duals:

* Kizmaz (Canad. Math. Bull. 24 (1981)): under the difference system the
  alpha-dual of l_inf(Delta), c(Delta) and c0(Delta) is {a : sum k |a_k| < inf};
* contracting constant systems (|s / r| < 1): the band triangle is invertible
  on l_inf, c and c0 by a Neumann series, so all nine alpha/beta/gamma duals
  of s0, sc and sinf are l1.

Each expected verdict comes from the p-series rule (sum k^(-t) converges iff
t > 1) applied to the governing sum, so the rows hold iff e > 2 (Kizmaz) and
e > 1 (contracting).  Rows the current conditions get wrong are strict
xfails that name their mechanism; a fix of that mechanism removes its marks.

Finite support (an invariance, so no closed form is needed): when a has
finitely many nonzero terms, sum a_n x_n is a finite sum for every x, so a
lies in the alpha-, beta- and gamma-dual of every space, under every system
and every p.  The rows use a = e_3.

Class side: for A = D T, with T the band triangle and D = diag(d), the
composed matrix E = A V is D itself, so with p = q = 1 each of the nine E
classes follows the multiplier rule (Stieglitz & Tietz 1977): into l_inf
from any source iff d is bounded; from l_inf into c or c0 iff d -> 0; from
c0 into c0 or c iff d is bounded; from c into c0 iff d -> 0; from c into c
iff d is bounded and convergent.
"""

import numpy as np
import pytest

from seqcore import band_ops, duals, matclass
from seqcore.generators import make_sequence
from seqcore.io import SchemaError
from seqcore.types import BandSystem, ExponentSeq, FiniteSeq

LADDER = (128, 256, 512, 1024)
N = LADDER[-1]

S8_READS_D = "S8 reads D, not C"
SLOW_TAIL = "slow tail, ROADMAP item 8"

# (family, space, dual, e) -> mechanism of a verdict that is wrong today
KNOWN_WRONG = {
    ("kizmaz", "sinf", "alpha", 3.0): S8_READS_D,
    ("kizmaz", "sinf", "alpha", 4.0): S8_READS_D,
    ("contracting", "sinf", "alpha", 1.5): S8_READS_D,
    ("contracting", "sinf", "alpha", 3.0): S8_READS_D,
    ("contracting", "s0", "alpha", 1.5): SLOW_TAIL,
    ("contracting", "sc", "alpha", 1.5): SLOW_TAIL,
}

# family -> (system, the power m of k in the governing sum sum k^m |a_k|, duals, exponents e)
FAMILIES = {
    "kizmaz": (BandSystem.difference(N), 1, ("alpha",), (1.0, 3.0, 4.0)),
    "contracting": (BandSystem.constant(1.0, 0.5, 1.0, N), 0, duals.DUALS, (0.5, 1.5, 3.0)),
}


def _rows():
    for family, (_, m, dual_names, exponents) in FAMILIES.items():
        for e in exponents:
            for space in ("s0", "sc", "sinf"):
                for dual in dual_names:
                    mechanism = KNOWN_WRONG.get((family, space, dual, e))
                    marks = [pytest.mark.xfail(strict=True, reason=mechanism)] if mechanism else []
                    yield pytest.param(family, space, dual, e, m, marks=marks, id=f"{family}-{space}.{dual}-e{e:g}")


@pytest.mark.parametrize("family, space, dual, e, m", list(_rows()))
def test_dual_verdict_matches_known_dual(family, space, dual, e, m):
    sys = FAMILIES[family][0]
    a = FiniteSeq(np.arange(1.0, N + 1.0) ** -e)
    expected = "holds" if e - m > 1.0 else "fails"  # sum k^m k^(-e) converges iff e - m > 1
    report = duals.dual_report(a, sys, ExponentSeq.constant(1.0, N), space, dual, LADDER)
    assert report.aggregate == expected



SUPPORT_LADDER = (16, 64, 256)
SUPPORT_N = SUPPORT_LADDER[-1]
SUPPORT_SYSTEMS = {
    "difference": BandSystem.difference(SUPPORT_N),
    "contracting": BandSystem.constant(1.0, 0.5, 1.0, SUPPORT_N),
    "expanding": BandSystem.constant(1.0, 2.0, 1.0, SUPPORT_N),
    "negated_difference": BandSystem.constant(-1.0, 1.0, 1.0, SUPPORT_N),
}

# (space, dual, p) -> (mechanism of a verdict that is wrong today, the exception the row raises)
SUPPORT_KNOWN_WRONG = {
    **{("sinf", "alpha", p): (f"{S8_READS_D} (ROADMAP item 1.1)", AssertionError) for p in (0.5, 2.0)},
    **{("lp", "alpha", p): ("S12 and S13 read D, not C (ROADMAP item 1.1)", AssertionError) for p in (0.5, 2.0)},
    ("lp", "beta", 0.5): ("lp.beta runs S14, whose conjugate exponents need p_k > 1 (ROADMAP item 3)", SchemaError),
}


def _support_rows():
    for system in SUPPORT_SYSTEMS:
        for space in duals.SPACES:
            for dual in duals.DUALS:
                for p in (0.5, 2.0):
                    mechanism, raises = SUPPORT_KNOWN_WRONG.get((space, dual, p), (None, None))
                    marks = [pytest.mark.xfail(strict=True, raises=raises, reason=mechanism)] if mechanism else []
                    yield pytest.param(system, space, dual, p, marks=marks, id=f"e3-{system}-{space}.{dual}-p{p:g}")


@pytest.mark.parametrize("system, space, dual, p", list(_support_rows()))
def test_finitely_supported_weight_is_in_every_dual(system, space, dual, p):
    a = make_sequence("e_n", SUPPORT_N, k=3)
    report = duals.dual_report(a, SUPPORT_SYSTEMS[system], ExponentSeq.constant(p, SUPPORT_N), space, dual, SUPPORT_LADDER)
    assert report.aggregate == "holds"


CLASS_LADDER = (64, 128, 256, 512)
CLASS_N = CLASS_LADDER[-1]
CLASS_SYSTEM = BandSystem.constant(-1.0, 1.0, 1.0, CLASS_N)

# multiplier -> (d_n for n = 0, 1, ..., bounded, lim d_n or None when it has no limit)
MULTIPLIERS = {
    "one": (lambda n: np.ones(n.size), True, 1.0),
    "harmonic": (lambda n: 1.0 / (n + 1.0), True, 0.0),
    "sqrt": (lambda n: np.sqrt(n + 1.0), False, None),
    "alternating": (lambda n: (-1.0) ** n, True, None),
    "one_plus_harmonic": (lambda n: 1.0 + 1.0 / (n + 1.0), True, 1.0),
}
E_CLASSES = tuple(sorted(cid for cid, (source, _) in matclass.CLASS_RULES.items() if source == "E"))

# (multiplier, class) -> the condition behind a verdict that is wrong today
MT28 = "mt28 reads probe rows 0-7 only, so its value cannot decay with n"
MT31 = "mt31 tests convergent row sums, not a tail that vanishes uniformly in n"
MT38 = "mt38 fits beta_k from the top rung's last row, which holds its own diagonal entry"
CLASS_KNOWN_WRONG = {
    ("one", "s0:c_q"): MT38,
    ("one", "sc:c_q"): f"{MT28}; {MT38}",
    ("one", "sc:linf_q"): MT28,
    ("one", "sinf:c"): MT31,
    ("harmonic", "sc:c0_q"): MT28,
    ("harmonic", "sc:c_q"): MT28,
    ("harmonic", "sc:linf_q"): MT28,
    ("alternating", "s0:c_q"): MT38,
    ("alternating", "sc:linf_q"): MT28,
    ("alternating", "sinf:c"): MT31,
    ("one_plus_harmonic", "s0:c_q"): MT38,
    ("one_plus_harmonic", "sc:c_q"): f"{MT28}; {MT38}",
    ("one_plus_harmonic", "sc:linf_q"): MT28,
    ("one_plus_harmonic", "sinf:c"): MT31,
}


def _multiplier_rule(class_id: str, bounded: bool, limit) -> bool:
    source, target = class_id.split(":")
    target = target.removesuffix("_q")
    if target == "linf":
        return bounded
    if source == "sinf":  # l_inf into c or c0
        return limit == 0.0
    if source == "s0":  # c0 into c0 or c
        return bounded
    if target == "c0":  # c into c0
        return limit == 0.0
    return bounded and limit is not None  # c into c


def _class_rows():
    for name in MULTIPLIERS:
        for class_id in E_CLASSES:
            mechanism = CLASS_KNOWN_WRONG.get((name, class_id))
            marks = [pytest.mark.xfail(strict=True, reason=mechanism)] if mechanism else []
            yield pytest.param(name, class_id, marks=marks, id=f"{name}-{class_id}")


@pytest.mark.parametrize("name, class_id", list(_class_rows()))
def test_class_verdict_matches_multiplier_rule(name, class_id):
    multiplier, bounded, limit = MULTIPLIERS[name]
    d = multiplier(np.arange(CLASS_N, dtype=np.float64))
    A = d[:, None] * band_ops.triangle_kernel(CLASS_SYSTEM, CLASS_N).entries
    expected = "holds" if _multiplier_rule(class_id, bounded, limit) else "fails"
    p = ExponentSeq.constant(1.0, CLASS_N)
    report = matclass.class_report(A, class_id, CLASS_SYSTEM, p=p, q=1.0, ladder=CLASS_LADDER)
    assert report.aggregate == expected
