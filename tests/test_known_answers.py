"""Dual-set verdicts against duals known in closed form.

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
"""

import numpy as np
import pytest

from seqcore import duals
from seqcore.types import BandSystem, ExponentSeq, FiniteSeq

LADDER = (128, 256, 512, 1024)
N = LADDER[-1]

S8_READS_D = "S8 reads D, not C"
SLOW_TAIL = "slow tail, ROADMAP item 6"

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

