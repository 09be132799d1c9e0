"""The acceptance battery: one check per shipped verification criterion.

Each check is a deterministic, seeded computation returning a
:class:`CheckResult`; the CLI ``verify`` subcommand prints one pass/fail line
per check and the pytest acceptance module asserts each check individually.
Wall-clock budgets are part of the checks that carry them, but elapsed times
are never written into reports, so identical configurations always produce
byte-identical report files.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import band_ops, cores, duals, matclass
from .generators import make_sequence, random_band_system, rng_from_seed
from .io import canonical_dumps
from .types import BandSystem, ExponentSeq, FiniteSeq

__all__ = ["CheckResult", "CHECK_IDS", "check_function", "BUDGETS_S"]

# wall-clock budgets (seconds) of the checks that carry one
BUDGETS_S = {"C1": 5.0, "C7": 30.0}


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    name: str
    passed: bool
    detail: str
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "data": self.data,
        }


# ---------------------------------------------------------------------------
# checked-in transcriptions diffed against the live tables (check C11)
# ---------------------------------------------------------------------------

DUAL_TABLE_EXPECTED = {
    "s0.alpha": ["S1"],
    "sc.alpha": ["S1", "S2"],
    "s0.beta": ["S3", "S4", "S5"],
    "sc.beta": ["S3", "S4", "S5", "S6"],
    "s0.gamma": ["S3"],
    "sc.gamma": ["S3", "S7"],
    "sinf.alpha": ["S8"],
    "sinf.beta": ["S9", "S10"],
    "sinf.gamma": ["S11"],
    "lp.alpha": {"0<p<=1": ["S12"], "1<p<=H": ["S13"]},
    "lp.beta": ["S14", "S15", "S16"],
    "lp.gamma": {"0<p<=1": ["S15"], "1<p<=H": ["S14"]},
}

CLASS_TABLE_EXPECTED = {
    "sinf:linf": ["mt23", "mt24", "mt29"],
    "sinf:c": ["mt23", "mt24", "mt30", "mt31"],
    "sinf:c0": ["mt23", "mt24", "mt32"],
    "s0:linf_q": ["mt25", "mt26", "mt27", "mt33"],
    "s0:c0_q": ["mt25", "mt26", "mt27", "mt34", "mt35"],
    "s0:c_q": ["mt25", "mt26", "mt27", "mt36", "mt37", "mt38"],
    "sc:linf_q": ["mt25", "mt26", "mt27", "mt28", "mt33", "mt39"],
    "sc:c0_q": ["mt25", "mt26", "mt27", "mt28", "mt34", "mt35", "mt40"],
    "sc:c_q": ["mt25", "mt26", "mt27", "mt28", "mt36", "mt37", "mt38", "mt41"],
    "linf:sc": ["4.1", "4.2", "4.3"],
    "c:sc_reg": ["4.1", "4.2z", "4.5"],
    "st:sc_reg": ["4.1", "4.2z", "4.5", "4.6"],
}

CATALOG_IDS_EXPECTED = [
    "2.15",
    "4.1",
    "4.2",
    "4.2z",
    "4.3",
    "4.5",
    "4.6",
    "4.8",
    "L2.3",
    "L2.4a",
    "L2.4b",
    "L2.4c",
    "L2.5",
    "L2.6i",
    "L2.6ii",
    "L2.7i",
    "L2.7ii",
] + [f"mt{i}" for i in range(23, 42)]


def _uniform_complex(rng, n: int) -> FiniteSeq:
    return FiniteSeq(rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n))


def check_roundtrip() -> CheckResult:
    """C1: inverse(forward(x)) recovers x on random systems with capped amplification."""
    n, trials, bound, cap = 512, 100, 1e-9, 1e4
    rng = rng_from_seed(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(trials):
        sys = random_band_system(rng, n, amplification_cap=cap)
        x = _uniform_complex(rng, n)
        back = band_ops.inverse_transform(band_ops.forward_transform(x, sys), sys)
        err = float(np.max(np.abs(back.values - x.values)) / np.max(np.abs(x.values)))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    within_budget = elapsed < BUDGETS_S["C1"]
    passed = worst < bound and within_budget
    return CheckResult(
        "C1",
        "round trip through the band transform",
        passed,
        f"worst rel err {worst:.2e} (bound {bound:.0e}), within 5s budget: {within_budget}",
        {"worst": worst, "bound": bound, "trials": trials, "n": n,
         "amplification_cap": cap, "within_budget": within_budget},
    )


def check_kernel_identity() -> CheckResult:
    """C2: triangle @ inverse = identity, componentwise scaled residual."""
    n, bound = 256, 1e-10
    rng = rng_from_seed(202)
    systems = [
        BandSystem.constant(2.0, 3.0, 1.0, n),  # |s/r| = 1.5, growing products
        BandSystem.constant(2.0, -3.0, 1.0, n),
        BandSystem.constant(3.0, 2.0, 1.0, n),  # decaying products
    ]
    systems += [random_band_system(rng, n) for _ in range(20)]
    worst = max(band_ops.kernel_identity_residual(sys, n) for sys in systems)
    passed = worst < bound
    return CheckResult(
        "C2",
        "triangle times inverse is the identity",
        passed,
        f"max scaled residual {worst:.2e} (bound {bound:.0e})",
        {"worst": worst, "bound": bound, "n": n, "systems": len(systems)},
    )


def check_companion_identities() -> CheckResult:
    """C3: multiplier identities through the companion matrices."""
    n, trials, bound = 64, 100, 1e-8
    rng = rng_from_seed(303)
    worst = 0.0
    for _ in range(trials):
        sys = random_band_system(rng, n)
        a = FiniteSeq(rng.uniform(-1.0, 1.0, n))
        y = _uniform_complex(rng, n)
        r_c, r_d = duals.companion_identity_residuals(a, y, sys)
        worst = max(worst, r_c, r_d)
    passed = worst < bound
    return CheckResult(
        "C3",
        "companion multiplier identities",
        passed,
        f"worst rel residual {worst:.2e} (bound {bound:.0e})",
        {"worst": worst, "bound": bound, "trials": trials, "n": n},
    )


def check_subset_sup() -> CheckResult:
    """C4: the exact solver equals brute force bit for bit; absolute-sum sandwich on real cases.

    The exact solver is the frontier branch and bound of ``duals.subset_sup``:
    its incumbent and its surviving leaves are scored the way the brute-force
    oracle scores every subset, and it prunes only with a proven rounding
    slack, so the two floats must match.
    """
    rng = rng_from_seed(404)
    mismatches = 0
    sandwich_ok = True
    trials = 200
    for t in range(trials):
        size = int(rng.integers(2, 11))
        real = t < trials // 2
        if real:
            mat = rng.uniform(-1.0, 1.0, (size, size))
        else:
            mat = rng.uniform(-1.0, 1.0, (size, size)) + 1j * rng.uniform(-1.0, 1.0, (size, size))
        weights = rng.uniform(0.5, 2.0, size) if t % 4 == 0 else None
        exponents = rng.uniform(0.5, 2.0, size) if t % 4 == 2 else None
        exact = duals.subset_sup(mat, "columns", weights, exponents, mode="exact")
        brute = duals.subset_sup_bruteforce(mat, "columns", weights, exponents)
        if exact != brute:
            mismatches += 1
        if real and weights is None and exponents is None:
            total = float(np.abs(mat).sum())
            if not (exact <= total <= 4.0 * exact + 1e-12):
                sandwich_ok = False
    passed = mismatches == 0 and sandwich_ok
    return CheckResult(
        "C4",
        "subset-sup solver against brute force",
        passed,
        f"{trials} matrices, {mismatches} mismatches, sandwich {'ok' if sandwich_ok else 'violated'}",
        {"trials": trials, "mismatches": mismatches, "sandwich_ok": sandwich_ok},
    )


def check_expansion_residual() -> CheckResult:
    """C5: expansion residual equals the tail functional and is non-increasing."""
    n, trials, bound = 48, 50, 1e-10
    rng = rng_from_seed(505)
    worst = 0.0
    monotone_ok = True
    for t in range(trials):
        sys = random_band_system(rng, n, amplification_cap=100.0)
        p = ExponentSeq(rng.uniform(0.5, 2.0, n))
        x = _uniform_complex(rng, n)
        y = band_ops.forward_transform(x, sys)
        cut = int(rng.integers(0, n // 2))
        res = band_ops.expansion_residual(x, sys, p, cut)
        tail = band_ops.tail_paranorm(y, p, cut)
        worst = max(worst, abs(res - tail))
        if t < 10:
            ladder = [band_ops.expansion_residual(x, sys, p, c) for c in range(0, n, 6)]
            if any(b > a + 1e-10 for a, b in zip(ladder, ladder[1:])):
                monotone_ok = False
    passed = worst < bound and monotone_ok
    return CheckResult(
        "C5",
        "basis expansion residuals",
        passed,
        f"worst |direct - tail| {worst:.2e} (bound {bound:.0e}), monotone {'ok' if monotone_ok else 'violated'}",
        {"worst": worst, "bound": bound, "trials": trials, "n": n, "monotone_ok": monotone_ok},
    )


def check_paranorm_axioms() -> CheckResult:
    """C6: zero, symmetry, subadditivity, and the scalar inequality for g and g*."""
    n, trials = 32, 1000
    rng = rng_from_seed(606)
    slack = 1e-12
    failures = 0
    for _ in range(trials):
        sys = random_band_system(rng, n)
        p = ExponentSeq(rng.uniform(0.5, 2.0, n))
        x = _uniform_complex(rng, n)
        z = _uniform_complex(rng, n)
        beta = float(rng.uniform(-3.0, 3.0))
        zero = FiniteSeq(np.zeros(n))
        for kind in ("sup", "sum"):
            g = lambda v: band_ops.space_paranorm(v, sys, p, kind)
            gx, gz = g(x), g(z)
            ok = (
                g(zero) == 0.0
                and g(FiniteSeq(-x.values)) == gx
                and g(FiniteSeq(x.values + z.values)) <= gx + gz + slack * (1.0 + gx + gz)
                and g(FiniteSeq(beta * x.values)) <= max(1.0, abs(beta)) * gx * (1.0 + slack) + slack
            )
            if not ok:
                failures += 1
    passed = failures == 0
    return CheckResult(
        "C6",
        "paranorm axioms on random triples",
        passed,
        f"{trials} triples x 2 kinds, {failures} violations",
        {"trials": trials, "failures": failures, "n": n},
    )


_CORE_FAMILY = (
    ("alternating", {}),
    ("roots_of_unity", {"m": 4}),
    ("square_indicator", {}),
    ("random_bounded", {"seed": 7}),
)

_AGREEMENT_FAMILY = _CORE_FAMILY + (("convergent", {"l": 0.6, "rate": 0.9}),)


def check_core_agreement() -> CheckResult:
    """C7: hull and disc-intersection core estimates agree on the test family."""
    n, window, bound = 4000, (1000, 4000), 0.05
    start = time.perf_counter()
    gaps = {}
    for name, params in _AGREEMENT_FAMILY:
        x = make_sequence(name, n, **params)
        hull = cores.cluster_hull(x, window)
        disc = cores.disc_core(x, window, grid_n=41)
        gaps[name] = cores.hausdorff_distance(hull, disc)
    elapsed = time.perf_counter() - start
    worst = max(gaps.values())
    within_budget = elapsed < BUDGETS_S["C7"]
    passed = worst < bound and within_budget
    return CheckResult(
        "C7",
        "core estimators agree",
        passed,
        f"worst Hausdorff gap {worst:.3f} (bound {bound}), within 30s budget: {within_budget}",
        {"gaps": {k: float(v) for k, v in gaps.items()}, "bound": bound, "n": n,
         "within_budget": within_budget},
    )


def _cesaro_action(values: np.ndarray, sys: BandSystem, scale: float = 1.0) -> FiniteSeq:
    """The averaging lift of values: the sequence whose band transform is scale times their Cesaro means."""
    return band_ops.inverse_transform(FiniteSeq(scale * np.cumsum(values) / np.arange(1, values.size + 1)), sys)


def check_core_inclusion() -> CheckResult:
    """C8: transformed cores sit inside the plain cores when absolute row sums tend to 1.

    The positive family applies the averaging lift (band-transformed matrix =
    the Cesaro means, absolute row sums exactly 1); the negative control
    doubles the means (row sums 2), whose inclusion failure is witnessed by
    the constant-ones sequence with a support gap of 1.  The alternating
    sequence is also recorded under the doubled means: its transformed core
    collapses to the origin, so the inclusion still holds there; failures of
    the row-sum condition are witnessed by convergent sequences, not by
    oscillating ones.
    """
    n, window, tol = 4000, (1000, 4000), 0.05
    sys = BandSystem.difference(n)
    included_all = True
    details = {}
    for name, params in _CORE_FAMILY:
        x = make_sequence(name, n, **params)
        lifted = _cesaro_action(x.values, sys)
        inner = cores.alpha_core(lifted, sys, window)
        outer = cores.cluster_hull(x, window)
        ok, violation = cores.region_included(inner, outer, tol)
        details[name] = violation
        included_all = included_all and ok

    ones = make_sequence("e", n)
    lifted_bad = _cesaro_action(ones.values, sys, 2.0)
    inner_bad = cores.alpha_core(lifted_bad, sys, window)
    outer_ones = cores.cluster_hull(ones, window)
    bad_ok, bad_violation = cores.region_included(inner_bad, outer_ones, tol)
    negative_detected = (not bad_ok) and bad_violation > 0.5

    alt = make_sequence("alternating", n)
    lifted_alt = _cesaro_action(alt.values, sys, 2.0)
    alt_ok, alt_violation = cores.region_included(
        cores.alpha_core(lifted_alt, sys, window), cores.cluster_hull(alt, window), tol
    )

    passed = included_all and negative_detected
    return CheckResult(
        "C8",
        "transformed-core inclusion with unit absolute row sums",
        passed,
        f"family max gap {max(details.values()):.3f}, doubled-means violation {bad_violation:.2f} on ones",
        {
            "violations": {k: float(v) for k, v in details.items()},
            "negative_violation_on_ones": float(bad_violation),
            "negative_alternating_still_included": bool(alt_ok),
            "negative_alternating_violation": float(alt_violation),
            "tol": tol,
        },
    )


def check_vanishing_density_core() -> CheckResult:
    """C9: averaged lift of a density-zero indicator has core at the origin."""
    n, window, bound = 4000, (1000, 4000), 0.05
    sys = BandSystem.difference(n)
    x = make_sequence("square_indicator", n)
    lifted = _cesaro_action(x.values, sys)
    inner = cores.alpha_core(lifted, sys, window)
    worst = float(np.max(inner.support))
    passed = worst <= bound
    return CheckResult(
        "C9",
        "transformed core of a vanishing-density indicator",
        passed,
        f"max support {worst:.4f} (bound {bound})",
        {"max_support": worst, "bound": bound},
    )


def check_sign_witness() -> CheckResult:
    """C10: the block witness attains absolute row sums exactly."""
    rng = rng_from_seed(1010)
    mat = np.zeros((4, 16))
    blocks = []
    for i in range(4):
        mat[i, 4 * i : 4 * i + 4] = rng.uniform(-2.0, 2.0, 4)
        blocks.append((i, (4 * i, 4 * i + 4)))
    y = cores.sign_witness(mat, blocks)
    sup_norm = float(np.max(np.abs(y.values)))
    exact = all(
        complex(np.dot(mat[i], y.values)) == complex(np.sum(np.abs(mat[i]))) for i in range(4)
    )
    passed = exact and sup_norm <= 1.0
    return CheckResult(
        "C10",
        "sign witness attains absolute row sums",
        passed,
        f"exact on 4 designated rows, sup norm {sup_norm:.3f}",
        {"exact": exact, "sup_norm": sup_norm},
    )


def check_rule_tables() -> CheckResult:
    """C11: rule tables match their transcriptions; worked conditions evaluate as stated."""
    tables_ok = (
        duals.dual_rule_table() == DUAL_TABLE_EXPECTED
        and matclass.class_rule_table() == CLASS_TABLE_EXPECTED
        and sorted(matclass.condition_catalog()) == sorted(CATALOG_IDS_EXPECTED)
    )

    n = 128
    sys = BandSystem.difference(n)
    ladder = (32, 64, 128)
    ones = ExponentSeq.constant(1.0, n)

    v48 = matclass.eval_condition("4.8", matrix="cesaro", sys=sys, ladder=ladder)
    ex1 = v48.verdict == "holds" and all(abs(v - 1.0) < 1e-12 for _, _, v in v48.estimates)

    v37 = matclass.eval_condition("mt37", A="difference", sys=sys, p=ones, ladder=ladder)
    first_m = int(matclass.DEFAULT_QUANTIFIER_LADDER[0])
    ex2 = v37.verdict == "holds" and abs(v37.estimates[0][2] - 1.0 / first_m) < 1e-15

    v40 = matclass.eval_condition("mt40", A="difference", sys=sys, q=np.ones(n), ladder=ladder)
    ex3 = v40.verdict == "fails" and abs(v40.estimates[-1][2] - 1.0) < 1e-15

    passed = tables_ok and ex1 and ex2 and ex3
    return CheckResult(
        "C11",
        "rule tables and worked conditions",
        passed,
        f"tables {'match' if tables_ok else 'DIFFER'}; worked examples {[ex1, ex2, ex3]}",
        {"tables_ok": tables_ok, "worked": [ex1, ex2, ex3]},
    )


def _representative_report() -> str:
    """A small end-to-end report used to pin byte determinism."""
    n = 64
    sys = BandSystem.difference(n)
    p = ExponentSeq.constant(1.0, n)
    a = FiniteSeq(0.5 ** np.arange(n))
    dual = duals.dual_report(a, sys, p, "s0", "beta", (16, 32, 64))
    cls = matclass.class_report("cesaro", "c:sc_reg", sys, ladder=(16, 32, 64))
    region = cores.alpha_core(make_sequence("alternating", 512), BandSystem.difference(512), (128, 512))
    return canonical_dumps({"dual": dual.to_json(), "class": cls.to_json(), "region": region.to_json()})


def check_determinism() -> CheckResult:
    """C12: identical configurations render byte-identical reports."""
    first = _representative_report()
    second = _representative_report()
    passed = first == second
    return CheckResult(
        "C12",
        "report determinism",
        passed,
        f"{len(first)} report bytes, {'identical' if passed else 'DIFFER'} across runs",
        {"bytes": len(first), "identical": passed},
    )


CHECKS = (
    check_roundtrip,
    check_kernel_identity,
    check_companion_identities,
    check_subset_sup,
    check_expansion_residual,
    check_paranorm_axioms,
    check_core_agreement,
    check_core_inclusion,
    check_vanishing_density_core,
    check_sign_witness,
    check_rule_tables,
    check_determinism,
)

CHECK_IDS = tuple(f"C{i}" for i in range(1, len(CHECKS) + 1))


def check_function(check_id: str):
    try:
        return CHECKS[CHECK_IDS.index(check_id)]
    except ValueError:
        raise KeyError(f"unknown check {check_id!r}; known: {list(CHECK_IDS)}") from None
