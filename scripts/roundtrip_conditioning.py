#!/usr/bin/env python3
"""Measure round-trip error against the conditioning of random band systems.

The inverse of the band triangle is built from products of the ratios
s_i / r_i; the largest rise or fall of their running log sums bounds how
strongly forward substitution amplifies rounding.  This experiment draws
random systems, bins them by that amplification, and reports the observed
round-trip error per bin, which is why the shipped round-trip acceptance
check caps its draws at amplification 1e4.  It then draws as many systems
under that cap and reports their worst round-trip error.

Usage: python3 scripts/roundtrip_conditioning.py [--n 512] [--trials 400]
"""

import argparse

import numpy as np

from seqcore import band_ops
from seqcore.generators import _log_amplification, random_band_system, rng_from_seed

CAP = 1e4  # the cap of the round-trip acceptance check (C1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=512)
    parser.add_argument("--trials", type=int, default=400)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    rng = rng_from_seed(args.seed)

    def round_trip_error(sys) -> float:
        x = rng.uniform(-1, 1, args.n) + 1j * rng.uniform(-1, 1, args.n)
        back = band_ops.inverse_transform(band_ops.forward_transform(x, sys), sys).values
        return float(np.max(np.abs(back - x)) / np.max(np.abs(x)))

    rows = []
    for _ in range(args.trials):
        sys = random_band_system(rng, args.n)
        rows.append((_log_amplification(sys.r, sys.s), round_trip_error(sys)))

    rows.sort()
    amps = np.array([a for a, _ in rows])
    errs = np.array([e for _, e in rows])
    print(f"{args.trials} uncapped systems at n={args.n}")
    print(f"{'amplification bin':>24} {'count':>6} {'median err':>12} {'max err':>12}")
    edges = [0, 5, 10, 15, 20, 25, np.inf]
    for lo, hi in zip(edges, edges[1:]):
        mask = (amps >= lo) & (amps < hi)
        if not np.any(mask):
            continue
        label = f"e^{lo:.0f}..e^{hi:.0f}" if np.isfinite(hi) else f">= e^{lo:.0f}"
        print(f"{label:>24} {mask.sum():>6} {np.median(errs[mask]):>12.2e} {errs[mask].max():>12.2e}")
    print("\nrounding amplification tracks exp(log-ratio walk range).")
    worst = max(round_trip_error(random_band_system(rng, args.n, amplification_cap=CAP)) for _ in range(args.trials))
    print(f"{args.trials} systems capped at amplification {CAP:.0e} (~e^{np.log(CAP):.1f}): worst err {worst:.2e} (C1 bound 1e-9)")


if __name__ == "__main__":
    main()
