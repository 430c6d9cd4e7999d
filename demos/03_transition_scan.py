#!/usr/bin/env python3
"""Locate the spontaneous breaking transition and the uniform decay rate.

Single qubit, H = h X with dephasing rate g: the (y, z) Bloch block has
eigenvalues -2g^2 +- 2 sqrt(g^4 - h^2), so the transition sits exactly at
g^2 = h.  Below it the two coherence modes decay at the common rate
2 g^2 = sum(c_m); above it the rates split.
"""

import math

import numpy as np

from ptliouville import (
    BrokenPhaseError,
    Dephasing,
    ModelSpec,
    build_model,
    check_uniform_rate,
    scale_noise,
    scan_pt_breaking,
)


def main():
    h = 1.0
    spec = ModelSpec(n=1, fields=(h,), noise=Dephasing((1.0,)))

    result = scan_pt_breaking(spec, 0.1, 2.0, resolution=1e-6)
    lo, hi = result.bracket
    bisection = 2 + math.ceil(math.log2((2.0 - 0.1) / 1e-6))
    print(f"scan probes: {len(result.probes)} (bisection: {bisection})")
    print(f"bracket = [{lo:.8f}, {hi:.8f}]")
    print(f"gamma_pt = {result.gamma_pt:.8f}   (analytic value sqrt(h) = {np.sqrt(h):.8f})")
    print()

    model = build_model(spec)
    print(" lambda   classification   uniform rate")
    for lam in (0.3, 0.6, 0.9, 0.99, 1.01, 1.3):
        # one solve per lambda: the uniform rate exists exactly when UNBROKEN
        try:
            report = check_uniform_rate(scale_noise(model, lam))
        except BrokenPhaseError:
            phase, rate = "BROKEN", "-"
        else:
            phase, rate = "UNBROKEN", f"{report.rate:.6f} (deviation {report.max_deviation:.1e})"
        print(f"  {lam:5.2f}   {phase:12s}   {rate}")

    ok = abs(result.gamma_pt - np.sqrt(h)) < 1e-6
    print()
    print("transition scan demo:", "PASS" if ok else "FAIL")


if __name__ == "__main__":
    main()
