#!/usr/bin/env python3
"""Certify the parity-pair symmetry conditions for both model families.

Builds an XYZ chain with an x-field and local dephasing (family 1) and a
field-free XYZ chain with raising/lowering channels (family 2), certifies
the three conditions symbolically, and cross-checks the superoperator-level
anti-symmetry residual ||L'P + P L'^dag|| / ||L'||.

Also runs a negative control: a longitudinal field term anticommutes with
the X-string parity, so certification must fail and the residual must jump
by many orders of magnitude.
"""

import numpy as np

from ptliouville import (
    CustomParts,
    Dephasing,
    Injection,
    ModelSpec,
    PauliOperator,
    build_model,
    check_lemma,
    pt_residual,
)


def show(name, model):
    report = check_lemma(model)
    residual = pt_residual(model)
    print(f"{name}:")
    constants = np.round(report.cond_iii.constants, 6).tolist()
    print(f"  channels M = {len(model.lindblads)}, constants c = {constants}")
    print(f"  condition (i)   pass = {report.cond_i.passed}")
    if report.cond_ii.reflection is not None:
        z = report.cond_ii.reflection.matrix
        print(f"  condition (ii)  pass = {report.cond_ii.passed}, Z diag = {np.diag(z).round(6).tolist()}")
    else:
        print(f"  condition (ii)  pass = {report.cond_ii.passed} ({report.cond_ii.message})")
    print(f"  condition (iii) pass = {report.cond_iii.passed}")
    print(f"  overall = {report.overall}, anti-symmetry residual = {residual:.3e}")
    print()
    return report.overall, residual


def main():
    rng = np.random.default_rng(7)
    n = 3
    couplings = tuple(
        (j, k, *rng.uniform(-1, 1, size=3)) for j in range(n) for k in range(j + 1, n)
    )

    dephasing = ModelSpec(
        n=n,
        couplings=couplings,
        fields=tuple(rng.uniform(-1, 1, size=n)),
        noise=Dephasing(tuple(rng.uniform(0, 1, size=n))),
    )
    injection = ModelSpec(
        n=n,
        couplings=couplings,
        noise=Injection(tuple(rng.uniform(0, 1, size=n)), tuple(rng.uniform(0, 1, size=n))),
    )
    # one purely imaginary rate flips the matching reflection entry to -1
    imag_rate = ModelSpec(
        n=2,
        couplings=((0, 1, 0.6, 0.4, -0.2),),
        noise=Injection((0.8j, 0.6), (0.5, 0.7)),
    )
    # negative control: longitudinal field on site 0 breaks condition (i)
    broken = ModelSpec(
        n=n,
        couplings=couplings,
        fields=dephasing.fields,
        noise=dephasing.noise,
        custom=CustomParts(h_extra=PauliOperator.single("Z", 0, n, 0.5)),
    )

    ok1, r1 = show("family 1 (dephasing, n=3)", build_model(dephasing))
    ok2, r2 = show("family 2 (injection/absorption, n=3)", build_model(injection))
    ok3, r3 = show("family 2 with one imaginary rate (n=2)", build_model(imag_rate))
    ok4, r4 = show("family 1 + longitudinal field (negative control)", build_model(broken))

    good = ok1 and ok2 and ok3 and not ok4 and max(r1, r2, r3) < 1e-10 and r4 > 1e-3
    print("certification demo:", "PASS" if good else "FAIL")


if __name__ == "__main__":
    main()
