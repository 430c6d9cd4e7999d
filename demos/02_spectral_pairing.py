#!/usr/bin/env python3
"""Spectral consequences of the certified anti-symmetry.

The shifted generator's spectrum must be closed under z -> -conj(z): each
eigenvalue either sits on the imaginary axis or comes with a mirror
partner.  The shift itself moves the whole spectrum by sum(c_m), checked
here elementwise.
"""

import numpy as np

from ptliouville import (
    Injection,
    ModelSpec,
    build_model,
    check_pt_pairing,
    liouvillian_spectra,
)


def main():
    spec = ModelSpec(
        n=2,
        couplings=((0, 1, 0.9, 0.7, 0.3),),
        noise=Injection((0.45, 0.2), (0.1, 0.35)),
    )
    model = build_model(spec)

    result = liouvillian_spectra(model)
    print(f"shift sum(c_m) = {result.shift:.6f}")
    print(f"elementwise shift defect = {result.shift_deviation:.3e}")
    print()
    print("   eig(L)                      eig(L')")
    for ev, evp in zip(result.eig_liouvillian, result.eig_shifted):
        print(f"  {ev.real:+.6f}{ev.imag:+.6f}i    {evp.real:+.6f}{evp.imag:+.6f}i")

    pairing = check_pt_pairing(result.eig_shifted, tol=1e-8)
    print()
    print(f"mirror pairing max distance = {pairing.max_distance:.3e}")
    on_axis = sum(1 for lam, partner in pairing.pairs if lam == partner)
    print(f"self-paired (imaginary axis) eigenvalues: {on_axis}")
    print()
    ok = pairing.passed and result.shift_deviation < 1e-9
    print("spectral pairing demo:", "PASS" if ok else "FAIL")


if __name__ == "__main__":
    main()
