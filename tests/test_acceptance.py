"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Expected values tagged as derived come from the independent oracles in
_oracles.py (Bloch matrix, dense matrix arithmetic), never from the code
under test.
"""

import time

import numpy as np
import pytest

from ptliouville import (
    BrokenPhaseError,
    CustomParts,
    Dephasing,
    Injection,
    ModelSpec,
    PauliOperator,
    build_liouvillian,
    build_model,
    build_shifted_liouvillian,
    check_lemma,
    check_nondegeneracy,
    check_pt_pairing,
    check_uniform_rate,
    hamiltonian_eigenbasis,
    pt_residual,
    scale_noise,
    scan_pt_breaking,
    sigma_minus,
    sigma_plus,
    solve_reflection_matrix,
    unvec,
    v_matrix,
    vec,
)

from _corpus import mixed_corpus, random_example1_spec, random_example2_spec
from _oracles import apply_generator, bloch_transition_scale, dense_operator, generator_matrix

CORPUS_SEED = 20240817
_CACHE = {}


def corpus_models():
    """100 certified models (50 per family, n cycling 1..4), built once."""
    if "models" not in _CACHE:
        specs = mixed_corpus(CORPUS_SEED, count_each=50, sizes=(1, 2, 3, 4))
        _CACHE["models"] = [(spec, build_model(spec)) for spec in specs]
    return _CACHE["models"]


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {label}: {status}{suffix}")
    return ok


def test_criterion_1_positive_corpus_certifies():
    started = time.perf_counter()
    specs = mixed_corpus(CORPUS_SEED, count_each=50, sizes=(1, 2, 3, 4))
    worst_residual = 0.0
    worst_z_defect = 0.0
    all_pass = True
    for spec in specs:
        model = build_model(spec)
        report = check_lemma(model)
        all_pass &= report.overall
        residuals = list(report.cond_i.residuals.values())
        refl = report.cond_ii.reflection
        residuals += [refl.residual_fit, refl.residual_orth, refl.residual_invol,
                      refl.residual_imag]
        residuals += list(report.cond_iii.residuals)
        worst_residual = max(worst_residual, max(residuals))
        m_count = len(model.lindblads)
        worst_z_defect = max(
            worst_z_defect, float(np.max(np.abs(refl.matrix - np.eye(m_count))))
        )
    elapsed = time.perf_counter() - started
    ok = all_pass and worst_residual < 1e-10 and worst_z_defect < 1e-10 and elapsed < 10.0
    assert _report(
        1,
        "symmetry certification on 100 random family models",
        ok,
        f"worst residual {worst_residual:.2e}, worst |Z-1| {worst_z_defect:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_pt_residual_corpus_and_violations_i_iii():
    worst = max(pt_residual(model) for _, model in corpus_models())

    base = dict(fields=(0.3, -0.7), noise=Dephasing((0.2, 0.5)),
                couplings=((0, 1, 0.4, -0.3, 0.8),))
    field_break = build_model(ModelSpec(
        n=2, **base, custom=CustomParts(h_extra=PauliOperator.single("Z", 0, 2, 0.5))))
    projector_break = build_model(ModelSpec(
        n=2, **base,
        custom=CustomParts(lindblads_extra=(PauliOperator(2, {"II": 0.5, "ZI": 0.5}),))))
    res_i = pt_residual(field_break)
    res_iii = pt_residual(projector_break)
    ok = worst < 1e-10 and res_i > 1e-3 and res_iii > 1e-3
    assert _report(
        2,
        "pt residual: corpus < 1e-10, (i)/(iii) violations > 1e-3",
        ok,
        f"corpus worst {worst:.2e}, field {res_i:.2e}, projector {res_iii:.2e}",
    )


def test_criterion_2_pt_residual_mixed_phase_rate_violation():
    """A condition-(ii) violation is caught symbolically and densely.

    Three checks:

    1. A family-2 channel with the mixed-phase rate e^{i pi/4} fails the
       solve for a real Z.
    2. That failure is not a dense violation.  Rephasing a channel,
       L -> e^{i phi} L, leaves 2 L rho L^dag and L^dag L unchanged, so the
       generator equals the one of the same spec with |rate|, a certified
       model.  The oracle's generators for the two agree, and the
       mixed-phase residual stays at rounding level.
    3. A relative phase inside one channel is no such gauge.  With
       L = sigma+_0 + 0.3i sigma-_0, both -U L U and W L W give
       sigma-_0 + 0.3i sigma+_0, which is no real multiple of
       L^dag = sigma-_0 - 0.3i sigma+_0, while {L, L^dag} = 1.09 I keeps
       (iii).  Conditions (i) and (iii) pass, (ii) fails, and the dense
       residual exceeds 1e-3.
    """
    rate = (1 + 1j) / np.sqrt(2)
    couplings = ((0, 1, 0.4, -0.3, 0.8),)
    mixed = build_model(ModelSpec(
        n=2, couplings=couplings, noise=Injection((rate, 0.3), (0.5, 0.9))))
    real = build_model(ModelSpec(
        n=2, couplings=couplings, noise=Injection((abs(rate), 0.3), (0.5, 0.9))))
    z_solve_failed = not solve_reflection_matrix(mixed).certified()

    def oracle_generator(model):
        return generator_matrix(dense_operator(model.hamiltonian),
                                [dense_operator(lm) for lm in model.lindblads])

    gauge_defect = float(np.max(np.abs(oracle_generator(mixed) - oracle_generator(real))))
    res_mixed = pt_residual(mixed)

    intra = build_model(ModelSpec(n=2, custom=CustomParts(
        h=mixed.hamiltonian,
        lindblads=(sigma_plus(0, 2) + sigma_minus(0, 2) * 0.3j,
                   sigma_plus(1, 2) * 0.5, sigma_minus(1, 2) * 0.9),
        u=PauliOperator.term("YY"),
        w=PauliOperator.term("XX"))))
    report = check_lemma(intra)
    res_intra = pt_residual(intra)

    ok = (
        z_solve_failed
        and gauge_defect < 1e-12
        and res_mixed < 1e-10
        and report.cond_i.passed
        and not report.cond_ii.passed
        and report.cond_iii.passed
        and res_intra > 1e-3
    )
    conditions = "".join("P" if c.passed else "F"
                         for c in (report.cond_i, report.cond_ii, report.cond_iii))
    assert _report(
        2,
        "pt residual: (ii) violation, mixed phase is gauge, intra-channel phase > 1e-3",
        ok,
        f"mixed-phase z-solve failed {z_solve_failed}, generator gauge defect "
        f"{gauge_defect:.2e}, residual {res_mixed:.2e}; intra-channel phase "
        f"(i)(ii)(iii) {conditions}, residual {res_intra:.2e}",
    )


def test_criterion_3_spectral_pairing_and_shift_identity():
    worst_pairing = 0.0
    worst_shift = 0.0
    for _, model in corpus_models():
        base = build_liouvillian(model).mat
        shift = sum(model.c)
        eig_l = np.linalg.eigvals(base)
        eig_lp = np.linalg.eigvals(base + shift * np.eye(base.shape[0]))
        pairing = check_pt_pairing(eig_lp, tol=1e-8)
        worst_pairing = max(worst_pairing, pairing.max_distance)
        # shift identity via order-free nearest matching of the two spectra
        remaining = list(eig_l + shift)
        worst_here = 0.0
        for value in eig_lp:
            dists = np.abs(np.array(remaining) - value)
            best = int(np.argmin(dists))
            worst_here = max(worst_here, float(dists[best]))
            remaining.pop(best)
        worst_shift = max(worst_shift, worst_here)
    ok = worst_pairing < 1e-8 and worst_shift < 1e-9
    assert _report(
        3,
        "spectral pairing (< 1e-8) and shift identity (< 1e-9) on the corpus",
        ok,
        f"worst pairing {worst_pairing:.2e}, worst shift defect {worst_shift:.2e}",
    )


def test_criterion_4_single_qubit_transition():
    expected = bloch_transition_scale(1.0)  # oracle: collision at g^2 = h
    started = time.perf_counter()
    result = scan_pt_breaking(
        ModelSpec(n=1, fields=(1.0,), noise=Dephasing((1.0,))),
        0.1,
        2.0,
        resolution=1e-6,
    )
    elapsed = time.perf_counter() - started
    ok = (
        result.gamma_pt is not None
        and abs(result.gamma_pt - expected) < 1e-6
        and elapsed < 5.0
    )
    assert _report(
        4,
        "single-qubit transition at the analytic point",
        ok,
        f"gamma_pt {result.gamma_pt!r} vs {expected}, {elapsed:.2f}s",
    )


def test_criterion_5_uniform_coherence_decay():
    # The unbroken phase presumes non-degenerate energy and frequency
    # spectra (family 2 at odd n is structurally double-degenerate), so the
    # 20 models are drawn from the stream filtered by that check.
    rng = np.random.default_rng(CORPUS_SEED + 1)
    models = []
    draw = 0
    while len(models) < 20:
        n = 1 + draw % 3
        spec = random_example1_spec(rng, n) if draw % 2 == 0 else random_example2_spec(rng, n)
        draw += 1
        model = build_model(spec)
        if check_nondegeneracy(hamiltonian_eigenbasis(model)).passed:
            models.append(model)
    checked = 0
    worst = 0.0
    for model in models:
        for lam in (0.5, 0.25, 0.1, 0.05, 0.02, 0.01):
            try:
                report = check_uniform_rate(scale_noise(model, lam), tol_im=1e-8)
            except BrokenPhaseError:
                continue
            assert report.passed
            assert report.rate == pytest.approx(sum(model.c) * lam * lam)
            worst = max(worst, report.max_deviation)
            checked += 1
            break
    ok = checked == 20 and worst < 1e-8
    assert _report(
        5,
        "uniform coherence decay rate on 20 unbroken models",
        ok,
        f"{checked}/20 models, worst deviation {worst:.2e}",
    )


def test_criterion_6_v_matrix_symmetry():
    worst = 0.0
    for _, model in corpus_models():
        basis = hamiltonian_eigenbasis(model, resolve_w=True)
        worst = max(worst, v_matrix(model, basis).asymmetry)

    g = 0.5
    single = build_model(ModelSpec(n=1, fields=(1.0,), noise=Dephasing((g,))))
    vm = v_matrix(single, hamiltonian_eigenbasis(single, resolve_w=True))
    single_ok = bool(np.allclose(vm.matrix, [[0, g * g], [g * g, 0]], atol=1e-12))

    violator = build_model(ModelSpec(
        n=1,
        custom=CustomParts(
            h=PauliOperator(1, {"X": 1.0, "Z": 1.0}),
            lindblads=(sigma_plus(0, 1),),
            u=PauliOperator.term("Y"),
            w=PauliOperator.term("X"),
        ),
    ))
    violator_asym = v_matrix(violator, hamiltonian_eigenbasis(violator)).asymmetry

    ok = worst < 1e-10 and single_ok and violator_asym > 1e-3
    assert _report(
        6,
        "V-matrix symmetry on the corpus, single-qubit values, violating control",
        ok,
        f"corpus worst {worst:.2e}, single-qubit ok {single_ok}, violator {violator_asym:.2e}",
    )


def test_criterion_7_superoperator_oracle():
    rng = np.random.default_rng(CORPUS_SEED + 2)
    worst_rel = 0.0
    worst_trace = 0.0
    worst_stationary = 0.0
    count = 0
    for n in (1, 2, 3):
        for spec in (random_example1_spec(rng, n), random_example2_spec(rng, n)):
            model = build_model(spec)
            mat = build_liouvillian(model).mat
            dim = 2 ** n
            trace_row = vec(np.eye(dim, dtype=complex)).conj()
            worst_trace = max(worst_trace, float(np.max(np.abs(trace_row @ mat))))
            worst_stationary = max(
                worst_stationary, float(np.min(np.abs(np.linalg.eigvals(mat))))
            )
            for _ in range(17):
                raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                rho = raw + raw.conj().T
                direct = apply_generator(model, rho)
                scale = max(1.0, float(np.max(np.abs(direct))))
                defect = float(np.max(np.abs(unvec(mat @ vec(rho)) - direct)))
                worst_rel = max(worst_rel, defect / scale)
                count += 1
    ok = count >= 100 and worst_rel < 1e-12 and worst_trace < 1e-12 and worst_stationary < 1e-10
    assert _report(
        7,
        "superoperator column oracle, trace preservation, stationarity",
        ok,
        f"{count} states, worst rel {worst_rel:.2e}, trace {worst_trace:.2e}, "
        f"stationary {worst_stationary:.2e}",
    )


def test_criterion_8_imaginary_rate_reflection_entry():
    model = build_model(ModelSpec(
        n=2,
        couplings=((0, 1, 0.6, 0.4, -0.2),),
        noise=Injection((0.8j, 0.6), (0.5, 0.7)),
    ))
    report = check_lemma(model)
    refl = report.cond_ii.reflection
    z = refl.matrix
    want = np.diag([-1.0, 1.0, 1.0, 1.0])  # imaginary-rate channel is listed first
    z_ok = report.overall and np.max(np.abs(z - want)) < 1e-10

    # dense operator identities with the solved Z: U L_m = -sum Z L^dag U,
    # W L_m = +sum Z L^dag W
    u, w = dense_operator(model.u), dense_operator(model.w)
    ls = [dense_operator(lm) for lm in model.lindblads]
    lds = [lm.conj().T for lm in ls]
    worst = 0.0
    for m, lm in enumerate(ls):
        mix = sum(z[m, k] * lds[k] for k in range(len(ls)))
        worst = max(worst, float(np.max(np.abs(u @ lm + mix @ u))))
        worst = max(worst, float(np.max(np.abs(w @ lm - mix @ w))))
    ok = z_ok and worst < 1e-12
    assert _report(
        8,
        "purely imaginary rate flips its reflection entry to -1",
        ok,
        f"Z ok {z_ok}, dense identity defect {worst:.2e}",
    )
