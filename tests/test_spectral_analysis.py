import math
import multiprocessing
import os
import pathlib
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ptliouville import (
    BROKEN,
    UNBROKEN,
    BrokenPhaseError,
    CustomParts,
    Dephasing,
    EnergyEigenbasis,
    Injection,
    Model,
    ModelConfigError,
    ModelSpec,
    PauliOperator,
    PhaseClassification,
    SuperOp,
    UncertifiedModelError,
    build_liouvillian,
    build_model,
    canonical_sort,
    check_lemma,
    check_nondegeneracy,
    check_pt_pairing,
    check_uniform_rate,
    classify_pt_phase,
    hamiltonian_eigenbasis,
    liouvillian_spectra,
    match_bohr_frequencies,
    scale_noise,
    scan_pt_breaking,
    sigma_plus,
    symmetry_sectors,
    v_matrix,
)
from ptliouville import spectral_analysis

from _corpus import mixed_corpus, random_example1_spec, random_example2_spec
from _oracles import (
    analytic_constants,
    assert_spectra_match,
    bloch_liouvillian_eigs,
    bloch_transition_scale,
    dense_operator,
    shifted_generator_matrix,
)


# Family-2 n = 4 models whose phase is not monotone in lambda: UNBROKEN, a
# BROKEN window (about 0.052 to 0.10 in the first, 0.1436 to 0.151 in the
# second), UNBROKEN again, then BROKEN for good.
NON_MONOTONE = {
    "wide-window": ModelSpec(
        n=4,
        couplings=(
            (0, 1, 0.8982686240842663, 0.5425429790951701, 0.49946342085789563),
            (0, 2, -0.6498893253683569, 0.4031123049200127, -0.26245273437115135),
            (0, 3, 0.44903680176452876, -0.56142867442036, 0.41397747131039364),
            (1, 2, -0.7816119720098209, -0.14481755341009683, 0.5263641333225086),
            (1, 3, -0.8969543603886394, -0.17461582185421842, 0.42686474071807545),
            (2, 3, 0.25910785042441487, 0.2818733675851708, 0.8799457266714397),
        ),
        noise=Injection(
            (0.6500331781008188, 0.6681995116351306, 0.22791281124948934, 0.2912287100439165),
            (0.5549138826872514, 0.9993626461081199, 0.9194908540684692, 0.27412618531420513),
        ),
    ),
    "narrow-window": ModelSpec(
        n=4,
        couplings=(
            (0, 1, -0.27774068256101336, 0.30890932625717604, -0.7651288666803822),
            (0, 2, 0.9921965841843119, 0.13405458571701012, 0.7685369971156988),
            (0, 3, -0.9846240468967848, 0.7511890122982001, 0.06703784594792173),
            (1, 2, -0.04059668710205977, -0.27813129908362044, 0.9138295101302953),
            (1, 3, -0.060387753257951315, 0.9525273691211249, -0.013166455292374923),
            (2, 3, 0.28664753727941705, 0.5791410197872948, 0.6237431746374305),
        ),
        noise=Injection(
            (0.7139330348037382, 0.38064223520728935, 0.7557371854542785, 0.3253549926822798),
            (0.4542690383409006, 0.3669979740029169, 0.9075509926008476, 0.8720352871767207),
        ),
    ),
}


def single_qubit_spec(h=1.0, g=1.0):
    return ModelSpec(n=1, fields=(h,), noise=Dephasing((g,)))


class TestEigenSpectrum:
    def test_identity_matrix(self):
        eigs = canonical_sort(spectral_analysis._solve_blocks([np.eye(5)]))
        assert np.allclose(eigs, np.ones(5))

    def test_commutator_spectrum(self):
        model = build_model(ModelSpec(n=1, fields=(0.5,), noise=Dephasing((0.0,))))
        eigs = liouvillian_spectra(model).eig_liouvillian
        assert_spectra_match(eigs, [0, 0, 1j, -1j], 1e-12)

    def test_bloch_case(self):
        h, g = 1.0, 0.5
        model = build_model(single_qubit_spec(h, g))
        eigs = liouvillian_spectra(model).eig_liouvillian
        assert_spectra_match(eigs, bloch_liouvillian_eigs(h, g), 1e-10)
        omega = 2 * np.sqrt(1 - g**4)
        assert_spectra_match(eigs, [0, -1, -0.5 + 1j * omega, -0.5 - 1j * omega], 1e-10)

    def test_canonical_sort_is_shift_stable(self):
        rng = np.random.default_rng(151)
        base = rng.normal(size=12) + 1j * rng.normal(size=12)
        eigs = np.concatenate([base, -base.conj()])  # conjugate-paired real parts
        jitter = (rng.normal(size=24) + 1j * rng.normal(size=24)) * 1e-13
        shifted = canonical_sort(eigs + 0.7 + jitter)
        plain = canonical_sort(eigs)
        assert np.max(np.abs(shifted - plain - 0.7)) < 1e-9

    def test_canonical_sort_matches_cluster_loop(self):
        # reference: the per-element cluster loop the cumulative sum replaced
        def loop_sort(eigs, re_tol=1e-8):
            arr = np.asarray(eigs, dtype=complex)
            order = np.argsort(arr.real, kind="stable")
            sorted_re = arr.real[order]
            cluster = np.zeros(arr.size, dtype=int)
            for i in range(1, arr.size):
                cluster[i] = cluster[i - 1] + (sorted_re[i] - sorted_re[i - 1] > re_tol)
            return arr[order][np.lexsort((arr.imag[order], cluster))]

        rng = np.random.default_rng(157)
        for size in (1, 2, 7, 40):
            coarse = np.round(rng.normal(size=size), 1)  # exact ties
            chained = rng.integers(0, 3, size=size) * 0.6e-8  # gaps on both sides of 1e-8
            eigs = coarse + chained + 1j * np.round(rng.normal(size=size), 1)
            assert np.array_equal(canonical_sort(eigs), loop_sort(eigs))

    def test_every_generator_solve_rejects_non_finite(self):
        # an inf channel coefficient reaches the dense generator as inf/nan;
        # the guard raises numpy's LinAlgError (a ValueError) with its own
        # message, hence the message match.  The checked constructor rejects
        # inf, so the coefficient comes from an overflowing product.
        inf_channel = CustomParts(lindblads_extra=(PauliOperator.term("Z", 1e200) * 1e200,))
        model = build_model(ModelSpec(n=1, fields=(1.0,), noise=Dephasing((0.5,)),
                                      custom=inf_channel))
        basis = hamiltonian_eigenbasis(model)
        for solve in (liouvillian_spectra, classify_pt_phase, check_uniform_rate,
                      lambda m: match_bohr_frequencies(m, basis)):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
                solve(model)


class TestPairing:
    def test_symmetric_toy_set(self):
        g2, omega = 0.08, 1.7
        report = check_pt_pairing([g2, -g2, 1j * omega, -1j * omega], tol=1e-12)
        assert report.passed
        assert report.max_distance < 1e-15

    def test_certified_family2_model(self):
        rng = np.random.default_rng(157)
        model = build_model(random_example2_spec(rng, 2))
        eigs = liouvillian_spectra(model).eig_shifted
        report = check_pt_pairing(eigs, tol=1e-8)
        assert report.passed

    def test_matches_greedy_loop(self):
        # reference: the per-candidate loop the argmin replaced
        def loop_pairing(eigs):
            values = list(canonical_sort(eigs))
            used = [False] * len(values)
            pairs, max_distance = [], 0.0
            for i, lam in enumerate(values):
                if used[i]:
                    continue
                used[i] = True
                target = -lam.conjugate()
                best_j, best_d = i, abs(lam - target)
                for j in range(len(values)):
                    if not used[j] and abs(values[j] - target) < best_d:
                        best_j, best_d = j, abs(values[j] - target)
                if best_j != i:
                    used[best_j] = True
                pairs.append((lam, values[best_j]))
                max_distance = max(max_distance, best_d)
            return tuple(pairs), max_distance

        rng = np.random.default_rng(239)
        spectra = [liouvillian_spectra(build_model(random_example2_spec(rng, 2))).eig_shifted]
        for size in (1, 2, 7, 40):
            # coarse values give exact ties between candidates
            spectra.append(np.round(rng.normal(size=size), 1)
                           + 1j * np.round(rng.normal(size=size), 1))
        for eigs in spectra:
            report = check_pt_pairing(eigs)
            assert (report.pairs, report.max_distance) == loop_pairing(eigs)

    def test_unshifted_spectrum_fails(self):
        rng = np.random.default_rng(163)
        model = build_model(random_example1_spec(rng, 2))
        eigs = liouvillian_spectra(model).eig_liouvillian
        assert not check_pt_pairing(eigs, tol=1e-8).passed

    def test_symmetry_violation_breaks_pairing(self):
        spec = ModelSpec(
            n=2,
            fields=(0.3, -0.7),
            noise=Dephasing((0.2, 0.5)),
            custom=CustomParts(h_extra=PauliOperator.single("Z", 0, 2, 0.5)),
        )
        model = build_model(spec)  # condition (i) broken, constants still exist
        eigs = liouvillian_spectra(model).eig_shifted
        assert not check_pt_pairing(eigs, tol=1e-8).passed


class TestEigenbasis:
    def test_single_qubit_field(self):
        h = 0.8
        model = build_model(single_qubit_spec(h, 0.3))
        basis = hamiltonian_eigenbasis(model, resolve_w=True)
        assert basis.energies == pytest.approx([-h, h])
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(np.vdot(minus, basis.vectors[:, 0])) == pytest.approx(1.0)
        assert abs(np.vdot(plus, basis.vectors[:, 1])) == pytest.approx(1.0)
        assert basis.parities.tolist() == [1, 1]  # W = identity for family 1

    def test_family2_parities(self):
        rng = np.random.default_rng(167)
        model = build_model(random_example2_spec(rng, 2))
        basis = hamiltonian_eigenbasis(model, resolve_w=True)
        wd = dense_operator(model.w)
        for j in range(4):
            vec_j = basis.vectors[:, j]
            assert np.max(np.abs(wd @ vec_j - basis.parities[j] * vec_j)) < 1e-8
        assert set(basis.parities.tolist()) <= {-1, 1}

    def test_degenerate_hamiltonian_resolves(self):
        model = build_model(ModelSpec(n=1, noise=Injection((0.5,), (0.2,))))  # H = 0
        basis = hamiltonian_eigenbasis(model, resolve_w=True)
        assert basis.energies == pytest.approx([0.0, 0.0])
        assert sorted(basis.parities.tolist()) == [-1, 1]

    def test_resolve_requires_commuting_w(self):
        spec = ModelSpec(
            n=1,
            custom=CustomParts(
                h=PauliOperator(1, {"X": 1.0, "Z": 1.0}),
                lindblads=(sigma_plus(0, 1),),
                u=PauliOperator.term("Y"),
                w=PauliOperator.term("X"),
            ),
        )
        model = build_model(spec)
        with pytest.raises(ValueError, match="W-parity"):
            hamiltonian_eigenbasis(model, resolve_w=True)

    def test_non_hermitian_rejected(self):
        # a hand-built Model skips build_model's check; the eigenbasis applies
        # the same exact rule, so a tiny imaginary part is rejected as well
        ident = PauliOperator.identity(1)
        for im in (0.2, 1e-13):
            h = PauliOperator(1, {"X": 0.5, "Z": complex(0, im)})
            model = Model(1, h, (PauliOperator.term("Z", 0.3),), ident, ident, "custom")
            for resolve_w in (False, True):
                with pytest.raises(ModelConfigError, match="Hermitian"):
                    hamiltonian_eigenbasis(model, resolve_w=resolve_w)

    def test_orthonormality(self):
        rng = np.random.default_rng(173)
        model = build_model(random_example1_spec(rng, 3))
        basis = hamiltonian_eigenbasis(model, resolve_w=True)
        gram = basis.vectors.conj().T @ basis.vectors
        assert np.max(np.abs(gram - np.eye(8))) < 1e-12


class TestNondegeneracy:
    @staticmethod
    def _basis(energies):
        energies = np.asarray(energies, dtype=float)
        return EnergyEigenbasis(energies, np.eye(energies.size), None)

    def test_generic_values_pass(self):
        report = check_nondegeneracy(self._basis([-1.3, -0.2, 0.5, 1.7]))
        assert report.passed

    def test_equally_spaced_differences_collide(self):
        report = check_nondegeneracy(self._basis([-1.0, 0.0, 1.0]))
        assert not report.passed
        assert report.min_frequency_gap == pytest.approx(0.0)

    def test_random_family1_passes(self):
        rng = np.random.default_rng(179)
        model = build_model(random_example1_spec(rng, 2))
        basis = hamiltonian_eigenbasis(model)
        assert check_nondegeneracy(basis).passed


class TestSpectra:
    def test_shift_identity(self):
        rng = np.random.default_rng(181)
        for spec in (random_example1_spec(rng, 2), random_example2_spec(rng, 3)):
            result = liouvillian_spectra(build_model(spec))
            assert result.shift_deviation < 1e-9

    def test_shift_equals_channel_constants(self):
        rng = np.random.default_rng(191)
        spec = random_example2_spec(rng, 2)
        result = liouvillian_spectra(build_model(spec))
        assert result.shift == pytest.approx(sum(analytic_constants(spec)))

    def test_no_analysis_forms_the_whole_generator(self, monkeypatch):
        # every analysis solves sector blocks; none reads the 4^n x 4^n view
        def forbidden(self):
            raise AssertionError("whole generator matrix")

        spec = single_qubit_spec(1.0, 0.5)
        model = build_model(spec)
        want = liouvillian_spectra(model)
        monkeypatch.setattr(SuperOp, "mat", property(forbidden))
        assert _same_bits(liouvillian_spectra(model), [want.eig_liouvillian, want.eig_shifted])
        assert classify_pt_phase(model).classification == UNBROKEN
        assert check_uniform_rate(model).passed
        # the channel 0.5 Z times lambda meets g^2 = h at lambda = 2
        assert scan_pt_breaking(spec, 0.1, 4.0, resolution=1e-3).gamma_pt == pytest.approx(
            2 * bloch_transition_scale(1.0), abs=1e-3)
        assert match_bohr_frequencies(model, hamiltonian_eigenbasis(model)).residual_max < 0.1


def _sequential_spectra(model):
    """Both sorted spectra from plain per-block eigvals calls, one after another."""
    generator, sectors = build_liouvillian(model), symmetry_sectors(model)
    return [canonical_sort(np.concatenate(
        [np.linalg.eigvals(b) for b in generator.blocks(sectors, shift)]))
        for shift in (0.0, generator.shift)]


def _same_bits(result, want):
    return [a.tobytes() for a in (result.eig_liouvillian, result.eig_shifted)] == [
        a.tobytes() for a in want]


class TestBlockSolve:
    """Sector blocks solved concurrently, each with one BLAS thread.

    Where numpy's BLAS is not OpenBLAS there is no thread count to set or
    restore, and the same tests check the sequential path.
    """

    @pytest.fixture
    def blas(self):
        found = spectral_analysis._openblas_threads()
        if not found:
            yield None
            return
        get, put = found
        before = get()
        yield get, put
        put(before)

    def test_spectra_independent_of_thread_count(self, blas, monkeypatch):
        # n = 5 blocks are 512 wide, where a threaded dgeev rounds differently
        model = build_model(random_example1_spec(np.random.default_rng(5), 5))
        counts = []
        solve = spectral_analysis._eigvals

        def recording(mat):
            counts.append(None if blas is None else blas[0]())
            return solve(mat)

        monkeypatch.setattr(spectral_analysis, "_eigvals", recording)
        results = []
        for threads in (2, 1):
            if blas is not None:
                blas[1](threads)
            want_count = None if blas is None else blas[0]()
            results.append(liouvillian_spectra(model))
            if blas is not None:
                assert blas[0]() == want_count
                # the reference below runs with one thread, as every solve did
                blas[1](1)
        assert counts == [None if blas is None else 1] * 8
        want = _sequential_spectra(model)
        assert all(_same_bits(result, want) for result in results)

    def test_thread_count_restored_after_failed_solve(self, blas):
        good = np.diag([1.0, 2.0])
        bad = good.copy()
        bad[0, 0] = np.nan
        if blas is not None:
            blas[1](2)
            want_count = blas[0]()
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            spectral_analysis._solve_blocks([bad, good, good])
        if blas is not None:
            assert blas[0]() == want_count
        # the lock was released
        eigs = spectral_analysis._solve_blocks([good, 3 * good])
        assert eigs.real.tolist() == [1.0, 2.0, 3.0, 6.0]

    def test_concurrent_callers_get_sequential_results(self, blas):
        # more callers than cores, switching threads as often as possible
        rng = np.random.default_rng(41)
        models = [build_model(random_example1_spec(rng, 4)),
                  build_model(random_example2_spec(rng, 4))] * 2
        if blas is not None:
            want_count = blas[0]()
            blas[1](1)
        want = [_sequential_spectra(m) for m in models]
        if blas is not None:
            blas[1](want_count)
        start = threading.Barrier(len(models), timeout=60)

        def run(model):
            start.wait()
            return [liouvillian_spectra(model) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(models)) as callers:
                got = list(callers.map(run, models, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(_same_bits(r, w) for results, w in zip(got, want) for r in results)
        if blas is not None:
            assert blas[0]() == want_count

    def test_forked_child_solves(self):
        # the child has none of the parent's pool threads and gets its own
        model = build_model(random_example2_spec(np.random.default_rng(47), 2))
        want = liouvillian_spectra(model).eig_shifted.tobytes()
        context = multiprocessing.get_context("fork")
        results = context.Queue()
        child = context.Process(
            target=lambda: results.put(liouvillian_spectra(model).eig_shifted.tobytes()))
        child.start()
        try:
            got = results.get(timeout=60)
        finally:
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
        assert not child.is_alive() and child.exitcode == 0
        assert got == want

    def test_sequential_path_without_openblas(self, monkeypatch):
        monkeypatch.setattr(spectral_analysis, "_blas", ())
        model = build_model(random_example2_spec(np.random.default_rng(43), 3))
        assert _same_bits(liouvillian_spectra(model), _sequential_spectra(model))
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            spectral_analysis._solve_blocks([np.array([[np.nan]])])


class TestScan:
    def test_single_qubit_analytic_transition(self):
        # oracle: (y, z) Bloch eigenvalues collide where g^2 = h
        expected = bloch_transition_scale(1.0)
        result = scan_pt_breaking(single_qubit_spec(1.0, 1.0), 0.1, 2.0, resolution=1e-7)
        assert result.gamma_pt == pytest.approx(expected, abs=1e-6)
        lo, hi = result.bracket
        assert lo < expected < hi or abs(result.gamma_pt - expected) < 1e-6

    def test_no_transition_in_weak_range(self):
        result = scan_pt_breaking(single_qubit_spec(1.0, 1.0), 0.01, 0.05)
        assert result.gamma_pt is None
        assert result.bracket is None
        assert all(p.classification == UNBROKEN for p in result.probes)

    def test_weak_coupling_unbroken_strong_broken(self):
        model = build_model(single_qubit_spec(1.0, 1.0))
        assert classify_pt_phase(scale_noise(model, 0.05)).classification == UNBROKEN
        assert classify_pt_phase(scale_noise(model, 2.0)).classification == BROKEN

    @pytest.mark.filterwarnings("error")
    def test_overflowing_norm_is_input_error(self):
        # at noise scale 1e100 the entries are finite but their squares are
        # not; an inf axis threshold would read UNBROKEN with 16 of 16
        model = build_model(ModelSpec(n=2, couplings=((0, 1, 1.0, 0.9, 0.4),), fields=(0.3, 0.7),
                                      noise=Dephasing((0.2, 0.4))))
        assert classify_pt_phase(scale_noise(model, 2.0)) == PhaseClassification(10, BROKEN)
        with pytest.raises(ModelConfigError, match="non-finite Frobenius norm"):
            classify_pt_phase(scale_noise(model, 1e100))

    def test_classification_switches_once(self):
        model = build_model(single_qubit_spec(1.0, 1.0))
        labels = [
            classify_pt_phase(scale_noise(model, lam)).classification
            for lam in np.linspace(0.05, 2.0, 40)
        ]
        switches = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
        assert switches == 1

    def test_gamma_pt_independent_of_bracketing_range(self):
        # both brackets hold the transition and are at most `resolution`
        # wide, so their midpoints differ by at most `resolution`
        rng = np.random.default_rng(211)
        resolution = 1e-6
        for spec in (single_qubit_spec(1.0, 1.0), random_example1_spec(rng, 2)):
            narrow = scan_pt_breaking(spec, 0.01, 2.0, resolution=resolution)
            wide = scan_pt_breaking(spec, 0.05, 5.0, resolution=resolution)
            assert narrow.gamma_pt is not None and wide.gamma_pt is not None
            assert abs(narrow.gamma_pt - wide.gamma_pt) <= resolution

    def test_family2_phase_at_odd_n(self):
        rng = np.random.default_rng(223)
        for _ in range(3):
            model = build_model(random_example2_spec(rng, 3))
            for lam in (0.01, 0.1, 1.0, 4.0):
                assert classify_pt_phase(scale_noise(model, lam)).classification == BROKEN
        # n = 1 has no couplings, so H = 0.  The coherences |0><1| and |1><0|
        # are eigenvectors of L, and each channel adds -|a|^2 (or -|b|^2) to
        # their eigenvalue, so both sit at exactly -sum(c): on the imaginary
        # axis of L' (the N^2 - N = 2 required) at every noise scale.
        for _ in range(3):
            model = build_model(random_example2_spec(rng, 1))
            for lam in (1e-4, 0.01, 0.1, 1.0, 4.0, 100.0):
                assert classify_pt_phase(scale_noise(model, lam)).classification == UNBROKEN

    def test_uncertified_base_rejected(self):
        spec = ModelSpec(
            n=2,
            fields=(0.3, -0.7),
            noise=Dephasing((0.2, 0.5)),
            custom=CustomParts(h_extra=PauliOperator.single("Z", 0, 2, 0.5)),
        )
        with pytest.raises(UncertifiedModelError):
            scan_pt_breaking(spec, 0.1, 2.0)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ModelConfigError):
            scan_pt_breaking(single_qubit_spec(), 2.0, 0.1)

    @pytest.mark.parametrize("lambda_max", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_bound_rejected(self, lambda_max):
        with pytest.raises(ModelConfigError, match="lambda_max < inf"):
            scan_pt_breaking(single_qubit_spec(), 0.1, lambda_max)

    def test_overflowing_bound_is_non_finite_generator(self):
        # lambda^2 = 1e400 overflows: the probe's blocks are not finite
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                scan_pt_breaking(single_qubit_spec(), 0.1, 1e200)

    @pytest.mark.parametrize("tol_im", [np.nan, -1.0, 0.0, np.inf],
                             ids=["nan", "neg", "zero", "inf"])
    def test_tol_im_must_be_positive_and_finite(self, tol_im):
        model = build_model(single_qubit_spec(1.0, 0.5))
        for count in (classify_pt_phase, check_uniform_rate):
            with pytest.raises(ModelConfigError, match="tol_im"):
                count(model, tol_im)
        with pytest.raises(ModelConfigError, match="tol_im"):
            scan_pt_breaking(single_qubit_spec(), 0.1, 2.0, tol_im=tol_im)

    @pytest.mark.parametrize("resolution", [np.inf, np.nan, 0.0, -1e-6],
                             ids=["inf", "nan", "zero", "neg"])
    def test_resolution_must_be_positive_and_finite(self, resolution):
        # an infinite resolution would accept the whole range as the bracket
        with pytest.raises(ModelConfigError, match="resolution"):
            scan_pt_breaking(single_qubit_spec(1.0, 1.0), 0.1, 2.0, resolution=resolution)

    @pytest.mark.parametrize("spec", list(NON_MONOTONE.values()), ids=list(NON_MONOTONE))
    def test_first_transition_of_non_monotone_phase(self, spec):
        # oracle: classify rebuilt models on a geometric grid below 0.3, then
        # bisect the first cell whose ends classify differently
        base = build_model(spec)

        def label(lam):
            return classify_pt_phase(scale_noise(base, lam)).classification

        grid = np.geomspace(0.01, 0.3, 80)
        labels = [label(lam) for lam in grid]
        flips = [i for i in range(grid.size - 1) if labels[i] != labels[i + 1]]
        assert len(flips) >= 2  # the phase breaks and is restored below 0.3
        lo, hi = grid[flips[0]], grid[flips[0] + 1]
        resolution = 1e-6
        while hi - lo > resolution / 4:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if label(mid) == labels[0] else (lo, mid)

        result = scan_pt_breaking(spec, 0.01, 2.0, resolution=resolution)
        assert abs(result.gamma_pt - 0.5 * (lo + hi)) <= resolution
        below = [p.classification for p in result.probes if p.lam < result.bracket[0]]
        assert below and set(below) == {labels[0]}

    def test_broken_lower_bound_finds_the_return_to_the_axis(self):
        # inside the first model's BROKEN window the scan runs the other way
        spec = NON_MONOTONE["wide-window"]
        base = build_model(spec)
        result = scan_pt_breaking(spec, 0.07, 0.12, resolution=1e-6)
        lo, hi = result.bracket
        assert hi - lo <= 1e-6
        assert [classify_pt_phase(scale_noise(base, lam)).classification
                for lam in (lo, hi)] == [BROKEN, UNBROKEN]
        assert all(p.classification == BROKEN for p in result.probes if p.lam < lo)

    def test_probe_budget(self):
        # bisection makes 2 + ceil(log2(range / resolution)) = 23 probes here;
        # the search is deterministic, so its counts are asserted exactly
        scans = [scan_pt_breaking(spec, 0.01, 2.0, resolution=1e-6)
                 for spec in mixed_corpus(401, 8)]
        counts = [len(scan.probes) for scan in scans if scan.bracket is not None]
        bisection = 2 + math.ceil(math.log2((2.0 - 0.01) / 1e-6))
        assert bisection == 23
        assert max(counts) <= bisection + spectral_analysis.SCAN_EXTRA_PROBES
        assert (len(counts), np.median(counts), max(counts)) == (11, 11, 14)

    def test_refinement_starts_from_the_march(self, monkeypatch):
        # the first flip estimate interpolates through the march's UNBROKEN
        # probe before lo, not the far lambda_max probe, and is accurate
        # enough that one probe on each side closes the bracket
        calls = []
        estimate = spectral_analysis._flip_estimate

        def recording(lo, hi, replaced, need):
            calls.append((lo, hi, replaced))
            return estimate(lo, hi, replaced, need)

        monkeypatch.setattr(spectral_analysis, "_flip_estimate", recording)
        for h, total in ((0.3, 7), (1.0, 8), (2.5, 8)):
            calls.clear()
            result = scan_pt_breaking(single_qubit_spec(h), 0.1, 2.0, resolution=1e-6)
            lo, hi, replaced = calls[0]
            assert (lo.label, hi.label, replaced.label) == (UNBROKEN, BROKEN, UNBROKEN)
            assert replaced.lam < lo.lam and hi.lam < 2.0
            labels = [p.classification for p in result.probes]
            first_broken = labels.index(BROKEN, 2)  # probes 0 and 1 are the bounds
            assert len(labels) - first_broken - 1 <= 2
            assert len(labels) == total
            assert result.gamma_pt == pytest.approx(bloch_transition_scale(h), abs=1e-6)

    def test_resolution_below_float_spacing_ends_at_adjacent_floats(self):
        # no float lies strictly between the bracket ends, so the search stops
        result = scan_pt_breaking(single_qubit_spec(1.0, 1.0), 0.1, 2.0, resolution=1e-20)
        lo, hi = result.bracket
        assert hi == np.nextafter(lo, np.inf)
        labels = {p.lam: p.classification for p in result.probes}
        assert (labels[lo], labels[hi]) == (UNBROKEN, BROKEN)

    def test_two_assemblies_per_scan(self, monkeypatch):
        # R_H and R_D are assembled once; no probe assembles a generator
        calls = []

        def counting(model):
            calls.append(model)
            return build_liouvillian(model)

        monkeypatch.setattr(spectral_analysis, "build_liouvillian", counting)
        seen = []
        for lo, hi in ((0.1, 2.0), (0.01, 0.05)):
            calls.clear()
            result = scan_pt_breaking(single_qubit_spec(1.0, 1.0), lo, hi, resolution=1e-4)
            seen.append((result, len(calls)))
        (found, _), (none, _) = seen
        assert found.bracket[1] - found.bracket[0] <= 1e-4 and len(found.probes) > 2
        assert len(none.probes) == 2
        assert [assemblies for _, assemblies in seen] == [2, 2]

    def test_probes_match_rebuilt_models(self, monkeypatch):
        # every probe's blocks, count and label against a model rebuilt by
        # scale_noise; the endpoint spectra against the dense oracle
        axis_count = spectral_analysis._axis_count
        seen = []

        def recording(blocks, n, tol_im):
            result = axis_count(blocks, n, tol_im)
            seen.append((blocks, result[0]))
            return result

        monkeypatch.setattr(spectral_analysis, "_axis_count", recording)
        specs = mixed_corpus(307, 4)
        scans = [scan_pt_breaking(spec, 0.01, 2.0, resolution=1e-2) for spec in specs]
        monkeypatch.undo()
        # one spec per family and size; the bracket ends lie on either side
        assert sum(scan.bracket is not None for scan in scans) >= 6
        probes = iter(seen)
        for spec, scan in zip(specs, scans):
            base = build_model(spec)
            sectors = symmetry_sectors(base)
            assert [p.lam for p in scan.probes[:2]] == [0.01, 2.0]
            for probe, (blocks, eigs) in zip(scan.probes, probes):
                scaled = scale_noise(base, probe.lam)
                generator = build_liouvillian(scaled)
                want = generator.mat
                want[np.diag_indices_from(want)] += generator.shift
                scale = np.linalg.norm(want)
                for idx, block in zip(sectors, blocks, strict=True):
                    assert np.max(np.abs(block - want[np.ix_(idx, idx)])) <= 1e-13 * scale
                rebuilt = classify_pt_phase(scaled)
                assert (probe.n_imag_axis, probe.classification) == (
                    rebuilt.n_imag_axis, rebuilt.classification)
                if probe.lam in (0.01, 2.0):
                    oracle = shifted_generator_matrix(
                        dense_operator(base.hamiltonian),
                        [probe.lam * dense_operator(lm) for lm in base.lindblads],
                    )
                    assert_spectra_match(eigs, np.linalg.eigvals(oracle), 1e-9 * max(1.0, scale))
        assert next(probes, None) is None


class TestUniformRate:
    def test_single_qubit_rate(self):
        model = build_model(single_qubit_spec(1.0, 0.5))
        report = check_uniform_rate(model)
        assert report.passed
        assert report.rate == pytest.approx(0.5)  # 2 g^2
        omega = 2 * np.sqrt(1 - 0.5**4)
        assert_spectra_match(
            report.coherence_eigenvalues, [-0.5 + 1j * omega, -0.5 - 1j * omega], 1e-10
        )

    def test_two_qubit_weak_noise(self):
        spec = ModelSpec(
            n=2,
            couplings=((0, 1, 1.0, 0.9, 0.4),),
            fields=(0.3, 0.7),
            noise=Dephasing((0.1, 0.2)),
        )
        report = check_uniform_rate(build_model(spec))
        assert report.passed
        assert report.rate == pytest.approx(0.1)  # 2 (0.01 + 0.04)
        assert report.max_deviation < 1e-8

    def test_no_noise_zero_rate(self):
        model = build_model(ModelSpec(n=1, fields=(0.7,), noise=Dephasing((0.0,))))
        report = check_uniform_rate(model)
        assert report.passed
        assert report.rate == 0.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_generator_is_unbroken(self, n):
        # L' = 0 has an axis threshold of 0, and every eigenvalue is exactly 0
        spec = ModelSpec(n=n, noise=Dephasing((0.0,) * n))
        model = build_model(spec)
        assert check_lemma(model).overall
        assert classify_pt_phase(model) == PhaseClassification(4 ** n, UNBROKEN)
        report = check_uniform_rate(model)
        assert report.passed and report.rate == 0.0 and report.max_deviation == 0.0
        scan = scan_pt_breaking(spec, 0.1, 2.0)
        assert [(p.n_imag_axis, p.classification) for p in scan.probes] == [(4 ** n, UNBROKEN)] * 2
        assert scan.gamma_pt is None

    def test_broken_phase_rejected(self):
        model = build_model(single_qubit_spec(1.0, 1.5))
        with pytest.raises(BrokenPhaseError):
            check_uniform_rate(model)

    def test_requires_channel_constants(self):
        # {P, P^dag} = 2P = I + Z for the projector P: no constant c_m exists
        projector = PauliOperator(1, {"I": 0.5, "Z": 0.5})
        spec = ModelSpec(n=1, fields=(1.0,), noise=Dephasing((0.2,)),
                         custom=CustomParts(lindblads_extra=(projector,)))
        model = build_model(spec)
        with pytest.raises(UncertifiedModelError):
            classify_pt_phase(model)
        with pytest.raises(UncertifiedModelError):
            check_uniform_rate(model)

    def test_equivalence_with_classification(self):
        # unbroken <=> the coherence block shares the rate, across the transition
        model = build_model(single_qubit_spec(1.0, 1.0))
        for lam in np.linspace(0.1, 1.9, 19):
            scaled = scale_noise(model, float(lam))
            label = classify_pt_phase(scaled).classification
            if label == UNBROKEN:
                # lam = 1.0 sits exactly at the defective collision point,
                # where eigenvalue scatter is at its worst; the stated
                # tolerance still holds there
                report = check_uniform_rate(scaled)
                assert report.passed and report.max_deviation < 1e-8
            else:
                with pytest.raises(BrokenPhaseError):
                    check_uniform_rate(scaled)


class TestBohrMatching:
    def test_no_noise_exact(self):
        model = build_model(ModelSpec(n=2, couplings=((0, 1, 1.0, 0.9, 0.4),),
                                      fields=(0.3, 0.7), noise=Dephasing((0.0, 0.0))))
        basis = hamiltonian_eigenbasis(model)
        result = match_bohr_frequencies(model, basis)
        assert result.residual_max < 1e-10

    def test_single_qubit_pull(self):
        g = 0.3
        model = build_model(single_qubit_spec(1.0, g))
        basis = hamiltonian_eigenbasis(model)
        result = match_bohr_frequencies(model, basis)
        # oracle: coherence frequencies contract from +-2 to +-2 sqrt(1 - g^4)
        expected = 2 - 2 * np.sqrt(1 - g**4)
        assert result.residual_max == pytest.approx(expected, abs=1e-10)
        matched = dict(result.pairs)
        assert matched[(0, 1)].imag == pytest.approx(2 * np.sqrt(1 - g**4), abs=1e-10)
        assert matched[(1, 0)].imag == pytest.approx(-2 * np.sqrt(1 - g**4), abs=1e-10)

    def test_perturbative_family2(self):
        rng = np.random.default_rng(193)
        spec = random_example2_spec(rng, 2)
        model = scale_noise(build_model(spec), 1e-3)
        basis = hamiltonian_eigenbasis(model)
        result = match_bohr_frequencies(model, basis, threshold=1e-4)
        assert result.residual_max < 1e-4
        assert result.mixing_ok is True

    def test_package_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize takes about half a second to import, and only
        # match_bohr_frequencies uses it; no other path loads any of scipy.
        # The second run blocks the import, so those paths work without scipy.
        script = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from ptliouville import (Dephasing, ModelSpec, build_model, check_lemma, hamiltonian_eigenbasis,
                         liouvillian_spectra, pt_residual, scan_pt_breaking, v_matrix)
spec = ModelSpec(n=2, couplings=((0, 1, 0.6, 0.4, -0.2),), fields=(0.3, -0.5),
                 noise=Dephasing((0.2, 0.3)))
model = build_model(spec)
assert check_lemma(model).overall and pt_residual(model) < 1e-10
liouvillian_spectra(model)
scan_pt_breaking(spec, 0.01, 2.0, resolution=1e-3)
v_matrix(model, hamiltonian_eigenbasis(model, resolve_w=True))
print(sorted(name for name, module in sys.modules.items()
             if module is not None and name.split(".")[0] == "scipy"))
"""
        src = pathlib.Path(spectral_analysis.__file__).resolve().parents[1]
        for mode in ("open", "blocked"):
            done = subprocess.run(
                [sys.executable, "-c", script, mode],
                env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True)
            assert done.stdout == "[]\n", mode


class TestVMatrix:
    def test_single_qubit_dephasing(self):
        g = 0.5
        model = build_model(single_qubit_spec(1.0, g))
        basis = hamiltonian_eigenbasis(model, resolve_w=True)
        # oracle: <+-|Z|-+> = 1 and <+-|Z|+-> = 0 in the X eigenbasis (2x2 arithmetic)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        z = np.array([[1, 0], [0, -1]])
        off = abs(np.vdot(minus, z @ plus)) ** 2 * g * g
        assert off == pytest.approx(g * g)
        result = v_matrix(model, basis)
        assert np.allclose(result.matrix, [[0, g * g], [g * g, 0]], atol=1e-14)
        assert result.asymmetry < 1e-15

    def test_family2_symmetric(self):
        rng = np.random.default_rng(197)
        model = build_model(random_example2_spec(rng, 3))
        basis = hamiltonian_eigenbasis(model, resolve_w=True)
        result = v_matrix(model, basis)
        assert result.asymmetry < 1e-12
        assert np.all(result.matrix >= 0)

    def test_violating_model_asymmetric(self):
        spec = ModelSpec(
            n=1,
            custom=CustomParts(
                h=PauliOperator(1, {"X": 1.0, "Z": 1.0}),
                lindblads=(sigma_plus(0, 1),),
                u=PauliOperator.term("Y"),
                w=PauliOperator.term("X"),
            ),
        )
        model = build_model(spec)
        basis = hamiltonian_eigenbasis(model)
        assert v_matrix(model, basis).asymmetry > 1e-3
