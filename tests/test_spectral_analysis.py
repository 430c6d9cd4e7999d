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
    ModelConfigError,
    ModelSpec,
    PauliOperator,
    UncertifiedModelError,
    build_liouvillian,
    build_model,
    build_shifted_liouvillian,
    canonical_sort,
    check_nondegeneracy,
    check_pt_pairing,
    check_uniform_rate,
    classify_pt_phase,
    eigen_spectrum,
    hamiltonian_eigenbasis,
    liouvillian_spectra,
    match_bohr_frequencies,
    scale_noise,
    scan_pt_breaking,
    sigma_plus,
    v_matrix,
)

from _corpus import random_example1_spec, random_example2_spec
from _oracles import (
    assert_spectra_match,
    bloch_liouvillian_eigs,
    bloch_transition_scale,
    dense_operator,
)


def single_qubit_spec(h=1.0, g=1.0):
    return ModelSpec(n=1, fields=(h,), noise=Dephasing((g,)))


class TestEigenSpectrum:
    def test_identity_matrix(self):
        eigs = eigen_spectrum(np.eye(5))
        assert np.allclose(eigs, np.ones(5))

    def test_commutator_spectrum(self):
        model = build_model(ModelSpec(n=1, fields=(0.5,), noise=Dephasing((0.0,))))
        eigs = eigen_spectrum(build_liouvillian(model))
        assert_spectra_match(eigs, [0, 0, 1j, -1j], 1e-12)

    def test_bloch_case(self):
        h, g = 1.0, 0.5
        model = build_model(single_qubit_spec(h, g))
        eigs = eigen_spectrum(build_liouvillian(model))
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

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eigen_spectrum(np.array([[np.nan, 0], [0, 1]]))

    def test_every_generator_solve_rejects_non_finite(self):
        # an inf channel coefficient reaches the dense generator as inf/nan;
        # numpy's LinAlgError is a ValueError too, hence the message match
        inf_channel = CustomParts(lindblads_extra=(PauliOperator.term("Z", np.inf),))
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
        eigs = eigen_spectrum(build_shifted_liouvillian(model))
        report = check_pt_pairing(eigs, tol=1e-8)
        assert report.passed

    def test_unshifted_spectrum_fails(self):
        rng = np.random.default_rng(163)
        model = build_model(random_example1_spec(rng, 2))
        eigs = eigen_spectrum(build_liouvillian(model))
        assert not check_pt_pairing(eigs, tol=1e-8).passed

    def test_symmetry_violation_breaks_pairing(self):
        spec = ModelSpec(
            n=2,
            fields=(0.3, -0.7),
            noise=Dephasing((0.2, 0.5)),
            custom=CustomParts(h_extra=PauliOperator.single("Z", 0, 2, 0.5)),
        )
        model = build_model(spec)  # condition (i) broken, constants still exist
        eigs = eigen_spectrum(build_shifted_liouvillian(model))
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
        model = build_model(random_example2_spec(rng, 2))
        result = liouvillian_spectra(model)
        assert result.shift == pytest.approx(sum(model.c))


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

    def test_classification_switches_once(self):
        model = build_model(single_qubit_spec(1.0, 1.0))
        labels = [
            classify_pt_phase(scale_noise(model, lam)).classification
            for lam in np.linspace(0.05, 2.0, 40)
        ]
        switches = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
        assert switches == 1

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

    def test_broken_phase_rejected(self):
        model = build_model(single_qubit_spec(1.0, 1.5))
        with pytest.raises(BrokenPhaseError):
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
