import numpy as np
import pytest

from ptliouville import (
    CustomParts,
    Dephasing,
    DimensionError,
    Injection,
    ModelSpec,
    PauliOperator,
    UncertifiedModelError,
    build_liouvillian,
    build_model,
    build_parity_superop,
    build_shifted_liouvillian,
    check_lemma,
    identity_component_shift,
    pauli_to_dense,
    pt_residual,
    unvec,
    vec,
)

from _corpus import random_example1_spec, random_example2_spec
from _oracles import (
    I2,
    X,
    Y,
    apply_generator,
    assert_spectra_match,
    bloch_liouvillian_eigs,
    dense_operator,
    generator_matrix,
)


def random_density(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw + raw.conj().T
    return rho / np.trace(rho)


class TestPauliToDense:
    def test_x(self):
        assert np.array_equal(pauli_to_dense(PauliOperator.term("X")), X)

    def test_sigma_plus(self):
        from ptliouville import sigma_plus

        assert np.allclose(pauli_to_dense(sigma_plus(0, 1)), [[0, 1], [0, 0]])

    def test_zz_diagonal(self):
        got = pauli_to_dense(PauliOperator.term("ZZ"))
        assert np.allclose(got, np.diag([1, -1, -1, 1]))

    def test_matches_independent_conversion(self):
        rng = np.random.default_rng(79)
        for n in (1, 2, 3):
            terms = {
                "".join(rng.choice(list("IXYZ"), size=n)): complex(rng.normal(), rng.normal())
                for _ in range(5)
            }
            op = PauliOperator(n, terms)
            assert np.max(np.abs(pauli_to_dense(op) - dense_operator(op))) < 1e-14


class TestVectorization:
    def test_sandwich_identity(self):
        # vec(A rho B) = (B^T kron A) vec(rho), 100 random triples
        rng = np.random.default_rng(83)
        from ptliouville.superoperator import sandwich

        for _ in range(100):
            dim = int(rng.choice([2, 4, 8]))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            got = unvec(sandwich(a, b) @ vec(rho))
            assert np.max(np.abs(got - a @ rho @ b)) < 1e-12 * max(1.0, np.max(np.abs(a @ rho @ b)))

    def test_unvec_rejects_non_square(self):
        with pytest.raises(DimensionError):
            unvec(np.zeros(3))


class TestBuildLiouvillian:
    def test_pure_commutator_spectrum(self):
        model = build_model(ModelSpec(n=1, fields=(0.5,), noise=Dephasing((0.0,))))
        eigs = np.linalg.eigvals(build_liouvillian(model).mat)
        assert_spectra_match(eigs, [0, 0, 1j, -1j], 1e-12)

    def test_dephasing_only_action_is_diagonal(self):
        g = 0.3
        model = build_model(ModelSpec(n=1, noise=Dephasing((g,))))
        mat = build_liouvillian(model).mat
        assert np.max(np.abs(mat - np.diag(np.diag(mat)))) < 1e-14
        # coherence entries |0><1|, |1><0| decay at 4 g^2
        assert np.allclose(np.diag(mat), [0, -4 * g * g, -4 * g * g, 0])

    def test_columns_match_direct_oracle(self):
        rng = np.random.default_rng(89)
        for spec in (random_example1_spec(rng, 2), random_example2_spec(rng, 2)):
            model = build_model(spec)
            mat = build_liouvillian(model).mat
            dim = 2 ** model.n
            for col in range(dim * dim):
                unit = np.zeros((dim, dim), dtype=complex)
                unit[col % dim, col // dim] = 1.0
                direct = apply_generator(model, unit)
                assert np.max(np.abs(unvec(mat @ vec(unit)) - direct)) < 1e-12

    def test_matches_independent_generator_matrix(self):
        rng = np.random.default_rng(97)
        model = build_model(random_example2_spec(rng, 2))
        oracle = generator_matrix(
            dense_operator(model.hamiltonian),
            [dense_operator(lm) for lm in model.lindblads],
        )
        assert np.max(np.abs(build_liouvillian(model).mat - oracle)) < 1e-12


class TestApplyDirect:
    def test_maximally_mixed_stationary_for_dephasing(self):
        rng = np.random.default_rng(101)
        model = build_model(random_example1_spec(rng, 2))
        rho = np.eye(4, dtype=complex) / 4
        assert np.max(np.abs(apply_generator(model, rho))) < 1e-14

    def test_identity_stationary_without_noise(self):
        model = build_model(ModelSpec(n=2, couplings=((0, 1, 0.7, 0.2, -0.4),),
                                      fields=(0.1, 0.9), noise=Dephasing((0.0, 0.0))))
        assert np.max(np.abs(apply_generator(model, np.eye(4, dtype=complex)))) < 1e-14

    def test_preserves_hermiticity_kills_trace(self):
        rng = np.random.default_rng(103)
        model = build_model(random_example2_spec(rng, 2))
        for _ in range(10):
            rho = random_density(rng, 4)
            out = apply_generator(model, rho)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert abs(np.trace(out)) < 1e-12


class TestShiftedLiouvillian:
    def test_single_qubit_bloch_spectrum(self):
        h, g = 1.0, 0.5
        model = build_model(ModelSpec(n=1, fields=(h,), noise=Dephasing((g,))))
        got = np.linalg.eigvals(build_shifted_liouvillian(model).mat)
        assert_spectra_match(got, bloch_liouvillian_eigs(h, g) + 2 * g * g, 1e-10)
        # closed form: {+2g^2, -2g^2, +-2i sqrt(1 - g^4)}
        omega = 2 * np.sqrt(1 - g**4)
        assert_spectra_match(got, [2 * g * g, -2 * g * g, 1j * omega, -1j * omega], 1e-10)

    def test_no_noise_means_no_shift(self):
        model = build_model(ModelSpec(n=1, fields=(0.4,), noise=Dephasing((0.0,))))
        assert np.array_equal(
            build_shifted_liouvillian(model).mat, build_liouvillian(model).mat
        )

    def test_spectral_shift_identity(self):
        rng = np.random.default_rng(107)
        model = build_model(random_example2_spec(rng, 2))
        shift = sum(model.c)
        eig_l = np.sort_complex(np.linalg.eigvals(build_liouvillian(model).mat))
        eig_lp = np.sort_complex(np.linalg.eigvals(build_shifted_liouvillian(model).mat))
        assert np.max(np.abs(np.sort(eig_lp.real) - np.sort(eig_l.real + shift))) < 1e-9

    def test_requires_channel_constants(self):
        projector = PauliOperator(1, {"I": 0.5, "Z": 0.5})
        spec = ModelSpec(n=1, fields=(1.0,), noise=Dephasing((0.2,)),
                         custom=CustomParts(lindblads_extra=(projector,)))
        model = build_model(spec)
        with pytest.raises(UncertifiedModelError):
            build_shifted_liouvillian(model)


class TestParitySuperop:
    def test_family1_single_qubit(self):
        model = build_model(ModelSpec(n=1, fields=(0.5,), noise=Dephasing((0.2,))))
        assert np.allclose(build_parity_superop(model).mat, np.kron(I2, X))

    def test_family2_single_qubit(self):
        model = build_model(ModelSpec(n=1, noise=Injection((1.0,), (0.5,))))
        assert np.allclose(build_parity_superop(model).mat, np.kron(X, Y))

    def test_involution(self):
        rng = np.random.default_rng(109)
        model = build_model(random_example2_spec(rng, 2))
        parity = build_parity_superop(model).mat
        assert np.max(np.abs(parity @ parity - np.eye(16))) < 1e-14


class TestPTResidual:
    def test_family1_certified(self):
        rng = np.random.default_rng(113)
        model = build_model(random_example1_spec(rng, 3))
        assert pt_residual(model) < 1e-10

    def test_z_field_violation(self):
        spec = ModelSpec(
            n=3,
            fields=(0.3, 0.1, -0.4),
            noise=Dephasing((0.2, 0.3, 0.1)),
            custom=CustomParts(h_extra=PauliOperator.single("Z", 0, 3, 0.5)),
        )
        assert pt_residual(build_model(spec)) > 1e-3

    def test_no_noise_commuting_hamiltonian(self):
        model = build_model(ModelSpec(n=2, couplings=((0, 1, 0.7, 0.2, -0.4),),
                                      fields=(0.1, 0.9), noise=Dephasing((0.0, 0.0))))
        assert pt_residual(model) < 1e-14

    def test_each_single_condition_violation_breaks_pt(self):
        """One engineered violation per certification condition, all with residual > 1e-3."""
        base = dict(fields=(0.3, -0.7), noise=Dephasing((0.2, 0.5)),
                    couplings=((0, 1, 0.4, -0.3, 0.8),))
        # (i): longitudinal field anticommutes with the X-string parity
        slot_i = ModelSpec(n=2, **base,
                           custom=CustomParts(h_extra=PauliOperator.single("Z", 0, 2, 0.5)))
        # (ii): an X-dephasing channel keeps (i) and (iii) but makes the joint
        # U/W intertwining system inconsistent
        slot_ii = ModelSpec(n=2, **base,
                            custom=CustomParts(
                                lindblads_extra=(PauliOperator.single("X", 0, 2, 0.5),)))
        # (iii): Z0 (I + X1) is odd under U and consistent under W, but its
        # anticommutator with itself is no identity multiple
        slot_iii = ModelSpec(n=2, **base,
                             custom=CustomParts(
                                 lindblads_extra=(PauliOperator(2, {"ZI": 0.5, "ZX": 0.5}),)))
        for spec, broken in ((slot_i, "cond_i"), (slot_ii, "cond_ii"), (slot_iii, "cond_iii")):
            model = build_model(spec)
            report = check_lemma(model)
            assert not getattr(report, broken).passed
            others = {"cond_i", "cond_ii", "cond_iii"} - {broken}
            assert all(getattr(report, name).passed for name in others), broken
            assert pt_residual(model) > 1e-3, broken

    def test_identity_component_shift_matches_constants(self):
        rng = np.random.default_rng(127)
        model = build_model(random_example2_spec(rng, 2))
        assert identity_component_shift(model) == pytest.approx(sum(model.c), abs=1e-14)


class TestGeneratorInvariants:
    def test_trace_preservation(self):
        rng = np.random.default_rng(131)
        for spec in (random_example1_spec(rng, 2), random_example2_spec(rng, 3)):
            model = build_model(spec)
            mat = build_liouvillian(model).mat
            trace_row = vec(np.eye(2 ** model.n, dtype=complex)).conj()
            assert np.max(np.abs(trace_row @ mat)) < 1e-12

    def test_stationary_state_exists(self):
        rng = np.random.default_rng(137)
        model = build_model(random_example1_spec(rng, 2))
        eigs = np.linalg.eigvals(build_liouvillian(model).mat)
        assert np.min(np.abs(eigs)) < 1e-10

    def test_spectrum_closed_under_conjugation(self):
        rng = np.random.default_rng(139)
        model = build_model(random_example2_spec(rng, 2))
        eigs = np.linalg.eigvals(build_liouvillian(model).mat)
        for lam in eigs:
            assert np.min(np.abs(eigs - lam.conjugate())) < 1e-8

    def test_oracle_agreement_on_random_states(self):
        rng = np.random.default_rng(149)
        for n in (1, 2, 3):
            model = build_model(random_example2_spec(rng, n))
            mat = build_liouvillian(model).mat
            for _ in range(5):
                rho = random_density(rng, 2 ** n)
                direct = apply_generator(model, rho)
                scale = max(1.0, float(np.max(np.abs(direct))))
                assert np.max(np.abs(unvec(mat @ vec(rho)) - direct)) < 1e-12 * scale
