import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from ptliouville import (
    CustomParts,
    Dephasing,
    Injection,
    Model,
    ModelConfigError,
    ModelSpec,
    PauliOperator,
    UncertifiedModelError,
    build_liouvillian,
    build_model,
    check_condition_iii,
    check_lemma,
    classify_pt_phase,
    liouvillian_spectra,
    pauli_to_dense,
    pt_residual,
    symmetry_sectors,
    z2_symmetry_strings,
)
from ptliouville import superoperator

from _corpus import mixed_corpus, random_example1_spec, random_example2_spec
from _oracles import (
    I2,
    X,
    Y,
    analytic_constants,
    apply_generator,
    assert_spectra_match,
    bloch_liouvillian_eigs,
    dense_operator,
    dense_shift,
    generator_matrix,
    pauli_coordinates,
    pauli_generator_matrix,
    pauli_sum,
    pauli_words,
    reference_string_mul,
    shifted_generator_matrix,
)
from _oracles import pt_residual as oracle_pt_residual


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_family_operators_bitwise(self, n):
        # the signed permutations add each term where the Kronecker chains do,
        # in term order, so every entry agrees to the bit
        for make in (random_example1_spec, random_example2_spec):
            model = build_model(make(np.random.default_rng(n), n))
            uncertified = model.hamiltonian + PauliOperator.single("Z", 0, n, 0.5)
            for op in (model.hamiltonian, model.u, model.w, *model.lindblads, uncertified):
                assert pauli_to_dense(op).tobytes() == dense_operator(op).tobytes()


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
        # the coherences X and Y decay at 4 g^2
        assert np.allclose(np.diag(mat), [0, -4 * g * g, -4 * g * g, 0])

    def test_columns_match_direct_oracle(self):
        # column a holds the Pauli coordinates of the generator applied to P_a
        rng = np.random.default_rng(89)
        for spec in (random_example1_spec(rng, 2), random_example2_spec(rng, 2)):
            model = build_model(spec)
            mat = build_liouvillian(model).mat
            for col, word in enumerate(pauli_words(model.n)):
                direct = apply_generator(model, word)
                assert np.max(np.abs(pauli_sum(mat[:, col]) - direct)) < 1e-12

    def test_matches_independent_generator_matrix(self):
        rng = np.random.default_rng(97)
        specs = [random_example1_spec(rng, n) for n in (1, 2, 3)]
        specs += [random_example2_spec(rng, n) for n in (1, 2, 3)]
        for spec in specs + [*_complex_rate_specs(), *_condition_controls()]:
            model = build_model(spec)
            oracle = pauli_generator_matrix(model)
            assert np.max(np.abs(build_liouvillian(model).mat - oracle)) < 1e-12

    def test_shift_matches_dense_trace(self):
        # the (ii) and (iii) controls add a channel the family's constants
        # omit, so their shift is not sum(c_m); the (iii) channel has no c_m
        specs = [*mixed_corpus(131, 8), *_complex_rate_specs(), *_condition_controls()]
        for spec in specs:
            model = build_model(spec)
            want = dense_shift([dense_operator(lm) for lm in model.lindblads], 2 ** model.n)
            assert abs(build_liouvillian(model).shift - want) < 1e-12, spec
        for spec in _condition_controls()[1:]:
            model = build_model(spec)
            assert abs(build_liouvillian(model).shift - sum(analytic_constants(spec))) > 0.1
        no_channels = build_model(ModelSpec(n=2, fields=(0.4, -0.2), noise=Dephasing((0.0, 0.0))))
        assert no_channels.lindblads == ()
        shift = build_liouvillian(no_channels).shift
        assert shift == 0.0 and math.copysign(1.0, shift) == 1.0

    def test_channel_products_use_operator_algebra(self, monkeypatch):
        # L_m^dag L_m comes from the operator algebra's code products
        # (pauli_algebra.product_terms), not a word-by-word string_mul loop
        def forbidden(*args):
            raise AssertionError("string_mul called")

        monkeypatch.setattr(superoperator, "string_mul", forbidden)
        for spec in (*_complex_rate_specs(), *_condition_controls()):
            build_liouvillian(build_model(spec))


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
        got = liouvillian_spectra(model).eig_shifted
        assert_spectra_match(got, bloch_liouvillian_eigs(h, g) + 2 * g * g, 1e-10)
        # closed form: {+2g^2, -2g^2, +-2i sqrt(1 - g^4)}
        omega = 2 * np.sqrt(1 - g**4)
        assert_spectra_match(got, [2 * g * g, -2 * g * g, 1j * omega, -1j * omega], 1e-10)

    def test_no_noise_means_no_shift(self):
        model = build_model(ModelSpec(n=1, fields=(0.4,), noise=Dephasing((0.0,))))
        result = liouvillian_spectra(model)
        assert result.shift == 0
        assert np.array_equal(result.eig_shifted, result.eig_liouvillian)

    def test_spectral_shift_identity(self):
        rng = np.random.default_rng(107)
        spec = random_example2_spec(rng, 2)
        model = build_model(spec)
        shift = sum(analytic_constants(spec))
        generator = build_liouvillian(model)
        mat = generator.mat
        eig_l = np.sort_complex(np.linalg.eigvals(mat))
        eig_lp = np.sort_complex(np.linalg.eigvals(mat + generator.shift * np.eye(mat.shape[0])))
        assert np.max(np.abs(np.sort(eig_lp.real) - np.sort(eig_l.real + shift))) < 1e-9

    def test_requires_channel_constants(self):
        # {P, P^dag} = 2P = I + Z has no constant, but its identity component
        # is 1; with 2 (0.2)^2 from the Z channel the shift is 1.08. The
        # shifted spectrum stays defined; the phase classifier refuses it.
        projector = PauliOperator(1, {"I": 0.5, "Z": 0.5})
        spec = ModelSpec(n=1, fields=(1.0,), noise=Dephasing((0.2,)),
                         custom=CustomParts(lindblads_extra=(projector,)))
        model = build_model(spec)
        assert check_condition_iii(model).constants is None
        with pytest.raises(UncertifiedModelError):
            classify_pt_phase(model)
        assert build_liouvillian(model).shift == pytest.approx(1.08, abs=1e-15)
        oracle = shifted_generator_matrix(
            dense_operator(model.hamiltonian), [dense_operator(lm) for lm in model.lindblads])
        assert_spectra_match(liouvillian_spectra(model).eig_shifted,
                             np.linalg.eigvals(oracle), 1e-10)


class TestParitySuperop:
    """The parity P: rho -> U rho W of the built models."""

    def test_family1_single_qubit(self):
        model = build_model(ModelSpec(n=1, fields=(0.5,), noise=Dephasing((0.2,))))
        assert np.allclose(pauli_to_dense(model.u), X)
        assert np.allclose(pauli_to_dense(model.w), I2)

    def test_family2_single_qubit(self):
        model = build_model(ModelSpec(n=1, noise=Injection((1.0,), (0.5,))))
        assert np.allclose(pauli_to_dense(model.u), Y)
        assert np.allclose(pauli_to_dense(model.w), X)

    def test_involution(self):
        # P(P(rho)) = U^2 rho W^2
        rng = np.random.default_rng(109)
        model = build_model(random_example2_spec(rng, 2))
        for op in (model.u, model.w):
            assert np.max(np.abs(pauli_to_dense(op) @ pauli_to_dense(op) - np.eye(4))) < 1e-14


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
        # no H either: L' = 0, also past n = 1074, where 2^-n underflows to 0
        empty = build_model(ModelSpec(n=1100, noise=Dephasing((0.0,) * 1100)))
        assert pt_residual(empty) == 0.0

    def test_each_single_condition_violation_breaks_pt(self):
        """One engineered violation per certification condition, all with residual > 1e-3."""
        for spec, broken in zip(_condition_controls(), ("cond_i", "cond_ii", "cond_iii")):
            model = build_model(spec)
            report = check_lemma(model)
            assert not getattr(report, broken).passed
            others = {"cond_i", "cond_ii", "cond_iii"} - {broken}
            assert all(getattr(report, name).passed for name in others), broken
            assert pt_residual(model) > 1e-3, broken

    def test_sixteen_qubits_without_dense_matrices(self, monkeypatch):
        # a 4^16 x 4^16 matrix would take 32 GiB; the residual forms none
        def forbidden(*args):
            raise AssertionError("dense assembly")

        monkeypatch.setattr(superoperator, "build_liouvillian", forbidden)
        monkeypatch.setattr(superoperator.SuperOp, "blocks", forbidden)
        rng = np.random.default_rng(239)
        for spec in (random_example1_spec(rng, 16), random_example2_spec(rng, 16)):
            assert pt_residual(build_model(spec)) < 1e-10
            field = CustomParts(h_extra=PauliOperator.single("Z", 0, 16, 0.5))
            assert pt_residual(build_model(replace(spec, custom=field))) > 1e-3

    def test_identity_component_shift_matches_constants(self):
        rng = np.random.default_rng(127)
        spec = random_example2_spec(rng, 2)
        expected = sum(analytic_constants(spec))
        assert build_liouvillian(build_model(spec)).shift == pytest.approx(expected, abs=1e-14)


class TestGeneratorInvariants:
    def test_trace_preservation(self):
        rng = np.random.default_rng(131)
        for spec in (random_example1_spec(rng, 2), random_example2_spec(rng, 3)):
            model = build_model(spec)
            # Tr L(rho) is 2^n times the identity coordinate: row 0 of R
            mat = build_liouvillian(model).mat
            assert np.max(np.abs(mat[0])) < 1e-12
        # a channel so small that every term of L^dag L lies below PRUNE_TOL:
        # those terms must still cancel their 2 L rho L^dag partners exactly
        tiny = PauliOperator(1, {"X": 1e-8, "Z": 2e-8j})
        model = build_model(ModelSpec(n=1, fields=(0.5,), noise=Dephasing((0.3,)),
                                      custom=CustomParts(lindblads_extra=(tiny,))))
        generator = build_liouvillian(model)
        assert np.array_equal(generator.mat[0], np.zeros(4))
        assert not np.any(np.signbit(generator.mat[generator.mat == 0]))
        # the shift keeps the channel's 2 (1e-16 + 4e-16) too, to rounding at 0.18
        assert generator.shift - 2 * 0.3 ** 2 == pytest.approx(1e-15, rel=0.05)

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
                got = pauli_sum(mat @ pauli_coordinates(rho))
                assert np.max(np.abs(got - direct)) < 1e-12 * scale


def _z0_field_control(n):
    # condition (i) control: a Z_0 field anticommutes with X...X
    rng = np.random.default_rng(227)
    return ModelSpec(n=n, couplings=random_example1_spec(rng, n).couplings,
                     fields=(0.3,) * n, noise=Dephasing((0.2,) * n),
                     custom=CustomParts(h_extra=PauliOperator.single("Z", 0, n, 0.5)))


def _complex_rate_specs():
    return (
        ModelSpec(n=2, couplings=((0, 1, 0.6, 0.4, -0.2),), fields=(0.3, -0.5),
                  noise=Dephasing((0.2 + 0.1j, -0.3j))),
        ModelSpec(n=3, couplings=((0, 1, 0.6, 0.4, -0.2), (1, 2, -0.3, 0.9, 0.5)),
                  noise=Injection((0.8j, 0.6, 0.1 - 0.2j), (0.5, 0.3 + 0.4j, 0.7))),
    )


def _condition_controls():
    """One n = 2 spec per violated certification condition: (i), (ii), (iii)."""
    base = dict(fields=(0.3, -0.7), noise=Dephasing((0.2, 0.5)),
                couplings=((0, 1, 0.4, -0.3, 0.8),))
    return tuple(ModelSpec(n=2, **base, custom=extra) for extra in (
        # (i): longitudinal field anticommutes with the X-string parity
        CustomParts(h_extra=PauliOperator.single("Z", 0, 2, 0.5)),
        # (ii): an X-dephasing channel keeps (i) and (iii) but makes the
        # joint U/W intertwining system inconsistent
        CustomParts(lindblads_extra=(PauliOperator.single("X", 0, 2, 0.5),)),
        # (iii): Z0 (I + X1) is odd under U and consistent under W, but its
        # anticommutator with itself is no identity multiple
        CustomParts(lindblads_extra=(PauliOperator(2, {"ZI": 0.5, "ZX": 0.5}),)),
    ))


def _sector_cases():
    """(spec, expected symmetry strings) for both families, complex rates and controls."""
    rng = np.random.default_rng(229)
    cases = []
    for n in (1, 2, 3, 4):
        cases.append((random_example1_spec(rng, n), ("X" * n,)))
        cases.append((random_example2_spec(rng, n), ("Z" * n,)))
    cases += [(spec, (("X" if spec.fields else "Z") * spec.n,)) for spec in _complex_rate_specs()]
    cases.append((_z0_field_control(2), ()))
    # H = 0 with Z dephasing: X, Y and Z all qualify (two independent bits),
    # so each of the four basis words is its own sector
    cases.append((ModelSpec(n=1, noise=Dephasing((0.4,))), ("X", "Y", "Z")))
    return cases


class TestPauliBasis:
    def test_symmetry_strings(self):
        for spec, strings in _sector_cases():
            assert z2_symmetry_strings(build_model(spec)) == strings, spec

    def test_anticommutes_matches_string_product(self):
        # two words anticommute exactly when the phase of their product is imaginary
        rng = np.random.default_rng(263)
        for _ in range(400):
            n = int(rng.integers(1, 9))
            a, b = ("".join(rng.choice(list("IXYZ"), n)) for _ in range(2))
            phase, _ = reference_string_mul(a, b)
            assert superoperator._anticommutes(a, b) == (phase.imag != 0), (a, b)

    def test_map_action_matches_string_product(self):
        # left P_a right = phases[a] P_(a ^ mask) for every basis word a, by the
        # oracle's site-by-site products; n = 1 covers every single-letter triple
        rng = np.random.default_rng(271)
        cases = [(left, right) for left in "IXYZ" for right in "IXYZ"]
        cases += [tuple("".join(rng.choice(list("IXYZ"), n)) for _ in range(2))
                  for n in (1, 2, 3) for _ in range(12)]
        for left, right in cases:
            words = ["".join(w) for w in itertools.product("IXYZ", repeat=len(left))]
            mask, phases = superoperator._map_action(left, right)
            assert phases.shape == (len(words),)
            for a, word in enumerate(words):
                p, middle = reference_string_mul(left, word)
                q, image = reference_string_mul(middle, right)
                assert (image, p * q) == (words[a ^ mask], phases[a]), (left, word, right)
        with pytest.raises(ValueError):
            superoperator._map_action("XY", "Z")
        with pytest.raises(ValueError):
            superoperator._map_action("X", "ZI")

    def test_generator_is_block_diagonal_over_sectors(self):
        for spec, strings in _sector_cases():
            model = build_model(spec)
            generator, sectors = build_liouvillian(model), symmetry_sectors(model)
            mat = generator.mat
            # each sector's block, assembled alone, is bitwise the whole matrix's
            for idx, block in zip(sectors, generator.blocks(sectors, 0.25), strict=True):
                want = mat[np.ix_(idx, idx)] + 0.25 * np.eye(idx.size)
                assert block.tobytes() == want.tobytes()
            assert len(sectors) == (1, 2, 4, 4)[len(strings)]
            assert sorted(np.concatenate(sectors).tolist()) == list(range(4 ** model.n))
            assert len({idx.size for idx in sectors}) == 1  # equal blocks
            inside = np.zeros(mat.shape, dtype=bool)
            for idx in sectors:
                inside[np.ix_(idx, idx)] = True
            assert not np.any(mat[~inside])

    def test_map_leaving_a_sector_raises(self):
        # X conjugation splits {I, X} from {Y, Z}; the X field maps Y and Z
        # into each other, so sectors that part them are left by a map
        model = build_model(ModelSpec(n=1, fields=(0.5,), noise=Dephasing((0.3,))))
        generator = build_liouvillian(model)
        assert [idx.tolist() for idx in symmetry_sectors(model)] == [[0, 1], [2, 3]]
        with pytest.raises(IndexError):
            generator.blocks([np.array([0, 3]), np.array([1, 2])])
        with pytest.raises(IndexError):
            generator.blocks([np.array([0, 1, 3])])

    def test_sector_spectra_match_dense_oracle(self):
        for spec, _ in _sector_cases():
            model = build_model(spec)
            oracle = np.linalg.eigvals(generator_matrix(
                dense_operator(model.hamiltonian),
                [dense_operator(lm) for lm in model.lindblads],
            ))
            result = liouvillian_spectra(model)
            assert_spectra_match(result.eig_liouvillian, oracle, 1e-8)
            assert_spectra_match(result.eig_shifted, oracle + result.shift, 1e-8)

    def test_column_stacking_view_matches_oracle(self):
        # B R B^-1 with B[:, a] = vec(P_a) column-stacked and B^-1 = B^dag / 2^n
        for spec in _complex_rate_specs() + (_z0_field_control(2),):
            model = build_model(spec)
            words = pauli_words(model.n)
            basis = np.stack([w.ravel(order="F") for w in words], axis=1)
            view = basis @ build_liouvillian(model).mat @ basis.conj().T / 2 ** model.n
            oracle = generator_matrix(
                dense_operator(model.hamiltonian),
                [dense_operator(lm) for lm in model.lindblads],
            )
            assert np.max(np.abs(view - oracle)) < 1e-12

    def test_pt_residual_matches_dense_oracle(self):
        rng = np.random.default_rng(233)
        models = [build_model(random_example1_spec(rng, n)) for n in (1, 2, 3)]
        models += [build_model(random_example2_spec(rng, n)) for n in (1, 2, 3)]
        models += [build_model(spec) for spec in _complex_rate_specs() + _condition_controls()]
        # U and W that are sums of strings, on the controls' base model
        models.append(build_model(replace(_condition_controls()[0], custom=CustomParts(
            u=PauliOperator(2, {"XX": 0.6, "ZY": 0.8j}),
            w=PauliOperator(2, {"II": 0.5, "YZ": -0.5, "XI": 0.2})))))
        # a zero U, whose parity map and defect vanish
        models.append(build_model(replace(_condition_controls()[0], custom=CustomParts(
            u=PauliOperator(2, {})))))
        # the (i) control, a Z_0 field, on both families at n = 4 and on
        # family 1 at n = 5, whose defects have many nonzero entries
        models += [build_model(replace(spec, custom=CustomParts(
            h_extra=PauliOperator.single("Z", 0, spec.n, 0.5)))) for spec in (
                random_example1_spec(rng, 4), random_example2_spec(rng, 4),
                random_example1_spec(rng, 5))]
        # sums of strings for U and W at n = 4
        models.append(build_model(replace(random_example2_spec(rng, 4), custom=CustomParts(
            u=PauliOperator(4, {"YYYY": 0.6, "ZYIX": 0.8j}),
            w=PauliOperator(4, {"IIII": 0.5, "XXXX": -0.5, "XIIZ": 0.2})))))
        models += [build_model(spec) for spec in mixed_corpus(0, 20, (1, 2, 3, 4, 5))]
        for model in models:
            got = pt_residual(model)
            assert abs(got - oracle_pt_residual(model)) < 1e-12

    def test_non_hermitian_hamiltonian_is_rejected(self):
        h = PauliOperator(1, {"X": 0.5, "Z": 0.2j})
        ident = PauliOperator.identity(1)
        model = Model(1, h, (PauliOperator.term("Z", 0.3),), ident, ident, "custom")
        with pytest.raises(ModelConfigError, match="Hermitian"):
            build_liouvillian(model)
        with pytest.raises(ModelConfigError, match="custom.h_extra"):
            build_model(ModelSpec(n=1, fields=(0.5,), noise=Dephasing((0.3,)),
                                  custom=CustomParts(h_extra=PauliOperator.term("Z", 0.2j))))
