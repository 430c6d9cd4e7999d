import numpy as np
import pytest

from ptliouville import (
    CustomParts,
    Dephasing,
    Injection,
    LinearDependenceError,
    ModelConfigError,
    ModelSpec,
    PauliOperator,
    build_example2,
    build_model,
    check_condition_i,
    check_condition_iii,
    check_lemma,
    scale_noise,
    sigma_plus,
    solve_reflection_matrix,
)

from _corpus import random_example1_spec, random_example2_spec
from _oracles import analytic_constants, dense_operator


class TestConditionI:
    def test_family1_passes_exactly(self):
        rng = np.random.default_rng(41)
        model = build_model(random_example1_spec(rng, 3))
        report = check_condition_i(model)
        assert report.passed
        assert all(r == 0.0 for r in report.residuals.values())

    def test_z_field_breaks_commutation(self):
        h_prime = 0.5
        spec = ModelSpec(
            n=3,
            fields=(0.3, 0.1, -0.4),
            noise=Dephasing((0.2, 0.3, 0.1)),
            custom=CustomParts(h_extra=PauliOperator.single("Z", 0, 3, h_prime)),
        )
        report = check_condition_i(build_model(spec))
        assert not report.passed
        # [h' Z_0, prod X] lands on the single word Y_0 X X with weight 2h'
        assert report.residuals["hu_commutator"] == pytest.approx(2 * abs(h_prime))

    def test_family2_odd_size_passes(self):
        rng = np.random.default_rng(43)
        model = build_model(random_example2_spec(rng, 3))
        assert check_condition_i(model).passed


class TestReflectionMatrix:
    def test_family1_real_rates_give_identity(self):
        rng = np.random.default_rng(47)
        model = build_model(random_example1_spec(rng, 3))
        refl = solve_reflection_matrix(model)
        assert refl.certified()
        assert np.max(np.abs(refl.matrix - np.eye(len(model.lindblads)))) < 1e-12

    def test_family2_real_rates_give_identity(self):
        rng = np.random.default_rng(53)
        model = build_model(random_example2_spec(rng, 2))
        refl = solve_reflection_matrix(model)
        assert refl.certified()
        assert np.max(np.abs(refl.matrix - np.eye(len(model.lindblads)))) < 1e-12

    def test_imaginary_rate_flips_sign(self):
        model = build_example2(ModelSpec(n=1, noise=Injection((1j,), (0.0,))))
        refl = solve_reflection_matrix(model)
        assert refl.certified()
        assert refl.matrix.shape == (1, 1)
        assert refl.matrix[0, 0] == pytest.approx(-1.0)
        # dense oracle: U L = -Z11 L^dag U and W L = Z11 L^dag W as 2x2 matrices
        u, w = dense_operator(model.u), dense_operator(model.w)
        ld = dense_operator(model.lindblads[0])
        z11 = refl.matrix[0, 0]
        assert np.max(np.abs(u @ ld + z11 * ld.conj().T @ u)) < 1e-14
        assert np.max(np.abs(w @ ld - z11 * ld.conj().T @ w)) < 1e-14

    def test_mixed_phase_rate_fails(self):
        rate = (1 + 1j) / np.sqrt(2)
        model = build_example2(ModelSpec(n=2, noise=Injection((rate, 0.3), (0.5, 0.9))))
        refl = solve_reflection_matrix(model)
        assert not refl.certified()
        assert refl.residual_imag > 0.5  # Z entry would need to be +-i

    def test_duplicated_channel_is_underdetermined(self):
        spec = ModelSpec(
            n=1,
            fields=(1.0,),
            noise=Dephasing((0.2,)),
            custom=CustomParts(lindblads_extra=(PauliOperator.term("Z", 0.4),)),
        )
        with pytest.raises(LinearDependenceError):
            solve_reflection_matrix(build_model(spec))

    def test_dependence_threshold(self):
        # channels Z +- eps X: the coefficient vectors' singular values are
        # sqrt(2) and sqrt(2) eps, so eps is their ratio; the cutoff is 1e-5
        for eps, independent in ((1e-4, True), (1e-6, False)):
            channels = tuple(PauliOperator(1, {"Z": 1.0, "X": sign * eps}) for sign in (1, -1))
            spec = ModelSpec(n=1, fields=(1.0,), noise=Dephasing((0.2,)),
                             custom=CustomParts(lindblads=channels))
            report = check_lemma(build_model(spec))
            assert (report.cond_ii.reflection is not None) is independent, eps
            assert ("linearly dependent" in report.cond_ii.message) is not independent, eps

    def test_overflowing_channel_is_config_error(self, capfd):
        # a coefficient that overflowed to inf never reaches the least squares
        channel = PauliOperator.term("Z", 1e200) * 1e200
        spec = ModelSpec(n=1, fields=(1.0,), noise=Dephasing((0.2,)),
                         custom=CustomParts(lindblads_extra=(channel,)))
        with pytest.raises(ModelConfigError, match="not finite"):
            check_lemma(build_model(spec))
        assert capfd.readouterr().err == ""

    def test_empty_channel_set(self):
        model = build_example2(ModelSpec(n=2, noise=Injection((0, 0), (0, 0))))
        refl = solve_reflection_matrix(model)
        assert refl.matrix.shape == (0, 0)
        assert refl.certified()


class TestConditionIII:
    def test_dephasing_constant(self):
        g = 0.2
        model = build_model(ModelSpec(n=1, fields=(1.0,), noise=Dephasing((g,))))
        report = check_condition_iii(model)
        assert report.passed
        # oracle: 2x2 anticommutator of the dense channel
        ld = dense_operator(model.lindblads[0])
        acomm = ld @ ld.conj().T + ld.conj().T @ ld
        assert report.constants == pytest.approx((acomm[0, 0].real,))
        assert report.constants[0] == pytest.approx(2 * g * g)

    def test_raising_constant(self):
        a = 0.8
        model = build_example2(ModelSpec(n=1, noise=Injection((a,), (0.0,))))
        report = check_condition_iii(model)
        assert report.constants == pytest.approx((a * a,))

    def test_projector_channel_fails(self):
        projector = PauliOperator(1, {"I": 0.5, "Z": 0.5})
        spec = ModelSpec(
            n=1,
            fields=(1.0,),
            noise=Dephasing((0.2,)),
            custom=CustomParts(lindblads_extra=(projector,)),
        )
        report = check_condition_iii(build_model(spec))
        assert not report.passed
        assert report.failed_channel == 1
        assert report.leftover is not None
        # {P, P} = 2P = I + Z leaves the Z part behind
        assert report.leftover == PauliOperator(1, {"Z": 1.0})


class TestCheckLemma:
    def test_family1_random(self):
        rng = np.random.default_rng(59)
        spec = random_example1_spec(rng, 3)
        report = check_lemma(build_model(spec))
        assert report.overall
        assert report.cond_iii.constants == pytest.approx(analytic_constants(spec))

    def test_family2_random(self):
        rng = np.random.default_rng(61)
        spec = random_example2_spec(rng, 2)
        report = check_lemma(build_model(spec))
        assert report.overall
        assert report.cond_iii.constants == pytest.approx(analytic_constants(spec))

    def test_x_field_breaks_family2_parity(self):
        spec = ModelSpec(
            n=2,
            couplings=((0, 1, 1.0, 0.8, 0.3),),
            noise=Injection((0.5, 0.2), (0.1, 0.7)),
            custom=CustomParts(h_extra=PauliOperator.single("X", 0, 2, 0.4)),
        )
        report = check_lemma(build_model(spec))
        assert not report.cond_i.passed  # X anticommutes with the Y-string parity
        assert not report.overall

    def test_scale_invariance(self):
        rng = np.random.default_rng(67)
        model = build_model(random_example2_spec(rng, 2))
        for lam in (0.1, 1.0, 3.7):
            assert check_lemma(scale_noise(model, lam)).overall

    def test_certified_z_is_symmetric(self):
        rng = np.random.default_rng(71)
        for spec in (random_example1_spec(rng, 2), random_example2_spec(rng, 3)):
            refl = solve_reflection_matrix(build_model(spec))
            assert refl.certified()
            assert np.max(np.abs(refl.matrix - refl.matrix.T)) < 2e-10

    def test_json_report_fields(self):
        rng = np.random.default_rng(73)
        report = check_lemma(build_model(random_example1_spec(rng, 2)))
        doc = report.to_json_dict()
        assert set(doc) == {"cond_i", "cond_ii", "cond_iii", "overall", "Z", "c", "residuals"}
        assert doc["overall"] is True
        assert len(doc["Z"]) == len(doc["c"])

    def test_linear_dependence_reported_not_raised(self):
        spec = ModelSpec(
            n=1,
            fields=(1.0,),
            noise=Dephasing((0.2,)),
            custom=CustomParts(lindblads_extra=(PauliOperator.term("Z", 0.4),)),
        )
        report = check_lemma(build_model(spec))
        assert not report.cond_ii.passed
        assert "linearly dependent" in report.cond_ii.message
        assert report.to_json_dict()["Z"] is None
