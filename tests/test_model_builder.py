import numpy as np
import pytest

from ptliouville import (
    CustomParts,
    Dephasing,
    Injection,
    ModelConfigError,
    ModelSpec,
    PauliOperator,
    build_example1,
    build_example2,
    build_model,
    parse_model_config,
    scale_noise,
    sigma_minus,
    sigma_plus,
)

from _corpus import random_example1_spec, random_example2_spec
from _oracles import dense_operator


class TestBuildExample1:
    def test_single_qubit(self):
        model = build_example1(ModelSpec(n=1, fields=(0.5,), noise=Dephasing((0.2,))))
        assert model.hamiltonian == PauliOperator.term("X", 0.5)
        assert model.lindblads == (PauliOperator.term("Z", 0.2),)
        assert model.u == PauliOperator.term("X")
        assert model.w == PauliOperator.identity(1)
        assert model.c == pytest.approx((0.08,))
        assert model.family == "example1"

    def test_pure_noise(self):
        model = build_example1(ModelSpec(n=2, fields=(0.0, 0.0), noise=Dephasing((1.0, 1.0))))
        assert model.hamiltonian == PauliOperator.zero(2)
        assert model.lindblads == (PauliOperator.term("ZI"), PauliOperator.term("IZ"))
        assert model.u == PauliOperator.term("XX")

    def test_five_term_hamiltonian(self):
        spec = ModelSpec(
            n=2,
            couplings=((0, 1, 1.0, 1.0, 0.5),),
            fields=(0.3, 0.7),
            noise=Dephasing((0.2, 0.4)),
        )
        model = build_example1(spec)
        assert len(model.hamiltonian.terms) == 5
        assert len(model.lindblads) == 2

    def test_wrong_noise_kind(self):
        with pytest.raises(ModelConfigError):
            build_example1(ModelSpec(n=1, noise=Injection((1.0,), (0.0,))))

    def test_index_out_of_range(self):
        with pytest.raises(ModelConfigError):
            build_example1(
                ModelSpec(n=2, couplings=((0, 2, 1.0, 0.0, 0.0),), noise=Dephasing((0.1, 0.1)))
            )


class TestBuildExample2:
    def test_single_qubit(self):
        model = build_example2(ModelSpec(n=1, noise=Injection((1.0,), (0.5,))))
        assert model.lindblads == (sigma_plus(0, 1), sigma_minus(0, 1) * 0.5)
        assert model.u == PauliOperator.term("Y")
        assert model.w == PauliOperator.term("X")
        assert model.c == pytest.approx((1.0, 0.25))

    def test_boundary_driven_chain(self):
        spec = ModelSpec(
            n=3,
            couplings=((0, 1, 1.0, 1.0, 0.3), (1, 2, 1.0, 1.0, 0.3)),
            noise=Injection((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        )
        model = build_example2(spec)
        assert len(model.lindblads) == 2
        assert model.lindblads == (sigma_plus(0, 3), sigma_minus(2, 3))

    def test_no_noise(self):
        model = build_example2(
            ModelSpec(n=2, couplings=((0, 1, 1.0, 0.5, 0.2),), noise=Injection((0, 0), (0, 0)))
        )
        assert model.lindblads == ()
        assert model.c == ()

    def test_fields_rejected(self):
        with pytest.raises(ModelConfigError):
            build_example2(ModelSpec(n=1, fields=(0.5,), noise=Injection((1.0,), (0.0,))))


class TestInvariants:
    def test_hamiltonian_hermitian_termwise(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3):
            m1 = build_model(random_example1_spec(rng, n))
            m2 = build_model(random_example2_spec(rng, n))
            assert m1.hamiltonian.dagger() == m1.hamiltonian
            assert m2.hamiltonian.dagger() == m2.hamiltonian

    def test_parities_are_involutions(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 3):
            for spec in (random_example1_spec(rng, n), random_example2_spec(rng, n)):
                model = build_model(spec)
                ident = PauliOperator.identity(n)
                assert model.u @ model.u == ident
                assert model.w @ model.w == ident

    def test_example1_channels_hermitian(self):
        rng = np.random.default_rng(31)
        model = build_model(random_example1_spec(rng, 3))
        for lm in model.lindblads:
            assert lm.dagger() == lm


class TestScaleNoise:
    def test_zero_drops_all_channels(self):
        model = build_example1(ModelSpec(n=1, fields=(0.5,), noise=Dephasing((0.2,))))
        scaled = scale_noise(model, 0.0)
        assert scaled.lindblads == ()
        assert scaled.c == ()
        assert scaled.hamiltonian == model.hamiltonian

    def test_identity(self):
        model = build_example1(ModelSpec(n=1, fields=(0.5,), noise=Dephasing((0.2,))))
        assert scale_noise(model, 1.0) == model

    def test_doubling_against_dense_anticommutator(self):
        # oracle: c from the 2x2 anticommutator of the scaled channel
        model = build_example1(ModelSpec(n=1, fields=(0.5,), noise=Dephasing((0.2,))))
        scaled = scale_noise(model, 2.0)
        assert scaled.lindblads == (PauliOperator.term("Z", 0.4),)
        ld = dense_operator(scaled.lindblads[0])
        acomm = ld @ ld.conj().T + ld.conj().T @ ld
        c_oracle = acomm[0, 0].real
        assert np.max(np.abs(acomm - c_oracle * np.eye(2))) < 1e-15
        assert scaled.c == pytest.approx((c_oracle,))
        assert c_oracle == pytest.approx(0.32)

    def test_composition(self):
        rng = np.random.default_rng(37)
        model = build_model(random_example2_spec(rng, 2))
        twice = scale_noise(scale_noise(model, 0.7), 1.3)
        once = scale_noise(model, 0.7 * 1.3)
        assert len(twice.lindblads) == len(once.lindblads)
        for a, b in zip(twice.lindblads, once.lindblads):
            assert (a - b).max_norm() < 1e-14
        assert twice.c == pytest.approx(once.c)

    def test_negative_rejected(self):
        model = build_example1(ModelSpec(n=1, fields=(0.5,), noise=Dephasing((0.2,))))
        with pytest.raises(ModelConfigError):
            scale_noise(model, -1.0)


class TestParseModelConfig:
    def test_example1_roundtrip(self):
        text = '{"n":1,"hamiltonian":{"couplings":[],"fields_x":[0.5]},"noise":{"type":"dephasing","gammas":[0.2]}}'
        spec = parse_model_config(text)
        assert spec == ModelSpec(n=1, fields=(0.5,), noise=Dephasing((complex(0.2),)))
        model = build_model(spec)
        assert model.hamiltonian == PauliOperator.term("X", 0.5)

    def test_example2_roundtrip(self):
        text = (
            '{"n":2,"hamiltonian":{"couplings":[{"i":0,"j":1,"jx":1.0,"jy":1.0,"jz":0.0}]},'
            '"noise":{"type":"injection","a":[1,0],"b":[0,1]}}'
        )
        spec = parse_model_config(text)
        assert isinstance(spec.noise, Injection)
        model = build_model(spec)
        assert model.family == "example2"
        assert len(model.lindblads) == 2

    def test_unknown_noise_type(self):
        with pytest.raises(ModelConfigError, match="unknown noise type"):
            parse_model_config('{"n":2,"noise":{"type":"thermal"}}')

    def test_duplicate_coupling(self):
        text = (
            '{"n":2,"hamiltonian":{"couplings":[{"i":0,"j":1,"jx":1},{"i":0,"j":1,"jz":1}]},'
            '"noise":{"type":"dephasing","gammas":[1,1]}}'
        )
        with pytest.raises(ModelConfigError, match="duplicate"):
            parse_model_config(text)

    def test_index_out_of_range(self):
        text = (
            '{"n":2,"hamiltonian":{"couplings":[{"i":1,"j":2,"jx":1}]},'
            '"noise":{"type":"dephasing","gammas":[1,1]}}'
        )
        with pytest.raises(ModelConfigError):
            parse_model_config(text)

    def test_complex_rate_pairs(self):
        text = '{"n":1,"noise":{"type":"injection","a":[[0,1]],"b":[0.5]}}'
        spec = parse_model_config(text)
        assert spec.noise.a == (1j,)
        assert spec.noise.b == (complex(0.5),)

    def test_defaults(self):
        spec = parse_model_config('{"n":1,"noise":{"type":"dephasing","gammas":[0.3]}}')
        assert spec.scale == 1.0
        assert spec.fields == ()
        model = build_model(spec)  # empty field list = zero fields
        assert model.hamiltonian == PauliOperator.zero(1)

    def test_json_error_has_location(self):
        with pytest.raises(ModelConfigError, match="line 1"):
            parse_model_config('{"n": }')

    def test_unknown_key_rejected(self):
        with pytest.raises(ModelConfigError, match="unknown field"):
            parse_model_config('{"n":1,"noize":{}}')

    def test_wrong_rate_count(self):
        with pytest.raises(ModelConfigError, match="gammas"):
            parse_model_config('{"n":2,"noise":{"type":"dephasing","gammas":[1.0]}}')


class TestCustomModels:
    def test_field_injection_on_family_base(self):
        spec = ModelSpec(
            n=2,
            fields=(0.3, 0.7),
            noise=Dephasing((0.2, 0.4)),
            custom=CustomParts(h_extra=PauliOperator.term("ZI", 0.5)),
        )
        model = build_model(spec)
        assert model.family == "custom"
        assert model.hamiltonian.terms["ZI"] == 0.5
        assert len(model.lindblads) == 2  # channels untouched

    def test_extra_channel(self):
        projector = PauliOperator(1, {"I": 0.5, "Z": 0.5})
        spec = ModelSpec(
            n=1,
            fields=(1.0,),
            noise=Dephasing((0.2,)),
            custom=CustomParts(lindblads_extra=(projector,)),
        )
        model = build_model(spec)
        assert len(model.lindblads) == 2
        assert model.c is None  # projector channel has no identity anticommutator

    def test_fully_custom_requires_parities(self):
        with pytest.raises(ModelConfigError, match="custom u and w"):
            build_model(ModelSpec(n=1, custom=CustomParts(h=PauliOperator.term("X"))))

    def test_fully_custom_model(self):
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
        assert model.family == "custom"
        assert model.c == pytest.approx((1.0,))

    def test_custom_json_section(self):
        text = (
            '{"n":2,"hamiltonian":{"fields_x":[0.3,0.7]},'
            '"noise":{"type":"dephasing","gammas":[0.2,0.4]},'
            '"custom":{"h_extra":[{"word":"ZI","coeff":0.5}]}}'
        )
        model = build_model(parse_model_config(text))
        assert model.hamiltonian.terms["ZI"] == 0.5
