import json
import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import ptliouville.model_builder as model_builder
import ptliouville.pauli_algebra as pauli_algebra
from ptliouville import (
    PRUNE_TOL,
    CustomParts,
    Dephasing,
    Injection,
    ModelConfigError,
    ModelSpec,
    PauliOperator,
    build_example1,
    build_example2,
    build_model,
    check_condition_iii,
    check_lemma,
    parse_model_config,
    scale_noise,
    sigma_minus,
    sigma_plus,
)

from _corpus import random_example1_spec, random_example2_spec
from _oracles import analytic_constants, dense_operator


class TestBuildExample1:
    def test_single_qubit(self):
        model = build_example1(ModelSpec(n=1, fields=(0.5,), noise=Dephasing((0.2,))))
        assert model.hamiltonian == PauliOperator.term("X", 0.5)
        assert model.lindblads == (PauliOperator.term("Z", 0.2),)
        assert model.u == PauliOperator.term("X")
        assert model.w == PauliOperator.identity(1)
        assert check_condition_iii(model).constants == pytest.approx((0.08,))
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
        assert check_condition_iii(model).constants == pytest.approx((1.0, 0.25))

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
        assert check_condition_iii(model).constants == ()

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
        assert check_condition_iii(scaled).constants == ()
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
        assert check_condition_iii(scaled).constants == pytest.approx((c_oracle,))
        assert c_oracle == pytest.approx(0.32)

    def test_composition(self):
        rng = np.random.default_rng(37)
        model = build_model(random_example2_spec(rng, 2))
        twice = scale_noise(scale_noise(model, 0.7), 1.3)
        once = scale_noise(model, 0.7 * 1.3)
        assert len(twice.lindblads) == len(once.lindblads)
        for a, b in zip(twice.lindblads, once.lindblads):
            assert (a - b).max_norm() < 1e-14
        assert check_condition_iii(twice).constants == pytest.approx(
            check_condition_iii(once).constants
        )

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

    def test_empty_fields_mean_zero(self):
        text = '{"n":2,"hamiltonian":{"fields_x":[]},"noise":{"type":"dephasing","gammas":[0.2,0.3]}}'
        assert parse_model_config(text).fields == ()

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
        # projector channel has no identity anticommutator
        assert check_condition_iii(model).constants is None

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
        assert check_condition_iii(model).constants == pytest.approx((1.0,))

    def test_custom_json_section(self):
        text = (
            '{"n":2,"hamiltonian":{"fields_x":[0.3,0.7]},'
            '"noise":{"type":"dephasing","gammas":[0.2,0.4]},'
            '"custom":{"h_extra":[{"word":"ZI","coeff":0.5}]}}'
        )
        model = build_model(parse_model_config(text))
        assert model.hamiltonian.terms["ZI"] == 0.5


class TestLinearBuilder:
    def test_matches_sequential_sum(self):
        # reference: the term-by-term sum h = h + term the one-shot build replaced
        def sequential_hamiltonian(spec):
            n = spec.n
            h = PauliOperator.zero(n)
            for (j, k, jx, jy, jz) in spec.couplings:
                for letter, strength in (("X", jx), ("Y", jy), ("Z", jz)):
                    if strength != 0:
                        h = h + (
                            PauliOperator.single(letter, j, n)
                            @ PauliOperator.single(letter, k, n)
                        ) * strength
            for j, hj in enumerate(spec.fields):
                if hj != 0:
                    h = h + PauliOperator.single("X", j, n, hj)
            return h

        rng = np.random.default_rng(241)
        for n in range(1, 7):
            for make in (random_example1_spec, random_example2_spec):
                spec = make(rng, n)
                if n > 1:
                    # a zero strength, and a nonzero one that pruning drops
                    (j, k, jx, _, jz), *rest = spec.couplings
                    spec = ModelSpec(n, ((j, k, jx, 0.0, jz * PRUNE_TOL), *rest),
                                     spec.fields, spec.noise)
                want = sequential_hamiltonian(spec)
                got = build_model(spec).hamiltonian
                assert got.terms == want.terms
                assert list(got.terms) == list(want.terms)

    @pytest.mark.parametrize("make", [random_example1_spec, random_example2_spec],
                             ids=["family1", "family2"])
    def test_certifies_64_qubits(self, make):
        spec = make(np.random.default_rng(64), 64)
        report = check_lemma(build_model(spec))
        assert report.overall
        assert report.cond_iii.constants == pytest.approx(analytic_constants(spec), rel=1e-12)

    def test_family_path_checks_no_words(self, monkeypatch):
        # the library spells the family words itself; only user words are checked
        calls = []
        check_word = pauli_algebra._check_word

        def counting(word, n):
            calls.append(word)
            check_word(word, n)

        monkeypatch.setattr(pauli_algebra, "_check_word", counting)
        rng = np.random.default_rng(251)
        for make in (random_example1_spec, random_example2_spec):
            assert check_lemma(build_model(make(rng, 6))).overall
        assert calls == []

        text = (
            '{"n":2,"hamiltonian":{"fields_x":[0.3,0.7]},'
            '"noise":{"type":"dephasing","gammas":[0.2,0.4]},'
            '"custom":{"h_extra":[{"word":"ZI","coeff":0.5},{"word":"IZ","coeff":0.1},'
            '{"word":"ZI","coeff":0.2}],"lindblads_extra":[[{"word":"XX","coeff":0.3}]]}}'
        )
        parse_model_config(text)
        assert sorted(calls) == ["IZ", "XX", "ZI"]

    def test_one_validation_per_build(self, monkeypatch):
        # the family builders validate their spec; build_model validates only the custom path
        calls = []
        validate = model_builder.validate_spec

        def counting(spec):
            calls.append(spec)
            validate(spec)

        monkeypatch.setattr(model_builder, "validate_spec", counting)
        rng = np.random.default_rng(257)
        custom = ModelSpec(
            n=2,
            couplings=((0, 1, 0.4, -0.3, 0.9),),
            custom=CustomParts(u=PauliOperator.term("XX"), w=PauliOperator.term("ZZ")),
        )
        for spec in (random_example1_spec(rng, 3), random_example2_spec(rng, 3), custom):
            calls.clear()
            build_model(spec)
            assert calls == [spec]

    def test_one_validation_per_parse_and_build(self, monkeypatch):
        # parse_model_config validates; building the spec it returns does not again
        calls = []
        validate = model_builder.validate_spec

        def counting(spec):
            calls.append(spec)
            validate(spec)

        monkeypatch.setattr(model_builder, "validate_spec", counting)
        for text in (
            '{"n":3,"noise":{"type":"dephasing","gammas":[0.2,0.4,0.1]}}',
            '{"n":2,"hamiltonian":{"couplings":[{"i":0,"j":1,"jx":1,"jy":1}]},'
            '"noise":{"type":"injection","a":[1,0],"b":[0,1]}}',
            '{"n":2,"hamiltonian":{"couplings":[{"i":0,"j":1,"jx":0.4,"jz":0.9}]},'
            '"custom":{"u":[{"word":"XX","coeff":1}],"w":[{"word":"ZZ","coeff":1}]}}',
        ):
            calls.clear()
            spec = parse_model_config(text)
            build_model(spec)
            assert calls == [spec]
            # replace() gives a new spec, which is validated when built
            calls.clear()
            build_model(replace(spec, scale=0.5))
            assert len(calls) == 1
            with pytest.raises(ModelConfigError):
                build_model(replace(spec, n=spec.n + 1))


NAN, INF = math.nan, math.inf
NONFINITE_SPECS = {
    "nan-coupling": (ModelSpec(n=2, couplings=((0, 1, NAN, 0.3, 0.2),), fields=(0.1, NAN),
                               noise=Dephasing((1.0, 0.5))), "couplings[0].jx"),
    "inf-coupling": (ModelSpec(n=2, couplings=((0, 1, 1.0, 0.3, -INF),),
                               noise=Dephasing((1.0, 0.5))), "couplings[0].jz"),
    "nan-field": (ModelSpec(n=2, couplings=((0, 1, 1.0, 0.3, 0.2),), fields=(0.1, NAN),
                            noise=Dephasing((1.0, 0.5))), "fields[1]"),
    "nan-gamma": (ModelSpec(n=2, fields=(0.1, 0.2), noise=Dephasing((1.0, NAN))),
                  "noise.gammas[1]"),
    "inf-gamma-imag": (ModelSpec(n=1, fields=(0.1,), noise=Dephasing((complex(0.5, INF),))),
                       "noise.gammas[0]"),
    "nan-injection-a": (ModelSpec(n=1, noise=Injection((complex(NAN, 0.0),), (0.5,))),
                        "noise.a[0]"),
    "inf-injection-b": (ModelSpec(n=1, noise=Injection((0.5,), (-INF,))), "noise.b[0]"),
    "inf-scale": (ModelSpec(n=1, fields=(0.1,), noise=Dephasing((0.5,)), scale=INF), "scale"),
    "nan-scale": (ModelSpec(n=1, fields=(0.1,), noise=Dephasing((0.5,)), scale=NAN), "scale"),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("spec, field", NONFINITE_SPECS.values(), ids=NONFINITE_SPECS.keys())
    def test_spec_rejected(self, spec, field):
        with pytest.raises(ModelConfigError, match=re.escape(field)):
            build_model(spec)

    @pytest.mark.parametrize("lam", [NAN, INF], ids=["nan", "inf"])
    def test_scale_noise_rejected(self, lam):
        model = build_example1(ModelSpec(n=1, fields=(0.5,), noise=Dephasing((0.2,))))
        with pytest.raises(ModelConfigError, match="noise scale"):
            scale_noise(model, lam)

    @pytest.mark.parametrize("coeff", [NAN, INF, complex(0.0, -INF), complex(NAN, 1.0)],
                             ids=["nan", "inf", "inf-imag", "nan-real"])
    def test_operator_rejected(self, coeff):
        with pytest.raises(ValueError, match="not finite"):
            PauliOperator(1, {"X": coeff})
        with pytest.raises(ValueError, match="not finite"):
            PauliOperator.single("Z", 1, 2, coeff)


def test_boolean_qubit_count_rejected():
    # bool is an int subclass; n=True once validated, built, and failed later
    # in the dense layers with an unrelated format error
    spec = ModelSpec(n=True, fields=(1.0,), noise=Dephasing((0.5,)))
    for bad in (model_builder.validate_spec, build_model):
        with pytest.raises(ModelConfigError, match="n must be a positive integer, got True"):
            bad(spec)


def _doc(n=2, **fields):
    return {"n": n, "noise": {"type": "dephasing", "gammas": [0.2] * n}, **fields}


def _coupling(**entry):
    return {"hamiltonian": {"couplings": [entry]}}


def _parsed(doc):
    return partial(parse_model_config, json.dumps(doc))


# Input errors that no other test raises, each with the field path that its
# message names.
INPUT_ERRORS = {
    "top-level-array": (_parsed([_doc()]), "top level: expected a JSON object"),
    "missing-n": (_parsed({"noise": {"type": "dephasing"}}),
                  "top level: missing required field 'n'"),
    "boolean-n": (_parsed({"n": True}), "n: expected a positive integer, got True"),
    "zero-n": (_parsed({"n": 0}), "n: expected a positive integer, got 0"),
    "hamiltonian-array": (_parsed(_doc(hamiltonian=[])), "hamiltonian: expected an object"),
    "couplings-object": (_parsed(_doc(hamiltonian={"couplings": {}})),
                         "hamiltonian.couplings: expected an array"),
    "coupling-array": (_parsed(_doc(hamiltonian={"couplings": [[0, 1, 1.0]]})),
                       "hamiltonian.couplings[0]: expected an object"),
    "float-site-i": (_parsed(_doc(**_coupling(i=0.0, j=1, jx=1.0))),
                     "hamiltonian.couplings[0].i: expected an integer site index"),
    "string-site-j": (_parsed(_doc(**_coupling(i=0, j="1", jx=1.0))),
                      "hamiltonian.couplings[0].j: expected an integer site index"),
    "string-strength": (_parsed(_doc(**_coupling(i=0, j=1, jx="1"))),
                        "hamiltonian.couplings[0].jx: expected a number, got '1'"),
    "fields-object": (_parsed(_doc(hamiltonian={"fields_x": {"0": 0.5}})),
                      "hamiltonian.fields_x: expected an array"),
    "fields-length": (_parsed(_doc(hamiltonian={"fields_x": [0.5]})),
                      "hamiltonian.fields_x: expected 2 entries, got 1"),
    "coupling-range": (_parsed(_doc(**_coupling(i=1, j=2, jx=1.0))),
                       "couplings[0]: sites (1,2) must satisfy 0 <= j < k < n=2"),
    "noise-string": (_parsed({"n": 1, "noise": "dephasing"}), "noise: expected an object"),
    "string-rate": (_parsed({"n": 1, "noise": {"type": "dephasing", "gammas": ["0.5"]}}),
                    "noise.gammas[0]: expected a real or [re, im] pair"),
    "rate-triple": (_parsed({"n": 1, "noise": {"type": "injection", "a": [[0.1, 0.2, 0.3]]}}),
                    "noise.a[0]: expected a real or [re, im] pair"),
    "rates-number": (_parsed({"n": 1, "noise": {"type": "dephasing", "gammas": 0.5}}),
                     "noise.gammas: expected an array"),
    "negative-scale": (_parsed(_doc(scale=-1.0)), "scale: must be >= 0"),
    "custom-array": (_parsed(_doc(custom=[])), "custom: expected an object"),
    "terms-object": (_parsed(_doc(custom={"h_extra": {"word": "ZI"}})),
                     "custom.h_extra: expected an array of terms"),
    "term-string": (_parsed(_doc(custom={"h_extra": ["ZI"]})),
                    "custom.h_extra[0]: expected an object"),
    "word-number": (_parsed(_doc(custom={"h_extra": [{"word": 3}]})),
                    "custom.h_extra[0].word: expected a string"),
    "lindblads-object": (_parsed(_doc(custom={"lindblads": {}})),
                         "custom.lindblads: expected an array of operators"),
    "spec-zero-n": (partial(build_model, ModelSpec(n=0)), "n must be a positive integer, got 0"),
    "example2-dephasing": (partial(build_example2, ModelSpec(n=1, noise=Dephasing((0.5,)))),
                           "noise: the example-2 build requires injection noise"),
    "example1-injection": (partial(build_example1, ModelSpec(n=1, noise=Injection((0.5,), (0.5,)))),
                           "noise: the example-1 build requires dephasing noise"),
    "custom-channel-sites": (
        partial(build_model, ModelSpec(n=2, noise=Dephasing((0.2, 0.4)), custom=CustomParts(
            lindblads_extra=(PauliOperator.term("Z"),)))),
        "custom.lindblads_extra[0]: operator acts on 1 sites, model has 2"),
    "custom-replaced-channel-sites": (
        partial(build_model, ModelSpec(n=2, noise=Dephasing((0.2, 0.4)), custom=CustomParts(
            lindblads=(PauliOperator.term("ZZ"), PauliOperator.term("Z"))))),
        "custom.lindblads[1]: operator acts on 1 sites, model has 2"),
}


@pytest.mark.parametrize("run, where", INPUT_ERRORS.values(), ids=INPUT_ERRORS.keys())
def test_input_error_names_field(run, where):
    with pytest.raises(ModelConfigError) as exc:
        run()
    assert where in str(exc.value)
