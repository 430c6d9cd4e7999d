import json
import re
from functools import partial

import numpy as np
import pytest

from ptliouville import (
    PRUNE_TOL,
    DimensionError,
    PauliOperator,
    anticommutator,
    as_identity_multiple,
    build_model,
    commutator,
    sigma_minus,
    sigma_plus,
    string_mul,
)
from ptliouville.model_builder import parse_model_config
from ptliouville.pauli_algebra import _encode, _in_word_order, product_terms

from _corpus import random_example1_spec, random_example2_spec
from _oracles import (
    dense_operator,
    reference_difference,
    reference_product,
    reference_string_mul,
    reference_sum,
)


def random_operator(rng, n, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        word = "".join(rng.choice(list("IXYZ"), size=n))
        terms[word] = complex(rng.normal(), rng.normal())
    return PauliOperator(n, terms)


class TestStringMul:
    def test_single_site_table(self):
        assert string_mul("X", "Y") == (1j, "Z")
        assert string_mul("Y", "X") == (-1j, "Z")
        assert string_mul("Z", "Z") == (1.0, "I")
        assert string_mul("I", "Y") == (1.0, "Y")

    def test_sitewise_product_multiplies_phases(self):
        assert string_mul("XZ", "YI") == (1j, "ZZ")

    def test_involution(self):
        assert string_mul("YY", "YY") == (1.0, "II")

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            string_mul("XY", "X")

    @pytest.mark.parametrize("bad", ["1", "a", " ", "_", "x"])
    def test_invalid_letter_names_word(self, bad):
        # the word codes parse as hex, which would read these as digits or skip them
        word = "X" + bad + "Z"
        for a, b in ((word, "IXY"), ("IXY", word)):
            with pytest.raises(ValueError, match=re.escape(repr(word))):
                string_mul(a, b)

    def test_matches_reference(self):
        rng = np.random.default_rng(19)
        for n in list(range(1, 9)) + [16, 31, 32, 33, 64, 70]:
            for _ in range(20):
                a = "".join(rng.choice(list("IXYZ"), size=n))
                b = "".join(rng.choice(list("IXYZ"), size=n))
                assert string_mul(a, b) == reference_string_mul(a, b)

    def test_phase_closure(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a = "".join(rng.choice(list("IXYZ"), size=n))
            b = "".join(rng.choice(list("IXYZ"), size=n))
            phase, word = string_mul(a, b)
            assert phase in (1, 1j, -1, -1j)
            assert len(word) == n


class TestOperatorArithmetic:
    def test_raising_times_lowering_is_projector(self):
        prod = sigma_plus(0, 1) @ sigma_minus(0, 1)
        assert prod == PauliOperator(1, {"I": 0.5, "Z": 0.5})

    def test_dephasing_square(self):
        g = 0.37
        lz = PauliOperator.single("Z", 0, 1, g)
        assert lz @ lz == PauliOperator(1, {"I": g * g})

    def test_zero_absorbs(self):
        rng = np.random.default_rng(3)
        a = random_operator(rng, 2)
        assert PauliOperator.zero(2) @ a == PauliOperator.zero(2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            PauliOperator.identity(1) @ PauliOperator.identity(2)

    def test_product_matches_dense(self):
        # bilinear extension of the string table agrees with matrix products
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            for _ in range(10):
                a = random_operator(rng, n)
                b = random_operator(rng, n)
                got = dense_operator(a @ b)
                want = dense_operator(a) @ dense_operator(b)
                assert np.max(np.abs(got - want)) < 1e-12


class TestCommutators:
    def test_z_x(self):
        z = PauliOperator.term("Z")
        x = PauliOperator.term("X")
        assert commutator(z, x) == PauliOperator(1, {"Y": 2j})

    def test_family1_parity_commutes(self):
        rng = np.random.default_rng(5)
        n = 3
        h = PauliOperator.zero(n)
        for j in range(n):
            for k in range(j + 1, n):
                for letter in "XYZ":
                    h = h + (
                        PauliOperator.single(letter, j, n)
                        @ PauliOperator.single(letter, k, n)
                    ) * rng.normal()
            h = h + PauliOperator.single("X", j, n, rng.normal())
        u = PauliOperator.term("X" * n)
        assert commutator(h, u) == PauliOperator.zero(n)

    def test_raising_lowering_anticommutator(self):
        assert anticommutator(sigma_plus(0, 1), sigma_minus(0, 1)) == PauliOperator.identity(1)

    def test_antisymmetry_and_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = random_operator(rng, 2)
            b = random_operator(rng, 2)
            assert commutator(a, b) == -commutator(b, a)
            assert anticommutator(a, b) == anticommutator(b, a)


class TestDagger:
    def test_phase_conjugated(self):
        assert PauliOperator.term("Z", 1j).dagger() == PauliOperator.term("Z", -1j)

    def test_raising_to_lowering(self):
        a = 0.3 - 0.8j
        assert (sigma_plus(0, 1) * a).dagger() == sigma_minus(0, 1) * a.conjugate()

    def test_hermitian_hamiltonian_fixed(self):
        h = PauliOperator(2, {"XX": 1.0, "YY": 1.0, "ZZ": 0.5, "XI": 0.3, "IX": 0.7})
        assert h.dagger() == h

    def test_involution_and_antimultiplicative(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = random_operator(rng, 2)
            b = random_operator(rng, 2)
            assert a.dagger().dagger() == a
            # accumulation order differs between the two sides, so compare
            # coefficients up to rounding rather than exactly
            defect = (a @ b).dagger() - b.dagger() @ a.dagger()
            assert defect.max_norm() < 1e-12


class TestIdentityMultiple:
    def test_dephasing_anticommutator(self):
        g = 0.2
        lz = PauliOperator.single("Z", 0, 1, g)
        value = as_identity_multiple(anticommutator(lz, lz.dagger()))
        assert value == pytest.approx(2 * g * g)

    def test_non_identity(self):
        assert as_identity_multiple(PauliOperator.term("Z")) is None

    def test_raising_channel(self):
        value = as_identity_multiple(anticommutator(sigma_plus(0, 1), sigma_minus(0, 1)))
        assert value == pytest.approx(1.0)

    def test_zero_operator(self):
        assert as_identity_multiple(PauliOperator.zero(2)) == 0


def test_pruning_keeps_canonical_form():
    tiny = PauliOperator(1, {"X": 1e-15})
    assert tiny == PauliOperator.zero(1)
    diff = PauliOperator.term("X") - PauliOperator.term("X")
    assert not diff.terms


def test_product_terms_skip_only_the_pruning():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        a, b = random_operator(rng, n), random_operator(rng, n)
        assert hex_terms(product_terms(a, b)) == hex_terms((a @ b).terms)
    # (1e-8 X - 2e-8i Z)(1e-8 X + 2e-8i Z) = 5e-16 I + 4e-16 Y, all below PRUNE_TOL
    small = PauliOperator(1, {"X": 1e-8, "Z": 2e-8j})
    assert (small.dagger() @ small) == PauliOperator.zero(1)
    terms = product_terms(small.dagger(), small)
    assert set(terms) == {"I", "Y"}
    assert terms["I"] == pytest.approx(5e-16, rel=1e-12)
    assert terms["Y"] == pytest.approx(4e-16, rel=1e-12)
    # an exact cancellation is dropped: (X + Z)(X - Z) = (1 - 1) I + 2i Y
    assert product_terms(PauliOperator(1, {"X": 1.0, "Z": 1.0}),
                         PauliOperator(1, {"X": 1.0, "Z": -1.0})) == {"Y": 2j}


def test_canonical_term_order():
    op = PauliOperator(1, {"Z": 1.0, "I": 2.0, "X": 3.0, "Y": 4.0})
    assert [w for w, _ in op.sorted_terms()] == ["I", "X", "Y", "Z"]


def hex_terms(terms):
    """Words in key order with the exact bits of both coefficient parts."""
    return [(w, c.real.hex(), c.imag.hex()) for w, c in terms.items()]


class TestReferenceProducts:
    """Bitwise agreement, key order included, with the per-letter reference products."""

    @staticmethod
    def assert_pinned(a, b):
        x, y = a.terms, b.terms
        ab, ba = reference_product(x, y, PRUNE_TOL), reference_product(y, x, PRUNE_TOL)
        pinned = (
            (a @ b, ab),
            (b @ a, ba),
            (commutator(a, b), reference_difference(ab, ba, PRUNE_TOL)),
            (anticommutator(a, b), reference_sum(ab, ba, PRUNE_TOL)),
            (a - b, reference_difference(x, y, PRUNE_TOL)),
        )
        for got, want in pinned:
            assert hex_terms(got.terms) == hex_terms(want)

    def test_random_colliding_operators(self):
        # words drawn from a small pool collide in the products; magnitudes
        # from 1e-8 to 1 put many product terms near PRUNE_TOL
        rng = np.random.default_rng(23)

        def operator(n, pool):
            terms = {}
            for _ in range(int(rng.integers(0, 9))):
                word = pool[int(rng.integers(len(pool)))]
                value = complex(rng.normal(), rng.normal()) * 10.0 ** rng.uniform(-8, 0)
                terms[word] = (value, value.real, 1j * value.imag)[int(rng.integers(3))]
            return PauliOperator(n, terms)

        for n in range(1, 7):
            for _ in range(60):
                pool = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(4)]
                self.assert_pinned(operator(n, pool), operator(n, pool))

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("make", [random_example1_spec, random_example2_spec],
                             ids=["family1", "family2"])
    def test_family_models(self, make, n):
        model = build_model(make(np.random.default_rng(n), n))
        h, u, w = model.hamiltonian, model.u, model.w
        for a, b in ((h, u), (h, w), (u, u.dagger()), (w, w)):
            self.assert_pinned(a, b)
        for lm in model.lindblads[:4]:
            self.assert_pinned(lm, lm.dagger())
            self.assert_pinned(u @ lm, u)


class TestOneTermProducts:
    """A one-term factor maps words one to one; the products must equal the references bit for bit."""

    # coefficients of the one-term factor, signed zeros among their parts; each
    # is below 1, so that the other factor's near-cut coefficients are not pruned
    SINGLES = (0.5, -0.5, 0.5j, complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.0, -0.0) + 0.25,
               0.3 - 0.4j, 1e-7, -2e-7j)

    def test_products_near_the_pruning_cut(self):
        # the other factor's coefficients put each product within 1e-9 (relative)
        # of PRUNE_TOL, on both sides, or near 1
        rng = np.random.default_rng(29)
        kept = pruned = 0
        for n in range(1, 5):
            for single in self.SINGLES * 3:
                words = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(6)]
                a = PauliOperator(n, {words[0]: single})
                terms = {}
                for word in words:
                    scale = rng.choice([PRUNE_TOL / abs(single), 1.0])
                    value = scale * (1 + rng.choice([-1e-9, 1e-9])) * rng.choice([1, -1, 1j, -1j])
                    terms[word] = (value, complex(-0.0, value.imag), complex(value.real, -0.0),
                                   -value)[int(rng.integers(4))]
                b = PauliOperator(n, terms)
                TestReferenceProducts.assert_pinned(a, b)
                TestReferenceProducts.assert_pinned(b, a)
                near = [abs(c) for c in reference_product(a.terms, b.terms, 0.0).values()
                        if abs(c) < 2 * PRUNE_TOL]
                kept += sum(c >= PRUNE_TOL for c in near)
                pruned += sum(c < PRUNE_TOL for c in near)
        assert kept > 40 and pruned > 40

    def test_dephasing_channels(self):
        model = build_model(random_example1_spec(np.random.default_rng(3), 5))
        for lm in model.lindblads:
            assert len(lm.terms) == 1
            for other in (lm.dagger(), model.u, model.hamiltonian):
                TestReferenceProducts.assert_pinned(lm, other)
                TestReferenceProducts.assert_pinned(other, lm)


def hex_codes(codes):
    return [(code, shifted, y, v.real.hex(), v.imag.hex()) for code, shifted, y, v in codes]


class TestMemoizedCodes:
    """The codes an operator keeps equal a fresh encoding of its terms."""

    @staticmethod
    def assert_fresh(op):
        assert hex_codes(op._encoded()) == hex_codes(_encode(op.terms.items()))

    def test_arithmetic_results_carry_their_codes(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3, 6):
            for n_terms in (0, 1, 1, 3, 5):
                a, b = random_operator(rng, n, n_terms), random_operator(rng, n, 4)
                results = (a @ b, b @ a, a + b, a - b, b - a, -a, a * (0.5 - 2j), a * 1e-14,
                           a.dagger(), commutator(a, b), anticommutator(b, a))
                for op in results:
                    assert op._codes is not None
                    self.assert_fresh(op)

    def test_built_and_parsed_operators(self):
        for make in (random_example1_spec, random_example2_spec):
            model = build_model(make(np.random.default_rng(37), 4))
            for op in (model.hamiltonian, model.u, model.w, *model.lindblads):
                self.assert_fresh(op)
        doc = {"n": 2, "custom": {
            "h": [{"word": "XX", "coeff": 0.5}, {"word": "ZY", "coeff": -1.0}],
            "lindblads": [[{"word": "XI", "coeff": [0.1, 0.2]}, {"word": "YI", "coeff": [0.0, -0.3]}]],
            "u": [{"word": "XX", "coeff": 1.0}], "w": [{"word": "II", "coeff": 1.0}]}}
        parts = parse_model_config(json.dumps(doc)).custom
        for op in (parts.h, *parts.lindblads, parts.u, parts.w):
            assert op._codes is None  # encoded on first use
            self.assert_fresh(op)
            assert op._codes is not None


def test_codes_sort_in_word_order():
    # condition (ii) orders its least-squares rows by word; codes order Z before Y
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 8, 33):
        words = {"".join(rng.choice(list("IXYZ"), size=n)) for _ in range(40)}
        by_code = {code: word for word, (code, *_) in zip(words, _encode((w, 1) for w in words))}
        assert [by_code[c] for c in _in_word_order(by_code, n)] == sorted(words)


# Qubit counts and sites that no other test rejects, each with the text its
# DimensionError names.
DIMENSION_ERRORS = {
    "zero-qubits": (partial(PauliOperator, 0), "qubit count must be a positive integer, got 0"),
    "float-qubits": (partial(PauliOperator.identity, 2.0),
                     "qubit count must be a positive integer, got 2.0"),
    "boolean-qubits": (partial(PauliOperator, True, {"X": 1.0}),
                       "qubit count must be a positive integer, got True"),
    "boolean-identity": (partial(PauliOperator.identity, True),
                         "qubit count must be a positive integer, got True"),
    "single-site": (partial(PauliOperator.single, "X", 2, 2), "site 2 out of range for n=2"),
    "raising-site": (partial(sigma_plus, -1, 3), "site -1 out of range for n=3"),
}


@pytest.mark.parametrize("run, where", DIMENSION_ERRORS.values(), ids=DIMENSION_ERRORS.keys())
def test_dimension_error_names_count_or_site(run, where):
    with pytest.raises(DimensionError) as exc:
        run()
    assert where in str(exc.value)
