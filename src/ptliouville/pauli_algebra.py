"""Exact algebra of complex-weighted n-site Pauli strings.

A Pauli string is a word over the alphabet ``IXYZ``, one letter per site.
A :class:`PauliOperator` is a finite complex combination of such words,
kept canonical by merging equal words and pruning coefficients below
``PRUNE_TOL`` after every arithmetic step.  All operations here are pure
and cost polynomial in the number of stored terms, never in 2^n.

User input enters through ``PauliOperator(n, terms)`` (and ``term``,
``single``), which checks every word and rejects non-finite coefficients.
``PauliOperator._canonical`` only converts and prunes: it takes arithmetic
results, whose words are ``string_mul`` products of valid words, and words
the builders spell themselves.  Checking those again made a T-term sum O(T^2 n).

Products are computed on integer word codes (Aaronson & Gottesman, PRA 70,
052328 (2004)).  A word's code has one hex digit per site, first site most
significant, with I, X, Z, Y = 0, 1, 2, 3: bit 0 of a digit is the X part
and bit 1 the Z part, and Y = iXZ.  The product of codes a and b is the
word a ^ b with phase

    i^(|xa & za| + |xb & zb| + 2 |za & xb| - |xc & zc|),

each |.| a popcount.  A digit never has bits 2 and 3 set, so
``code & (code >> 1)`` holds exactly the Y sites and ``(a >> 1) & b`` the
sites where a has a Z part and b an X part, with no masks.  The phase
exponent is odd exactly when the two words anticommute.

An operator's codes are encoded once, on first use, and kept with it; every
arithmetic result (``@``, ``+``, ``-``, commutators, ``dagger()``, scalar
multiples) is built together with its codes, so no result is encoded again.
A product with a one-term factor (a parity string, a dephasing channel)
maps words one to one, a signed relabel, so each code has exactly one pair;
a commutator with such a factor skips the pairs that cancel.  Only the words
that survive pruning are decoded; the ``str`` word stays the key of
``PauliOperator.terms``.  Condition (ii) reads its conjugations ``p @ a @ p``
straight from the codes (``_conjugation``), in word order, and decodes nothing.
"""

from __future__ import annotations

import cmath
from typing import Iterable, Iterator, Mapping, Optional

from .errors import DimensionError

# Absolute coefficient pruning threshold applied after every arithmetic op.
PRUNE_TOL = 1e-14

PAULI_LETTERS = "IXYZ"

PauliString = str

# Word codes: one hex digit per site (see the module docstring).  Base 16
# is a power of two, so CPython's digit limit on int/str conversion never
# applies, at any word length.
_ENCODE = str.maketrans("IXZY", "0123")
_DECODE = str.maketrans("0123", "IXZY")

# i^k for k = 0..3: exact fourth roots of unity, so products stay exact.
_PHASES = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))


def _check_qubits(n) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DimensionError(f"qubit count must be a positive integer, got {n!r}")


def _word(n: int, letter: str, *sites: int) -> str:
    """The n-site word with ``letter`` on ``sites`` and I elsewhere."""
    letters = ["I"] * n
    for site in sites:
        if not 0 <= site < n:
            raise DimensionError(f"site {site} out of range for n={n}")
        letters[site] = letter
    return "".join(letters)


def _check_letters(word: str) -> None:
    # the word codes parse as hex, where digits, whitespace and "_" would pass
    if word.strip(PAULI_LETTERS):
        bad = next(ch for ch in word if ch not in PAULI_LETTERS)
        raise ValueError(f"invalid Pauli letter {bad!r} in word {word!r}")


def _check_word(word: str, n: int) -> None:
    if len(word) != n:
        raise DimensionError(f"word {word!r} has length {len(word)}, expected {n}")
    _check_letters(word)


def _entry(code: int, value: complex) -> tuple[int, int, int, complex]:
    """(code, code >> 1, Y count, value): the form every product reads a term in."""
    shifted = code >> 1
    return code, shifted, (code & shifted).bit_count(), value


def _encode(terms: Iterable[tuple[str, complex]]) -> list[tuple[int, int, int, complex]]:
    """The ``_entry`` of each (word, coefficient) term, in order."""
    return [_entry(int(word.translate(_ENCODE), 16), coeff) for word, coeff in terms]


def _pair_products(a: list, b: list) -> list[tuple[int, complex, int]]:
    """(code, value, phase exponent) of the product of each term pair of a and b, a-major.

    ``a`` and ``b`` are ``_entry`` lists; a_i @ b_j = value * word(code).
    The exponent is odd exactly when the two words anticommute.
    """
    out = []
    append = out.append
    for ca, sa, ya, va in a:
        for cb, _, yb, vb in b:
            c = ca ^ cb
            k = (ya + yb + 2 * (sa & cb).bit_count() - (c & (c >> 1)).bit_count()) & 3
            append((c, va * vb * _PHASES[k], k))
    return out


def _summed(pairs) -> dict[int, complex]:
    """Values summed per code from 0j, in order of first appearance."""
    acc: dict[int, complex] = {}
    for code, value, _ in pairs:
        acc[code] = acc.get(code, 0j) + value
    return acc


def _pruned(acc: dict) -> dict:
    return {key: value for key, value in acc.items() if abs(value) >= PRUNE_TOL}


def _entries(acc: dict[int, complex]) -> list[tuple[int, int, int, complex]]:
    """The ``_entry`` of each code-keyed sum that survives pruning."""
    return [_entry(code, value) for code, value in acc.items() if abs(value) >= PRUNE_TOL]


def _merged(a: dict, b: dict, subtract: bool) -> dict:
    """a + b or a - b, term by term: a's keys in order, then b's new ones."""
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0j) - value if subtract else out.get(key, 0j) + value
    return out


def _code_terms(op: "PauliOperator") -> dict[int, complex]:
    """The terms of ``op`` keyed by word code, in term order."""
    return {code: value for code, _, _, value in op._encoded()}


def _conjugation(p: "PauliOperator", a: "PauliOperator") -> dict[int, complex]:
    """The code-keyed terms of ``p @ a @ p``, pruned after each product as ``@`` prunes.

    Condition (ii) reads its least-squares columns from these; no word is decoded.
    """
    inner = _entries(_summed(_pair_products(p._encoded(), a._encoded())))
    return _pruned(_summed(_pair_products(inner, p._encoded())))


def _in_word_order(codes: Iterable[int], n: int) -> list[int]:
    """Codes sorted as ``sorted_terms`` sorts their words (I < X < Y < Z).

    Z and Y are 2 and 3 as digits, so a digit's Z bit flips its X bit in the key.
    """
    x_bits = (16 ** n - 1) // 15  # bit 0 of every digit
    return sorted(codes, key=lambda code: code ^ ((code >> 1) & x_bits))


def _decoder(n: int):
    spec = f"0{n}x"
    return lambda code: format(code, spec).translate(_DECODE)


def product_terms(a: "PauliOperator", b: "PauliOperator") -> dict[str, complex]:
    """``(a @ b).terms`` before the ``PRUNE_TOL`` cut: only exact zeros are dropped.

    For callers whose exact cancellations need the tiny terms as well.
    """
    _same_sites(a, b, "multiply")
    word = _decoder(a.n)
    sums = _summed(_pair_products(a._encoded(), b._encoded()))
    return {word(code): value for code, value in sums.items() if value}


def string_mul(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Sitewise product of two Pauli words.

    Returns ``(phase, word)`` with ``a @ b = phase * word`` as matrices;
    the phase is always one of 1, i, -1, -i.  Raises ``DimensionError`` for
    words of different lengths and ``ValueError`` for a letter outside IXYZ.
    """
    if len(a) != len(b):
        raise DimensionError(
            f"cannot multiply words of lengths {len(a)} and {len(b)}"
        )
    for word in (a, b):
        _check_letters(word)
    if not a:
        return _PHASES[0], ""
    [(code, _, k)] = _pair_products(_encode([(a, 1)]), _encode([(b, 1)]))
    return _PHASES[k], _decoder(len(a))(code)


class PauliOperator:
    """Canonical complex combination of equal-length Pauli words.

    Value semantics: instances are never mutated after construction, so they
    are safe to share across threads.  ``terms`` maps each word to its
    complex coefficient; the zero operator has an empty map.  The word codes
    of the terms are kept as well, computed on first use (``_encoded``); two
    threads that race there both store equal lists.
    """

    __slots__ = ("n", "terms", "_codes")

    def __init__(self, n: int, terms: Optional[Mapping[str, complex]] = None):
        _check_qubits(n)
        terms = terms or {}
        for word, coeff in terms.items():
            _check_word(word, n)
            if not cmath.isfinite(complex(coeff)):
                raise ValueError(f"coefficient of {word!r} is not finite: {coeff!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", self._canonical(n, terms).terms)
        object.__setattr__(self, "_codes", None)

    @classmethod
    def _canonical(cls, n: int, terms: Mapping[str, complex]) -> "PauliOperator":
        """Unchecked constructor for words known valid on n sites: convert and prune only."""
        clean = {}
        for word, coeff in terms.items():
            c = complex(coeff)
            if abs(c) >= PRUNE_TOL:
                clean[word] = c
        return cls._made(n, clean, None)

    @classmethod
    def _made(cls, n: int, terms: dict, codes: Optional[list]) -> "PauliOperator":
        """The operator of canonical terms with their ``_entry`` list, or None to encode later."""
        op = object.__new__(cls)
        object.__setattr__(op, "n", n)
        object.__setattr__(op, "terms", terms)
        object.__setattr__(op, "_codes", codes)
        return op

    @classmethod
    def _from_sums(cls, n: int, acc: dict[int, complex]) -> "PauliOperator":
        """The operator of code-keyed sums; only the words that survive pruning are decoded."""
        codes = _entries(acc)
        word = _decoder(n)
        return cls._made(n, {word(code): value for code, _, _, value in codes}, codes)

    def _encoded(self) -> list[tuple[int, int, int, complex]]:
        """The ``_entry`` of each term, in term order: encoded once, then kept."""
        if self._codes is None:
            object.__setattr__(self, "_codes", _encode(self.terms.items()))
        return self._codes

    def _mapped(self, f) -> "PauliOperator":
        """Each coefficient c replaced by complex(f(c)), then pruned; words and codes are kept."""
        terms, codes = {}, []
        for word, (code, shifted, y, coeff) in zip(self.terms, self._encoded()):
            value = complex(f(coeff))
            if abs(value) >= PRUNE_TOL:
                terms[word] = value
                codes.append((code, shifted, y, value))
        return PauliOperator._made(self.n, terms, codes)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("PauliOperator is immutable")

    # ---- constructors ----

    @classmethod
    def zero(cls, n: int) -> "PauliOperator":
        return cls(n, {})

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        _check_qubits(n)
        return cls._canonical(n, {"I" * n: 1.0})

    @classmethod
    def term(cls, word: str, coeff: complex = 1.0) -> "PauliOperator":
        """Single-term operator; the qubit count is the word length."""
        return cls(len(word), {word: coeff})

    @classmethod
    def single(cls, letter: str, site: int, n: int, coeff: complex = 1.0) -> "PauliOperator":
        """Single-site Pauli ``letter`` acting on ``site`` of an n-site register."""
        return cls(n, {_word(n, letter, site): coeff})

    # ---- canonical views ----

    def sorted_terms(self) -> Iterator[tuple[str, complex]]:
        """Terms in canonical order (lexicographic over I<X<Y<Z)."""
        return iter(sorted(self.terms.items()))

    def max_norm(self) -> float:
        """Largest coefficient magnitude (0 for the zero operator)."""
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # ---- linear structure ----

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        if not isinstance(other, PauliOperator):
            return NotImplemented
        _same_sites(self, other, "add")
        return PauliOperator._from_sums(self.n, _merged(_code_terms(self), _code_terms(other), False))

    def __radd__(self, other):
        if other == 0:  # lets sum() start from 0
            return self
        return NotImplemented

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        # x - c is bitwise x + (-c) in IEEE arithmetic, so no negated copy is built
        if not isinstance(other, PauliOperator):
            return NotImplemented
        _same_sites(self, other, "add")
        return PauliOperator._from_sums(self.n, _merged(_code_terms(self), _code_terms(other), True))

    def __neg__(self) -> "PauliOperator":
        return self._mapped(lambda c: -c)

    def __mul__(self, scalar: complex) -> "PauliOperator":
        return self._mapped(lambda c: c * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliOperator") -> "PauliOperator":
        if not isinstance(other, PauliOperator):
            return NotImplemented
        _same_sites(self, other, "multiply")
        return PauliOperator._from_sums(self.n, _summed(_pair_products(self._encoded(), other._encoded())))

    def dagger(self) -> "PauliOperator":
        """Hermitian adjoint: Pauli words are self-adjoint, so conjugate coefficients."""
        return self._mapped(complex.conjugate)

    # ---- comparison / display ----

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return f"PauliOperator(n={self.n}, 0)"
        parts = [f"({c:.6g})*{w}" for w, c in self.sorted_terms()]
        return f"PauliOperator(n={self.n}, {' + '.join(parts)})"


def _same_sites(a: PauliOperator, b: PauliOperator, verb: str) -> None:
    if a.n != b.n:
        raise DimensionError(f"cannot {verb} operators on {a.n} and {b.n} sites")


def _two_sided(a: PauliOperator, b: PauliOperator, anti: bool) -> PauliOperator:
    """a @ b - b @ a, or a @ b + b @ a when ``anti``, from one pass over the term pairs.

    A pair's b @ a term has the a @ b word, and its value is negated when the
    words anticommute.  Each product is summed in its own pair order (a-major,
    b-major) and pruned, and the two are then combined as __sub__ / __add__
    combine them, so the coefficients and key order are bitwise those of
    ``a @ b - b @ a`` (or ``+``) evaluated step by step.

    With a one-term factor (``[H, U]`` for the families' parity strings) each
    pair has its own code in one order for both products, and its two values
    share a magnitude, so they are pruned together: the pairs that cancel
    are skipped and the others combined directly, with the same sums 0j + v.
    """
    for op in (a, b):
        if not isinstance(op, PauliOperator):
            raise TypeError(f"expected a PauliOperator, got {type(op).__name__}")
    _same_sites(a, b, "multiply")
    pairs = _pair_products(a._encoded(), b._encoded())
    if len(a.terms) == 1 or len(b.terms) == 1:
        out = {}
        for code, value, k in pairs:
            # a commuting pair cancels in a commutator, an anticommuting one in
            # an anticommutator, to 0 or nan, which pruning drops
            if k & 1 != anti:
                ab, ba = 0j + value, 0j + (-value if k & 1 else value)
                if abs(ab) >= PRUNE_TOL:
                    out[code] = ab + ba if anti else ab - ba
        return PauliOperator._from_sums(a.n, out)
    nb = len(b.terms)
    ba = [(c, -v if k & 1 else v, k) for j in range(nb) for c, v, k in pairs[j::nb]]
    sums = _merged(_pruned(_summed(pairs)), _pruned(_summed(ba)), not anti)
    return PauliOperator._from_sums(a.n, sums)


def commutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    return _two_sided(a, b, anti=False)


def anticommutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    return _two_sided(a, b, anti=True)


def as_identity_multiple(a: PauliOperator) -> Optional[complex]:
    """Return c when ``a == c * identity`` exactly (after pruning), else None.

    The zero operator counts as 0 times the identity.
    """
    if not a.terms:
        return 0j
    ident = "I" * a.n
    if set(a.terms) == {ident}:
        return a.terms[ident]
    return None


def sigma_plus(site: int, n: int) -> PauliOperator:
    """Raising operator (X + iY)/2 on ``site``."""
    return PauliOperator._canonical(n, {_word(n, "X", site): 0.5, _word(n, "Y", site): 0.5j})


def sigma_minus(site: int, n: int) -> PauliOperator:
    """Lowering operator (X - iY)/2 on ``site``."""
    y = _word(n, "Y", site)  # complex(0, -0.5), not -0.5j: the sum X/2 - iY/2 has real part +0.0
    return PauliOperator._canonical(n, {_word(n, "X", site): 0.5, y: complex(0, -0.5)})
