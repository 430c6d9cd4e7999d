"""Exact algebra of complex-weighted n-site Pauli strings.

A Pauli string is a word over the alphabet ``IXYZ``, one letter per site.
A :class:`PauliOperator` is a finite complex combination of such words,
kept canonical by merging equal words and pruning coefficients below
``PRUNE_TOL`` after every arithmetic step.  All operations here are pure
and cost polynomial in the number of stored terms, never in 2^n.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

from .errors import DimensionError

# Absolute coefficient pruning threshold applied after every arithmetic op.
PRUNE_TOL = 1e-14

PAULI_LETTERS = "IXYZ"

PauliString = str

# Single-site products: (a, b) -> (phase, a*b).  Phases are exact fourth
# roots of unity, so repeated products stay exact in floating point.
_MUL1 = {
    ("I", "I"): (1.0 + 0j, "I"),
    ("I", "X"): (1.0 + 0j, "X"),
    ("I", "Y"): (1.0 + 0j, "Y"),
    ("I", "Z"): (1.0 + 0j, "Z"),
    ("X", "I"): (1.0 + 0j, "X"),
    ("X", "X"): (1.0 + 0j, "I"),
    ("X", "Y"): (1j, "Z"),
    ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1.0 + 0j, "Y"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Y"): (1.0 + 0j, "I"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1.0 + 0j, "Z"),
    ("Z", "X"): (1j, "Y"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "Z"): (1.0 + 0j, "I"),
}


def _check_word(word: str, n: int) -> None:
    if len(word) != n:
        raise DimensionError(f"word {word!r} has length {len(word)}, expected {n}")
    for ch in word:
        if ch not in PAULI_LETTERS:
            raise ValueError(f"invalid Pauli letter {ch!r} in word {word!r}")


def string_mul(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Sitewise product of two Pauli words.

    Returns ``(phase, word)`` with ``a @ b = phase * word`` as matrices;
    the phase is always one of 1, i, -1, -i.
    """
    if len(a) != len(b):
        raise DimensionError(
            f"cannot multiply words of lengths {len(a)} and {len(b)}"
        )
    phase = 1.0 + 0j
    letters = []
    for la, lb in zip(a, b):
        p, lc = _MUL1[(la, lb)]
        phase *= p
        letters.append(lc)
    return phase, "".join(letters)


class PauliOperator:
    """Canonical complex combination of equal-length Pauli words.

    Value semantics: instances are never mutated after construction, so they
    are safe to share across threads.  ``terms`` maps each word to its
    complex coefficient; the zero operator has an empty map.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Mapping[str, complex]] = None):
        if not isinstance(n, int) or n < 1:
            raise DimensionError(f"qubit count must be a positive integer, got {n!r}")
        clean: dict[str, complex] = {}
        if terms:
            for word, coeff in terms.items():
                _check_word(word, n)
                c = complex(coeff)
                if abs(c) >= PRUNE_TOL:
                    clean[word] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("PauliOperator is immutable")

    # ---- constructors ----

    @classmethod
    def zero(cls, n: int) -> "PauliOperator":
        return cls(n, {})

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, {"I" * n: 1.0})

    @classmethod
    def term(cls, word: str, coeff: complex = 1.0) -> "PauliOperator":
        """Single-term operator; the qubit count is the word length."""
        return cls(len(word), {word: coeff})

    @classmethod
    def single(cls, letter: str, site: int, n: int, coeff: complex = 1.0) -> "PauliOperator":
        """Single-site Pauli ``letter`` acting on ``site`` of an n-site register."""
        if not 0 <= site < n:
            raise DimensionError(f"site {site} out of range for n={n}")
        word = "I" * site + letter + "I" * (n - site - 1)
        return cls(n, {word: coeff})

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
        if self.n != other.n:
            raise DimensionError(f"cannot add operators on {self.n} and {other.n} sites")
        acc = dict(self.terms)
        for word, coeff in other.terms.items():
            acc[word] = acc.get(word, 0j) + coeff
        return PauliOperator(self.n, acc)

    def __radd__(self, other):
        if other == 0:  # lets sum() start from 0
            return self
        return NotImplemented

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        return self + (-other)

    def __neg__(self) -> "PauliOperator":
        return PauliOperator(self.n, {w: -c for w, c in self.terms.items()})

    def __mul__(self, scalar: complex) -> "PauliOperator":
        return PauliOperator(self.n, {w: c * scalar for w, c in self.terms.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliOperator") -> "PauliOperator":
        if not isinstance(other, PauliOperator):
            return NotImplemented
        if self.n != other.n:
            raise DimensionError(
                f"cannot multiply operators on {self.n} and {other.n} sites"
            )
        acc: dict[str, complex] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                phase, word = string_mul(wa, wb)
                acc[word] = acc.get(word, 0j) + ca * cb * phase
        return PauliOperator(self.n, acc)

    def dagger(self) -> "PauliOperator":
        """Hermitian adjoint: Pauli words are self-adjoint, so conjugate coefficients."""
        return PauliOperator(self.n, {w: c.conjugate() for w, c in self.terms.items()})

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


def commutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    return a @ b - b @ a


def anticommutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    return a @ b + b @ a


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
    return PauliOperator.single("X", site, n, 0.5) + PauliOperator.single("Y", site, n, 0.5j)


def sigma_minus(site: int, n: int) -> PauliOperator:
    """Lowering operator (X - iY)/2 on ``site``."""
    return PauliOperator.single("X", site, n, 0.5) + PauliOperator.single("Y", site, n, -0.5j)
