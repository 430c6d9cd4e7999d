"""Generator in the Pauli-string basis with its shift, its Z2 symmetry sectors, PT residual.

The generator uses the doubled dissipator

    d rho/dt = -i[H, rho] + sum_m (2 L_m rho L_m^dag - {L_m^dag L_m, rho})

so that the shifted generator is exactly L + (sum_m c_m) Id when every
channel satisfies {L_m, L_m^dag} = c_m * identity.  build_liouvillian
returns the generator's maps rho -> c P_a rho P_b together with that shift.

Every spectrum is solved in the normalised Pauli-string basis, where

    R[c, a] = 2^-n Tr(P_c L(P_a))

is real for a Hermitian H.  Basis words are indexed in base 4 with the
letter codes I, X, Y, Z = 0..3 (the ``sorted_terms`` order), first site
most significant.  A map sends word a to the word a XOR m, for one mask m,
times a phase that is the product of its sites' single-letter phases, so
the phases over all words are a Kronecker product of per-site rows.
SuperOp.blocks thus makes each symmetry sector's dense block directly,
and no 4^n x 4^n matrix is formed.  The PT residual forms none at all: the map
is the 2n-site Pauli word P_a (x) P_b^T (Havel, J. Math. Phys. 44, 534
(2003)), so maps compose as Pauli operators and a map's Frobenius norm is
2^n times the 2-norm of its coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .model_builder import Model, require_hermitian
from .pauli_algebra import PAULI_LETTERS, PauliOperator, product_terms, string_mul

_SITE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# _PHASE[l, a, r] is the phase of the single-letter product l a r, in the
# letter codes, whose letter is l ^ a ^ r.
_PHASE = np.array([[[p * string_mul(la, r)[0] for r in PAULI_LETTERS]
                    for p, la in (string_mul(l, a) for a in PAULI_LETTERS)]
                   for l in PAULI_LETTERS])


@dataclass(frozen=True, eq=False)
class SuperOp:
    """A generator of n qubits as the (left, right, coeff) of its maps rho -> coeff left rho right.

    ``shift`` is the identity component of sum_m {L_m, L_m^dag}: sum_m c_m
    whenever every anticommutator is an identity multiple (condition (iii)),
    but defined for violating models too.
    """

    n: int
    terms: list[tuple[str, str, complex]]
    shift: float

    def blocks(self, sectors, shift: float = 0.0) -> list[np.ndarray]:
        """Dense diagonal blocks of R + shift * I, one per array of basis-word indices.

        Each map's phases over all words are formed once and scattered into
        every block; an entry sums the real parts (the maps preserve
        Hermiticity) of its contributions in term order.  A map that takes a
        word out of its sector raises IndexError.
        """
        parts = []
        for idx in sectors:
            local, cols = np.full(4 ** self.n, idx.size), np.arange(idx.size)
            local[idx] = cols
            parts.append((idx, local, cols, np.zeros((idx.size, idx.size))))
        for left, right, coeff in self.terms:
            mask, phases = _map_action(left, right)
            values = (coeff * phases).real
            for idx, local, cols, block in parts:
                block[local[idx ^ mask], cols] += values[idx]
        for *_, block in parts:
            block[np.diag_indices(block.shape[0])] += shift
        return [block for *_, block in parts]

    @property
    def mat(self) -> np.ndarray:
        """The whole 4^n x 4^n R, built on each access as the blocks of one sector."""
        return self.blocks([np.arange(4 ** self.n)])[0]


def pauli_to_dense(op: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n image of a Pauli operator."""
    dim = 2 ** op.n
    out = np.zeros((dim, dim), dtype=complex)
    for word, coeff in op.terms.items():
        out += coeff * reduce(np.kron, (_SITE[ch] for ch in word))
    return out


# ---------------------------------------------------------------------------
# The Pauli-string basis
# ---------------------------------------------------------------------------


def _map_action(left: str, right: str) -> tuple[int, np.ndarray]:
    """Mask m and phases f with left P_a right = f[a] P_(a XOR m), over all 4^n basis words a."""
    sites = [(PAULI_LETTERS.index(l), PAULI_LETTERS.index(r))
             for l, r in zip(left, right, strict=True)]
    mask = int("".join(str(l ^ r) for l, r in sites), 4)
    return mask, reduce(np.multiply.outer, [_PHASE[l, :, r] for l, r in sites]).ravel()


def _generator_terms(model: Model) -> tuple[list[tuple[str, str, complex]], float]:
    """(left, right, coeff) of each map rho -> coeff left rho right of the generator, and its shift.

    The maps are each term of H, each term pair of L_m (in 2 L_m rho L_m^dag)
    and each term of the product L_m^dag L_m.  The shift is twice the summed
    real identity coefficients of the L_m^dag L_m, i.e. Re Tr(sum_m {L_m,
    L_m^dag}) / 2^n.  Raises ModelConfigError when H is not Hermitian.
    """
    require_hermitian(model.hamiltonian, "hamiltonian")
    ident = "I" * model.n
    terms = []
    for word, h in model.hamiltonian.terms.items():
        terms += [(word, ident, -1j * h), (ident, word, 1j * h)]
    shift = 0.0
    for lm in model.lindblads:
        terms += [(s, t, 2 * ls * lt.conjugate())
                  for s, ls in lm.terms.items() for t, lt in lm.terms.items()]
        # unpruned, so that each term cancels its 2 L_m rho L_m^dag partner
        # in the trace row, however small the channel
        ldl = product_terms(lm.dagger(), lm)
        shift += 2 * ldl.get(ident, 0j).real
        for word, coeff in ldl.items():
            terms += [(word, ident, -coeff), (ident, word, -coeff)]
    return terms, shift


def build_liouvillian(model: Model) -> SuperOp:
    """Generator of d rho/dt = -i[H, rho] + sum_m (2 L rho L^dag - {L^dag L, rho}), with its shift.

    Raises ModelConfigError when H is not Hermitian.
    """
    return SuperOp(model.n, *_generator_terms(model))


def _anticommutes(a: str, b: str) -> bool:
    return sum(x != y and "I" != x and "I" != y for x, y in zip(a, b)) % 2 == 1


def z2_symmetry_strings(model: Model) -> tuple[str, ...]:
    """The strings among X^n, Y^n, Z^n that commute with H and send each L_m to +-L_m.

    S qualifies when every term of H commutes with S and, within each
    channel, the terms all commute or all anticommute with S; then
    rho -> S rho S commutes with the generator.
    """
    found = []
    for letter in "XYZ":
        s = letter * model.n
        if any(_anticommutes(word, s) for word in model.hamiltonian.terms):
            continue
        if all(len({_anticommutes(word, s) for word in lm.terms}) == 1 for lm in model.lindblads):
            found.append(s)
    return tuple(found)


def symmetry_sectors(model: Model) -> list[np.ndarray]:
    """Basis-word indices of each diagonal block of build_liouvillian's generator.

    A word's sector label is its commutation bits with the strings of
    z2_symmetry_strings; with no such string there is one block.
    """
    label = np.zeros(4 ** model.n, dtype=int)
    for bit, s in enumerate(z2_symmetry_strings(model)):
        _, phases = _map_action(s, "I" * model.n)
        label |= (phases.imag != 0) << bit  # an imaginary phase: the word anticommutes with s
    return [np.flatnonzero(label == value) for value in np.unique(label)]


def _superoperator(n: int, terms) -> PauliOperator:
    """The maps rho -> c left rho right, summed, as 2n-site words left (x) right^T; Y^T = -Y."""
    acc = {}
    for left, right, coeff in terms:
        acc[left + right] = acc.get(left + right, 0j) + (-coeff if right.count("Y") % 2 else coeff)
    return PauliOperator._canonical(2 * n, acc)


def _norm(coeffs) -> float:
    # sums of products, which overflow to inf where ** and math.fsum raise
    return math.sqrt(sum(c.real * c.real + c.imag * c.imag for c in coeffs))


def pt_residual(model: Model) -> float:
    """Frobenius defect of the anti-symmetry relation L' P = -P L'^dag, normalized.

    ||L'P + P L'^dag||_F / max(1, ||L'||_F) in the Pauli algebra of 2n sites
    (module docstring), at a cost independent of 2^n.  L' is the generator
    plus its shift times the identity, defined for models violating the
    channel-constant condition too; P is rho -> U rho W.  The defect's two
    products are unpruned.
    """
    terms, shift = _generator_terms(model)
    ident = "I" * model.n
    shifted = _superoperator(model.n, [*terms, (ident, ident, shift)])
    parity = _superoperator(model.n, [(u, w, cu * cw) for u, cu in model.u.terms.items()
                                      for w, cw in model.w.terms.items()])
    defect = product_terms(shifted, parity)
    for word, coeff in product_terms(parity, shifted.dagger()).items():
        defect[word] = defect.get(word, 0j) + coeff
    # 2^n a / max(1, 2^n b), exactly; 2^-n is 0 past n = 1074, where an L' of 0 needs the 1.0
    denominator = max(math.ldexp(1.0, -model.n), _norm(shifted.terms.values())) or 1.0
    return _norm(defect.values()) / denominator
