"""Generator in the Pauli-string basis with its shift, its Z2 symmetry sectors, PT residual.

The generator uses the doubled dissipator

    d rho/dt = -i[H, rho] + sum_m (2 L_m rho L_m^dag - {L_m^dag L_m, rho})

so that the shifted generator is exactly L + (sum_m c_m) Id when every
channel satisfies {L_m, L_m^dag} = c_m * identity.  build_liouvillian
returns the generator together with that shift.

Every spectrum is solved in the normalised Pauli-string basis, where

    R[c, a] = 2^-n Tr(P_c L(P_a))

is real for a Hermitian H.  Basis words are indexed in base 4 with the
letter codes I, X, Y, Z = 0..3 (the ``sorted_terms`` order), first site
most significant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .model_builder import Model, require_hermitian
from .pauli_algebra import PAULI_LETTERS, PauliOperator, string_mul

_SITE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Single-site products in letter codes: the letter of a*b is the XOR of the
# two codes, and _PHASE_EXP[a, b] is the k with a*b = i^k (a XOR b).  An odd
# k marks anticommuting letters, so a word's summed k is odd exactly when
# the two words anticommute.
_I_POWERS = np.array([1, 1j, -1, -1j])
_PHASE_EXP = np.array(
    [[{1: 0, 1j: 1, -1: 2, -1j: 3}[string_mul(a, b)[0]] for b in PAULI_LETTERS]
     for a in PAULI_LETTERS]
)

# Rows of the PT-residual defect formed at a time: bounds its complex
# temporaries to about this many entries.
_RESIDUAL_CHUNK = 2 ** 17


@dataclass(frozen=True, eq=False)
class SuperOp:
    """Dense 4^n x 4^n generator matrix in the normalised Pauli-string basis, and its shift.

    ``shift`` is the identity component of sum_m {L_m, L_m^dag}: sum_m c_m
    whenever every anticommutator is an identity multiple (condition (iii)),
    but defined for violating models too, whose PT residual needs it.
    """

    mat: np.ndarray
    shift: float


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


def _codes(word: str) -> np.ndarray:
    return np.array([PAULI_LETTERS.index(ch) for ch in word])


def _basis_codes(n: int) -> np.ndarray:
    """Letter codes of all 4^n basis words, one row per word."""
    shifts = 2 * np.arange(n - 1, -1, -1)
    return (np.arange(4 ** n)[:, None] >> shifts) & 3


def _word_products(codes: np.ndarray, left: str, right: str) -> tuple[np.ndarray, np.ndarray]:
    """Index c and power k with left P_a right = i^k P_c, for every basis word a."""
    lc, rc = _codes(left), _codes(right)
    k = _PHASE_EXP[lc, codes].sum(axis=1) + _PHASE_EXP[codes ^ lc, rc].sum(axis=1)
    mask = (lc ^ rc) @ (4 ** np.arange(len(lc) - 1, -1, -1))
    return np.arange(len(codes)) ^ mask, k % 4


def build_liouvillian(model: Model) -> SuperOp:
    """Generator of d rho/dt = -i[H, rho] + sum_m (2 L rho L^dag - {L^dag L, rho}), with its shift.

    Its matrix is the real 4^n x 4^n R[c, a] = 2^-n Tr(P_c L(P_a)).  Each
    term of H, each term pair of L_m (in 2 L_m rho L_m^dag) and each term
    of the product L_m^dag @ L_m acts on all basis words at once.  The map
    preserves Hermiticity, so only the real part of every contribution is
    kept.  The shift is twice the summed real identity coefficients of the
    L_m^dag L_m, i.e. Re Tr(sum_m {L_m, L_m^dag}) / 2^n.  Raises
    ModelConfigError when H is not Hermitian, since R would then be complex.
    """
    require_hermitian(model.hamiltonian, "hamiltonian")
    n = model.n
    codes = _basis_codes(n)
    cols = np.arange(4 ** n)
    ident = "I" * n
    out = np.zeros((cols.size, cols.size))

    def add(left: str, right: str, coeff: complex) -> None:
        rows, k = _word_products(codes, left, right)
        out[rows, cols] += (coeff * _I_POWERS[k]).real

    for word, h in model.hamiltonian.terms.items():
        add(word, ident, -1j * h)
        add(ident, word, 1j * h)
    shift = 0.0
    for lm in model.lindblads:
        for s, ls in lm.terms.items():
            for t, lt in lm.terms.items():
                add(s, t, 2 * ls * lt.conjugate())
        ldl = lm.dagger() @ lm
        shift += 2 * ldl.terms.get(ident, 0j).real
        for word, coeff in ldl.terms.items():
            add(word, ident, -coeff)
            add(ident, word, -coeff)
    return SuperOp(out, shift)


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
    """Basis-word indices of each diagonal block of build_liouvillian's matrix.

    A word's sector label is its commutation bits with the strings of
    z2_symmetry_strings; with no such string there is one block.
    """
    codes = _basis_codes(model.n)
    label = np.zeros(len(codes), dtype=int)
    for bit, s in enumerate(z2_symmetry_strings(model)):
        _, k = _word_products(codes, s, "I" * model.n)
        label |= (k & 1) << bit  # odd k: the word anticommutes with s
    return [np.flatnonzero(label == value) for value in np.unique(label)]


def pt_residual(model: Model) -> float:
    """Frobenius defect of the anti-symmetry relation L' P = -P L'^dag, normalized.

    Uses build_liouvillian's shift, so the residual is defined for models
    violating the channel-constant condition as well.  In the Pauli basis
    L' is the real R' and P is Q = sum over term pairs (u, w) of phased
    permutations Q_uw[perm(a), a] = q(a), perm(a) = a XOR u XOR w, an
    involution.  The defect R'Q + QR'^T is then formed row block by row
    block, with (R'Q)[r, a] = R'[r, perm(a)] q(a) and
    (QR'^T)[r, a] = q(perm(r)) R'[a, perm(r)].
    """
    generator = build_liouvillian(model)
    shifted = generator.mat
    shifted[np.diag_indices_from(shifted)] += generator.shift
    codes = _basis_codes(model.n)
    parts = []
    for u, cu in model.u.terms.items():
        for w, cw in model.w.terms.items():
            perm, k = _word_products(codes, u, w)
            parts.append((perm, cu * cw * _I_POWERS[k]))
    size = shifted.shape[0]
    step = max(1, _RESIDUAL_CHUNK // size)
    total = 0.0
    for start in range(0, size, step):
        rows = slice(start, min(start + step, size))
        defect = np.zeros((rows.stop - start, size), dtype=complex)
        for perm, q in parts:
            defect += shifted[rows][:, perm] * q
            defect += q[perm[rows], None] * shifted[:, perm[rows]].T
        total += float(np.sum(defect.real ** 2 + defect.imag ** 2))
    # numpy sums rather than BLAS dot products, whose rounding depends on the
    # BLAS thread count; squared in place, as shifted is not used again
    return float(np.sqrt(total) / max(1.0, np.sqrt(np.sum(np.square(shifted, out=shifted)))))
