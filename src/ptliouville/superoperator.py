"""Dense realization: operator images, Liouvillian, parity superoperator, PT residual.

One vectorization convention holds everywhere: vec stacks columns, so

    vec(A rho B) = (B^T kron A) vec(rho)

and the Hilbert-Schmidt adjoint of a superoperator is the conjugate
transpose of its matrix.  The generator uses the doubled dissipator

    d rho/dt = -i[H, rho] + sum_m (2 L_m rho L_m^dag - {L_m^dag L_m, rho})

so that the shifted generator is exactly L + (sum_m c_m) Id when every
channel satisfies {L_m, L_m^dag} = c_m * identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionError
from .model_builder import Model
from .pauli_algebra import PauliOperator, anticommutator

_SITE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True, eq=False)
class SuperOp:
    """Dense 4^n x 4^n superoperator matrix in the column-stacking convention."""

    n: int
    mat: np.ndarray


def pauli_to_dense(op: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n image of a Pauli operator."""
    dim = 2 ** op.n
    out = np.zeros((dim, dim), dtype=complex)
    for word, coeff in op.terms.items():
        out += coeff * reduce(np.kron, (_SITE[ch] for ch in word))
    return out


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho).ravel(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of vec for square matrices."""
    v = np.asarray(v)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise DimensionError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape((d, d), order="F")


def sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of rho -> a rho b."""
    return np.kron(b.T, a)


def build_liouvillian(model: Model) -> SuperOp:
    """Generator of d rho/dt = -i[H, rho] + sum_m (2 L rho L^dag - {L^dag L, rho})."""
    dim = 2 ** model.n
    eye = np.eye(dim, dtype=complex)
    hd = pauli_to_dense(model.hamiltonian)
    mat = -1j * (sandwich(hd, eye) - sandwich(eye, hd))
    for lm in model.lindblads:
        ld = pauli_to_dense(lm)
        ldl = ld.conj().T @ ld
        mat += 2 * sandwich(ld, ld.conj().T) - sandwich(ldl, eye) - sandwich(eye, ldl)
    return SuperOp(model.n, mat)


def identity_component_shift(model: Model) -> float:
    """Hilbert-Schmidt projection of sum_m {L_m, L_m^dag} onto the identity.

    Equals sum_m c_m whenever every anticommutator is an identity multiple
    (condition (iii)), but stays defined for violating models (needed to
    evaluate the PT residual of negative controls).
    """
    ident = "I" * model.n
    total = 0.0
    for lm in model.lindblads:
        acomm = anticommutator(lm, lm.dagger())
        total += acomm.terms.get(ident, 0j).real
    return total


def build_shifted_liouvillian(model: Model) -> SuperOp:
    """Liouvillian plus identity_component_shift times the identity."""
    base = build_liouvillian(model).mat
    return SuperOp(model.n, base + identity_component_shift(model) * np.eye(base.shape[0]))


def build_parity_superop(model: Model) -> SuperOp:
    """Matrix of rho -> U rho W; an involution when U^2 = W^2 = identity."""
    ud = pauli_to_dense(model.u)
    wd = pauli_to_dense(model.w)
    return SuperOp(model.n, sandwich(ud, wd))


def pt_residual(model: Model) -> float:
    """Frobenius defect of the anti-symmetry relation L' P = -P L'^dag, normalized.

    Uses the identity-component shift so the residual is defined for models
    violating the channel-constant condition as well.
    """
    shifted = build_shifted_liouvillian(model).mat
    parity = build_parity_superop(model).mat
    defect = shifted @ parity + parity @ shifted.conj().T
    return float(np.linalg.norm(defect) / max(1.0, np.linalg.norm(shifted)))
