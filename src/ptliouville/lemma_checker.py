"""Symbolic certification of the three PT-symmetry conditions.

Everything here works in the Pauli coefficient algebra, so certification
cost is polynomial in the number of stored terms and independent of 2^n.
Certified identities are exact in exact arithmetic; the tolerance only
absorbs floating-point rounding.

The three conditions, for a model (H, {L_m}, U, W):

  (i)   U and W are unitary involutions commuting with H;
  (ii)  a single real orthogonal involution Z satisfies
        -U L_m U = sum_m' Z[m, m'] L_m'^dag  and
         W L_m W = sum_m' Z[m, m'] L_m'^dag  jointly;
  (iii) {L_m, L_m^dag} = c_m * identity with real c_m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import LinearDependenceError
from .model_builder import Model
from .pauli_algebra import (
    PauliOperator,
    anticommutator,
    as_identity_multiple,
    commutator,
)

TOL_CERT = 1e-10

# Relative singular-value threshold for declaring the adjoint channel set
# linearly dependent (Gram matrix of the coefficient vectors).
RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ReflectionMatrix:
    """Real candidate Z with its certification residuals (max-norm)."""

    matrix: np.ndarray
    residual_fit: float
    residual_orth: float
    residual_invol: float
    residual_imag: float

    def certified(self, tol: float = TOL_CERT) -> bool:
        return (
            self.residual_fit < tol
            and self.residual_orth < tol
            and self.residual_invol < tol
            and self.residual_imag < tol
        )


@dataclass(frozen=True)
class ConditionIReport:
    passed: bool
    residuals: dict[str, float]


@dataclass(frozen=True)
class ConditionIIReport:
    passed: bool
    reflection: Optional[ReflectionMatrix]
    message: str = ""


@dataclass(frozen=True)
class ConditionIIIReport:
    passed: bool
    constants: Optional[tuple[float, ...]]
    residuals: tuple[float, ...]
    failed_channel: Optional[int] = None
    leftover: Optional[PauliOperator] = None


@dataclass(frozen=True)
class LemmaReport:
    cond_i: ConditionIReport
    cond_ii: ConditionIIReport
    cond_iii: ConditionIIIReport

    @property
    def overall(self) -> bool:
        return self.cond_i.passed and self.cond_ii.passed and self.cond_iii.passed

    def to_json_dict(self) -> dict:
        """Flat JSON view; field names are part of the external interface."""
        refl = self.cond_ii.reflection
        residuals = dict(self.cond_i.residuals)
        if refl is not None:
            residuals.update(
                z_fit=refl.residual_fit,
                z_orth=refl.residual_orth,
                z_invol=refl.residual_invol,
                z_imag=refl.residual_imag,
            )
        if self.cond_iii.residuals:
            residuals["c_imag_max"] = max(self.cond_iii.residuals)
        return {
            "cond_i": self.cond_i.passed,
            "cond_ii": self.cond_ii.passed,
            "cond_iii": self.cond_iii.passed,
            "overall": self.overall,
            "Z": None if refl is None else [list(row) for row in refl.matrix],
            "c": None if self.cond_iii.constants is None else list(self.cond_iii.constants),
            "residuals": residuals,
        }


def check_condition_i(model: Model, tol: float = TOL_CERT) -> ConditionIReport:
    """Unitarity and involutivity of U, W plus commutation with H."""
    ident = PauliOperator.identity(model.n)
    residuals = {
        "u_unitary": (model.u @ model.u.dagger() - ident).max_norm(),
        "u_involution": (model.u @ model.u - ident).max_norm(),
        "w_unitary": (model.w @ model.w.dagger() - ident).max_norm(),
        "w_involution": (model.w @ model.w - ident).max_norm(),
        "hu_commutator": commutator(model.hamiltonian, model.u).max_norm(),
        "hw_commutator": commutator(model.hamiltonian, model.w).max_norm(),
    }
    return ConditionIReport(all(r < tol for r in residuals.values()), residuals)


def _coefficient_matrix(ops, words) -> np.ndarray:
    mat = np.zeros((len(words), len(ops)), dtype=complex)
    index = {w: i for i, w in enumerate(words)}
    for col, op in enumerate(ops):
        for word, coeff in op.terms.items():
            mat[index[word], col] = coeff
    return mat


def solve_reflection_matrix(model: Model, tol: float = TOL_CERT) -> ReflectionMatrix:
    """Solve the joint linear system of condition (ii) for a real Z.

    Both intertwining relations share one Z, so the least squares stacks the
    U- and W-side coefficient vectors.  The complex solution's imaginary part
    is reported as a residual and its real part certified against fit,
    orthogonality and involutivity.

    Rephasing channel m by e^{i phi} multiplies Z[m, m] by e^{2 i phi}, so a
    real Z admits only phases that are multiples of pi/2; the generator does
    not depend on the phase, so a rejection for a mixed phase means this
    sufficient condition failed, not the anti-symmetry itself.

    Raises LinearDependenceError when the adjoint channels do not form an
    independent set (Z would not be unique).
    """
    m_count = len(model.lindblads)
    if m_count == 0:
        empty = np.zeros((0, 0))
        return ReflectionMatrix(empty, 0.0, 0.0, 0.0, 0.0)

    adjoints = [lm.dagger() for lm in model.lindblads]
    targets_u = [-(model.u @ lm @ model.u) for lm in model.lindblads]
    targets_w = [model.w @ lm @ model.w for lm in model.lindblads]

    words = sorted(
        set().union(*(op.terms.keys() for op in adjoints + targets_u + targets_w))
    )
    phi = _coefficient_matrix(adjoints, words)
    gram = phi.conj().T @ phi
    svals = np.linalg.svd(gram, compute_uv=False)
    if svals[-1] < RANK_TOL * svals[0]:
        raise LinearDependenceError(
            "adjoint channel operators are linearly dependent; Z is not unique"
        )

    rhs = np.vstack([_coefficient_matrix(targets_u, words), _coefficient_matrix(targets_w, words)])
    design = np.vstack([phi, phi])
    solution, *_ = np.linalg.lstsq(design, rhs, rcond=None)  # column m is z_m
    residual_imag = float(np.max(np.abs(solution.imag)))
    z = solution.real.T  # Z[m, m'] multiplies L_m'^dag

    residual_fit = float(np.max(np.abs(design @ z.T - rhs)))
    eye = np.eye(m_count)
    residual_orth = float(np.max(np.abs(z.T @ z - eye)))
    residual_invol = float(np.max(np.abs(z @ z - eye)))
    return ReflectionMatrix(z, residual_fit, residual_orth, residual_invol, residual_imag)


def _condition_ii_report(model: Model, tol: float) -> ConditionIIReport:
    try:
        reflection = solve_reflection_matrix(model, tol)
    except LinearDependenceError as exc:
        return ConditionIIReport(False, None, str(exc))
    return ConditionIIReport(reflection.certified(tol), reflection)


def check_condition_iii(model: Model, tol: float = TOL_CERT) -> ConditionIIIReport:
    """Each {L_m, L_m^dag} must be a real multiple of the identity."""
    constants = []
    residuals = []
    for idx, lm in enumerate(model.lindblads):
        acomm = anticommutator(lm, lm.dagger())
        value = as_identity_multiple(acomm)
        if value is None:
            ident = "I" * model.n
            leftover = acomm - PauliOperator(model.n, {ident: acomm.terms.get(ident, 0j)})
            return ConditionIIIReport(
                False,
                None,
                tuple(residuals),
                failed_channel=idx,
                leftover=leftover,
            )
        constants.append(value.real)
        residuals.append(abs(value.imag))
    passed = all(r < tol for r in residuals)
    return ConditionIIIReport(passed, tuple(constants), tuple(residuals))


def check_lemma(model: Model, tol: float = TOL_CERT) -> LemmaReport:
    """Aggregate certification of all three conditions."""
    return LemmaReport(
        cond_i=check_condition_i(model, tol),
        cond_ii=_condition_ii_report(model, tol),
        cond_iii=check_condition_iii(model, tol),
    )
