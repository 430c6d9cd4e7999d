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

from .errors import LinearDependenceError, ModelConfigError
from .model_builder import Model
from .pauli_algebra import (
    PauliOperator,
    _code_terms,
    _conjugation,
    _in_word_order,
    anticommutator,
    as_identity_multiple,
    commutator,
)

TOL_CERT = 1e-10

# The adjoint channel set is linearly dependent when the smallest singular
# value of its coefficient vectors is at most this fraction of the largest
# (1e-10 on their Gram matrix, whose singular values are the squares).
RANK_TOL = 1e-5


@dataclass(frozen=True, eq=False)
class ReflectionMatrix:
    """Real candidate Z with its certification residuals (max-norm)."""

    matrix: np.ndarray
    residual_fit: float
    residual_orth: float
    residual_invol: float
    residual_imag: float

    def certified(self) -> bool:
        return (
            self.residual_fit < TOL_CERT
            and self.residual_orth < TOL_CERT
            and self.residual_invol < TOL_CERT
            and self.residual_imag < TOL_CERT
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


def check_condition_i(model: Model) -> ConditionIReport:
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
    return ConditionIReport(all(r < TOL_CERT for r in residuals.values()), residuals)


def _coefficient_matrix(ops, rows: dict[int, int]) -> np.ndarray:
    """One column per code-keyed operator, one row per word code."""
    mat = np.zeros((len(rows), len(ops)), dtype=complex)
    for col, op in enumerate(ops):
        for code, coeff in op.items():
            mat[rows[code], col] = coeff
    return mat


def solve_reflection_matrix(model: Model) -> ReflectionMatrix:
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
    independent set (Z would not be unique), and ModelConfigError on a non-finite coefficient.
    """
    m_count = len(model.lindblads)
    if m_count == 0:
        empty = np.zeros((0, 0))
        return ReflectionMatrix(empty, 0.0, 0.0, 0.0, 0.0)

    # the terms of L_m^dag, -U L_m U and W L_m W keyed by word code; the rows
    # are the codes in the order of their words
    adjoints = [_code_terms(lm.dagger()) for lm in model.lindblads]
    targets_u = [{code: -v for code, v in _conjugation(model.u, lm).items()}
                 for lm in model.lindblads]
    targets_w = [_conjugation(model.w, lm) for lm in model.lindblads]

    codes = _in_word_order(set().union(*adjoints, *targets_u, *targets_w), model.n)
    rows = {code: i for i, code in enumerate(codes)}
    phi = _coefficient_matrix(adjoints, rows)
    rhs = np.vstack([_coefficient_matrix(targets_u, rows), _coefficient_matrix(targets_w, rows)])
    # stacking [phi; phi] scales every singular value by sqrt(2), not their ratio
    design = np.vstack([phi, phi])
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(rhs))):
        raise ModelConfigError("condition (ii): a channel coefficient is not finite")
    solution, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=RANK_TOL)  # column m is z_m
    if rank < m_count:
        raise LinearDependenceError(
            "adjoint channel operators are linearly dependent; Z is not unique"
        )

    residual_imag = float(np.max(np.abs(solution.imag)))
    z = solution.real.T  # Z[m, m'] multiplies L_m'^dag

    residual_fit = float(np.max(np.abs(design @ z.T - rhs)))
    eye = np.eye(m_count)
    residual_orth = float(np.max(np.abs(z.T @ z - eye)))
    residual_invol = float(np.max(np.abs(z @ z - eye)))
    return ReflectionMatrix(z, residual_fit, residual_orth, residual_invol, residual_imag)


def _condition_ii_report(model: Model) -> ConditionIIReport:
    try:
        reflection = solve_reflection_matrix(model)
    except LinearDependenceError as exc:
        return ConditionIIReport(False, None, str(exc))
    return ConditionIIReport(reflection.certified(), reflection)


def check_condition_iii(model: Model) -> ConditionIIIReport:
    """Each {L_m, L_m^dag} must be a real multiple of the identity."""
    constants = []
    residuals = []
    for idx, lm in enumerate(model.lindblads):
        acomm = anticommutator(lm, lm.dagger())
        value = as_identity_multiple(acomm)
        if value is None:
            ident = "I" * model.n
            leftover = acomm - PauliOperator.identity(model.n) * acomm.terms.get(ident, 0j)
            return ConditionIIIReport(
                False,
                None,
                tuple(residuals),
                failed_channel=idx,
                leftover=leftover,
            )
        constants.append(value.real)
        residuals.append(abs(value.imag))
    passed = all(r < TOL_CERT for r in residuals)
    return ConditionIIIReport(passed, tuple(constants), tuple(residuals))


def check_lemma(model: Model) -> LemmaReport:
    """Aggregate certification of all three conditions."""
    return LemmaReport(
        cond_i=check_condition_i(model),
        cond_ii=_condition_ii_report(model),
        cond_iii=check_condition_iii(model),
    )
