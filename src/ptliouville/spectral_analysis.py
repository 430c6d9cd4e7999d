"""Non-Hermitian spectral consequences: pairing, transition scan, uniform rates, V matrix.

All spectra are dense (complete eigenvalue sets are required), so the
practical size limit is n <= 6.  Every generator spectrum is solved from
the real Pauli-basis matrix of superoperator.pauli_generator, one Z2
symmetry sector (diagonal block) at a time.

A scan keeps the sector blocks of the Hamiltonian part R_H and the channel
part R_D, assembled once; at noise scale lambda the generator is
R_H + lambda^2 R_D, so a probe costs one axpy per block plus its sector
solves.  Bounds outside 0 < lambda_min < lambda_max < inf and a tol_im
outside 0 < tol_im < inf raise ModelConfigError (CLI exit 2).

Thread safety: solves hold a module lock, under which the sector blocks of
one call are solved concurrently with numpy's bundled OpenBLAS held at one
thread (a process-wide count, restored afterwards), so spectra do not
depend on OPENBLAS_NUM_THREADS.  Without OpenBLAS they are solved in turn.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import BrokenPhaseError, ModelConfigError, UncertifiedModelError
from .lemma_checker import check_condition_iii, check_lemma
from .model_builder import Model, ModelSpec, build_model, require_hermitian
from .pauli_algebra import PauliOperator, commutator
from .superoperator import (
    SuperOp,
    identity_component_shift,
    pauli_generator,
    pauli_to_dense,
    symmetry_sectors,
)

TOL_IM = 1e-8
TOL_DEG = 1e-9

UNBROKEN = "UNBROKEN"
BROKEN = "BROKEN"

# Real parts closer than this are treated as ties and ordered by imaginary
# part; conjugate pairs have numerically equal real parts, and a plain
# lexicographic sort would order them unstably across L and L'.
SORT_RE_TOL = 1e-8


def canonical_sort(eigs) -> np.ndarray:
    """Sort eigenvalues by real part (clustered within SORT_RE_TOL), then imaginary part."""
    arr = np.asarray(eigs, dtype=complex)
    if arr.size == 0:
        return arr
    order = np.argsort(arr.real, kind="stable")
    sorted_re = arr.real[order]
    cluster = np.cumsum(np.diff(sorted_re, prepend=-np.inf) > SORT_RE_TOL)
    final = np.lexsort((arr.imag[order], cluster))
    return arr[order][final]


def _eigvals(mat) -> np.ndarray:
    """Unsorted eigenvalues of a dense matrix; every generator spectrum is solved here.

    Non-finite entries and solver non-convergence both raise
    numpy.linalg.LinAlgError, as numpy's own input check would.
    """
    mat = np.asarray(mat)
    if not np.all(np.isfinite(mat)):
        raise np.linalg.LinAlgError("superoperator matrix contains non-finite entries")
    return np.linalg.eigvals(mat)


def _sector_blocks(mat: np.ndarray, sectors, shift: float = 0.0) -> list[np.ndarray]:
    """Diagonal blocks of mat + shift * I, one per sector (copies)."""
    blocks = []
    for idx in sectors:
        block = mat[np.ix_(idx, idx)]
        block[np.diag_indices(idx.size)] += shift
        blocks.append(block)
    return blocks


_SOLVE_LOCK = threading.Lock()
_blas = None  # (get, set) of the OpenBLAS thread count; () without OpenBLAS
_pool: Optional[ThreadPoolExecutor] = None
if hasattr(os, "register_at_fork"):  # a forked child has none of the parent's threads
    os.register_at_fork(after_in_child=lambda: globals().update(
        _SOLVE_LOCK=threading.Lock(), _pool=None))


def _openblas_threads() -> tuple:
    """(get, set) of the thread count of the OpenBLAS in numpy 2 or 1.x wheels, or ()."""
    global _blas
    if _blas is None:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        prefix = next((p for p in ("scipy_openblas", "openblas")
                       if hasattr(lib, f"{p}_set_num_threads64_")), None)
        _blas = ()
        if prefix is not None:
            get, put = lib[f"{prefix}_get_num_threads64_"], lib[f"{prefix}_set_num_threads64_"]
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            _blas = (get, put)
    return _blas


def _solve_blocks(blocks: list[np.ndarray]) -> np.ndarray:
    """Unsorted eigenvalues in block order: block 0 here, the rest on the pool (module doc)."""
    global _pool
    with _SOLVE_LOCK:
        if _openblas_threads():
            get_threads, set_threads = _blas
            if _pool is None:
                usable = getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))(0)
                _pool = ThreadPoolExecutor(max(1, len(usable) - 1), "ptliouville-eig")
            previous = get_threads()
            set_threads(1)
            try:
                futures = [_pool.submit(_eigvals, b) for b in blocks[1:]]
                try:
                    first = _eigvals(blocks[0])
                finally:  # wait even when block 0 raises, then restore the count
                    wait(futures)
                return np.concatenate([first, *(f.result() for f in futures)], dtype=complex)
            finally:
                set_threads(previous)
    return np.concatenate([_eigvals(b) for b in blocks], dtype=complex)


def eigen_spectrum(superop) -> np.ndarray:
    """Complete eigenvalue set of a dense superoperator, canonically sorted.

    Accepts a SuperOp or a plain square matrix.
    """
    mat = superop.mat if isinstance(superop, SuperOp) else superop
    return canonical_sort(_solve_blocks([mat]))


# ---------------------------------------------------------------------------
# PT spectral pairing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingReport:
    passed: bool
    max_distance: float
    pairs: tuple[tuple[complex, complex], ...]


def check_pt_pairing(eigs, tol: float = TOL_IM) -> PairingReport:
    """Greedy nearest-match pairing of each eigenvalue with some -conj(partner).

    An eigenvalue on the imaginary axis may pair with itself.  Passes when
    the largest pairing distance stays below tol.
    """
    values = canonical_sort(eigs)
    used = np.zeros(values.size, dtype=bool)
    pairs = []
    max_distance = 0.0
    for i, lam in enumerate(values):
        if used[i]:
            continue
        used[i] = True
        target = -lam.conjugate()
        best_j, best_d = i, abs(lam - target)
        dist = np.abs(values - target)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if dist[j] < best_d:  # argmin takes the first of equal distances
            best_j, best_d = j, dist[j]
            used[j] = True
        pairs.append((lam, values[best_j]))
        max_distance = max(max_distance, best_d)
    return PairingReport(max_distance < tol, max_distance, tuple(pairs))


# ---------------------------------------------------------------------------
# Hamiltonian eigenbasis and degeneracy diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EnergyEigenbasis:
    """Ascending energies with orthonormal eigenvector columns.

    ``parities`` holds the +-1 eigenvalue of W per vector when W-resolution
    was requested, else None.
    """

    energies: np.ndarray
    vectors: np.ndarray
    parities: Optional[np.ndarray] = None


def _energy_clusters(energies: np.ndarray, tol: float) -> list[slice]:
    clusters = []
    start = 0
    for i in range(1, energies.size):
        if energies[i] - energies[i - 1] > tol:
            clusters.append(slice(start, i))
            start = i
    clusters.append(slice(start, energies.size))
    return clusters


def hamiltonian_eigenbasis(model: Model, resolve_w: bool = False) -> EnergyEigenbasis:
    """Hermitian eigendecomposition of H, optionally aligned with W.

    With resolve_w, each degenerate energy cluster is rotated so that every
    eigenvector also diagonalizes W (required by the V-matrix symmetry
    argument); raises ValueError when [H, W] does not vanish, and
    ModelConfigError (a ValueError) when H is not Hermitian.
    """
    require_hermitian(model.hamiltonian, "hamiltonian")
    energies, vectors = np.linalg.eigh(pauli_to_dense(model.hamiltonian))
    if not resolve_w:
        return EnergyEigenbasis(energies, vectors, None)

    comm_norm = commutator(model.hamiltonian, model.w).max_norm()
    if comm_norm > 1e-10:
        raise ValueError(
            f"W-parity resolution requires [H, W] = 0; max commutator coefficient {comm_norm:.3e}"
        )
    wd = pauli_to_dense(model.w)
    spread = float(energies[-1] - energies[0])
    cluster_tol = TOL_DEG * max(1.0, spread)
    parities = np.zeros(energies.size, dtype=int)
    vectors = vectors.copy()
    for cluster in _energy_clusters(energies, cluster_tol):
        block = vectors[:, cluster]
        w_sub = block.conj().T @ wd @ block
        w_vals, rotation = np.linalg.eigh(w_sub)
        vectors[:, cluster] = block @ rotation
        parities[cluster] = np.where(w_vals >= 0, 1, -1)
    defect = float(np.max(np.abs(wd @ vectors - vectors * parities[np.newaxis, :])))
    if defect > 1e-8:
        raise ValueError(f"simultaneous W eigenbasis failed (defect {defect:.3e})")
    return EnergyEigenbasis(energies, vectors, parities)


@dataclass(frozen=True)
class DegeneracyReport:
    passed: bool
    min_energy_gap: float
    min_frequency_gap: float


def check_nondegeneracy(basis: EnergyEigenbasis, tol_deg: float = TOL_DEG) -> DegeneracyReport:
    """Pairwise-distinct energies and pairwise-distinct ordered energy differences.

    Gaps are compared against tol_deg times the spectral range.
    """
    energies = np.asarray(basis.energies, dtype=float)
    if energies.size < 2:
        return DegeneracyReport(True, np.inf, np.inf)
    spread = float(energies[-1] - energies[0])
    threshold = tol_deg * spread
    min_e_gap = float(np.min(np.diff(np.sort(energies))))
    diffs = (energies[:, None] - energies[None, :])[~np.eye(energies.size, dtype=bool)]
    min_f_gap = float(np.min(np.diff(np.sort(diffs)))) if diffs.size > 1 else np.inf
    return DegeneracyReport(
        min_e_gap > threshold and min_f_gap > threshold, min_e_gap, min_f_gap
    )


# ---------------------------------------------------------------------------
# Spectra and the breaking transition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Spectra of the Liouvillian and its shifted version, paired by the shift."""

    n: int
    eig_liouvillian: np.ndarray
    eig_shifted: np.ndarray
    shift: float
    shift_deviation: float


def liouvillian_spectra(model: Model) -> SpectrumResult:
    """Both full spectra plus the worst elementwise defect of the shift identity.

    The shift is the identity component of the channel anticommutators,
    equal to sum(c_m) whenever the constants exist, but defined for
    violating models too.
    """
    blocks = _sector_blocks(pauli_generator(model), symmetry_sectors(model))
    shift = identity_component_shift(model)
    eig_l = canonical_sort(_solve_blocks(blocks))
    for block in blocks:
        block[np.diag_indices(block.shape[0])] += shift
    eig_lp = canonical_sort(_solve_blocks(blocks))
    deviation = float(np.max(np.abs(eig_lp - (eig_l + shift)))) if eig_l.size else 0.0
    return SpectrumResult(model.n, eig_l, eig_lp, shift, deviation)


@dataclass(frozen=True)
class PhaseClassification:
    n_imag_axis: int
    classification: str


@dataclass(frozen=True)
class ScanProbe:
    lam: float
    n_imag_axis: int
    classification: str


@dataclass(frozen=True)
class ScanResult:
    probes: tuple[ScanProbe, ...]
    bracket: Optional[tuple[float, float]]
    gamma_pt: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "probes": [
                {
                    "lambda": p.lam,
                    "n_imag_axis": p.n_imag_axis,
                    "classification": p.classification,
                }
                for p in self.probes
            ],
            "gamma_pt": self.gamma_pt,
            "bracket": None if self.bracket is None else list(self.bracket),
        }


def _axis_count(blocks: list[np.ndarray], n: int, tol_im: float) -> tuple[np.ndarray, int, str]:
    """Eigenvalues of the sector blocks of L', their imaginary-axis count and phase label.

    Classification, the uniform rate and every scan probe count here, so
    UNBROKEN (at least N^2 - N eigenvalues on the axis, order-free since
    population and coherence sectors mix) holds exactly when a uniform rate
    exists.  The threshold is tol_im times ||L'||_F (basis-independent; the
    blocks hold every nonzero entry), summed by numpy: a BLAS dot product
    rounds differently with the thread count.
    """
    if not (0 < tol_im < math.inf):
        raise ModelConfigError(f"tol_im must be finite and > 0, got {tol_im!r}")
    eigs = _solve_blocks(blocks)
    threshold = tol_im * float(np.sqrt(np.sum([np.sum(b * b) for b in blocks])))
    count = int(np.sum(np.abs(eigs.real) < threshold))
    dim = 2 ** n
    return eigs, count, UNBROKEN if count >= dim * dim - dim else BROKEN


def _imaginary_axis_count(model: Model, tol_im: float) -> tuple[np.ndarray, int, str, float]:
    """_axis_count of L' = L + shift * I, plus the shift.

    Needs condition (iii)'s channel constants: without them L' is not the
    anti-symmetric generator.
    """
    if check_condition_iii(model).constants is None:
        raise UncertifiedModelError(
            "channel constants are unavailable: some {L_m, L_m^dag} is not an identity multiple"
        )
    shift = identity_component_shift(model)
    blocks = _sector_blocks(pauli_generator(model), symmetry_sectors(model), shift)
    return (*_axis_count(blocks, model.n, tol_im), shift)


def classify_pt_phase(model: Model, tol_im: float = TOL_IM) -> PhaseClassification:
    """UNBROKEN iff at least N^2 - N shifted eigenvalues sit on the imaginary axis.

    The axis threshold is tol_im relative to the Frobenius norm of the
    shifted generator.
    """
    _, count, label, _ = _imaginary_axis_count(model, tol_im)
    return PhaseClassification(count, label)


def scan_pt_breaking(
    spec: ModelSpec,
    lambda_min: float,
    lambda_max: float,
    tol_im: float = TOL_IM,
    resolution: float = 1e-6,
) -> ScanResult:
    """Bisect the noise scale for the spontaneous breaking transition.

    The base model (built from the given parameter record) must certify;
    the probes multiply its channels by lambda.  When both endpoints
    classify alike the result carries gamma_pt = None ("no transition in
    range").  For lambda > 0, {lambda L, lambda L^dag} = lambda^2 {L, L^dag},
    so the base's channel constants hold at every probe, scaled by lambda^2,
    and each probe's L' is H_blk + lambda^2 (D_blk + shift * I) per sector.
    """
    if not (0 < lambda_min < lambda_max < math.inf):
        raise ModelConfigError(
            "scan bounds must satisfy 0 < lambda_min < lambda_max < inf, "
            f"got ({lambda_min}, {lambda_max})"
        )
    if not (resolution > 0):
        raise ModelConfigError(f"scan resolution must be positive, got {resolution}")
    base = build_model(spec)
    if not check_lemma(base).overall:
        raise UncertifiedModelError("base model fails symmetry certification; scan is undefined")

    sectors = symmetry_sectors(base)
    h_blocks = _sector_blocks(pauli_generator(replace(base, lindblads=())), sectors)
    no_h = replace(base, hamiltonian=PauliOperator.zero(base.n))
    d_blocks = _sector_blocks(pauli_generator(no_h), sectors, identity_component_shift(base))
    probes: list[ScanProbe] = []

    def probe(lam: float) -> str:
        mu = lam * lam
        _, count, label = _axis_count([h + mu * d for h, d in zip(h_blocks, d_blocks)],
                                      base.n, tol_im)
        probes.append(ScanProbe(lam, count, label))
        return label

    lo, hi = float(lambda_min), float(lambda_max)
    lo_cls = probe(lo)
    hi_cls = probe(hi)
    if lo_cls == hi_cls:
        return ScanResult(tuple(probes), None, None)
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if probe(mid) == lo_cls:
            lo = mid
        else:
            hi = mid
    return ScanResult(tuple(probes), (lo, hi), 0.5 * (lo + hi))


@dataclass(frozen=True, eq=False)
class UniformRateReport:
    passed: bool
    rate: float
    max_deviation: float
    coherence_eigenvalues: np.ndarray


def check_uniform_rate(model: Model, tol_im: float = TOL_IM) -> UniformRateReport:
    """Verify the N^2 - N coherence eigenvalues share the decay rate sum(c_m).

    Selects the shifted eigenvalues closest to the imaginary axis; their
    real parts must vanish, i.e. those of L equal -sum(c_m).  Raises
    BrokenPhaseError when the model does not classify UNBROKEN.
    """
    shifted, _, label, shift = _imaginary_axis_count(model, tol_im)
    n_coh = 4 ** model.n - 2 ** model.n
    if label == BROKEN:
        raise BrokenPhaseError(
            "model classifies BROKEN at this noise scale; no uniform coherence rate exists"
        )
    order = np.argsort(np.abs(shifted.real), kind="stable")
    selected = shifted[order[:n_coh]]
    max_deviation = float(np.max(np.abs(selected.real))) if selected.size else 0.0
    return UniformRateReport(
        max_deviation < tol_im,
        shift,
        max_deviation,
        canonical_sort(selected - shift),
    )


# ---------------------------------------------------------------------------
# Bohr-frequency matching and the V matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BohrMatchResult:
    """Assignment of coherence eigenvalues to ordered level pairs (j, k)."""

    pairs: tuple[tuple[tuple[int, int], complex], ...]
    residual_max: float
    residual_total: float
    mixing_ok: Optional[bool]


def match_bohr_frequencies(
    model: Model,
    basis: EnergyEigenbasis,
    threshold: Optional[float] = None,
) -> BohrMatchResult:
    """Injectively assign Liouvillian eigenvalues to Bohr frequencies E_k - E_j.

    Minimizes the total |Im(eig) - (E_k - E_j)| over all injective
    assignments (rectangular minimum-cost matching).  With a threshold, the
    result flags residual_max above it as too much sector mixing.
    """
    energies = np.asarray(basis.energies, dtype=float)
    count = energies.size
    level_pairs = [(j, k) for j in range(count) for k in range(count) if j != k]
    eigs = _solve_blocks(_sector_blocks(pauli_generator(model), symmetry_sectors(model)))
    bohr = np.array([energies[k] - energies[j] for j, k in level_pairs])
    cost = np.abs(eigs.imag[:, None] - bohr[None, :])
    rows, cols = linear_sum_assignment(cost)
    assignment = sorted(zip(cols.tolist(), rows.tolist()))
    pairs = tuple((level_pairs[c], complex(eigs[r])) for c, r in assignment)
    residuals = np.array([cost[r, c] for c, r in assignment])
    residual_max = float(residuals.max()) if residuals.size else 0.0
    residual_total = float(residuals.sum())
    mixing_ok = None if threshold is None else bool(residual_max <= threshold)
    return BohrMatchResult(pairs, residual_max, residual_total, mixing_ok)


@dataclass(frozen=True, eq=False)
class VMatrix:
    """Channel overlap matrix V[j, k] = sum_m |<psi_j| L_m |psi_k>|^2."""

    matrix: np.ndarray
    asymmetry: float

    def to_json_dict(self) -> dict:
        return {
            "V": [[float(x) for x in row] for row in self.matrix],
            "asymmetry": self.asymmetry,
        }


def v_matrix(model: Model, basis: EnergyEigenbasis) -> VMatrix:
    """Dissipator-perturbation matrix in the given eigenbasis plus its asymmetry."""
    psi = np.asarray(basis.vectors)
    dim = psi.shape[1]
    v = np.zeros((dim, dim))
    for lm in model.lindblads:
        overlap = psi.conj().T @ pauli_to_dense(lm) @ psi
        v += np.abs(overlap) ** 2
    asymmetry = float(np.max(np.abs(v - v.T))) if dim else 0.0
    return VMatrix(v, asymmetry)
