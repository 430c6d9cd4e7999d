"""Non-Hermitian spectral consequences: pairing, transition scan, uniform rates, V matrix.

All spectra are dense (complete eigenvalue sets are required), so the
practical size limit is n <= 6.  Every generator spectrum is solved one Z2
symmetry sector at a time, from the dense blocks of SuperOp.blocks.  A model's
spectrum is solved once, as that of L' = L + shift * I; eig(L) is eig(L') - shift.
Classification, the uniform rate and every scan probe solve and count in _probe.

A scan keeps the sector blocks of the Hamiltonian part R_H and the channel
part R_D, assembled once; at noise scale lambda the generator is
R_H + lambda^2 R_D, so a probe costs one axpy per block plus its sector
solves.  It looks for the first transition above lambda_min: it marches
upward to the predicted collisions of on-axis eigenvalues, then refines the
bracket by interpolating a squared indicator that is linear across a
square-root branch point (Heiss, J. Phys. A 45, 444016 (2012)), under an
ITP safeguard that bounds the probe count by bisection's plus
SCAN_EXTRA_PROBES.  The prediction uses numpy sorts and elementwise
arithmetic only, so probes do not depend on the BLAS thread count.  Arguments
are checked before any work, in this order: a scan's bounds
(0 < lambda_min < lambda_max < inf), resolution and tol_im (finite, > 0),
then the base model's certification; for classify_pt_phase and
check_uniform_rate, tol_im, then condition (iii).  A bad argument raises
ModelConfigError (CLI exit 2).

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

from .errors import BrokenPhaseError, ModelConfigError, UncertifiedModelError
from .lemma_checker import check_condition_iii, check_lemma
from .model_builder import Model, ModelSpec, build_model, require_hermitian
from .pauli_algebra import PauliOperator, commutator
from .superoperator import build_liouvillian, pauli_to_dense, symmetry_sectors

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
    """Unsorted complex eigenvalues of a dense matrix; every generator spectrum is solved here.

    Non-finite entries and solver non-convergence both raise
    numpy.linalg.LinAlgError, as numpy's own input check would.
    """
    mat = np.asarray(mat)
    if not np.all(np.isfinite(mat)):
        raise np.linalg.LinAlgError("superoperator matrix contains non-finite entries")
    return np.linalg.eigvals(mat).astype(complex, copy=False)


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


def _solve_blocks(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Unsorted eigenvalues of each block: block 0 here, the rest on the pool (module doc)."""
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
                return [first, *(f.result() for f in futures)]
            finally:
                set_threads(previous)
    return [_eigvals(b) for b in blocks]


def _shifted_blocks(model: Model) -> tuple[list[np.ndarray], float]:
    """Sector blocks of L' = L + shift * I and build_liouvillian's shift, defined for any model."""
    generator = build_liouvillian(model)
    return generator.blocks(symmetry_sectors(model), generator.shift), generator.shift


def _check_tol_im(tol_im: float) -> None:
    if not (0 < tol_im < math.inf):
        raise ModelConfigError(f"tol_im must be finite and > 0, got {tol_im!r}")


@dataclass(frozen=True, eq=False)
class _Probe:
    """The one record of a solved L' at noise scale lam; eigs and on_axis are per sector."""

    lam: float
    count: int
    label: str
    eigs: list[np.ndarray]
    on_axis: list[np.ndarray]


def _probe(blocks: list[np.ndarray], n: int, tol_im: float, lam: float = 1.0) -> _Probe:
    """Solve the sector blocks of L' and count the eigenvalues on the imaginary axis.

    UNBROKEN (at least N^2 - N eigenvalues on the axis, order-free since
    population and coherence sectors mix) holds exactly when a uniform rate
    exists.  On the axis means |Re| <= tol_im ||L'||_F (basis-independent,
    and all of a zero L'), with the norm summed by numpy over the blocks: a
    BLAS dot product rounds differently with the thread count.  A norm that
    overflows raises ModelConfigError: its inf threshold would put every
    eigenvalue on the axis.  The caller has checked tol_im.
    """
    eigs = _solve_blocks(blocks)
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.sum([np.sum(b * b) for b in blocks])))
    if not math.isfinite(norm):
        raise ModelConfigError("the shifted generator has a non-finite Frobenius norm")
    on_axis = [np.abs(e.real) <= tol_im * norm for e in eigs]
    count = sum(int(np.sum(mask)) for mask in on_axis)
    return _Probe(lam, count, UNBROKEN if count >= 4 ** n - 2 ** n else BROKEN, eigs, on_axis)


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
    edges = [0, *(np.flatnonzero(np.diff(energies) > tol) + 1), energies.size]
    return [slice(start, stop) for start, stop in zip(edges, edges[1:])]


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
    """Sorted spectrum of L' and, in the same order, eig_shifted - shift as that of L.

    The elementwise shift_deviation thus measures only the subtraction's rounding.
    """

    n: int
    eig_liouvillian: np.ndarray
    eig_shifted: np.ndarray
    shift: float
    shift_deviation: float


def liouvillian_spectra(model: Model) -> SpectrumResult:
    """Both full spectra from one solve of the blocks of L', and the shift's rounding."""
    blocks, shift = _shifted_blocks(model)
    eig_lp = canonical_sort(np.concatenate(_solve_blocks(blocks)))
    eig_l = eig_lp - shift
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


def _certified_probe(model: Model, tol_im: float) -> tuple[_Probe, float]:
    """_probe of the model's L' and the shift, once tol_im and condition (iii) hold.

    Without condition (iii)'s channel constants L' is not the anti-symmetric generator.
    """
    _check_tol_im(tol_im)
    if check_condition_iii(model).constants is None:
        raise UncertifiedModelError(
            "channel constants are unavailable: some {L_m, L_m^dag} is not an identity multiple"
        )
    blocks, shift = _shifted_blocks(model)
    return _probe(blocks, model.n, tol_im), shift


def classify_pt_phase(model: Model, tol_im: float = TOL_IM) -> PhaseClassification:
    """UNBROKEN iff at least N^2 - N shifted eigenvalues sit on the imaginary axis.

    The axis threshold is tol_im relative to the Frobenius norm of the
    shifted generator.
    """
    probe = _certified_probe(model, tol_im)[0]
    return PhaseClassification(probe.count, probe.label)


# A scan makes at most this many probes beyond bisection's
# 2 + ceil(log2((lambda_max - lambda_min) / resolution)): the slack n0 of the
# ITP safeguard (Oliveira & Takahashi, ACM TOMS 47(1), 2020).
SCAN_EXTRA_PROBES = 10
_OVERSHOOT = 0.25  # a march step aims this fraction past the predicted collision


def _predicted_collision(history: list[_Probe]) -> float:
    """Smallest lambda beyond the last probe at which adjacent on-axis eigenvalues meet.

    Adjacent gaps are matched by rank within each sector, over the last
    three UNBROKEN probes (two at first); a sector whose on-axis count
    changed among them is skipped.  Three squared gaps are fitted by a
    quadratic in mu = lambda^2.  It is exact for the three shapes a gap
    takes: g0^2 - c mu^2 at small mu (the first-order shifts of on-axis
    eigenvalues vanish in the UNBROKEN phase), linear in mu at a square-root
    branch point, and (mu_x - mu)^2 where two eigenvalues cross.  The
    prediction is the quadratic's first root ahead, else its vertex, the
    closest approach.  Two squared gaps are extrapolated linearly in
    lambda^4, which is exact at small mu and early, never late, elsewhere.
    """
    mu = np.array([p.lam * p.lam for p in history[-3:]])
    best = math.inf
    for sector in range(len(history[-1].eigs)):
        ims = [np.sort(p.eigs[sector][p.on_axis[sector]].imag) for p in history[-3:]]
        if len({x.size for x in ims}) != 1 or ims[0].size < 2:
            continue
        sq = [np.diff(x) ** 2 for x in ims]
        if len(sq) == 2:
            closing = sq[1] < sq[0]
            ratio = sq[1][closing] / (sq[0][closing] - sq[1][closing])
            ahead = np.sqrt(mu[1] ** 2 + ratio * (mu[1] ** 2 - mu[0] ** 2)) - mu[1]
        else:
            # s(mu[2] + t) = sq[2] + slope t + curve t^2
            last = (sq[2] - sq[1]) / (mu[2] - mu[1])
            curve = (last - (sq[1] - sq[0]) / (mu[1] - mu[0])) / (mu[2] - mu[0])
            slope = last + curve * (mu[2] - mu[1])
            disc = slope * slope - 4.0 * curve * sq[2]
            with np.errstate(divide="ignore", invalid="ignore"):
                root = 2.0 * sq[2] / (np.sqrt(np.maximum(disc, 0.0)) - slope)
                vertex = -slope / (2.0 * curve)
            ahead = np.where(disc >= 0.0, root, vertex)
            ahead = ahead[(slope < 0.0) | (curve < 0.0)]
        ahead = ahead[ahead >= 0.0]
        if ahead.size:
            best = min(best, math.sqrt(mu[-1] + float(np.min(ahead))))
    return best


def _collisions(unbroken: _Probe, broken: _Probe) -> list[tuple[int, complex]]:
    """(sector, eigenvalue) of each eigenvalue of the BROKEN probe that left the axis.

    These are its off-axis eigenvalues that lie nearer an on-axis eigenvalue
    of the UNBROKEN probe than any off-axis one, in the same sector.  The
    population modes stay off the axis and can have a smaller |Re| than a
    pair that has just left it, so the |Re| order alone does not find it.
    """
    found = []
    for sector, (eigs_u, on_u, eigs_b, on_b) in enumerate(
            zip(unbroken.eigs, unbroken.on_axis, broken.eigs, broken.on_axis)):
        off = eigs_b[~on_b]
        if off.size == 0 or not np.any(on_u):
            continue
        near_on = np.min(np.abs(off[:, None] - eigs_u[on_u]), axis=1)
        near_off = np.min(np.abs(off[:, None] - eigs_u[~on_u]), axis=1, initial=math.inf)
        found += [(sector, m) for m in off[near_on < near_off]]
    return found


def _indicator(probe: _Probe, sector: int, m: complex) -> Optional[float]:
    """Signed squared distance from the collision of m, linear in mu across it.

    At a square-root branch point the pair is c +- sqrt(D(mu)) with D
    analytic, so both sides read D.  BROKEN: +Re^2 of the off-axis eigenvalue
    nearest m.  UNBROKEN: -(gap / 2)^2 of the adjacent on-axis pair whose
    midpoint is nearest Im(m).  Both within m's sector; None when there is
    no such eigenvalue or pair.
    """
    eigs, on = probe.eigs[sector], probe.on_axis[sector]
    if probe.label == BROKEN:
        off = eigs[~on]
        return float(off[np.argmin(np.abs(off - m))].real ** 2) if off.size else None
    ims = np.sort(eigs[on].imag)
    if ims.size < 2:
        return None
    k = int(np.argmin(np.abs(0.5 * (ims[1:] + ims[:-1]) - m.imag)))
    return -float((0.5 * (ims[k + 1] - ims[k])) ** 2)


def _root(points: list[tuple[float, float]]) -> float:
    """Root between the first two (mu, f) points, whose f differ in sign.

    The quadratic through all three points when a third is given, else the
    secant of the first two.
    """
    (a, fa), (b, fb) = points[:2]
    slope = (fb - fa) / (b - a)
    curve = 0.0
    if len(points) == 3:
        c, fc = points[2]
        curve = ((fc - fa) / (c - a) - slope) / (c - b)
    # fa + slope t + curve t (t - (b - a)) = 0, t = mu - a, has one root in [0, b - a]
    lin = slope - curve * (b - a)
    disc = lin * lin - 4.0 * curve * fa
    if curve != 0.0 and disc >= 0.0:
        q = -0.5 * (lin + math.copysign(math.sqrt(disc), lin))
        for t in (q / curve, fa / q if q else math.inf):
            if 0.0 <= t <= b - a:
                return a + t
    return a - fa / slope


def _flip_estimate(lo: _Probe, hi: _Probe, replaced: Optional[_Probe],
                   need: int) -> Optional[float]:
    """Interpolated lambda at which the label flips between the bracket ends lo and hi.

    Each eigenvalue that crossed the axis between them has a root of its
    _indicator, interpolated in mu through lo, hi and replaced (the bracket
    end last replaced, or the march's probe before lo); the label flips at
    the root that takes the on-axis count past need.  None without enough roots.
    """
    unbroken, broken = (lo, hi) if lo.label == UNBROKEN else (hi, lo)
    roots = []
    for sector, m in _collisions(unbroken, broken):
        points = []
        for p in (lo, hi, replaced):
            f = None if p is None else _indicator(p, sector, m)
            if f is None:
                break
            points.append((p.lam * p.lam, f))
        if len(points) >= 2 and points[0][1] != points[1][1]:
            roots.append(_root(points))
    crossings = abs(lo.count - need) + (lo is unbroken)
    return math.sqrt(sorted(roots)[crossings - 1]) if len(roots) >= crossings else None


def scan_pt_breaking(
    spec: ModelSpec,
    lambda_min: float,
    lambda_max: float,
    tol_im: float = TOL_IM,
    resolution: float = 1e-6,
) -> ScanResult:
    """Locate the first spontaneous breaking transition above lambda_min.

    The base model (built from the given parameter record) must certify,
    with finite residuals and constants (else ModelConfigError, as for
    overflowing input); the probes multiply its channels by lambda.  When
    both endpoints classify alike the result carries gamma_pt = None ("no
    transition in range").  For lambda > 0,
    {lambda L, lambda L^dag} = lambda^2 {L, L^dag}, so the base's channel
    constants hold at every probe, scaled by lambda^2, and each probe's L'
    is H_blk + lambda^2 (D_blk + shift * I) per sector.

    From an UNBROKEN lambda_min the search marches upward until a probe is
    BROKEN.  The first step doubles lambda_min; each later one goes to just
    past the nearest collision of on-axis eigenvalues predicted from the
    last UNBROKEN probes (_predicted_collision), at least a quarter and at
    most twice the step before.  It then refines the bracket, probing a
    quarter resolution from the interpolated flip (_flip_estimate) toward the
    bracket's middle; from a BROKEN lambda_min it refines at once.
    Every probe is projected as in ITP, so a scan makes at most
    SCAN_EXTRA_PROBES more probes than bisection's
    2 + ceil(log2((lambda_max - lambda_min) / resolution)).  The bracket
    ends are probes of different labels, at most `resolution` apart (up to
    rounding, or adjacent floats), and every probe below it carries
    lambda_min's label.
    """
    if not (0 < lambda_min < lambda_max < math.inf):
        raise ModelConfigError(
            "scan bounds must satisfy 0 < lambda_min < lambda_max < inf, "
            f"got ({lambda_min}, {lambda_max})"
        )
    if not (0 < resolution < math.inf):
        raise ModelConfigError(f"scan resolution must be finite and > 0, got {resolution}")
    _check_tol_im(tol_im)
    base = build_model(spec)
    report = check_lemma(base).to_json_dict()
    if not all(map(math.isfinite, [*report["residuals"].values(), *(report["c"] or ())])):
        raise ModelConfigError("base model certification gives non-finite residuals or constants")
    if not report["overall"]:
        raise UncertifiedModelError("base model fails symmetry certification; scan is undefined")

    sectors = symmetry_sectors(base)
    h_blocks = build_liouvillian(replace(base, lindblads=())).blocks(sectors)
    d_part = build_liouvillian(replace(base, hamiltonian=PauliOperator.zero(base.n)))
    d_blocks = d_part.blocks(sectors, d_part.shift)
    need = 4 ** base.n - 2 ** base.n
    probes: list[ScanProbe] = []

    def probe(lam: float) -> _Probe:
        new = _probe([h + lam * lam * d for h, d in zip(h_blocks, d_blocks)], base.n, tol_im, lam)
        probes.append(ScanProbe(lam, new.count, new.label))
        return new

    lo = probe(float(lambda_min))
    hi = probe(float(lambda_max))
    if lo.label == hi.label:
        return ScanResult(tuple(probes), None, None)

    budget = (math.ceil(math.log2(min((hi.lam - lo.lam) / resolution, 2.0 ** 1000)))
              + SCAN_EXTRA_PROBES)
    marching = lo.label == UNBROKEN
    history, step = [lo], lo.lam  # the march's UNBROKEN probes, its last step
    replaced = None  # the bracket end last replaced: the third interpolation point
    for j in range(budget):
        width = hi.lam - lo.lam
        mid = 0.5 * (lo.lam + hi.lam)
        if width <= resolution or not lo.lam < mid < hi.lam:
            break
        target = mid
        if marching:
            ahead = step
            if len(history) > 1:
                collision = _predicted_collision(history) - lo.lam
                ahead = min(2 * step, max(step / 4, (1 + _OVERSHOOT) * collision))
            marching = lo.lam + ahead < hi.lam
            if marching:
                target = lo.lam + ahead
        estimate = None if marching else _flip_estimate(lo, hi, replaced, need)
        if estimate is not None and 0.25 * resolution <= abs(mid - estimate):
            target = estimate + math.copysign(0.25 * resolution, mid - estimate)
        radius = max(0.0, math.ldexp(resolution, budget - j - 1) - 0.5 * width)
        x = min(max(target, mid - radius), mid + radius)
        if not lo.lam < x < hi.lam:
            x = mid
        new = probe(x)
        if new.label == lo.label:
            if marching:
                history.append(new)
                step = x - lo.lam
            lo, replaced = new, lo
        else:  # the march's first BROKEN probe keeps replaced, its UNBROKEN probe before lo
            marching, hi, replaced = False, new, replaced if marching else hi
    return ScanResult(tuple(probes), (lo.lam, hi.lam), 0.5 * (lo.lam + hi.lam))


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
    probe, shift = _certified_probe(model, tol_im)
    if probe.label == BROKEN:
        raise BrokenPhaseError(
            "model classifies BROKEN at this noise scale; no uniform coherence rate exists"
        )
    shifted = np.concatenate(probe.eigs)
    n_coh = 4 ** model.n - 2 ** model.n
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
# The V matrix
# ---------------------------------------------------------------------------


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
