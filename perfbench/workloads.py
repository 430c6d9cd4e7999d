"""Seeded inputs, items and correctness checks of the three workloads.

Every workload is a list of rounds; a round is a short list of inputs whose
mix (families, sizes, controls) is fixed, so that any whole number of rounds
has the same mix.  The seed draws only the coefficients.  Items call the
library through its module attributes, so that the traced run can wrap them
in place (see ``tracing.py``).

Why these workloads:

- ``certify``: the symbolic layers do all the work and the dense layers none.
  A Pauli-algebra or builder optimisation shows only here; a dense one must
  show no change here.
- ``verify``: one large (n = 5) generator per item; generator assembly, the
  PT residual, the eigensolves, pairing and the V matrix all run.  Pauli-basis
  assembly, sector eigensolves and one spectral pass per model show here.
- ``scan``: about 23 small (n = 4) generators per item that differ only in
  the noise scale, with no residual and no pairing.  Building the
  lambda-independent parts once shows here and not in ``verify``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ptliouville import cli
from ptliouville import lemma_checker as lc
from ptliouville import model_builder as mb
from ptliouville import spectral_analysis as sa
from ptliouville import superoperator as so
from ptliouville.model_builder import Dephasing, Injection, ModelSpec

# The serializer recurses through its own module binding, so the traced run
# wraps this call-site binding instead of the one in ``cli``.
serialize = cli.dumps_canonical

CERTIFY_SIZES = range(2, 17)
VERIFY_N = 5
SCAN_N = 4
SCAN_RANGE = (0.01, 2.0)
SCAN_RESOLUTION = 1e-6
VERIFY_ROUNDS = 16
SCAN_ROUNDS = 16
SCAN_DRAWS = 100  # draws per scan model before giving up on the screen

PT_RESIDUAL_TOL = 1e-10
SHIFT_TOL = 1e-9
SYMMETRY_TOL = 1e-10
CONSTANT_RTOL = 1e-12

# Smallest relative gap between distinct energies and between distinct Bohr
# frequencies of a scan model.  Coherences whose frequencies nearly coincide
# collide at a noise scale of order sqrt(gap), so a larger gap keeps the
# transition inside SCAN_RANGE.
SCAN_MIN_GAP = 4e-5


@dataclass(frozen=True)
class Workload:
    make_rounds: Callable[[int], list]   # seed -> list of rounds (lists of inputs)
    warmup_round: Callable[[int], list]  # seed -> one small round run during set-up
    run_item: Callable                   # input -> output
    check: Callable                      # (input, output) -> list of failure messages


# ---------------------------------------------------------------------------
# Seeded parameters
# ---------------------------------------------------------------------------


def _couplings(rng: np.random.Generator, n: int):
    return [
        (j, k, *(float(x) for x in rng.uniform(-1.0, 1.0, size=3)))
        for j in range(n)
        for k in range(j + 1, n)
    ]


def _rates(rng: np.random.Generator, n: int) -> list[float]:
    return [float(x) for x in rng.uniform(0.1, 1.0, size=n)]


def _family1_spec(rng: np.random.Generator, n: int) -> ModelSpec:
    return ModelSpec(
        n=n,
        couplings=tuple(_couplings(rng, n)),
        fields=tuple(float(x) for x in rng.uniform(-1.0, 1.0, size=n)),
        noise=Dephasing(tuple(_rates(rng, n))),
    )


def _family2_spec(rng: np.random.Generator, n: int) -> ModelSpec:
    return ModelSpec(
        n=n,
        couplings=tuple(_couplings(rng, n)),
        noise=Injection(tuple(_rates(rng, n)), tuple(_rates(rng, n))),
    )


def _analytic_constants(spec: ModelSpec) -> list[float]:
    """c_m of the family channels: 2|gamma_j|^2, or |a_j|^2 then |b_j|^2 per site."""
    if isinstance(spec.noise, Dephasing):
        return [2 * abs(g) ** 2 for g in spec.noise.gammas]
    return [abs(r) ** 2 for pair in zip(spec.noise.a, spec.noise.b) for r in pair]


# ---------------------------------------------------------------------------
# certify: JSON documents, a quarter of them negative controls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifyInput:
    text: str
    expect: dict              # condition -> expected bool; absent means not asserted
    constants: Optional[list]  # expected "c", None when condition (iii) fails


def _document(spec: ModelSpec) -> dict:
    ham = {
        "couplings": [
            {"i": j, "j": k, "jx": jx, "jy": jy, "jz": jz}
            for (j, k, jx, jy, jz) in spec.couplings
        ]
    }
    if isinstance(spec.noise, Dephasing):
        ham["fields_x"] = list(spec.fields)
        noise = {"type": "dephasing", "gammas": [g.real for g in spec.noise.gammas]}
    else:
        noise = {
            "type": "injection",
            "a": [r.real for r in spec.noise.a],
            "b": [r.real for r in spec.noise.b],
        }
    return {"n": spec.n, "hamiltonian": ham, "noise": noise}


def _word(n: int, site: int, letter: str) -> str:
    return "I" * site + letter + "I" * (n - site - 1)


def _control(rng: np.random.Generator, spec: ModelSpec, condition: str) -> CertifyInput:
    """A family model with one custom addition that breaks exactly `condition`."""
    n = spec.n
    doc = _document(spec)
    site = int(rng.integers(n))
    t = float(rng.uniform(0.1, 1.0))
    constants = _analytic_constants(spec)
    dephasing = isinstance(spec.noise, Dephasing)
    if condition == "i":
        # Z_site anticommutes with the X...X / Y...Y parity strings
        doc["custom"] = {"h_extra": [{"word": _word(n, site, "Z"), "coeff": t}]}
        expect = {"cond_i": False, "cond_ii": True, "cond_iii": True}
    elif condition == "ii":
        # a multiple of an existing channel: the adjoint set is linearly dependent
        if dephasing:
            extra = [{"word": _word(n, site, "Z"), "coeff": t}]
            constants.append(2 * t * t)
        else:
            extra = [{"word": _word(n, site, "X"), "coeff": t / 2},
                     {"word": _word(n, site, "Y"), "coeff": [0.0, t / 2]}]
            constants.append(t * t)
        doc["custom"] = {"lindblads_extra": [extra]}
        expect = {"cond_i": True, "cond_ii": False, "cond_iii": True}
    else:
        # a projector channel: {P, P} = 2P is not an identity multiple
        doc["custom"] = {"lindblads_extra": [[{"word": "I" * n, "coeff": t / 2},
                                              {"word": _word(n, site, "Z"), "coeff": t / 2}]]}
        expect = {"cond_i": True, "cond_iii": False}
        constants = None
    expect["overall"] = False
    return CertifyInput(json.dumps(doc), expect, constants)


def _positive(spec: ModelSpec) -> CertifyInput:
    expect = {"cond_i": True, "cond_ii": True, "cond_iii": True, "overall": True}
    return CertifyInput(json.dumps(_document(spec)), expect, _analytic_constants(spec))


def _certify_corpus(rng: np.random.Generator, sizes) -> list:
    """Per size: family 1, family 2, then a model and a control of one alternating family.

    Family 2 has twice the channels of family 1, so each size holds three
    items of one cost and one of another.  The median item then lies inside
    a group of like items rather than on the step between two groups.
    """
    corpus = []
    for index, n in enumerate(sizes):
        corpus.append(_positive(_family1_spec(rng, n)))
        corpus.append(_positive(_family2_spec(rng, n)))
        extra = _family1_spec if index % 2 == 0 else _family2_spec
        corpus.append(_positive(extra(rng, n)))
        corpus.append(_control(rng, extra(rng, n), ("i", "ii", "iii")[index % 3]))
    return corpus


def certify_rounds(seed: int) -> list:
    return [_certify_corpus(np.random.default_rng(seed), CERTIFY_SIZES)]


def certify_warmup(seed: int) -> list:
    return _certify_corpus(np.random.default_rng([seed, 1]), (2, 3, 4))


def certify_item(doc: CertifyInput) -> str:
    spec = mb.parse_model_config(doc.text)
    model = mb.build_model(spec)
    report = lc.check_lemma(model)
    return serialize(report.to_json_dict())


def _constants_match(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return len(got) == len(want) and all(
        math.isclose(g, w, rel_tol=CONSTANT_RTOL) for g, w in zip(got, want)
    )


def certify_check(doc: CertifyInput, text: str) -> list:
    report = json.loads(text)
    failures = [
        f"{key} is {report[key]}, expected {want}"
        for key, want in doc.expect.items()
        if report[key] is not want
    ]
    if not _constants_match(report["c"], doc.constants):
        failures.append(f"constants {report['c']} differ from the analytic {doc.constants}")
    return failures


# ---------------------------------------------------------------------------
# verify: the full dense pipeline on n = 5 models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class VerifyOutput:
    certified: bool
    residual: float
    spectra: sa.SpectrumResult
    pairing: sa.PairingReport
    vmatrix: sa.VMatrix


def _verify_round(rng: np.random.Generator, n: int) -> list:
    return [_family1_spec(rng, n), _family2_spec(rng, n)]


def verify_rounds(seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [_verify_round(rng, VERIFY_N) for _ in range(VERIFY_ROUNDS)]


def verify_warmup(seed: int) -> list:
    return _verify_round(np.random.default_rng([seed, 1]), 2)


def verify_item(spec: ModelSpec) -> VerifyOutput:
    model = mb.build_model(spec)
    report = lc.check_lemma(model)
    residual = so.pt_residual(model)
    spectra = sa.liouvillian_spectra(model)
    pairing = sa.check_pt_pairing(spectra.eig_shifted)
    basis = sa.hamiltonian_eigenbasis(model, resolve_w=True)
    return VerifyOutput(report.overall, residual, spectra, pairing, sa.v_matrix(model, basis))


def verify_check(spec: ModelSpec, out: VerifyOutput) -> list:
    size = 4 ** spec.n
    checks = [
        (out.certified, "model does not certify"),
        (out.residual < PT_RESIDUAL_TOL, f"pt_residual {out.residual:.3e}"),
        (out.pairing.passed, f"pairing distance {out.pairing.max_distance:.3e}"),
        (out.spectra.shift_deviation < SHIFT_TOL,
         f"shift deviation {out.spectra.shift_deviation:.3e}"),
        (out.spectra.eig_liouvillian.size == size and out.spectra.eig_shifted.size == size,
         f"{out.spectra.eig_liouvillian.size}/{out.spectra.eig_shifted.size} "
         f"eigenvalues, expected {size}"),
        (out.vmatrix.asymmetry < SYMMETRY_TOL, f"V asymmetry {out.vmatrix.asymmetry:.3e}"),
    ]
    return [message for ok, message in checks if not ok]


# ---------------------------------------------------------------------------
# scan: bisection of the breaking transition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanInput:
    spec: ModelSpec
    gamma_exact: Optional[float]  # sqrt(h) for the single-qubit model, else None


@dataclass(frozen=True, eq=False)
class ScanOutput:
    result: sa.ScanResult
    uniform: Optional[sa.UniformRateReport]
    expected_rate: Optional[float]


def _screened(rng: np.random.Generator, draw: Callable, n: int) -> ModelSpec:
    for _ in range(SCAN_DRAWS):
        spec = draw(rng, n)
        basis = sa.hamiltonian_eigenbasis(mb.build_model(spec))
        if sa.check_nondegeneracy(basis, SCAN_MIN_GAP).passed:
            return spec
    raise RuntimeError(f"no well-separated n={n} model in {SCAN_DRAWS} draws")


def _single_qubit(rng: np.random.Generator) -> ScanInput:
    h = float(rng.uniform(0.1, 3.0))
    return ScanInput(ModelSpec(n=1, fields=(h,), noise=Dephasing((1.0,))), math.sqrt(h))


def _scan_round(rng: np.random.Generator, n: int) -> list:
    return [
        ScanInput(_screened(rng, _family1_spec, n), None),
        ScanInput(_screened(rng, _family2_spec, n), None),
        _single_qubit(rng),
    ]


def scan_rounds(seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [_scan_round(rng, SCAN_N) for _ in range(SCAN_ROUNDS)]


def scan_warmup(seed: int) -> list:
    return [_single_qubit(np.random.default_rng([seed, 1]))]


def scan_item(inp: ScanInput) -> ScanOutput:
    result = sa.scan_pt_breaking(inp.spec, *SCAN_RANGE, resolution=SCAN_RESOLUTION)
    if result.bracket is None:
        return ScanOutput(result, None, None)
    lam = 0.5 * result.bracket[0]
    uniform = sa.check_uniform_rate(mb.scale_noise(mb.build_model(inp.spec), lam))
    return ScanOutput(result, uniform, sum(_analytic_constants(inp.spec)) * lam * lam)


def scan_check(inp: ScanInput, out: ScanOutput) -> list:
    result = out.result
    if result.bracket is None:
        return [f"both ends of {SCAN_RANGE} classify {result.probes[0].classification}"]
    labels = {p.lam: p.classification for p in result.probes}
    lo, hi = result.bracket
    failures = []
    if labels[lo] == labels[hi]:
        failures.append(f"bracket ends ({lo}, {hi}) both classify {labels[lo]}")
    if not out.uniform.passed:
        failures.append(f"uniform rate deviation {out.uniform.max_deviation:.3e}")
    if not math.isclose(out.uniform.rate, out.expected_rate, rel_tol=CONSTANT_RTOL):
        failures.append(f"uniform rate {out.uniform.rate} != sum(c) lambda^2 {out.expected_rate}")
    if inp.gamma_exact is not None and abs(result.gamma_pt - inp.gamma_exact) > SCAN_RESOLUTION:
        failures.append(f"gamma_pt {result.gamma_pt} vs exact {inp.gamma_exact}")
    return failures


WORKLOADS = {
    "certify": Workload(certify_rounds, certify_warmup, certify_item, certify_check),
    "verify": Workload(verify_rounds, verify_warmup, verify_item, verify_check),
    "scan": Workload(scan_rounds, scan_warmup, scan_item, scan_check),
}
