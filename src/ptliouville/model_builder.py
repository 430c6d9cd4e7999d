"""Construction of the two qubit model families and custom variants.

Family 1 couples an XYZ-type two-spin Hamiltonian with an x-field to local
Hermitian dephasing channels; family 2 drops the field and uses local
raising/lowering (injection/absorption) channels.  Both carry the parity
pair (U, W) that the certification module checks.  A JSON config format and
a verbatim "custom" escape hatch (used for negative controls) feed the same
Model type.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional, Union

from .errors import DimensionError, ModelConfigError
from .pauli_algebra import (
    PauliOperator,
    anticommutator,
    as_identity_multiple,
    sigma_minus,
    sigma_plus,
)

Coupling = tuple[int, int, float, float, float]  # (j, k, jx, jy, jz) with j < k


@dataclass(frozen=True)
class Dephasing:
    """Local Hermitian channels: one rate per site, L_j = gamma_j Z_j."""

    gammas: tuple[complex, ...]


@dataclass(frozen=True)
class Injection:
    """Local raising/lowering channels: L = a_j sigma+_j and b_j sigma-_j."""

    a: tuple[complex, ...]
    b: tuple[complex, ...]


@dataclass(frozen=True)
class CustomParts:
    """Verbatim operator overrides applied on top of (or instead of) a family build.

    ``h``/``lindblads``/``u``/``w`` replace; ``h_extra``/``lindblads_extra`` add.
    """

    h: Optional[PauliOperator] = None
    h_extra: Optional[PauliOperator] = None
    lindblads: Optional[tuple[PauliOperator, ...]] = None
    lindblads_extra: tuple[PauliOperator, ...] = ()
    u: Optional[PauliOperator] = None
    w: Optional[PauliOperator] = None


@dataclass(frozen=True)
class ModelSpec:
    """Parameter record from which a Model is realized."""

    n: int
    couplings: tuple[Coupling, ...] = ()
    fields: tuple[float, ...] = ()
    noise: Union[Dephasing, Injection, None] = None
    scale: float = 1.0
    custom: Optional[CustomParts] = None


@dataclass(frozen=True)
class Model:
    """Realized operator set: Hamiltonian, channels, parity pair, channel constants.

    ``c`` holds the constants with {L_m, L_m^dag} = c_m * identity when every
    channel admits one, else None (certification then reports the failure).
    """

    n: int
    hamiltonian: PauliOperator
    lindblads: tuple[PauliOperator, ...]
    u: PauliOperator
    w: PauliOperator
    c: Optional[tuple[float, ...]]
    family: str  # "example1" | "example2" | "custom"


def validate_spec(spec: ModelSpec) -> None:
    """Structural validation; raises ModelConfigError with the offending field."""
    if not isinstance(spec.n, int) or spec.n < 1:
        raise ModelConfigError(f"n must be a positive integer, got {spec.n!r}")
    seen = set()
    for cpl in spec.couplings:
        j, k = cpl[0], cpl[1]
        if not (0 <= j < k < spec.n):
            raise ModelConfigError(
                f"coupling sites ({j},{k}) must satisfy 0 <= j < k < n={spec.n}"
            )
        if (j, k) in seen:
            raise ModelConfigError(f"duplicate coupling pair ({j},{k})")
        seen.add((j, k))
    if spec.fields and len(spec.fields) != spec.n:
        raise ModelConfigError(
            f"fields: expected {spec.n} entries, got {len(spec.fields)}"
        )
    if isinstance(spec.noise, Dephasing) and len(spec.noise.gammas) != spec.n:
        raise ModelConfigError(
            f"noise.gammas: expected {spec.n} entries, got {len(spec.noise.gammas)}"
        )
    if isinstance(spec.noise, Injection):
        if len(spec.noise.a) != spec.n or len(spec.noise.b) != spec.n:
            raise ModelConfigError(
                f"noise.a/noise.b: expected {spec.n} entries each, got "
                f"{len(spec.noise.a)}/{len(spec.noise.b)}"
            )
    if not (spec.scale >= 0):
        raise ModelConfigError(f"scale must be >= 0, got {spec.scale!r}")


def channel_constants(lindblads) -> Optional[tuple[float, ...]]:
    """c_m with {L_m, L_m^dag} = c_m * identity, or None if any channel fails."""
    cs = []
    for lm in lindblads:
        val = as_identity_multiple(anticommutator(lm, lm.dagger()))
        if val is None:
            return None
        cs.append(val.real)
    return tuple(cs)


def _coupling_hamiltonian(n: int, couplings) -> PauliOperator:
    h = PauliOperator.zero(n)
    for (j, k, jx, jy, jz) in couplings:
        for letter, strength in (("X", jx), ("Y", jy), ("Z", jz)):
            if strength != 0:
                h = h + (
                    PauliOperator.single(letter, j, n)
                    @ PauliOperator.single(letter, k, n)
                ) * strength
    return h


def build_example1(spec: ModelSpec) -> Model:
    """Family 1: XYZ couplings + x-field, dephasing channels, U = prod X, W = identity."""
    validate_spec(spec)
    if not isinstance(spec.noise, Dephasing):
        raise ModelConfigError("example-1 build requires dephasing noise")
    n = spec.n
    fields = spec.fields if spec.fields else (0.0,) * n
    h = _coupling_hamiltonian(n, spec.couplings)
    for j, hj in enumerate(fields):
        if hj != 0:
            h = h + PauliOperator.single("X", j, n, hj)
    lindblads = []
    for j, g in enumerate(spec.noise.gammas):
        lm = PauliOperator.single("Z", j, n, spec.scale * g)
        if lm.terms:
            lindblads.append(lm)
    u = PauliOperator.term("X" * n)
    w = PauliOperator.identity(n)
    return Model(n, h, tuple(lindblads), u, w, channel_constants(lindblads), "example1")


def build_example2(spec: ModelSpec) -> Model:
    """Family 2: XYZ couplings only, injection/absorption channels, U = prod Y, W = prod X.

    Channel ordering is fixed: per site ascending, raising before lowering;
    zero-rate channels are dropped (their rows would make the reflection
    solve singular).
    """
    validate_spec(spec)
    if not isinstance(spec.noise, Injection):
        raise ModelConfigError("example-2 build requires injection noise")
    if spec.fields and any(f != 0 for f in spec.fields):
        raise ModelConfigError("example-2 models admit no field terms")
    n = spec.n
    h = _coupling_hamiltonian(n, spec.couplings)
    lindblads = []
    for j in range(n):
        for rate, op in ((spec.noise.a[j], sigma_plus(j, n)), (spec.noise.b[j], sigma_minus(j, n))):
            lm = op * (spec.scale * rate)
            if lm.terms:
                lindblads.append(lm)
    u = PauliOperator.term("Y" * n)
    w = PauliOperator.term("X" * n)
    return Model(n, h, tuple(lindblads), u, w, channel_constants(lindblads), "example2")


def build_model(spec: ModelSpec) -> Model:
    """Realize a spec: family build per noise type, then any custom overrides."""
    validate_spec(spec)
    if isinstance(spec.noise, Dephasing):
        base = build_example1(spec)
    elif isinstance(spec.noise, Injection):
        base = build_example2(spec)
    else:
        if spec.custom is None or spec.custom.u is None or spec.custom.w is None:
            raise ModelConfigError(
                "a model without a noise family must supply custom u and w"
            )
        base = Model(
            spec.n,
            _coupling_hamiltonian(spec.n, spec.couplings),
            (),
            PauliOperator.identity(spec.n),
            PauliOperator.identity(spec.n),
            (),
            "custom",
        )
    if spec.custom is None:
        return base
    return _apply_custom(base, spec.custom)


def _apply_custom(base: Model, parts: CustomParts) -> Model:
    n = base.n
    for name, op in (("h", parts.h), ("h_extra", parts.h_extra), ("u", parts.u), ("w", parts.w)):
        if op is not None and op.n != n:
            raise ModelConfigError(f"custom.{name}: operator acts on {op.n} sites, model has {n}")
    h = parts.h if parts.h is not None else base.hamiltonian
    if parts.h_extra is not None:
        h = h + parts.h_extra
    lindblads = list(parts.lindblads if parts.lindblads is not None else base.lindblads)
    lindblads.extend(parts.lindblads_extra)
    for lm in lindblads:
        if lm.n != n:
            raise ModelConfigError(f"custom lindblad acts on {lm.n} sites, model has {n}")
    lindblads = [lm for lm in lindblads if lm.terms]
    u = parts.u if parts.u is not None else base.u
    w = parts.w if parts.w is not None else base.w
    return Model(n, h, tuple(lindblads), u, w, channel_constants(lindblads), "custom")


def scale_noise(model: Model, lam: float) -> Model:
    """Multiply every channel by lam (constants by lam^2); H, U, W untouched."""
    if not (lam >= 0):
        raise ModelConfigError(f"noise scale must be >= 0, got {lam!r}")
    lindblads = []
    constants = [] if model.c is not None else None
    for idx, lm in enumerate(model.lindblads):
        scaled = lm * lam
        if scaled.terms:
            lindblads.append(scaled)
            if constants is not None:
                constants.append(model.c[idx] * lam * lam)
    return replace(
        model,
        lindblads=tuple(lindblads),
        c=tuple(constants) if constants is not None else None,
    )


# ---------------------------------------------------------------------------
# JSON config ingestion
# ---------------------------------------------------------------------------

_TOP_KEYS = {"n", "hamiltonian", "noise", "scale", "custom"}
_HAM_KEYS = {"couplings", "fields_x"}
_CUSTOM_KEYS = {"h", "h_extra", "lindblads", "lindblads_extra", "u", "w"}


def _require_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ModelConfigError(f"{where}: unknown field(s) {sorted(unknown)}")


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelConfigError(f"{where}: expected a number, got {value!r}")
    # JSON admits NaN, Infinity and overflowing literals such as 1e400; a
    # non-finite coefficient would be pruned or poison every dense solve
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ModelConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _as_rate(value, where: str) -> complex:
    """A rate is a finite real number or a [re, im] pair of them."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_number(value, where))
    if isinstance(value, list) and len(value) == 2:
        return complex(_as_number(value[0], where), _as_number(value[1], where))
    raise ModelConfigError(f"{where}: expected a real or [re, im] pair, got {value!r}")


def _rate_list(values, n: int, where: str) -> tuple[complex, ...]:
    if not isinstance(values, list):
        raise ModelConfigError(f"{where}: expected an array")
    if len(values) != n:
        raise ModelConfigError(f"{where}: expected {n} entries, got {len(values)}")
    return tuple(_as_rate(v, f"{where}[{i}]") for i, v in enumerate(values))


def _parse_operator(entries, n: int, where: str) -> PauliOperator:
    if not isinstance(entries, list):
        raise ModelConfigError(f"{where}: expected an array of terms")
    acc: dict[str, complex] = {}
    for i, entry in enumerate(entries):
        here = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise ModelConfigError(f"{here}: expected an object with 'word' and 'coeff'")
        _require_keys(entry, {"word", "coeff"}, here)
        word = entry.get("word")
        if not isinstance(word, str):
            raise ModelConfigError(f"{here}.word: expected a string")
        coeff = _as_rate(entry.get("coeff", 1.0), f"{here}.coeff")
        acc[word] = acc.get(word, 0j) + coeff
    try:
        return PauliOperator(n, acc)
    except (DimensionError, ValueError) as exc:
        raise ModelConfigError(f"{where}: {exc}") from exc


def _parse_custom(obj, n: int) -> CustomParts:
    if not isinstance(obj, dict):
        raise ModelConfigError("custom: expected an object")
    _require_keys(obj, _CUSTOM_KEYS, "custom")

    def op(key):
        return _parse_operator(obj[key], n, f"custom.{key}") if key in obj else None

    def op_list(key):
        if key not in obj:
            return None
        entries = obj[key]
        if not isinstance(entries, list):
            raise ModelConfigError(f"custom.{key}: expected an array of operators")
        return tuple(
            _parse_operator(term_list, n, f"custom.{key}[{i}]")
            for i, term_list in enumerate(entries)
        )

    return CustomParts(
        h=op("h"),
        h_extra=op("h_extra"),
        lindblads=op_list("lindblads"),
        lindblads_extra=op_list("lindblads_extra") or (),
        u=op("u"),
        w=op("w"),
    )


def parse_model_config(text: str) -> ModelSpec:
    """Parse and validate the JSON model document; see README for the schema."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ModelConfigError("top level: expected a JSON object")
    _require_keys(doc, _TOP_KEYS, "top level")
    if "n" not in doc:
        raise ModelConfigError("top level: missing required field 'n'")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ModelConfigError(f"n: expected a positive integer, got {n!r}")

    couplings: list[Coupling] = []
    fields: tuple[float, ...] = ()
    ham = doc.get("hamiltonian", {})
    if not isinstance(ham, dict):
        raise ModelConfigError("hamiltonian: expected an object")
    _require_keys(ham, _HAM_KEYS, "hamiltonian")
    raw_couplings = ham.get("couplings", [])
    if not isinstance(raw_couplings, list):
        raise ModelConfigError("hamiltonian.couplings: expected an array")
    for i, entry in enumerate(raw_couplings):
        where = f"hamiltonian.couplings[{i}]"
        if not isinstance(entry, dict):
            raise ModelConfigError(f"{where}: expected an object")
        _require_keys(entry, {"i", "j", "jx", "jy", "jz"}, where)
        for key in ("i", "j"):
            if key not in entry or isinstance(entry[key], bool) or not isinstance(entry[key], int):
                raise ModelConfigError(f"{where}.{key}: expected an integer site index")
        couplings.append(
            (
                entry["i"],
                entry["j"],
                _as_number(entry.get("jx", 0.0), f"{where}.jx"),
                _as_number(entry.get("jy", 0.0), f"{where}.jy"),
                _as_number(entry.get("jz", 0.0), f"{where}.jz"),
            )
        )
    if "fields_x" in ham:
        raw_fields = ham["fields_x"]
        if not isinstance(raw_fields, list):
            raise ModelConfigError("hamiltonian.fields_x: expected an array")
        fields = tuple(
            _as_number(v, f"hamiltonian.fields_x[{i}]") for i, v in enumerate(raw_fields)
        )

    noise: Union[Dephasing, Injection, None] = None
    if "noise" in doc:
        raw_noise = doc["noise"]
        if not isinstance(raw_noise, dict):
            raise ModelConfigError("noise: expected an object")
        kind = raw_noise.get("type")
        if kind == "dephasing":
            _require_keys(raw_noise, {"type", "gammas"}, "noise")
            gammas = (
                _rate_list(raw_noise["gammas"], n, "noise.gammas")
                if "gammas" in raw_noise
                else (0j,) * n
            )
            noise = Dephasing(gammas)
        elif kind == "injection":
            _require_keys(raw_noise, {"type", "a", "b"}, "noise")
            a = _rate_list(raw_noise["a"], n, "noise.a") if "a" in raw_noise else (0j,) * n
            b = _rate_list(raw_noise["b"], n, "noise.b") if "b" in raw_noise else (0j,) * n
            noise = Injection(a, b)
        else:
            raise ModelConfigError(f"noise.type: unknown noise type {kind!r}")

    scale = _as_number(doc.get("scale", 1.0), "scale")
    if scale < 0:
        raise ModelConfigError(f"scale: must be >= 0, got {scale}")

    custom = _parse_custom(doc["custom"], n) if "custom" in doc else None

    spec = ModelSpec(
        n=n,
        couplings=tuple(couplings),
        fields=fields,
        noise=noise,
        scale=scale,
        custom=custom,
    )
    validate_spec(spec)
    return spec
