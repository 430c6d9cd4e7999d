"""Construction of the two qubit model families and custom variants.

Family 1 couples an XYZ-type two-spin Hamiltonian with an x-field to local
Hermitian dephasing channels; family 2 drops the field and uses local
raising/lowering (injection/absorption) channels.  Both carry the parity
pair (U, W) that the certification module checks.  A JSON config format and
a verbatim "custom" escape hatch (used for negative controls) feed the same
Model type.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .errors import DimensionError, ModelConfigError
from .pauli_algebra import PauliOperator, _word, sigma_minus, sigma_plus

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
    _validated: bool = field(default=False, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Model:
    """Realized operator set; lemma_checker.check_condition_iii finds its channel constants."""

    n: int
    hamiltonian: PauliOperator
    lindblads: tuple[PauliOperator, ...]
    u: PauliOperator
    w: PauliOperator
    family: str  # "example1" | "example2" | "custom"


def require_hermitian(h: PauliOperator, where: str) -> None:
    """Raise ModelConfigError unless H is Hermitian.

    Pauli words are Hermitian, so H is exactly when every coefficient is
    real; the test is exact, with no tolerance.
    """
    for word, coeff in h.sorted_terms():
        if coeff.imag != 0:
            raise ModelConfigError(
                f"{where}: the Hamiltonian must be Hermitian, but {word!r} has coefficient {coeff}"
            )


def validate_spec(spec: ModelSpec) -> None:
    """Structural and finiteness validation; raises ModelConfigError naming the field."""
    if isinstance(spec.n, bool) or not isinstance(spec.n, int) or spec.n < 1:
        raise ModelConfigError(f"n must be a positive integer, got {spec.n!r}")
    seen = set()
    for i, cpl in enumerate(spec.couplings):
        j, k = cpl[0], cpl[1]
        if not (0 <= j < k < spec.n):
            raise ModelConfigError(
                f"couplings[{i}]: sites ({j},{k}) must satisfy 0 <= j < k < n={spec.n}"
            )
        if (j, k) in seen:
            raise ModelConfigError(f"duplicate coupling pair ({j},{k})")
        seen.add((j, k))
        for key, value in zip(("jx", "jy", "jz"), cpl[2:]):
            if not cmath.isfinite(value):
                raise ModelConfigError(
                    f"couplings[{i}].{key}: expected a finite number, got {value!r}"
                )
    if spec.fields and len(spec.fields) != spec.n:
        raise ModelConfigError(
            f"fields: expected {spec.n} entries, got {len(spec.fields)}"
        )
    rates = vars(spec.noise) if spec.noise is not None else {}  # gammas, or a and b
    for key, values in rates.items():
        if len(values) != spec.n:
            raise ModelConfigError(f"noise.{key}: expected {spec.n} entries, got {len(values)}")
    for where, values in (("fields", spec.fields), *((f"noise.{k}", v) for k, v in rates.items())):
        for i, value in enumerate(values):
            if not cmath.isfinite(value):
                raise ModelConfigError(f"{where}[{i}]: expected a finite number, got {value!r}")
    if not (0 <= spec.scale < math.inf):
        raise ModelConfigError(f"scale must be finite and >= 0, got {spec.scale!r}")


def _hamiltonian(n: int, couplings, fields=()) -> PauliOperator:
    """Couplings then x-fields, summed once; the words are distinct and valid."""
    terms: dict[str, complex] = {}
    for (j, k, jx, jy, jz) in couplings:
        for letter, strength in (("X", jx), ("Y", jy), ("Z", jz)):
            if strength != 0:
                terms[_word(n, letter, j, k)] = strength
    for j, hj in enumerate(fields):
        if hj != 0:
            terms[_word(n, "X", j)] = hj
    return PauliOperator._canonical(n, terms)


def build_example1(spec: ModelSpec) -> Model:
    """Family 1: XYZ couplings + x-field, dephasing channels, U = prod X, W = identity."""
    if not spec._validated:
        validate_spec(spec)
    if not isinstance(spec.noise, Dephasing):
        raise ModelConfigError("noise: the example-1 build requires dephasing noise")
    n = spec.n
    h = _hamiltonian(n, spec.couplings, spec.fields)
    lindblads = []
    for j, g in enumerate(spec.noise.gammas):
        lm = PauliOperator._canonical(n, {_word(n, "Z", j): spec.scale * g})
        if lm.terms:
            lindblads.append(lm)
    u = PauliOperator._canonical(n, {"X" * n: 1.0})
    w = PauliOperator.identity(n)
    return Model(n, h, tuple(lindblads), u, w, "example1")


def build_example2(spec: ModelSpec) -> Model:
    """Family 2: XYZ couplings only, injection/absorption channels, U = prod Y, W = prod X.

    Channel ordering is fixed: per site ascending, raising before lowering;
    zero-rate channels are dropped (their rows would make the reflection
    solve singular).
    """
    if not spec._validated:
        validate_spec(spec)
    if not isinstance(spec.noise, Injection):
        raise ModelConfigError("noise: the example-2 build requires injection noise")
    if spec.fields and any(f != 0 for f in spec.fields):
        raise ModelConfigError("example-2 models admit no field terms")
    n = spec.n
    h = _hamiltonian(n, spec.couplings)
    lindblads = []
    for j in range(n):
        for rate, op in ((spec.noise.a[j], sigma_plus(j, n)), (spec.noise.b[j], sigma_minus(j, n))):
            lm = op * (spec.scale * rate)
            if lm.terms:
                lindblads.append(lm)
    u = PauliOperator._canonical(n, {"Y" * n: 1.0})
    w = PauliOperator._canonical(n, {"X" * n: 1.0})
    return Model(n, h, tuple(lindblads), u, w, "example2")


def build_model(spec: ModelSpec) -> Model:
    """Realize a spec: family build per noise type, then any custom overrides.

    The family builders validate the spec themselves, so only the custom
    path does here; none validates a spec from parse_model_config again.
    """
    if isinstance(spec.noise, Dephasing):
        base = build_example1(spec)
    elif isinstance(spec.noise, Injection):
        base = build_example2(spec)
    else:
        if not spec._validated:
            validate_spec(spec)
        if spec.custom is None or spec.custom.u is None or spec.custom.w is None:
            raise ModelConfigError(
                "a model without a noise family must supply custom u and w"
            )
        base = Model(
            spec.n,
            _hamiltonian(spec.n, spec.couplings),
            (),
            PauliOperator.identity(spec.n),
            PauliOperator.identity(spec.n),
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
    supplied = [f"custom.{name}" for name in ("h", "h_extra") if getattr(parts, name) is not None]
    require_hermitian(h, " + ".join(supplied))
    for name in ("lindblads", "lindblads_extra"):
        for i, lm in enumerate(getattr(parts, name) or ()):
            if lm.n != n:
                raise ModelConfigError(
                    f"custom.{name}[{i}]: operator acts on {lm.n} sites, model has {n}")
    lindblads = list(parts.lindblads if parts.lindblads is not None else base.lindblads)
    lindblads.extend(parts.lindblads_extra)
    lindblads = [lm for lm in lindblads if lm.terms]
    u = parts.u if parts.u is not None else base.u
    w = parts.w if parts.w is not None else base.w
    return Model(n, h, tuple(lindblads), u, w, "custom")


def scale_noise(model: Model, lam: float) -> Model:
    """Multiply every channel by lam and drop the zero ones; H, U, W untouched."""
    if not (0 <= lam < math.inf):
        raise ModelConfigError(f"noise scale must be finite and >= 0, got {lam!r}")
    scaled = (lm * lam for lm in model.lindblads)
    return replace(model, lindblads=tuple(lm for lm in scaled if lm.terms))


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
    except ValueError as exc:  # e.g. an integer literal past sys.get_int_max_str_digits()
        raise ModelConfigError(f"invalid JSON: {exc}") from exc
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
        if raw_fields and len(raw_fields) != n:  # [] means zero fields, as omitting it does
            raise ModelConfigError(
                f"hamiltonian.fields_x: expected {n} entries, got {len(raw_fields)}")
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
    object.__setattr__(spec, "_validated", True)  # so the builders skip validate_spec
    return spec
