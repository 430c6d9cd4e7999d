"""Command-line front end: certification, spectra, transition scans, V matrices.

Exit codes: 0 success / certified, 1 certified failure, 2 input error
(including non-finite values computed from finite input).
All analysis output goes to stdout (or --out); diagnostics go to stderr.
Floats are serialized with 17 significant digits so identical inputs
produce byte-identical output, with numpy's OpenBLAS at any thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from .errors import ModelConfigError, PTLiouvilleError
from .lemma_checker import TOL_CERT, check_lemma
from .model_builder import Model, ModelSpec, build_model, parse_model_config
from .spectral_analysis import (
    TOL_IM,
    hamiltonian_eigenbasis,
    liouvillian_spectra,
    scan_pt_breaking,
    v_matrix,
)
from .superoperator import pt_residual

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_INPUT = 2

DEFAULT_MAX_N = 6


# ---------------------------------------------------------------------------
# Canonical serialization (deterministic floats)
# ---------------------------------------------------------------------------


class _NonFiniteOutput(ModelConfigError):
    """A computed number JSON cannot carry; main() reports it as an input error."""


def format_float(value: float) -> str:
    """'.17g' text of a finite float; nan and inf are not JSON, so they raise ValueError."""
    if not math.isfinite(value):
        raise _NonFiniteOutput(f"cannot serialize the non-finite value {value}")
    return format(float(value), ".17g")


def dumps_canonical(obj) -> str:
    """JSON text with '.17g' floats and insertion-ordered keys."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{dumps_canonical(str(k))}: {dumps_canonical(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_canonical(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ModelConfigError(f"cannot write output file {out_path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Model loading (shared by all subcommands)
# ---------------------------------------------------------------------------


def _load_spec(args) -> ModelSpec:
    try:
        with open(args.model, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ModelConfigError(f"cannot read model file {args.model!r}: {exc}") from exc
    spec = parse_model_config(text)
    if spec.n > args.max_n:
        raise ModelConfigError(
            f"n={spec.n} exceeds the size guard {args.max_n} (raise with --max-n)")
    return spec


def _load_model(args) -> Model:
    return build_model(_load_spec(args))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    if args.format != "json":
        raise ModelConfigError("check supports --format json only")
    model = _load_model(args)
    report = check_lemma(model)
    residual = pt_residual(model)
    doc = report.to_json_dict()
    doc["pt_residual"] = residual
    _emit(dumps_canonical(doc) + "\n", args.out)
    certified = report.overall and residual < TOL_CERT
    return EXIT_OK if certified else EXIT_CERT_FAIL


def cmd_spectrum(args) -> int:
    model = _load_model(args)
    result = liouvillian_spectra(model)
    rows = [
        (i, ev_l.real, ev_l.imag, ev_p.real, ev_p.imag)
        for i, (ev_l, ev_p) in enumerate(zip(result.eig_liouvillian, result.eig_shifted))
    ]
    if args.format == "csv":
        lines = ["index,re_L,im_L,re_Lprime,im_Lprime"]
        lines += [
            f"{i},{format_float(a)},{format_float(b)},{format_float(c)},{format_float(d)}"
            for i, a, b, c, d in rows
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        doc = {
            "n": result.n,
            "shift": result.shift,
            "eigenvalues": [
                {"index": i, "re_L": a, "im_L": b, "re_Lprime": c, "im_Lprime": d}
                for i, a, b, c, d in rows
            ],
        }
        _emit(dumps_canonical(doc) + "\n", args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    spec = _load_spec(args)
    result = scan_pt_breaking(
        spec,
        args.lambda_min,
        args.lambda_max,
        tol_im=args.tol_im,
        resolution=args.resolution,
    )
    if args.format == "csv":
        lines = ["lambda,n_imag_axis,classification"]
        lines += [
            f"{format_float(p.lam)},{p.n_imag_axis},{p.classification}" for p in result.probes
        ]
        tail = result.to_json_dict()
        del tail["probes"]
        lines.append(dumps_canonical(tail))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(dumps_canonical(result.to_json_dict()) + "\n", args.out)
    return EXIT_OK


def cmd_vmatrix(args) -> int:
    if args.format != "json":
        raise ModelConfigError("vmatrix supports --format json only")
    model = _load_model(args)
    try:
        basis = hamiltonian_eigenbasis(model, resolve_w=True)
    except ValueError:
        # uncertified models need not have [H, W] = 0; fall back to a
        # plain eigenbasis and report no parities
        basis = hamiltonian_eigenbasis(model, resolve_w=False)
    vm = v_matrix(model, basis)
    doc = {"n": model.n, **vm.to_json_dict()}
    doc["parities"] = None if basis.parities is None else [int(p) for p in basis.parities]
    _emit(dumps_canonical(doc) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptliouville",
        description="Certify PT symmetry of qubit Liouvillians and verify its spectral consequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_format):
        p.add_argument("--model", required=True, help="path to the JSON model file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=default_format)
        p.add_argument("--max-n", dest="max_n", type=int, default=DEFAULT_MAX_N,
                       help="size guard on the qubit count (default 6)")

    p_check = sub.add_parser("check", help="certify the symmetry conditions and the PT residual")
    common(p_check, "json")
    p_check.set_defaults(func=cmd_check)

    p_spec = sub.add_parser("spectrum", help="full spectra of the Liouvillian and its shift")
    common(p_spec, "csv")
    p_spec.set_defaults(func=cmd_spectrum)

    p_scan = sub.add_parser("scan", help="locate the first spontaneous PT-breaking noise scale")
    common(p_scan, "csv")
    p_scan.add_argument("--lambda-min", dest="lambda_min", type=float, default=0.1)
    p_scan.add_argument("--lambda-max", dest="lambda_max", type=float, default=2.0)
    p_scan.add_argument("--resolution", type=float, default=1e-6)
    p_scan.add_argument("--tol-im", dest="tol_im", type=float, default=TOL_IM,
                        help="imaginary-axis tolerance for classification")
    p_scan.set_defaults(func=cmd_scan)

    p_vm = sub.add_parser("vmatrix", help="channel overlap matrix V and its asymmetry")
    common(p_vm, "json")
    p_vm.set_defaults(func=cmd_vmatrix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow shows as a non-finite result, reported as one error line
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ModelConfigError, np.linalg.LinAlgError) as exc:  # LinAlgError: non-finite results
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PTLiouvilleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERT_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
