import json
import sys

import numpy as np
import pytest

from ptliouville.cli import dumps_canonical, main

from _oracles import assert_spectra_match, bloch_liouvillian_eigs

EXAMPLE1_N2 = {
    "n": 2,
    "hamiltonian": {
        "couplings": [{"i": 0, "j": 1, "jx": 1.0, "jy": 1.0, "jz": 0.5}],
        "fields_x": [0.3, 0.7],
    },
    "noise": {"type": "dephasing", "gammas": [0.2, 0.4]},
}

SINGLE_QUBIT = {
    "n": 1,
    "hamiltonian": {"fields_x": [1.0]},
    "noise": {"type": "dephasing", "gammas": [1.0]},
}


# Interpreters with sys.get_int_max_str_digits() (3.11, and 3.10.7 onward)
# refuse integer literals past that limit (4300 digits by default) while
# parsing; older ones parse them and the finiteness check on the field
# rejects the overflow.
HUGE_INT_WHERE = ("invalid JSON" if hasattr(sys, "get_int_max_str_digits")
                  else "hamiltonian.fields_x[0]")

# Every number is finite, but the squared rate overflows a double.
OVERFLOWING_RATE = {
    "n": 1,
    "hamiltonian": {"fields_x": [0.5]},
    "noise": {"type": "dephasing", "gammas": [1e200]},
}

# Finite throughout, and so is every coefficient of L': 2e160 at most.  The
# squares in the PT residual's norms overflow, to inf rather than an error.
HUGE_RATE = {
    "n": 2,
    "hamiltonian": {"fields_x": [0.5, 0.2]},
    "noise": {"type": "dephasing", "gammas": [1e80, 0.5]},
}

# A non-Hermitian H: the generator would not be a Lindblad generator.
NON_HERMITIAN_H = {
    "n": 1,
    "hamiltonian": {"fields_x": [0.5]},
    "noise": {"type": "dephasing", "gammas": [0.3]},
    "custom": {"h_extra": [{"word": "Z", "coeff": [0, 0.2]}]},
}


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_certified_model(self, tmp_path, capsys):
        path = write_model(tmp_path, EXAMPLE1_N2)
        code, out, err = run_cli(capsys, "check", "--model", path)
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["overall"] is True
        assert doc["pt_residual"] < 1e-10
        z = np.array(doc["Z"])
        assert np.max(np.abs(z - np.eye(2))) < 1e-10

    def test_field_injection_fails_condition_i(self, tmp_path, capsys):
        doc = dict(EXAMPLE1_N2)
        doc["custom"] = {"h_extra": [{"word": "ZI", "coeff": 0.5}]}
        path = write_model(tmp_path, doc)
        code, out, _ = run_cli(capsys, "check", "--model", path)
        assert code == 1
        parsed = json.loads(out)
        assert parsed["cond_i"] is False
        assert parsed["pt_residual"] > 1e-3

    def test_sixteen_qubits(self, tmp_path, capsys):
        # the PT residual is symbolic: only the size guard limits check
        rng = np.random.default_rng(16)
        couplings = [dict(i=i, j=j, jx=jx, jy=jy, jz=jz) for i in range(16) for j in range(i + 1, 16)
                     for jx, jy, jz in [rng.uniform(-1, 1, 3).tolist()]]
        path = write_model(tmp_path, {
            "n": 16,
            "hamiltonian": {"couplings": couplings},
            "noise": {"type": "injection", "a": rng.uniform(0, 1, 16).tolist(),
                      "b": rng.uniform(0, 1, 16).tolist()},
        })
        code, out, err = run_cli(capsys, "check", "--max-n", "16", "--model", path)
        assert code == 0
        assert err == ""
        assert json.loads(out)["pt_residual"] < 1e-10

    # a numpy RuntimeWarning would print lines on stderr
    @pytest.mark.filterwarnings("error")
    def test_huge_finite_rate_fails_without_error(self, tmp_path, capsys):
        path = write_model(tmp_path, HUGE_RATE)
        code, out, err = run_cli(capsys, "check", "--model", path)
        assert code == 1
        assert err == ""
        assert json.loads(out)["overall"] is False

    def test_missing_file(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "check", "--model", str(tmp_path / "nope.json"))
        assert code == 2
        assert out == ""
        assert "nope.json" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"n": }')
        code, out, err = run_cli(capsys, "check", "--model", str(path))
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"n": 1, "hamiltonian": {"fields_x": [NaN]}, '
             '"noise": {"type": "dephasing", "gammas": [0.5]}}', "hamiltonian.fields_x[0]"),
            ('{"n": 2, "hamiltonian": {"couplings": [{"i": 0, "j": 1, "jx": Infinity}]}, '
             '"noise": {"type": "dephasing", "gammas": [0.5, 0.5]}}',
             "hamiltonian.couplings[0].jx"),
            ('{"n": 1, "hamiltonian": {"fields_x": [1.0]}, '
             '"noise": {"type": "dephasing", "gammas": [1e400]}}', "noise.gammas[0]"),
            ('{"n": 1, "noise": {"type": "injection", "a": [[0, NaN]], "b": [0.5]}}',
             "noise.a[0]"),
            ('{"n": 1, "hamiltonian": {"fields_x": [1.0]}, '
             '"noise": {"type": "dephasing", "gammas": [0.5]}, '
             '"custom": {"h_extra": [{"word": "X", "coeff": NaN}]}}', "custom.h_extra[0].coeff"),
            ('{"n": 1, "hamiltonian": {"fields_x": [1' + "0" * 400 + ']}, '
             '"noise": {"type": "dephasing", "gammas": [0.5]}}', "hamiltonian.fields_x[0]"),
            ('{"n": 1, "hamiltonian": {"fields_x": [1' + "0" * 5000 + ']}, '
             '"noise": {"type": "dephasing", "gammas": [0.5]}}', HUGE_INT_WHERE),
        ],
        ids=["nan-field", "inf-coupling", "overflow-rate", "nan-rate-pair", "nan-custom-coeff",
             "overflow-int-field", "huge-int-literal"],
    )
    def test_non_finite_number_is_input_error(self, tmp_path, capsys, text, field):
        path = tmp_path / "model.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "check", "--model", str(path))
        assert code == 2
        assert out == ""
        assert field in err

    @pytest.mark.parametrize(
        "doc, argv, where",
        [
            (OVERFLOWING_RATE, ("check",), "non-finite"),
            (OVERFLOWING_RATE, ("spectrum",), "non-finite"),
            (OVERFLOWING_RATE, ("spectrum", "--format", "json"), "non-finite"),
            (OVERFLOWING_RATE, ("vmatrix",), "non-finite"),
            (OVERFLOWING_RATE, ("scan",), "non-finite"),
            (NON_HERMITIAN_H, ("check",), "custom.h_extra"),
            (NON_HERMITIAN_H, ("spectrum",), "custom.h_extra"),
            (NON_HERMITIAN_H, ("vmatrix",), "custom.h_extra"),
            (NON_HERMITIAN_H, ("scan",), "custom.h_extra"),
        ],
        ids=["check", "spectrum-csv", "spectrum-json", "vmatrix", "scan", "non-hermitian-check",
             "non-hermitian-spectrum", "non-hermitian-vmatrix", "non-hermitian-scan"],
    )
    # a numpy RuntimeWarning would print lines on stderr before the error line
    @pytest.mark.filterwarnings("error")
    def test_non_finite_result_is_input_error(self, tmp_path, capsys, doc, argv, where):
        # input errors found past parsing: non-finite results, a non-Hermitian H
        path = write_model(tmp_path, doc)
        code, out, err = run_cli(capsys, *argv, "--model", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert where in err


    @pytest.mark.parametrize(
        "entries, message",
        [
            ([{"word": "QI", "coeff": 0.5}], "invalid Pauli letter 'Q'"),
            ([{"word": "ZI", "coeff": 0.5}, {"word": "Z", "coeff": 0.5}], "length 1, expected 2"),
        ],
        ids=["bad-letter", "wrong-length"],
    )
    def test_bad_custom_word_is_input_error(self, tmp_path, capsys, entries, message):
        path = write_model(tmp_path, {**EXAMPLE1_N2, "custom": {"h_extra": entries}})
        code, out, err = run_cli(capsys, "check", "--model", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: custom.h_extra: ") and message in err


class TestSpectrum:
    def test_commutator_rows(self, tmp_path, capsys):
        doc = {
            "n": 1,
            "hamiltonian": {"fields_x": [0.5]},
            "noise": {"type": "dephasing", "gammas": [0.0]},
        }
        path = write_model(tmp_path, doc)
        code, out, _ = run_cli(capsys, "spectrum", "--model", path)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,re_L,im_L,re_Lprime,im_Lprime"
        rows = [line.split(",") for line in lines[1:]]
        eigs = [complex(float(r[1]), float(r[2])) for r in rows]
        assert_spectra_match(eigs, [0, 0, 1j, -1j], 1e-12)
        for r in rows:  # no noise: shifted spectrum equals the plain one
            assert float(r[1]) == pytest.approx(float(r[3]), abs=1e-12)

    def test_bloch_rows(self, tmp_path, capsys):
        doc = {
            "n": 1,
            "hamiltonian": {"fields_x": [1.0]},
            "noise": {"type": "dephasing", "gammas": [0.5]},
        }
        path = write_model(tmp_path, doc)
        code, out, _ = run_cli(capsys, "spectrum", "--model", path)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        eigs = [complex(float(r[1]), float(r[2])) for r in rows]
        assert_spectra_match(eigs, bloch_liouvillian_eigs(1.0, 0.5), 1e-10)

    def test_size_guard(self, tmp_path, capsys):
        doc = {"n": 7, "noise": {"type": "dephasing", "gammas": [0.1] * 7}}
        path = write_model(tmp_path, doc)
        code, out, err = run_cli(capsys, "spectrum", "--model", path)
        assert code == 2
        assert "size guard" in err

    def test_json_format(self, tmp_path, capsys):
        path = write_model(tmp_path, SINGLE_QUBIT)
        code, out, _ = run_cli(capsys, "spectrum", "--model", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["eigenvalues"]) == 4
        assert doc["shift"] == pytest.approx(2.0)


class TestScan:
    def test_single_qubit_transition(self, tmp_path, capsys):
        path = write_model(tmp_path, SINGLE_QUBIT)
        code, out, _ = run_cli(
            capsys, "scan", "--model", path,
            "--lambda-min", "0.1", "--lambda-max", "2.0", "--resolution", "1e-6",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,n_imag_axis,classification"
        tail = json.loads(lines[-1])
        assert tail["gamma_pt"] == pytest.approx(1.0, abs=1e-6)
        lo, hi = tail["bracket"]
        assert hi - lo < 1e-6

    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_generator_rows_are_unbroken(self, tmp_path, capsys, n):
        # no couplings and zero rates: L' = 0, whose 4^n eigenvalues all lie on the axis
        path = write_model(tmp_path, {"n": n, "noise": {"type": "dephasing", "gammas": [0.0] * n}})
        code, out, _ = run_cli(capsys, "check", "--model", path)
        assert code == 0
        code, out, err = run_cli(capsys, "scan", "--model", path)
        assert (code, err) == (0, "")
        lines = out.strip().splitlines()
        assert [row.split(",")[1:] for row in lines[1:-1]] == [[str(4 ** n), "UNBROKEN"]] * 2
        assert json.loads(lines[-1])["gamma_pt"] is None

    def test_no_transition_is_null(self, tmp_path, capsys):
        path = write_model(tmp_path, SINGLE_QUBIT)
        code, out, _ = run_cli(
            capsys, "scan", "--model", path,
            "--lambda-min", "0.01", "--lambda-max", "0.05",
        )
        assert code == 0
        tail = json.loads(out.strip().splitlines()[-1])
        assert tail["gamma_pt"] is None

    @pytest.mark.parametrize(
        "argv, where",
        [
            (("--tol-im", "nan"), "tol_im"),
            (("--tol-im", "-1"), "tol_im"),
            (("--tol-im", "inf"), "tol_im"),
            (("--lambda-max", "inf"), "lambda_max < inf"),
            (("--lambda-max", "nan"), "lambda_max < inf"),
            # finite bound, but lambda^2 overflows: the non-finite generator guard
            (("--lambda-max", "1e200"), "non-finite"),
            # a finite generator whose squared entries overflow: the norm guard, as an
            # inf axis threshold would put every eigenvalue on the axis
            (("--lambda-max", "1e80"), "non-finite"),
            # an infinite resolution would report the whole range as the bracket
            (("--resolution", "inf"), "resolution"),
        ],
        ids=["tol-im-nan", "tol-im-negative", "tol-im-inf", "lambda-max-inf", "lambda-max-nan",
             "lambda-max-overflow", "lambda-max-norm-overflow", "resolution-inf"],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_scan_parameter_is_input_error(self, tmp_path, capsys, argv, where):
        path = write_model(tmp_path, EXAMPLE1_N2)
        code, out, err = run_cli(capsys, "scan", "--model", path, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert where in err

    @pytest.mark.parametrize("command", ["check", "spectrum", "vmatrix"])
    def test_tol_im_is_scan_only(self, tmp_path, capsys, command):
        # only scan classifies; elsewhere the flag is unknown, an input error
        path = write_model(tmp_path, EXAMPLE1_N2)
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", path, "--tol-im", "1e-8"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--tol-im" in captured.err

    def test_uncertified_model_exits_one(self, tmp_path, capsys):
        doc = dict(EXAMPLE1_N2)
        doc["custom"] = {"h_extra": [{"word": "ZI", "coeff": 0.5}]}
        path = write_model(tmp_path, doc)
        code, out, err = run_cli(capsys, "scan", "--model", path)
        assert code == 1
        assert out == ""
        assert "certification" in err

    def test_json_format(self, tmp_path, capsys):
        path = write_model(tmp_path, SINGLE_QUBIT)
        code, out, _ = run_cli(
            capsys, "scan", "--model", path, "--format", "json",
            "--lambda-min", "0.01", "--lambda-max", "0.05",
        )
        doc = json.loads(out)
        assert doc["gamma_pt"] is None
        assert all(p["classification"] == "UNBROKEN" for p in doc["probes"])


class TestVMatrix:
    def test_single_qubit_values(self, tmp_path, capsys):
        doc = {
            "n": 1,
            "hamiltonian": {"fields_x": [1.0]},
            "noise": {"type": "dephasing", "gammas": [0.5]},
        }
        path = write_model(tmp_path, doc)
        code, out, _ = run_cli(capsys, "vmatrix", "--model", path)
        assert code == 0
        parsed = json.loads(out)
        assert np.allclose(parsed["V"], [[0, 0.25], [0.25, 0]], atol=1e-12)
        assert parsed["asymmetry"] == pytest.approx(0.0, abs=1e-12)
        assert parsed["parities"] == [1, 1]

    def test_random_family2(self, tmp_path, capsys):
        doc = {
            "n": 2,
            "hamiltonian": {"couplings": [{"i": 0, "j": 1, "jx": 0.9, "jy": 0.4, "jz": -0.3}]},
            "noise": {"type": "injection", "a": [0.7, 0.2], "b": [0.1, 0.8]},
        }
        path = write_model(tmp_path, doc)
        code, out, _ = run_cli(capsys, "vmatrix", "--model", path)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["asymmetry"] < 1e-12
        assert set(parsed["parities"]) <= {-1, 1}

    def test_violating_model_reports_asymmetry(self, tmp_path, capsys):
        doc = {
            "n": 1,
            "custom": {
                "h": [{"word": "X", "coeff": 1.0}, {"word": "Z", "coeff": 1.0}],
                "lindblads": [[{"word": "X", "coeff": 0.5}, {"word": "Y", "coeff": [0, 0.5]}]],
                "u": [{"word": "Y", "coeff": 1.0}],
                "w": [{"word": "X", "coeff": 1.0}],
            },
        }
        path = write_model(tmp_path, doc)
        code, out, _ = run_cli(capsys, "vmatrix", "--model", path)
        assert code == 0  # informational even when certification fails
        parsed = json.loads(out)
        assert parsed["asymmetry"] > 1e-3
        assert parsed["parities"] is None  # [H, W] != 0, no joint eigenbasis


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write_model(tmp_path, EXAMPLE1_N2)
        outputs = set()
        for _ in range(2):
            _, out, _ = run_cli(capsys, "check", "--model", path)
            outputs.add(out)
        assert len(outputs) == 1

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        path = write_model(tmp_path, SINGLE_QUBIT)
        _, out, _ = run_cli(capsys, "spectrum", "--model", path)
        target = tmp_path / "spec.csv"
        code, stdout, _ = run_cli(capsys, "spectrum", "--model", path, "--out", str(target))
        assert code == 0
        assert stdout == ""
        assert target.read_text() == out

    @pytest.mark.parametrize("command", ["check", "spectrum", "scan", "vmatrix"])
    def test_unwritable_out_is_input_error(self, tmp_path, capsys, command):
        path = write_model(tmp_path, SINGLE_QUBIT)
        for target in (tmp_path / "missing" / "out.txt", tmp_path):
            code, out, err = run_cli(capsys, command, "--model", path, "--out", str(target))
            assert code == 2
            assert out == ""
            assert err.startswith("error: cannot write output file") and str(target) in err

    def test_float_serialization_roundtrips(self):
        values = [0.1, 1 / 3, 2e-17, 123456.789, -0.25]
        text = dumps_canonical(values)
        assert json.loads(text) == values

    def test_csv_unsupported_for_check(self, tmp_path, capsys):
        path = write_model(tmp_path, EXAMPLE1_N2)
        code, _, err = run_cli(capsys, "check", "--model", path, "--format", "csv")
        assert code == 2
        assert "json" in err
