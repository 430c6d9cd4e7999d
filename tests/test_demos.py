"""Each demo script runs to completion and reports PASS on its last line."""

import pathlib
import runpy

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    ["01_certify_lemma", "02_spectral_pairing", "03_transition_scan", "04_v_matrix"],
)
def test_demo_passes(name, capsys):
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].endswith("PASS")
