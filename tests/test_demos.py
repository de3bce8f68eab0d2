"""The quick demos run to completion.

The portfolio case study takes several times longer and is left out; the
CI workflow runs it as a step of its own.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["deviation_budgets.py",
                                  "recover_douglas_rachford.py",
                                  "scheme_checks.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
