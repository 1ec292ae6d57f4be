import importlib.util
import pathlib
import re

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


def load_demo(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_study_prints_its_order_table(capsys):
    load_demo("convergence_study").main(["--levels", "2"])
    out = capsys.readouterr().out
    fine = next(line for line in out.splitlines()
                if line.startswith("16x8"))
    orders = [float(v) for v in re.findall(r"\(([-\d.]+)\)", fine)]
    assert len(orders) == 5                     # one per error column
    assert orders[1] == pytest.approx(2.0, abs=0.25)    # l2_u
