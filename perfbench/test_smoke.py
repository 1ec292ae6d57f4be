"""Smoke test of the benchmark harness on tiny workloads.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs at a tiny size in this process, once untraced and once
traced; every metric BENCHMARK.json names must be printed with its unit.
A run whose correctness check fails must exit non-zero, and so must a run
in a tree without the package sources.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_workloads():
    import cases
    tiny = copy.deepcopy(cases.WORKLOADS)
    loose = dict.fromkeys(["u1_max", "u2_max", "nu_bar", "nu_max",
                           "nu_min"], 0.5)
    tiny["cavity_ramp"].update(mesh=[6, 6], targets=[1e3, 1e4],
                               dvd_tol=[loose, loose])
    tiny["cavity_default"].update(mesh=[6, 6], dvd_tol=[loose])
    tiny["manufactured_tables"].update(meshes=[[8, 4], [16, 8]],
                                       methods=[["wg1", 1], ["wg3", 2]],
                                       order_tol=0.5)
    for spec in tiny.values():
        spec.update(probes=1, report_repeats=2)
    return tiny


def _run(capsys, tmp_path, workloads, name, trace):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], workloads, tmp_path)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_workload_names_match_the_benchmark_file():
    import cases
    assert sorted(w["name"] for w in SPEC["workloads"]) == \
        sorted(cases.WORKLOADS)


@pytest.mark.parametrize("name", sorted(w["name"]
                                        for w in SPEC["workloads"]))
def test_tiny_run_prints_every_metric(capsys, tmp_path, name):
    workloads = _tiny_workloads()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, result = _run(capsys, tmp_path, workloads, name, trace)
        assert code == 0, result
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())
    assert (tmp_path / ("%s-seed3-trace1.spans.jsonl" % name)).is_file()


def test_failed_check_exits_nonzero(capsys, tmp_path):
    workloads = _tiny_workloads()
    # no cavity solution is within 0.01% of de Vahl Davis on a 6x6 mesh
    workloads["cavity_default"]["dvd_tol"] = [
        dict.fromkeys(workloads["cavity_default"]["dvd_tol"][0], 1e-4)]
    code, result = _run(capsys, tmp_path, workloads, "cavity_default", 0)
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_tree_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", "cavity_ramp", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
