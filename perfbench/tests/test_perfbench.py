"""The benchmark's own tests: output schema, correctness gate, tracer.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from perfbench import gate, tracing, workloads
from perfbench.run import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_the_contract_result(name, trace):
    proc = _bench("--workload", name, "--seed", "5", "--seconds", "0.3",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert np.isfinite(got["value"])
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["saddle.factor_calls"] == metrics["saddle.solve_calls"]
        assert metrics["saddle.lu_fill_nnz_max"] > 0
        assert (metrics["study.l2_error_cross_s"] > 0) == (
            name == "space-study-k4")
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "march-many-steps", "--seed", "0",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _short_march():
    wl = workloads.Workload("short", k=2, alfeld=True, tau=Fraction(1, 20),
                            ns=(2,))
    tracer = tracing.Tracer(0, fine=False)
    with tracer.installed():
        outcome = workloads.run_once(wl, workloads.initial_field(0), tracer)
    return outcome


def test_gate_passes_a_correct_run():
    assert gate.check(_short_march()) == []


def test_gate_reports_divergence_and_broken_ledger():
    outcome = _short_march()
    result = outcome.runs[0]
    V, Q = outcome.spaces[0]
    rng = np.random.default_rng(0)
    result.final = type(result.final)(V, rng.standard_normal(V.num_dofs))
    col = result.ledger.COLUMNS.index("energy_residual")
    row = list(result.ledger.rows[1])
    row[col] = 1.0
    result.ledger.rows[1] = tuple(row)
    problems = gate.check_run(result, Q)
    assert len(problems) == 2
    assert "energy-identity residual" in problems[0]
    assert "|B u_N|" in problems[1]


def test_gate_reports_a_wrong_answer():
    outcome = _short_march()
    good = gate.answer(outcome)
    assert gate.check(outcome, good, 1e-6) == []
    wrong = {"final_l2_sq": [good["final_l2_sq"][0] * (1 + 1e-4)]}
    assert len(gate.check(outcome, wrong, 1e-6)) == 1


def test_tracer_restores_every_wrapped_name():
    from nsfem import saddle, study, timestepper
    before = (timestepper.solve, timestepper.run, study.run, saddle.spla,
              timestepper.RunOperators)
    tracer = tracing.Tracer(0, fine=True)
    with tracer.installed():
        assert timestepper.solve is not before[0]
        assert study.run is timestepper.run is not before[1]
    assert (timestepper.solve, timestepper.run, study.run, saddle.spla,
            timestepper.RunOperators) == before
