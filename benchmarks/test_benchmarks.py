"""Tests of the benchmark harness itself, at tiny sizes (n = 4..8).

    python3 -m pytest benchmarks
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SETTINGS = run.prepare()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
TINY = {
    "stickslip_march": lambda: workloads.StickSlipMarch.from_seed(0, n=4, delta=0.1),
    "nonsmooth_steady": lambda: workloads.NonsmoothSteady.from_seed(0, n=4),
    "constants_family": lambda: workloads.ConstantsFamily(ns=(4, 8)),
}
COUNTS = ("solver.newton_iters", "solver.factorizations",
          "forms.residual_calls", "sliplaw.sigma_calls")


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_prints_with_its_unit(name, trace, capsys, tmp_path):
    result = run.run(TINY[name](), 0, 0.0, trace, SPEC, SETTINGS,
                     tmp_path / "record.json")
    run.print_result(result)
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        assert any(line.split() == [m["name"], f"{got['value']:.6g}", m["unit"]]
                   for line in lines[:-1]), m["name"]
    record = json.loads((tmp_path / "record.json").read_text())
    env = record["environment"]
    for key in ("git_sha", "git_dirty", "python", "numpy", "scipy",
                "numpy_blas", "nproc", "blas_threads", "cpu_model"):
        assert key in env
    assert record["seed"] == 0 and record["params"]
    assert record["seed_used"] == (name != "constants_family")
    if trace:
        assert (tmp_path / record["spans_file"]).is_file()


def test_end_to_end_metrics_are_never_zero():
    result = run.run(TINY["stickslip_march"](), 0, 0.0, False, SPEC, SETTINGS)
    assert result["correct"] and result["failed"] == 0
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name


def _fake_round(burst, n_ops=2):
    # operations of 1 s and 2 s, then 0.5 s of work after the last one
    spans = [(10.0, 11.0), (11.0, 13.0 + burst)][:n_ops]
    return SimpleNamespace(solve_start=10.0, solve_s=3.5 + burst,
                           op_spans=spans)


def test_solve_time_is_robust_to_a_burst_in_one_round():
    pieces, ops = run.op_medians([_fake_round(0.0), _fake_round(1.0),
                                  _fake_round(0.0)])
    assert pieces.sum() == pytest.approx(3.5)
    assert list(ops) == pytest.approx([1.0, 2.0])
    assert run.op_medians([_fake_round(0.0), _fake_round(0.0, n_ops=1)]) is None


def test_gate_rejects_a_perturbed_march_state():
    wl = TINY["stickslip_march"]()
    r = run.Round(wl, tracing.NullTracer(), None)
    assert all(op.ok for op in r.ops) and len(r.ops) == wl.n_ops
    r.steps[5].state.u[r.steps[5].state.u != 0] *= 1.0 + 1e-6
    ops, _ = wl.check(r.problem, r.result, r.steps, None)
    assert [op.ok for op in ops].count(False) == 1
    assert not ops[5].ok and "recomputed residual" in ops[5].detail


def test_gate_rejects_a_lost_step():
    wl = TINY["stickslip_march"]()
    r = run.Round(wl, tracing.NullTracer(), None)
    ops, _ = wl.check(r.problem, r.result, r.steps[:-1], None)
    assert not ops[-1].ok and "not reached" in ops[-1].detail


def test_gate_rejects_a_perturbed_steady_state():
    # at n = 4 the stick amplitude already fails its sigma clause (the
    # mesh is too coarse); the slip amplitude passes every check
    wl = TINY["nonsmooth_steady"]()
    r = run.Round(wl, tracing.NullTracer(), None)
    assert r.ops[1].ok
    r.result[1].u[r.result[1].u != 0] *= 1.0 + 1e-6
    ops, _ = wl.check(r.problem, r.result, r.steps, None)
    assert not ops[1].ok and "recomputed residual" in ops[1].detail


def _u_tau(detail):
    return float(detail.split("max|u_tau| ")[1].split()[0])


def test_gate_rejects_amplitudes_in_the_wrong_regime():
    wl = workloads.NonsmoothSteady(stick=5.0, slip=0.6, n=4)
    r = run.Round(wl, tracing.NullTracer(), None)
    assert [op.ok for op in r.ops] == [False, False]
    assert r.ops[0].detail.startswith("stick:")
    assert _u_tau(r.ops[0].detail) > 1e-3
    assert r.ops[1].detail.startswith("slip:")
    assert _u_tau(r.ops[1].detail) < 1e-2


def test_gate_rejects_perturbed_constants():
    wl = TINY["constants_family"]()
    r = run.Round(wl, tracing.NullTracer(), None)
    assert all(op.ok for op in r.ops)
    good = r.result[0]
    for bad in (dataclasses.replace(good, c_tr=good.c_tr * (1 + 1e-6)),
                dataclasses.replace(good, korn_min_eig=0.0),
                dataclasses.replace(good, infsup=0.5),
                dataclasses.replace(good, c_trK=float("nan"))):
        ops, _ = wl.check(r.problem, [bad] + r.result[1:], r.steps, None)
        assert [op.ok for op in ops] == [False, True]


def test_gate_compares_against_the_reference():
    wl = TINY["constants_family"]()
    r = run.Round(wl, tracing.NullTracer(), None)
    reference = json.loads(json.dumps(r.outputs))
    ops, _ = wl.check(r.problem, r.result, r.steps, reference)
    assert all(op.ok for op in ops)
    reference["n8"]["infsup"] *= 1.0 + 1e-5
    ops, _ = wl.check(r.problem, r.result, r.steps, reference)
    assert [op.ok for op in ops] == [True, False]
    assert "infsup" in ops[1].detail


def _nan_forcing(sol, nu, convection=True):
    return lambda x, t=0.0: np.full((len(x), 2), np.nan)


@pytest.mark.parametrize("name", ["stickslip_march", "nonsmooth_steady"])
def test_nan_forcing_counts_as_failed(name, monkeypatch):
    monkeypatch.setattr(workloads.verify, "forcing", _nan_forcing)
    wl = TINY[name]()
    r = run.Round(wl, tracing.NullTracer(), None)
    # the solver itself reports success on this data ...
    assert r.steps and all(s.report.converged for s in r.steps)
    # ... the gate does not
    assert len(r.ops) == wl.n_ops and not any(op.ok for op in r.ops)
    result = run.run(wl, 0, 0.0, False, SPEC, SETTINGS)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == wl.n_ops


def test_traced_self_times_add_up():
    r = run.Round(TINY["stickslip_march"](), tracing.Tracer(), None)
    spans = r.tracer.spans
    dur = np.array([s[2] - s[1] for s in spans])
    own = tracing.self_times(spans)
    children = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            parent = spans[s[3]]
            assert parent[1] <= s[1] <= s[2] <= parent[2]
            children[s[3]] += d
    np.testing.assert_allclose(own + children, dur, rtol=0, atol=1e-12)
    assert own.min() >= 0.0
    names = {s[0] for s in spans}
    assert {"solver.splu", "solver.lu_solve", "sliplaw.sigma",
            "verify.forcing", "forms.residual", "mesh.build"} <= names
    # the layers' self times and the unattributed rest make the solve root
    m = r.layers
    parts = (m["forms.self_s"] + m["sliplaw.eval_s"] + m["verify.forcing_s"]
             + m["solver.self_s"] + m["stability.self_s"] + m["trace.self_s"]
             + m["trace.unattributed_s"])
    root = [d for s, d in zip(spans, dur) if s[0] == "solve"]
    assert parts == pytest.approx(root[0], rel=1e-9)
    assert m["trace.solve_s"] == pytest.approx(root[0], rel=1e-3)


def test_counts_repeat_between_runs_of_one_seed():
    first, second = (run.Round(TINY["stickslip_march"](), tracing.Tracer(),
                               None).layers for _ in range(2))
    for key in COUNTS:
        assert first[key] == second[key] > 0, key


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", "stickslip_march", "--seed", "0",
                             "--seconds", "1", "--trace", "0"]
    res = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
