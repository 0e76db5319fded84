import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slipflow import cli
from slipflow.cli import ExperimentConfig, main, parse_config, run
from slipflow.solver import ConfigError, SolverError


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_parse_config_rejects_non_object(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_config_rejects_nesting(tmp_path):
    path = write_config(tmp_path, {"param": {"nested": 1}})
    with pytest.raises(ConfigError):
        parse_config(path)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_mapping({"experiment": "dynamic", "typo_key": 1})


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentConfig.from_mapping({"experiment": "nope"})


def test_defaults_reproduce_reference_study():
    cfg = ExperimentConfig.from_mapping({"experiment": "dynamic"})
    assert cfg.nu == 1.0
    assert cfg.delta == 0.005
    assert cfg.alpha == 10.0
    assert cfg.epsilon == 2e-4
    assert cfg.mu_star == 1.0
    assert cfg.n == 75 and cfg.diagonal == "right"


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["solve", str(bad)]) == 3
    cfgp = write_config(tmp_path, {"experiment": "bogus"})
    assert main(["solve", str(cfgp)]) == 3
    missing = tmp_path / "missing.json"
    assert main(["solve", str(missing)]) == 3


def test_cli_override_parsing(tmp_path):
    cfgp = write_config(
        tmp_path,
        {"experiment": "dynamic", "n": 6, "T": 0.01,
         "beta_stars": [0.0], "outdir": str(tmp_path / "out")},
    )
    rc = main(["solve", str(cfgp), "-o", "T=0.02", "-o", "beta_stars=[0.0]"])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["T"] == 0.02


def test_dynamic_run_outputs(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "dynamic", "n": 6, "T": 0.02,
         "beta_stars": [0.0, 1.0], "outdir": str(tmp_path / "out")}
    )
    summary = run(cfg)
    out = tmp_path / "out"
    for name in ("probe_beta0.csv", "probe_beta1.csv", "probe.svg",
                 "summary.json"):
        assert (out / name).exists()
    lines = (out / "probe_beta0.csv").read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "t,v_slip"
    assert summary["results"]["beta0"]["monotone"] is True
    # a linear law: the carried factorization is never refreshed
    assert summary["results"]["beta1"]["newton"]["refreshes"] == 0


def test_dynamic_rerun_byte_identical(tmp_path):
    base = {"experiment": "dynamic", "n": 6, "T": 0.02, "beta_stars": [0.5]}
    cfg1 = ExperimentConfig.from_mapping(
        dict(base, outdir=str(tmp_path / "a"))
    )
    cfg2 = ExperimentConfig.from_mapping(
        dict(base, outdir=str(tmp_path / "b"))
    )
    run(cfg1)
    run(cfg2)
    a = (tmp_path / "a" / "probe_beta0.5.csv").read_bytes()
    b = (tmp_path / "b" / "probe_beta0.5.csv").read_bytes()
    # identical except for the echoed outdir inside the config comment
    a_lines = a.split(b"\n")[1:]
    b_lines = b.split(b"\n")[1:]
    assert a_lines == b_lines


def test_smooth_experiment_small(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "smooth_nonmonotone", "n": 6, "lambdas": [1.0],
         "outdir": str(tmp_path / "out")}
    )
    summary = run(cfg)
    out = tmp_path / "out"
    assert (out / "wall_profile_lam1.csv").exists()
    assert (out / "cr_scatter_lam1.csv").exists()
    assert (out / "cr_scatter_lam1.svg").exists()
    res = summary["results"]["lam1"]
    assert res["max_u_tau"] > 0.1          # genuine slip for Taylor-Green
    header = (out / "cr_scatter_lam1.csv").read_text().splitlines()[1]
    assert header == "u_tau_abs,sigma_abs,sigma_exact_abs"


def failing_first_steady_solve(monkeypatch, exc):
    """Patch the CLI's steady_solve to raise `exc` on its first call;
    returns the schedules it was called with."""
    schedules, real = [], cli.solver.steady_solve

    def steady_solve(make_ctx, schedule, cfg):
        schedules.append(list(schedule))
        if len(schedules) == 1:
            raise exc
        return real(make_ctx, schedule, cfg=cfg)

    monkeypatch.setattr(cli.solver, "steady_solve", steady_solve)
    return schedules


def smooth_config(tmp_path):
    return ExperimentConfig.from_mapping(
        {"experiment": "smooth_nonmonotone", "n": 4, "lambdas": [1.0],
         "outdir": str(tmp_path / "out")})


def test_direct_solve_ramps_on_any_solver_error(tmp_path, monkeypatch):
    schedules = failing_first_steady_solve(
        monkeypatch, SolverError("every line-search trial has a non-finite residual"))
    summary = run(smooth_config(tmp_path))
    assert schedules[0] == [1.0]
    assert schedules[1] == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])
    assert summary["results"]["lam1"]["max_u_tau"] > 0


def test_config_error_in_direct_solve_is_not_ramped(tmp_path, monkeypatch):
    schedules = failing_first_steady_solve(monkeypatch, ConfigError("bad"))
    with pytest.raises(ConfigError, match="bad"):
        run(smooth_config(tmp_path))
    assert schedules == [[1.0]]


def test_stick_slip_experiment_small(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "stick_slip", "n": 6, "T": 0.02, "delta": 0.01,
         "snapshots": [0.02], "gamma_stars": [0.0],
         "outdir": str(tmp_path / "out")}
    )
    summary = run(cfg)
    assert (tmp_path / "out" / "wall_profile_gs0_t0.02.csv").exists()
    assert "max_u_tau_t0.02" in summary["results"]["gs0"]
    counts = summary["results"]["gs0"]["newton"]
    assert set(counts) == {"iterations", "factorizations", "refreshes",
                           "chord_accepted", "chord_rejected", "refinements",
                           "fallbacks", "lu_fill", "factor_s", "refresh_s",
                           "residual_s", "jacobian_s", "linsolve_s"}
    assert counts["lu_fill"] > 0
    assert counts["factor_s"] > 0
    assert counts["residual_s"] > 0 and counts["jacobian_s"] > 0
    assert counts["linsolve_s"] > 0
    assert (counts["refresh_s"] > 0) == (counts["refreshes"] > 0)
    assert counts["iterations"] == 2 * summary["results"]["gs0"]["newton_iters_mean"]
    assert counts["factorizations"] >= 1
    # every iteration steps with a fresh factorization or a reused one,
    # and none fell back to partial pivoting
    assert counts["iterations"] == counts["chord_accepted"] + counts["factorizations"]
    assert counts["refinements"] == counts["fallbacks"] == 0


def test_constants_experiment_small(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "constants", "constants_ns": [4],
         "outdir": str(tmp_path / "out")}
    )
    summary = run(cfg)
    out = tmp_path / "out"
    assert (out / "constants.csv").exists()
    assert (out / "constants.txt").exists()
    per_n = summary["results"]["per_n"]["4"]
    assert per_n["infsup"] > 0


def test_convergence_command_forces_experiment(tmp_path):
    cfgp = write_config(
        tmp_path,
        {"experiment": "dynamic", "convergence_ns": [2, 4, 8],
         "outdir": str(tmp_path / "out")},
    )
    rc = main(["convergence", str(cfgp)])
    assert rc == 0
    assert (tmp_path / "out" / "convergence.csv").exists()


def test_csv_config_echo_is_valid_json(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "dynamic", "n": 6, "T": 0.01, "beta_stars": [0.0],
         "outdir": str(tmp_path / "out")}
    )
    run(cfg)
    first = (tmp_path / "out" / "probe_beta0.csv").read_text().splitlines()[0]
    echoed = json.loads(first[len("# config: "):])
    assert echoed["n"] == 6


def test_probe_outside_the_mesh_is_a_configuration_error(tmp_path, capsys):
    cfgp = write_config(
        tmp_path,
        {"experiment": "dynamic", "n": 2, "T": 0.01, "delta": 0.005,
         "beta_stars": [0.0], "probe_x": 2.0, "outdir": str(tmp_path / "out")},
    )
    assert main(["solve", str(cfgp)]) == 3
    assert "outside the mesh" in capsys.readouterr().err


def test_dirichlet_data_with_net_flux_is_a_configuration_error(
        tmp_path, capsys, monkeypatch):
    # the smooth_nonmonotone runner takes its Dirichlet data from
    # verify.dirichlet_data; g = (x, 0) has a net flux of 1
    monkeypatch.setattr(cli.verify, "dirichlet_data", lambda sol: (
        lambda x, t: np.column_stack([x[:, 0], np.zeros(len(x))])))
    cfgp = write_config(
        tmp_path,
        {"experiment": "smooth_nonmonotone", "n": 2, "lambdas": [1.0],
         "outdir": str(tmp_path / "out")},
    )
    assert main(["solve", str(cfgp)]) == 3
    assert "net flux" in capsys.readouterr().err


def test_summary_dofs_count_the_whole_system(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "dynamic", "n": 3, "T": 0.01, "beta_stars": [0.0],
         "outdir": str(tmp_path / "out")}
    )
    summary = run(cfg)
    # n = 3: 16 vertices and 33 edges carry 2 * 49 velocity dofs, the
    # vertices 16 pressure dofs
    assert summary["dofs"] == 2 * 49 + 16
    written = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert written["dofs"] == summary["dofs"]


def test_convergence_csv_reads_back(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        {"experiment": "convergence", "convergence_ns": [2, 4, 8],
         "outdir": str(tmp_path / "out")}
    )
    summary = run(cfg)
    lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert json.loads(lines[0][len("# config: "):])["convergence_ns"] == [2, 4, 8]
    assert lines[1] == ("n,h,err_L2_u,err_H1_u,err_L2_p,err_L2_un,"
                        "rate_L2_u,rate_H1_u,rate_L2_p,rate_L2_un")
    rows = [line.split(",") for line in lines[2:]]
    assert [row[0] for row in rows] == ["2", "4", "8"]
    assert rows[0][6:] == ["nan"] * 4
    assert float(rows[2][6]) == summary["results"]["rates"]["l2_u"][1]
    assert float(rows[1][2]) == summary["results"]["errors"][1]["err_l2_u"]


FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))
TEXT = st.text(max_size=4)
NOT_NUMBERS = st.one_of(st.booleans(), TEXT, st.lists(NUMBERS, max_size=1))
# values of the wrong type for each annotated field type
WRONG_VALUES = {
    "int": st.one_of(st.floats(-3.0, 3.0), st.booleans(), TEXT,
                     st.lists(st.integers(1, 3), max_size=2)),
    "float": st.one_of(st.booleans(), TEXT, st.lists(NUMBERS, max_size=2)),
    "str": st.one_of(NUMBERS, st.booleans(), st.lists(TEXT, max_size=2)),
    "list[int]": st.one_of(
        NUMBERS, st.booleans(), TEXT,
        st.lists(st.one_of(NOT_NUMBERS, st.floats(-3.0, 3.0)),
                 min_size=1, max_size=2)),
    "list[float]": st.one_of(
        NUMBERS, st.booleans(), TEXT,
        st.lists(NOT_NUMBERS, min_size=1, max_size=2)),
    "object": st.one_of(st.booleans(), TEXT.filter(lambda v: v != "auto"),
                        st.lists(NUMBERS, max_size=2)),
}


@st.composite
def wrong_override(draw):
    key = draw(st.sampled_from(sorted(FIELD_TYPES)))
    return key, json.dumps(draw(WRONG_VALUES[FIELD_TYPES[key]]))


@given(override=wrong_override())
@example(override=("n", "2.5"))
@example(override=("delta", "abc"))
@example(override=("gamma_stars", "5"))
@example(override=("max_iter", "abc"))
@example(override=("max_iter", "0"))
@example(override=("max_iter", "-3"))
@example(override=("convergence_ns", "[1.5, 3, 6]"))
@settings(max_examples=80, deadline=None)
def test_wrong_typed_config_value_exits_3(tmp_path_factory, override):
    root = tmp_path_factory.mktemp("typed")
    cfgp = write_config(root, {
        "experiment": "stick_slip", "n": 2, "T": 0.02, "delta": 0.01,
        "snapshots": [0.02], "gamma_stars": [0.0], "outdir": str(root / "out")})
    key, raw = override
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["solve", str(cfgp), "-o", f"{key}={raw}"]) == 3
    assert f"config key {key!r} must be" in err.getvalue()
    assert not (root / "out").exists()


NON_FINITE = ("NaN", "Infinity", "-Infinity")
# fields that take real numbers: floats, lists of floats and alpha
REAL_KEYS = sorted(k for k, t in FIELD_TYPES.items()
                   if t in ("float", "list[float]", "object"))


@st.composite
def non_finite_override(draw):
    key = draw(st.sampled_from(REAL_KEYS))
    raw = draw(st.sampled_from(NON_FINITE))
    if FIELD_TYPES[key] == "list[float]":
        raw = draw(st.sampled_from([f"[{raw}]", f"[0.5, {raw}]"]))
    return key, raw


@given(override=non_finite_override())
@example(override=("nu", "NaN"))
@example(override=("delta", "NaN"))
@example(override=("T", "NaN"))
@example(override=("epsilon", "NaN"))
@example(override=("abs_tol", "NaN"))
@settings(max_examples=60, deadline=None)
def test_non_finite_config_value_exits_3(tmp_path_factory, override):
    root = tmp_path_factory.mktemp("finite")
    cfgp = write_config(root, {
        "experiment": "stick_slip", "n": 2, "T": 0.02, "delta": 0.01,
        "snapshots": [0.02], "gamma_stars": [0.0], "outdir": str(root / "out")})
    key, raw = override
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["solve", str(cfgp), "-o", f"{key}={raw}"]) == 3
    assert f"config key {key!r} must be" in err.getvalue()
    assert not (root / "out").exists()


@pytest.mark.parametrize("override, message", [
    ("abs_tol=0", "Newton tolerances must be finite and > 0"),
    ("rel_tol=-1e-8", "Newton tolerances must be finite and > 0"),
    ("nu=0", "viscosity nu must be finite and > 0"),
    ("alpha=-2", "alpha must be a positive number"),
    ("delta=0", "time step delta must be finite and > 0"),
    ("T=0.025", "final time 0.025 is not an integer multiple of delta 0.01"),
    ("epsilon=0", "epsilon must be finite and > 0"),
    ("mu_star=-1", "needs finite mu_star, gamma_star >= 0"),
    ("gamma_stars=[0.0, -1.0]", "needs finite mu_star, gamma_star >= 0"),
    ("snapshots=[0.015]", "time 0.015 is not on the trajectory grid"),
])
def test_out_of_range_setting_exits_3_before_any_output(tmp_path, capsys,
                                                        override, message):
    # the Newton, Nitsche, slip-law and time-step settings and the
    # snapshot times are all checked before the output directory is made
    cfgp = write_config(tmp_path, {
        "experiment": "stick_slip", "n": 2, "T": 0.02, "delta": 0.01,
        "snapshots": [0.02], "gamma_stars": [0.0],
        "outdir": str(tmp_path / "out")})
    assert main(["solve", str(cfgp), "-o", override]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,override,message", [
    ("constants", "constants_ns=[]", "constants_ns must be a non-empty list"),
    ("constants", "constants_ns=[0]", "constants_ns must be a non-empty list"),
    ("convergence", "convergence_ns=[4,8]", "needs at least 3 mesh levels"),
    ("convergence", "convergence_ns=[4,8,12]", "nested by factor 2, got 8 -> 12"),
])
def test_bad_mesh_sizes_exit_3_before_any_output(tmp_path, capsys, command,
                                                 override, message):
    cfgp = write_config(tmp_path, {"n": 2, "outdir": str(tmp_path / "out")})
    assert main([command, str(cfgp), "-o", override]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_that_is_not_utf8_exits_3(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"experiment": "dynamic"}).encode())
    with pytest.raises(ConfigError, match="not UTF-8"):
        parse_config(path)
    assert main(["solve", str(path)]) == 3
    assert "not UTF-8" in capsys.readouterr().err


@given(target=st.floats(0.5, 5.0),
       schedule=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4))
@example(target=1.0, schedule=[0.5])
@example(target=1.0, schedule=[1.0, 0.5])
@settings(max_examples=30, deadline=None)
def test_schedule_that_misses_the_target_exits_3(tmp_path_factory, target,
                                                 schedule):
    if schedule[-1] == target:
        schedule = schedule + [target / 2.0]
    root = tmp_path_factory.mktemp("schedule")
    cfgp = write_config(root, {
        "experiment": "smooth_nonmonotone", "n": 2, "lambdas": [target],
        "lambda_schedule": schedule, "outdir": str(root / "out")})
    calls = []
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(cli.solver, "newton_solve",
                   lambda *args, **kwargs: calls.append(args))
        assert main(["solve", str(cfgp)]) == 3
    assert f"must end at the target amplitude {target}" in err.getvalue()
    assert calls == []
    assert not (root / "out").exists()
