"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The long experiment
criteria are marked slow; deselect with `-m "not slow"` during
development.
"""

import os
import time

import numpy as np
import pytest

from test_forms import fd_derivative
from slipflow.cli import ExperimentConfig, run
from slipflow.fespace import SystemState, TaylorHoodSpace
from slipflow.forms import (
    AssemblyContext,
    NitscheConfig,
    assemble_jacobian,
    assemble_residual,
    boundary_functionals,
    get_cache,
    trilinear_skew,
)
from slipflow.mesh import build_unit_square, tag_boundary, top_wall_tagger
from slipflow.sliplaw import (
    certify,
    dynamic_moving_wall,
    fang_regularized,
    fit_lambda,
    leroux_rajagopal,
    navier,
    stick_slip_regularized,
    tresca_regularized,
)
from slipflow.solver import NewtonConfig, steady_solve, time_march
from slipflow.stability import (
    infsup_constant,
    korn_normal_trace_min_eig,
    wall_facets,
)
from slipflow.verify import (
    convergence_study,
    dirichlet_data,
    forcing,
    interpolation_errors,
    polynomial_jhyw,
    slip_correction,
    taylor_green,
)


def report(num, name, ok, detail):
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def make_space(n, diag="right"):
    return TaylorHoodSpace(
        tag_boundary(build_unit_square(n, diag), top_wall_tagger())
    )


# -- 1: rest state ---------------------------------------------------------------

def test_criterion_01_rest_state():
    t0 = time.perf_counter()
    space = make_space(32)
    law = tresca_regularized(1.0, 2e-4)   # sigma(0) = 0
    ctx = AssemblyContext(
        space, NitscheConfig(alpha=10.0), law, dirichlet=0.0,
        delta=0.01, u_old=np.zeros(space.n_vdofs),
    )
    traj = time_march(ctx, SystemState.zero(space), T=0.1, delta=0.01)
    u = traj.final_state.u
    l2 = float(np.sqrt(u @ (get_cache(space).M_u @ u)))
    elapsed = time.perf_counter() - t0
    report(
        1, "rest state", l2 <= 1e-12 and elapsed < 5.0,
        f"||u||_L2 = {l2:.2e} after 10 steps at n=32 in {elapsed:.2f}s",
    )


# -- 2: skew symmetry --------------------------------------------------------------

def test_criterion_02_skew_symmetry(space4, rng):
    worst = 0.0
    for _ in range(50):
        u = rng.normal(size=space4.n_vdofs)
        v = rng.normal(size=space4.n_vdofs)
        scale = np.linalg.norm(u) * np.linalg.norm(v) ** 2
        worst = max(worst, abs(trilinear_skew(space4, u, v, v)) / scale)
    report(2, "skew symmetry", worst <= 1e-12,
           f"max |btilde(u,v,v)| / (|u||v|^2) = {worst:.2e} over 50 pairs")


# -- 3: Jacobian check -------------------------------------------------------------

def test_criterion_03_jacobian_fd(space4, rng):
    laws = [
        navier(2.0),
        leroux_rajagopal(1.0, 0.1, 0.001, -0.75),
        tresca_regularized(1.0, 2e-4),
        stick_slip_regularized(2.0, 1.0, 2e-4),
        fang_regularized(1.6, 1.5, 10.0, 2e-4),
        dynamic_moving_wall(1.0, 2.0, 0.01),
    ]
    worst = 0.0
    checks = 0
    for law in laws:
        for variant in ("symmetric", "antisymmetric"):
            for steady in (True, False):
                if law.beta_star > 0 and steady:
                    continue
                cfg = NitscheConfig(alpha=10.0, variant=variant)
                ctx = AssemblyContext(
                    space4, cfg, law, dirichlet=0.0,
                    delta=None if steady else 0.01,
                    u_old=None if steady else rng.normal(size=space4.n_vdofs),
                    t=0.4,
                )
                for _ in range(20):
                    x = rng.normal(size=ctx.n_sys)
                    st = ctx.unpack(x)
                    ctx.project_dirichlet(st)
                    x = ctx.pack(st)
                    e = rng.normal(size=ctx.n_sys)
                    e[space4.dirichlet_vdofs] = 0.0
                    h = 1e-5 / np.linalg.norm(e)
                    fd = fd_derivative(
                        lambda s: assemble_residual(ctx.unpack(x + s * e), ctx), h)
                    je = assemble_jacobian(st, ctx) @ e
                    rel = np.linalg.norm(fd - je) / np.linalg.norm(je)
                    worst = max(worst, rel)
                    checks += 1
    report(3, "Jacobian FD", worst <= 1e-6,
           f"worst relative mismatch {worst:.2e} over {checks} states")


# -- 4: energy identity -------------------------------------------------------------

@pytest.mark.slow
def test_criterion_04_energy_identity():
    space = make_space(32)
    law = dynamic_moving_wall(1.0, 2.0, 0.01)
    ctx = AssemblyContext(
        space, NitscheConfig(alpha="auto", variant="antisymmetric"), law,
        dirichlet=0.0, delta=0.005, u_old=np.zeros(space.n_vdofs),
    )
    traj = time_march(
        ctx, SystemState.zero(space), T=0.25, delta=0.005,
        cfg=NewtonConfig(abs_tol=1e-11, rel_tol=1e-11, max_iter=60),
    )
    rel = max(abs(e.residual) / e.scale for e in traj.energy)
    pmin = min(e.penalty_form for e in traj.energy)
    report(
        4, "energy identity",
        rel <= 1e-8 and pmin >= 0.0,
        f"max relative balance residual {rel:.2e}; min penalty form "
        f"{pmin:.3e} with auto alpha = {ctx.alpha:.3f}",
    )


# -- 5: manufactured convergence ------------------------------------------------------

@pytest.mark.slow
def test_criterion_05_manufactured_convergence():
    t0 = time.perf_counter()
    law = navier(1.0)
    sol = taylor_green(1.0)
    f = forcing(sol, 1.0, convection=False)
    g = slip_correction(sol, law, 1.0)

    def solve_on(n):
        space = make_space(n)
        ctx = AssemblyContext(
            space,
            NitscheConfig(alpha=10.0, include_convection=False),
            law, forcing=f, dirichlet=dirichlet_data(sol), slip_forcing=g,
        )
        return space, steady_solve(ctx), sol

    res = convergence_study([16, 32, 64], solve_on)
    elapsed = time.perf_counter() - t0
    h1 = min(res.rates["h1_u"])
    lp = min(res.rates["l2_p"])
    un = min(res.rates["l2_un"])
    report(
        5, "manufactured convergence",
        h1 >= 1.8 and lp >= 1.8 and un >= 1.5 and elapsed < 180.0,
        f"rates H1(u) {h1:.2f}, L2(p) {lp:.2f}, u.n {un:.2f} in {elapsed:.0f}s",
    )


# -- 6 & 7: activation threshold and slip regime ---------------------------------------

def _nonsmooth_steady(lam_star, n):
    space = make_space(n)
    law = fang_regularized(1.6, 1.5, 10.0, 2e-4)
    sol = polynomial_jhyw(lam_star)
    ctx = AssemblyContext(
        space, NitscheConfig(nu=1.0, alpha=10.0), law,
        forcing=forcing(sol, 1.0, convection=True), dirichlet=0.0,
    )
    state = steady_solve(ctx)
    return space, state, ctx, sol


@pytest.mark.slow
def test_criterion_06_activation_threshold():
    t0 = time.perf_counter()
    space, state, ctx, sol = _nonsmooth_steady(0.6, 64)
    prof = boundary_functionals(state, ctx)
    err = space.error_norms(state, sol.u, sol.p, exact_grad_u=sol.grad_u)
    interp = interpolation_errors(space, sol)
    elapsed = time.perf_counter() - t0
    ok = (
        prof.u_tau.max() <= 1e-3
        and 0.735 <= prof.sigma.max() <= 0.765
        and err.l2_u <= 5.0 * interp.l2_u
        and elapsed < 120.0
    )
    report(
        6, "activation threshold",
        ok,
        f"max|u_tau| {prof.u_tau.max():.2e}, max|sigma| {prof.sigma.max():.4f} "
        f"(window [0.735, 0.765]), L2 error {err.l2_u:.2e} vs "
        f"5x interp {5 * interp.l2_u:.2e}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_07_slip_regime():
    space, state, ctx, _ = _nonsmooth_steady(5.0, 64)
    prof = boundary_functionals(state, ctx)
    report(
        7, "slip regime",
        prof.u_tau.max() >= 1e-2,
        f"max|u_tau| = {prof.u_tau.max():.3f} at amplitude 5",
    )


# -- 8: stick-slip timing ----------------------------------------------------------------

@pytest.mark.slow
def test_criterion_08_stick_slip_timing():
    t0 = time.perf_counter()
    space = make_space(50)
    law = stick_slip_regularized(0.0, 1.0, 2e-4)
    sol = polynomial_jhyw(1.0, time_mode="linear")
    ctx = AssemblyContext(
        space, NitscheConfig(nu=1.0, alpha=10.0), law,
        forcing=forcing(sol, 1.0, convection=True), dirichlet=0.0,
        delta=0.005, u_old=np.zeros(space.n_vdofs),
    )
    traj = time_march(ctx, SystemState.zero(space), T=1.5, delta=0.005)
    early = traj.profile_at(0.5).u_tau.max()
    late = traj.profile_at(1.5).u_tau.max()
    elapsed = time.perf_counter() - t0
    ok = early <= 1e-3 and late >= 50.0 * early and elapsed < 600.0
    report(
        8, "stick-slip timing", ok,
        f"max|u_tau|(0.5) = {early:.2e}, max|u_tau|(1.5) = {late:.2e} "
        f"(ratio {late / max(early, 1e-300):.0f}), {elapsed:.0f}s at n=50",
    )


# -- 9 & 13: dynamic relaxation and determinism ---------------------------------------------

@pytest.fixture(scope="module")
def dynamic_runs(tmp_path_factory):
    """Three n=50 runs of the dynamic experiment: beta*=0 twice (for the
    determinism check) and beta*=2 once."""
    outputs = {}
    for tag, beta in (("a", 0.0), ("b", 0.0), ("c", 2.0)):
        root = tmp_path_factory.mktemp(f"dyn_{tag}")
        cwd = os.getcwd()
        os.chdir(root)
        try:
            t0 = time.perf_counter()
            cfg = ExperimentConfig.from_mapping(
                {
                    "experiment": "dynamic",
                    "n": 50,
                    "T": 1.0,
                    "delta": 0.005,
                    "gamma_star": 1.0,
                    "theta_star": 0.01,
                    "beta_stars": [beta],
                    "outdir": "out",
                }
            )
            run(cfg)
            elapsed = time.perf_counter() - t0
        finally:
            os.chdir(cwd)
        csv_path = root / "out" / f"probe_beta{beta:g}.csv"
        outputs[tag] = (csv_path.read_bytes(), elapsed)
    return outputs


@pytest.mark.slow
def test_criterion_09_dynamic_relaxation(dynamic_runs):
    def series(raw):
        rows = [
            ln.split(",") for ln in raw.decode().splitlines()
            if ln and not ln.startswith(("#", "t,"))
        ]
        return np.array([[float(a), float(b)] for a, b in rows])

    s0 = series(dynamic_runs["a"][0])
    s2 = series(dynamic_runs["c"][0])
    mono = bool(np.all(np.diff(s0[:, 1]) >= -1e-6))
    overshoot = s2[:, 1].max() >= 1.02 * s2[-1, 1]
    t_a, t_c = dynamic_runs["a"][1], dynamic_runs["c"][1]
    ok = mono and overshoot and t_a < 600.0 and t_c < 600.0
    report(
        9, "dynamic relaxation", ok,
        f"beta*=0 monotone: {mono}; beta*=2 max {s2[:, 1].max():.3f} vs "
        f"1.02 x final {1.02 * s2[-1, 1]:.3f}; runtimes {t_a:.0f}s / {t_c:.0f}s",
    )


@pytest.mark.slow
def test_criterion_13_determinism(dynamic_runs):
    same = dynamic_runs["a"][0] == dynamic_runs["b"][0]
    report(
        13, "determinism", same,
        f"two beta*=0 probe CSVs byte-identical: {same} "
        f"({len(dynamic_runs['a'][0])} bytes)",
    )


# -- 10: Korn dichotomy -----------------------------------------------------------------

def test_criterion_10_korn_dichotomy():
    space = make_space(16)
    full, _ = korn_normal_trace_min_eig(space)
    two, _ = korn_normal_trace_min_eig(space, wall_facets(space, ["top", "left"]))
    top, vec = korn_normal_trace_min_eig(space, wall_facets(space, ["top"]))
    translation = space.interpolate_velocity(
        lambda x: np.column_stack([np.ones(len(x)), np.zeros(len(x))])
    )
    align = abs(
        (vec / np.linalg.norm(vec)) @ (translation / np.linalg.norm(translation))
    )
    ok = full > 1e-6 and two > 1e-6 and abs(top) <= 1e-10 and align > 1 - 1e-6
    report(
        10, "Korn dichotomy", ok,
        f"eig(full) {full:.3e}, eig(top+left) {two:.3e}, eig(top) {top:.1e}, "
        f"translation witness alignment {align:.6f}",
    )


# -- 11: inf-sup robustness ---------------------------------------------------------------

def test_criterion_11_infsup_robustness():
    vals = [infsup_constant(make_space(n)) for n in (8, 16, 32)]
    spread = (max(vals) - min(vals)) / max(vals)
    ok = all(v > 0 for v in vals) and spread <= 0.2
    report(
        11, "inf-sup robustness", ok,
        "constants " + ", ".join(f"{v:.4f}" for v in vals)
        + f" (spread {100 * spread:.1f}%)",
    )


# -- 12: slip-law certificates ----------------------------------------------------------------

def test_criterion_12_certificates():
    leroux = leroux_rajagopal(1.0, 0.1, 0.001, -0.75)
    fitted = fit_lambda(leroux)
    cases = [
        ("navier", certify(navier(1.0)), 0.0),
        ("tresca", certify(tresca_regularized(1.0, 2e-4)), 0.0),
        ("stick-slip", certify(stick_slip_regularized(2.0, 1.0, 2e-4)), 0.0),
        ("fang", certify(fang_regularized(1.6, 1.5, 10.0, 2e-4)), 1.0),
        ("leroux", certify(leroux), leroux.lam),
    ]
    ok = all(cert.passed for _, cert, _ in cases)
    ok = ok and abs(cases[3][1].lam - 1.0) <= 1e-12   # lambda = beta (a - b)
    ok = ok and fitted >= 0.0 and cases[4][2] >= 0.0
    detail = "; ".join(
        f"{name}: {'pass' if cert.passed else 'FAIL'} (lambda {lam:g})"
        for name, cert, lam in cases
    )
    report(12, "slip-law certificates", ok, detail)
