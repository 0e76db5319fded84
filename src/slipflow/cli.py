"""Configuration-driven experiment runner.

Experiments (unit square, slip on the top wall, no-slip elsewhere):

  smooth_nonmonotone    steady flow against the smooth nonmonotone law,
                        Taylor-Green forcing, amplitude sweep
  nonsmooth_nonmonotone steady flow against the regularized nonmonotone
                        friction law, polynomial forcing, amplitude sweep
  stick_slip            unsteady run with the regularized Tresca /
                        stick-slip law and time-ramped polynomial forcing
  dynamic               flow driven by a moving wall with dynamic slip,
                        probe of the slip velocity at (0.5, 1)
  convergence           manufactured-solution rate study
  constants             certified stability constants over a mesh family

Config files are flat JSON objects in UTF-8 (scalars or lists of
scalars, each of its key's type; numbers must be finite); CLI
`-o key=value` overrides file keys.  CSV files
carry a comment line echoing the resolved config.  Exit codes: 0
success, 2 solver failure, 3 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import fespace, forms, mesh, sliplaw, solver, stability, verify
from .solver import ConfigError
from .svgplot import SvgPlot

log = logging.getLogger("slipflow.cli")

EXPERIMENTS = (
    "smooth_nonmonotone",
    "nonsmooth_nonmonotone",
    "stick_slip",
    "dynamic",
    "convergence",
    "constants",
)


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    """A finite number: JSON's NaN and Infinity are not."""
    return (isinstance(val, float) and math.isfinite(val)) or _is_int(val)


# annotated field type -> (what a config value must be, its check)
_FIELD_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list[int]": ("a list of integers",
                  lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "list[float]": ("a list of finite numbers",
                    lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "object": ("a finite number or 'auto'",
               lambda v: v == "auto" or _is_number(v)),
}


@dataclasses.dataclass
class ExperimentConfig:
    """Resolved run configuration; defaults reproduce the reference study
    (nu=1, delta=0.005, alpha=10, epsilon=2e-4, mu*=1, Taylor-Hood,
    top-wall slip, ~51k DOFs at n=75)."""

    experiment: str = "smooth_nonmonotone"
    outdir: str = "out"
    n: int = 75
    diagonal: str = "right"
    nu: float = 1.0
    delta: float = 0.005
    T: float = 2.0
    alpha: object = 10.0              # float or "auto"
    variant: str = "symmetric"
    epsilon: float = 2e-4
    mu_star: float = 1.0
    gamma_star: float = 1.0
    theta_star: float = 0.01
    leroux_a: float = 1.0
    leroux_b: float = 0.1
    leroux_c: float = 0.001
    leroux_theta: float = -0.75
    fang_a: float = 1.6
    fang_b: float = 1.5
    fang_beta_exp: float = 10.0
    lambdas: list[float] = dataclasses.field(default_factory=lambda: [1.0, 10.0])
    lambda_star: float = 1.0
    lambda_schedule: list[float] = dataclasses.field(default_factory=list)
    gamma_stars: list[float] = dataclasses.field(default_factory=lambda: [0.0, 2.0])
    beta_stars: list[float] = dataclasses.field(
        default_factory=lambda: [0.0, 0.5, 1.0, 2.0]
    )
    snapshots: list[float] = dataclasses.field(default_factory=lambda: [0.5, 1.5, 2.0])
    probe_x: float = 0.5
    probe_y: float = 1.0
    convergence_ns: list[int] = dataclasses.field(default_factory=lambda: [16, 32, 64])
    constants_ns: list[int] = dataclasses.field(default_factory=lambda: [8, 16, 32])
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_iter: int = 40

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(fields))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        for key, val in data.items():
            what, fits = _FIELD_TYPES[fields[key].type]
            if not fits(val):
                raise ConfigError(f"config key {key!r} must be {what}, got {val!r}")
        cfg = cls(**data)
        if cfg.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {cfg.experiment!r}; known: {EXPERIMENTS}"
            )
        if cfg.n < 1:
            raise ConfigError("mesh resolution n must be >= 1")
        if cfg.diagonal not in ("right", "crossed"):
            raise ConfigError(f"unknown diagonal {cfg.diagonal!r}")
        if not (cfg.alpha == "auto" or cfg.alpha > 0):
            raise ConfigError("alpha must be a positive number or 'auto'")
        return cfg

    def echo(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def parse_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a flat JSON object")
    for key, val in data.items():
        ok = isinstance(val, (int, float, str, bool)) or (
            isinstance(val, list)
            and all(isinstance(v, (int, float, str, bool)) for v in val)
        )
        if not ok:
            raise ConfigError(f"config key {key!r} must be a scalar or flat list")
    return data


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _space(cfg: ExperimentConfig, n: int | None = None) -> fespace.TaylorHoodSpace:
    """The space on the n x n unit square (default cfg.n), slip on the top wall."""
    n = cfg.n if n is None else n
    msh = mesh.tag_boundary(
        mesh.build_unit_square(n, cfg.diagonal), mesh.top_wall_tagger()
    )
    return fespace.TaylorHoodSpace(msh)


def _context(cfg: ExperimentConfig, space: fespace.TaylorHoodSpace, law,
             include_convection: bool = True, **data) -> forms.AssemblyContext:
    """The assembly context of the configured Nitsche scheme on `space`;
    `data` (forcing, dirichlet, delta, ...) goes to AssemblyContext."""
    nitsche = forms.NitscheConfig(nu=cfg.nu, alpha=cfg.alpha, variant=cfg.variant,
                                  include_convection=include_convection)
    return forms.AssemblyContext(space, nitsche, law, **data)


def _newton(cfg: ExperimentConfig) -> solver.NewtonConfig:
    return solver.NewtonConfig(
        abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol, max_iter=cfg.max_iter
    )


def _csv(path: Path, header: str, rows, echo: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# config: {echo}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _write_profile(outdir: Path, tag: str, prof, echo: str) -> None:
    _csv(
        outdir / f"wall_profile_{tag}.csv",
        "x,u_tau,sigma,un",
        zip(prof.x, prof.u_tau, prof.sigma, prof.un),
        echo,
    )
    plot = SvgPlot(title=f"wall profile {tag}", xlabel="x",
                   ylabel="|u_tau|, |sigma|")
    plot.add_line(prof.x, prof.u_tau, label="|u_tau|")
    plot.add_line(prof.x, prof.sigma, label="|sigma|")
    plot.save(outdir / f"wall_profile_{tag}.svg")


def _write_cr(outdir: Path, tag: str, prof, law, echo: str) -> None:
    exact = law.exact_magnitude(prof.u_tau) if law.exact_magnitude else prof.sigma
    _csv(
        outdir / f"cr_scatter_{tag}.csv",
        "u_tau_abs,sigma_abs,sigma_exact_abs",
        zip(prof.u_tau, prof.sigma, exact),
        echo,
    )
    plot = SvgPlot(title=f"constitutive relation {tag}", xlabel="|u_tau|",
                   ylabel="|sigma|")
    order = np.argsort(prof.u_tau, kind="stable")
    plot.add_scatter(prof.u_tau[order], prof.sigma[order], label="computed")
    plot.add_line(prof.u_tau[order], np.asarray(exact)[order], label="exact",
                  color="#d62728")
    plot.save(outdir / f"cr_scatter_{tag}.svg")


def _steady(cfg, space, law, lam_star, sol, dirichlet):
    """Steady solve at amplitude lam_star of the manufactured solution
    sol(lam) with its convective forcing; if the direct solve raises a
    SolverError, it is ramped up to lam_star instead.  Returns the state
    and the context it was solved in."""
    ctx = None

    def make_ctx(lam):
        nonlocal ctx
        s = sol(lam)
        ctx = _context(cfg, space, law,
                       forcing=verify.forcing(s, cfg.nu, convection=True),
                       dirichlet=dirichlet(s))
        return ctx

    schedule = list(cfg.lambda_schedule) or [lam_star]
    if schedule[-1] != lam_star:
        raise ConfigError(
            f"lambda_schedule must end at the target amplitude {lam_star}"
        )
    # either walk ends at lam_star, so its last context is the target's
    try:
        return solver.steady_solve(make_ctx, schedule, cfg=_newton(cfg)), ctx
    except solver.SolverError:
        if len(schedule) > 1:
            raise
        ramp = list(np.linspace(lam_star / 5.0, lam_star, 5))
        log.warning("direct solve failed at amplitude %g; ramping %s",
                    lam_star, ramp)
        return solver.steady_solve(make_ctx, ramp, cfg=_newton(cfg)), ctx


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def run_smooth_nonmonotone(cfg: ExperimentConfig, outdir: Path,
                           space: fespace.TaylorHoodSpace) -> dict:
    law = sliplaw.leroux_rajagopal(
        cfg.leroux_a, cfg.leroux_b, cfg.leroux_c, cfg.leroux_theta
    )
    summary = {}
    for lam in cfg.lambdas:
        state, ctx = _steady(cfg, space, law, lam, verify.taylor_green,
                             dirichlet=verify.dirichlet_data)
        prof = forms.boundary_functionals(state, ctx)
        tag = f"lam{lam:g}"
        _write_profile(outdir, tag, prof, cfg.echo())
        _write_cr(outdir, tag, prof, law, cfg.echo())
        summary[tag] = {
            "max_u_tau": float(prof.u_tau.max()),
            "max_sigma": float(prof.sigma.max()),
            "max_un": float(np.abs(prof.un).max()),
        }
    return summary


def run_nonsmooth_nonmonotone(cfg: ExperimentConfig, outdir: Path,
                              space: fespace.TaylorHoodSpace) -> dict:
    law = sliplaw.fang_regularized(
        cfg.fang_a, cfg.fang_b, cfg.fang_beta_exp, cfg.epsilon
    )
    summary = {}
    for lam in cfg.lambdas:
        sol_obj = verify.polynomial_jhyw(lam)
        state, ctx = _steady(cfg, space, law, lam, verify.polynomial_jhyw,
                             dirichlet=lambda s: 0.0)
        prof = forms.boundary_functionals(state, ctx)
        tag = f"lam{lam:g}"
        _write_profile(outdir, tag, prof, cfg.echo())
        _write_cr(outdir, tag, prof, law, cfg.echo())
        err = space.error_norms(state, sol_obj.u, sol_obj.p,
                                exact_grad_u=sol_obj.grad_u)
        interp = verify.interpolation_errors(space, sol_obj)
        summary[tag] = {
            "max_u_tau": float(prof.u_tau.max()),
            "max_sigma": float(prof.sigma.max()),
            "err_l2_u": err.l2_u,
            "interp_l2_u": interp.l2_u,
            "noslip_threshold": 1.25 * cfg.nu * lam,
        }
    return summary


def run_stick_slip(cfg: ExperimentConfig, outdir: Path,
                   space: fespace.TaylorHoodSpace) -> dict:
    sol = verify.polynomial_jhyw(cfg.lambda_star, time_mode="linear")
    f = verify.forcing(sol, cfg.nu, convection=True)
    summary = {}
    for gs in cfg.gamma_stars:
        law = sliplaw.stick_slip_regularized(gs, cfg.mu_star, cfg.epsilon)
        ctx = _context(cfg, space, law, forcing=f, dirichlet=0.0,
                       delta=cfg.delta, u_old=np.zeros(space.n_vdofs))
        traj = solver.time_march(
            ctx, fespace.SystemState.zero(space), cfg.T, cfg.delta,
            probes=[(cfg.probe_x, cfg.probe_y)], cfg=_newton(cfg),
        )
        gtag = f"gs{gs:g}"
        summary[gtag] = {}
        for tsnap in cfg.snapshots:
            prof = traj.profile_at(tsnap)
            tag = f"{gtag}_t{tsnap:g}"
            _write_profile(outdir, tag, prof, cfg.echo())
            _write_cr(outdir, tag, prof, law, cfg.echo())
            summary[gtag][f"max_u_tau_t{tsnap:g}"] = float(prof.u_tau.max())
        summary[gtag]["newton_iters_mean"] = float(np.mean(traj.newton_iters))
    return summary


def run_dynamic(cfg: ExperimentConfig, outdir: Path,
                space: fespace.TaylorHoodSpace) -> dict:
    summary = {}
    plot = SvgPlot(title="slip velocity at the probe", xlabel="t",
                   ylabel="|u_tau|")
    for bs in cfg.beta_stars:
        law = sliplaw.dynamic_moving_wall(cfg.gamma_star, bs, cfg.theta_star)
        ctx = _context(cfg, space, law, dirichlet=0.0,
                       delta=cfg.delta, u_old=np.zeros(space.n_vdofs))
        traj = solver.time_march(
            ctx, fespace.SystemState.zero(space), cfg.T, cfg.delta,
            probes=[(cfg.probe_x, cfg.probe_y)], cfg=_newton(cfg),
            record_profiles=False,
        )
        series = traj.probe_series[:, 0]
        tag = f"beta{bs:g}"
        _csv(outdir / f"probe_{tag}.csv", "t,v_slip",
             zip(traj.times, series), cfg.echo())
        plot.add_line(traj.times, series, label=f"beta*={bs:g}")
        summary[tag] = {
            "monotone": bool(np.all(np.diff(series) >= -1e-6)),
            "max": float(series.max()),
            "final": float(series[-1]),
            "worst_energy_residual": float(
                max(abs(e.residual) / e.scale for e in traj.energy)
            ),
        }
    plot.save(outdir / "probe.svg")
    return summary


def run_convergence(cfg: ExperimentConfig, outdir: Path) -> dict:
    law = sliplaw.navier(1.0)
    sol = verify.taylor_green(cfg.lambda_star)
    f = verify.forcing(sol, cfg.nu, convection=False)
    g = verify.slip_correction(sol, law, cfg.nu)

    def solve_on(n):
        space = _space(cfg, n)
        ctx = _context(cfg, space, law, include_convection=False, forcing=f,
                       dirichlet=verify.dirichlet_data(sol), slip_forcing=g)
        state = solver.steady_solve(ctx, cfg=_newton(cfg))
        return space, state, sol

    res = verify.convergence_study(cfg.convergence_ns, solve_on)
    keys = ("l2_u", "h1_u", "l2_p", "l2_un")
    # the first level has no rate
    rates = zip(*([float("nan")] + res.rates[k] for k in keys))
    _csv(outdir / "convergence.csv",
         "n,h,err_L2_u,err_H1_u,err_L2_p,err_L2_un,"
         "rate_L2_u,rate_H1_u,rate_L2_p,rate_L2_un",
         ((r.n, r.h, r.err_l2_u, r.err_h1_u, r.err_l2_p, r.err_l2_un) + rr
          for r, rr in zip(res.rows, rates)),
         cfg.echo())
    plot = SvgPlot(title="convergence (log2)", xlabel="level", ylabel="log2 error")
    for key in keys:
        vals = [np.log2(getattr(r, f"err_{key}")) for r in res.rows]
        plot.add_line(range(len(vals)), vals, label=key)
    plot.save(outdir / "convergence.svg")
    return {
        "rates": {k: [float(r) for r in v] for k, v in res.rates.items()},
        "errors": [dataclasses.asdict(r) for r in res.rows],
    }


def run_constants(cfg: ExperimentConfig, outdir: Path) -> dict:
    rows = []
    last = None
    for n in cfg.constants_ns:
        rep = stability.constants_report(_space(cfg, n))
        rows.append((n, rep.c_tr, rep.c_trK, rep.korn_min_eig, rep.infsup,
                     rep.alpha_auto))
        last = rep
    _csv(outdir / "constants.csv",
         "n,c_tr,c_trK,korn_min_eig,infsup,alpha_auto", rows, cfg.echo())
    with open(outdir / "constants.txt", "w") as fh:
        fh.write(last.as_text())
    return {
        "per_n": {
            str(int(r[0])): {
                "c_tr": r[1], "c_trK": r[2], "korn_min_eig": r[3],
                "infsup": r[4], "alpha_auto": r[5],
            }
            for r in rows
        }
    }


RUNNERS = {
    "smooth_nonmonotone": run_smooth_nonmonotone,
    "nonsmooth_nonmonotone": run_nonsmooth_nonmonotone,
    "stick_slip": run_stick_slip,
    "dynamic": run_dynamic,
    "convergence": run_convergence,
    "constants": run_constants,
}


def run(cfg: ExperimentConfig) -> dict:
    """Run one experiment; returns (and writes) the summary."""
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {"experiment": cfg.experiment, "config": dataclasses.asdict(cfg)}
    runner = RUNNERS[cfg.experiment]
    if cfg.experiment in ("convergence", "constants"):
        summary["results"] = runner(cfg, outdir)
    else:
        space = _space(cfg)
        summary["results"] = runner(cfg, outdir, space)
        summary["dofs"] = space.n_vdofs + space.n_pdofs
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _apply_overrides(data: dict, overrides) -> dict:
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        try:
            data[key] = json.loads(raw)
        except json.JSONDecodeError:
            data[key] = raw
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slipflow",
        description="Nitsche slip-flow experiment runner",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log Newton iterations to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, force in (("solve", None), ("convergence", "convergence"),
                        ("constants", "constants")):
        p = sub.add_parser(name)
        p.add_argument("config", help="flat JSON config file")
        p.add_argument("-o", "--override", action="append", default=[],
                       help="key=value config override (repeatable)")
        p.set_defaults(force_experiment=force)
    args = parser.parse_args(argv)

    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s: %(message)s",
    )

    try:
        data = parse_config(args.config)
        data = _apply_overrides(data, args.override)
        if args.force_experiment:
            data["experiment"] = args.force_experiment
        summary = run(ExperimentConfig.from_mapping(data))
    except (ConfigError, forms.FormsError, mesh.MeshError,
            sliplaw.SlipLawError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except solver.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary.get("results", {}), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
