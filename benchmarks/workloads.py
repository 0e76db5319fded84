"""The benchmark's workloads, driven through slipflow's public API.

All three use the unit square with right diagonals, slip on the top
wall, nu = 1, alpha = 10, the symmetric Nitsche variant and Newton
tolerances of 1e-10.  Each workload

* draws its inputs from the seed (`from_seed`),
* builds its problem (`setup`: mesh, tagging, space, FormCache, contexts),
* runs its operations (`solve`), catching a failure per operation, and
* judges every operation outside the timed region (`check`).

An operation is a time step, a steady amplitude or a constants_report
call.  `check` never trusts a reported `converged`: it recomputes the
residual of every returned state.
"""

from __future__ import annotations

import dataclasses
import math
import traceback
from time import perf_counter

import numpy as np

from slipflow import fespace, forms, mesh, sliplaw, solver, stability, verify

NEWTON = solver.NewtonConfig(abs_tol=1e-10, rel_tol=1e-10)
NITSCHE = forms.NitscheConfig(nu=1.0, alpha=10.0, variant="symmetric")
REFERENCE_RTOL = 1e-6


@dataclasses.dataclass
class Op:
    """Verdict on one operation."""

    name: str
    ok: bool
    detail: str = ""


@dataclasses.dataclass
class Step:
    """One newton_solve call as seen from outside: its start and end on
    the perf_counter clock, its result and the step data (time and
    previous velocity) it solved with."""

    start: float
    end: float
    ctx: object
    state: fespace.SystemState
    report: object
    t: float
    u_old: object


def build_space(n: int, tracer) -> fespace.TaylorHoodSpace:
    with tracer.span("mesh.build"):
        m = mesh.tag_boundary(mesh.build_unit_square(n, "right"),
                              mesh.top_wall_tagger())
    with tracer.span("fespace.space"):
        return fespace.TaylorHoodSpace(m)


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(exc)).strip()


def _timed_ops(op, inputs):
    """Run `op` on each input; returns the results (an exception stands in
    for a failed operation) and the (start, end) clock pair of each call."""
    results, spans = [], []
    for x in inputs:
        t0 = perf_counter()
        try:
            results.append(op(x))
        except Exception as exc:    # judged as a failed operation by check()
            results.append(exc)
        spans.append((t0, perf_counter()))
    return results, spans


def residual_check(name: str, step: Step) -> Op:
    """Recompute the residual at a returned state and hold it to the
    Newton tolerance of that solve."""
    ctx, u, p = step.ctx, step.state.u, step.state.p
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(p))
            and math.isfinite(step.state.m)):
        return Op(name, False, "state is not finite")
    if ctx.delta is not None:
        ctx.advance(step.t, step.u_old)
    r = float(np.linalg.norm(forms.assemble_residual(step.state, ctx)))
    tol = max(NEWTON.abs_tol, NEWTON.rel_tol * step.report.residuals[0])
    if not r <= tol:
        return Op(name, False, f"recomputed residual {r:.3e} > tol {tol:.3e}")
    return Op(name, True)


def compare_reference(outputs: dict, reference: dict) -> list:
    """Outputs (with values) that differ from the reference."""
    bad = []
    for key, want in reference.items():
        got = outputs.get(key)
        if got is None or not math.isclose(got, want, rel_tol=REFERENCE_RTOL,
                                           abs_tol=1e-12):
            bad.append(f"{key}: {got!r} vs reference {want!r}")
    return bad


# ---------------------------------------------------------------------------
# stick-slip march
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class StickSlipMarch:
    """Regularized stick-slip law (gamma* = 0, mu* = 1, eps = 2e-4) marched
    by backward Euler through its stick-to-slip transition under the
    linearly ramped polynomial forcing of amplitude `lam`."""

    lam: float
    n: int = 10
    delta: float = 0.01
    T: float = 1.5
    t_early: float = 0.5
    name = "stickslip_march"
    seeded = True

    @classmethod
    def from_seed(cls, seed: int, **sizes):
        rng = np.random.default_rng(seed)
        return cls(lam=float(rng.uniform(0.99, 1.01)), **sizes)

    @property
    def n_ops(self) -> int:
        return int(round(self.T / self.delta))

    def setup(self, tracer):
        space = build_space(self.n, tracer)
        law = tracer.wrap_law(sliplaw.stick_slip_regularized(0.0, 1.0, 2e-4))
        sol = verify.polynomial_jhyw(self.lam, time_mode="linear")
        f = tracer.wrap("verify.forcing", verify.forcing(sol, NITSCHE.nu))
        return forms.AssemblyContext(
            space, NITSCHE, law, forcing=f, dirichlet=0.0,
            delta=self.delta, u_old=np.zeros(space.n_vdofs),
        )

    def solve(self, ctx, steps):
        """Returns the trajectory (or the exception that ended the march)
        and the clock pair of each step: one newton_solve call."""
        try:
            traj = solver.time_march(
                ctx, fespace.SystemState.zero(ctx.space), T=self.T,
                delta=self.delta, probes=[(0.5, 1.0)], cfg=NEWTON,
            )
        except Exception as exc:    # judged as failed steps by check()
            traj = exc
        return traj, [(s.start, s.end) for s in steps]

    def outputs(self, traj) -> dict:
        last = traj.final_state
        return {
            "early_max_u_tau": float(traj.profile_at(self.t_early).u_tau.max()),
            "late_max_u_tau": float(traj.profile_at(self.T).u_tau.max()),
            "probe_final": float(traj.probe_series[-1, 0]),
            "u_norm": float(np.linalg.norm(last.u)),
            "p_norm": float(np.linalg.norm(last.p)),
        }

    def check(self, ctx, traj, steps, reference):
        ops = [residual_check(f"step {j + 1}", s)
               for j, s in enumerate(steps)]
        for j in range(len(steps), self.n_ops):
            why = _error(traj) if isinstance(traj, Exception) else "no result"
            ops.append(Op(f"step {j + 1}", False, f"not reached: {why}"))
        if isinstance(traj, Exception):
            return ops, {}
        out = self.outputs(traj)
        early, late = out["early_max_u_tau"], out["late_max_u_tau"]
        j_early = int(round(self.t_early / self.delta)) - 1
        if not early <= 1e-3:
            ops[j_early] = Op(ops[j_early].name, False,
                              f"early max|u_tau| {early:.3e} > 1e-3 (stick)")
        if not late >= 50.0 * early:
            ops[-1] = Op(ops[-1].name, False,
                         f"late max|u_tau| {late:.3e} < 50 x early {early:.3e}")
        if reference is not None:
            bad = compare_reference(out, reference.get("final", {}))
            if bad:
                ops[-1] = Op(ops[-1].name, False, "; ".join(bad))
        return ops, {"final": out}


# ---------------------------------------------------------------------------
# nonsmooth steady sweep
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class NonsmoothSteady:
    """Regularized nonmonotone friction law fang(1.6, 1.5, 10, 2e-4) under
    static polynomial forcing, solved cold at one amplitude in the stick
    regime and one in the slip regime."""

    stick: float
    slip: float
    n: int = 24
    name = "nonsmooth_steady"
    seeded = True

    @classmethod
    def from_seed(cls, seed: int, **sizes):
        rng = np.random.default_rng(seed)
        return cls(stick=float(rng.uniform(0.59, 0.61)),
                   slip=float(rng.uniform(4.95, 5.05)), **sizes)

    @property
    def amplitudes(self):
        return (self.stick, self.slip)

    @property
    def n_ops(self) -> int:
        return 2

    def setup(self, tracer):
        space = build_space(self.n, tracer)
        law = tracer.wrap_law(sliplaw.fang_regularized(1.6, 1.5, 10.0, 2e-4))
        ctxs = []
        for amp in self.amplitudes:
            f = verify.forcing(verify.polynomial_jhyw(amp), NITSCHE.nu)
            ctxs.append(forms.AssemblyContext(
                space, NITSCHE, law,
                forcing=tracer.wrap("verify.forcing", f), dirichlet=0.0,
            ))
        return ctxs

    def solve(self, ctxs, steps):
        return _timed_ops(lambda ctx: solver.steady_solve(ctx, cfg=NEWTON), ctxs)

    def check(self, ctxs, results, steps, reference):
        ops, out = [], {}
        for k, (amp, ctx, res) in enumerate(zip(self.amplitudes, ctxs, results)):
            name = f"amplitude {amp:.6g}"
            if isinstance(res, Exception):
                ops.append(Op(name, False, _error(res)))
                continue
            mine = [s for s in steps if s.ctx is ctx]
            if len(mine) != 1 or mine[0].state is not res:
                ops.append(Op(name, False, "no matching newton_solve call"))
                continue
            tag = ("stick", "slip")[k]
            op = residual_check(name, mine[0])
            if op.ok:
                prof = forms.boundary_functionals(res, ctx)
                ut, sg = float(prof.u_tau.max()), float(prof.sigma.max())
                out[tag] = {"max_u_tau": ut, "max_sigma": sg,
                            "u_norm": float(np.linalg.norm(res.u)),
                            "p_norm": float(np.linalg.norm(res.p))}
                if tag == "stick":
                    want = 1.25 * NITSCHE.nu * amp
                    if not (ut <= 1e-3 and abs(sg - want) <= 0.02 * want):
                        op = Op(name, False,
                                f"stick: max|u_tau| {ut:.3e} (<= 1e-3), "
                                f"max|sigma| {sg:.5f} (want {want:.5f} +- 2%)")
                elif not ut >= 1e-2:
                    op = Op(name, False, f"slip: max|u_tau| {ut:.3e} < 1e-2")
                if op.ok and reference is not None:
                    bad = compare_reference(out[tag], reference.get(tag, {}))
                    if bad:
                        op = Op(name, False, "; ".join(bad))
            ops.append(op)
        return ops, out


# ---------------------------------------------------------------------------
# certified-constants family
# ---------------------------------------------------------------------------

INFSUP_BAND = (0.36, 0.37)


@dataclasses.dataclass
class ConstantsFamily:
    """constants_report on a family of meshes.  Nothing here is random, so
    the seed is unused."""

    ns: tuple = (8, 16, 24, 32)
    name = "constants_family"
    seeded = False

    @classmethod
    def from_seed(cls, seed: int, **sizes):
        return cls(**sizes)

    @property
    def n_ops(self) -> int:
        return len(self.ns)

    def setup(self, tracer):
        spaces = [build_space(n, tracer) for n in self.ns]
        for space in spaces:
            forms.get_cache(space)
        return spaces

    def solve(self, spaces, steps):
        return _timed_ops(stability.constants_report, spaces)

    def check(self, spaces, results, steps, reference):
        ops, out = [], {}
        lo, hi = INFSUP_BAND
        for n, rep in zip(self.ns, results):
            name = f"constants n={n}"
            if isinstance(rep, Exception):
                ops.append(Op(name, False, _error(rep)))
                continue
            vals = {k: float(v) for k, v in dataclasses.asdict(rep).items()}
            out[f"n{n}"] = vals
            why = []
            if not all(math.isfinite(v) for v in vals.values()):
                why.append("non-finite constant")
            if not math.isclose(rep.c_tr, 2.0 * math.sqrt(3.0), rel_tol=1e-9):
                why.append(f"c_tr {rep.c_tr!r} != 2 sqrt(3)")
            if not rep.korn_min_eig > 0.0:
                why.append(f"korn_min_eig {rep.korn_min_eig!r} <= 0")
            if not lo <= rep.infsup <= hi:
                why.append(f"infsup {rep.infsup!r} outside [{lo}, {hi}]")
            if reference is not None:
                why += compare_reference(vals, reference.get(f"n{n}", {}))
            ops.append(Op(name, not why, "; ".join(why)))
        return ops, out


WORKLOADS = {w.name: w for w in (StickSlipMarch, NonsmoothSteady, ConstantsFamily)}
