"""Residual and analytic Jacobian of the fully discrete Nitsche system.

Momentum rows (tested with every velocity basis function v), with
s = +1 for the symmetric and s = -1 for the antisymmetric variant:

    (1/dt) [(u - u_old, v) + beta* <u - u_old, v>_Gs]
    + 2 nu (Du, Dv) + btilde(u, u, v)
    - (p, div v) + <p, v.n>_Gs
    + <sigma_law(u_tau, t) + g_slip - beta* d_t(u_b), v_tau>_Gs
    + nu alpha <h^-1 u.n, v.n>_Gs
    - 2 nu <(Du n).n, v.n>_Gs - s 2 nu <(Dv n).n, u.n>_Gs
    - (f, v)

Continuity rows are assembled with the sign flipped relative to testing
the saddle form with q (solution-equivalent) so that the linear part of
the matrix is symmetric whenever the remaining forms are; the mean
pressure is controlled by a scalar multiplier column/row (or by pinning
one pressure DOF).  Dirichlet velocity rows/columns are eliminated
symmetrically; callers must keep Dirichlet entries of the state at their
boundary values (the Newton solver projects them).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp

from .fespace import FacetTable, TaylorHoodSpace, SystemState
from .sliplaw import SlipLaw


class FormsError(Exception):
    """Invalid assembly configuration."""


@dataclasses.dataclass
class NitscheConfig:
    nu: float = 1.0
    alpha: Union[float, str] = 10.0          # number or "auto"
    variant: str = "symmetric"                # or "antisymmetric"
    include_convection: bool = True
    mean_pressure_mode: str = "multiplier"    # or "pinned"

    def __post_init__(self):
        if self.nu <= 0:
            raise FormsError("viscosity nu must be > 0")
        if self.variant not in ("symmetric", "antisymmetric"):
            raise FormsError(f"unknown variant {self.variant!r}")
        if self.mean_pressure_mode not in ("multiplier", "pinned"):
            raise FormsError(f"unknown mean_pressure_mode {self.mean_pressure_mode!r}")
        if not (self.alpha == "auto" or float(self.alpha) > 0):
            raise FormsError("penalty alpha must be > 0 or 'auto'")


# ---------------------------------------------------------------------------
# cached constant blocks
# ---------------------------------------------------------------------------

class FormCache:
    """State-independent matrices on a Taylor-Hood space.

    Everything here depends only on the mesh/space (not on nu, alpha or
    the time step), so one cache serves all configurations on that space.
    """

    def __init__(self, space: TaylorHoodSpace):
        self.space = space
        T = space.mesh.num_cells
        Q = space.qweights.size
        wdet = space.qweights[None, :] * space.detJ[:, None]        # (T,Q)

        # scatter index arrays for 12x12 cell blocks
        cd = space.cell_vdofs
        self.cell_rows = np.repeat(cd, 12, axis=1).ravel()
        self.cell_cols = np.tile(cd, (1, 12)).ravel()
        pd = space.cell_pdofs
        self.pv_rows = np.repeat(pd, 12, axis=1).ravel()
        self.pv_cols = np.tile(cd, (1, 3)).ravel()

        Nu, Np = space.n_vdofs, space.n_pdofs
        shape_uu = (Nu, Nu)
        shape_pu = (Np, Nu)

        phi, G, psi = space.phi, space.G, space.psi

        # scalar and vector mass
        m_scal = np.einsum("tq,aq,bq->tab", wdet, phi, phi)
        loc = np.zeros((T, 6, 2, 6, 2))
        loc[:, :, 0, :, 0] = m_scal
        loc[:, :, 1, :, 1] = m_scal
        self.M_u = self._scatter_uu(loc, shape_uu)

        # symmetric-gradient stiffness: (Du, Dv) for u = phi_b e_d,
        # v = phi_a e_c is (1/2)[delta_cd grad(phi_a).grad(phi_b)
        # + d_d(phi_a) d_c(phi_b)]
        gg = np.einsum("tq,taqi,tbqi->tab", wdet, G, G)
        gd = np.einsum("tq,taqd,tbqc->tadbc", wdet, G, G)
        loc = np.zeros((T, 6, 2, 6, 2))
        loc[:, :, 0, :, 0] = 0.5 * (gg + gd[:, :, 0, :, 0])
        loc[:, :, 1, :, 1] = 0.5 * (gg + gd[:, :, 1, :, 1])
        loc[:, :, 0, :, 1] = 0.5 * gd[:, :, 1, :, 0]
        loc[:, :, 1, :, 0] = 0.5 * gd[:, :, 0, :, 1]
        self.K_D = self._scatter_uu(loc, shape_uu)

        # full-gradient stiffness (grad u, grad v), used by certification
        loc = np.zeros((T, 6, 2, 6, 2))
        loc[:, :, 0, :, 0] = gg
        loc[:, :, 1, :, 1] = gg
        self.K_G = self._scatter_uu(loc, shape_uu)

        # divergence coupling (q, div u) and pressure integrals (q, 1)
        bloc = np.einsum("tq,iq,tbqd->tibd", wdet, psi, G).reshape(T, 3, 12)
        self.B_div = sp.coo_matrix(
            (bloc.ravel(), (self.pv_rows, self.pv_cols)), shape=shape_pu
        ).tocsr()
        e = np.zeros(Np)
        np.add.at(e, space.cell_pdofs.ravel(),
                  np.einsum("tq,iq->ti", wdet, psi).ravel())
        self.e_p = e
        self.area = float((space.detJ * space.qweights.sum()).sum())

        # slip-boundary blocks
        sl = self.slip = FacetTable(space, space.slip_facets)
        self.M_B = sl.mass()
        self.P_pen = sl.mass(normal=True, per_h=True)
        # <v.n, (Du n).n>: n . grad of the traces, contracted with n n^T
        dn = np.einsum("fbqi,fi->fbq", space.fgrad[sl.facets], sl.n)
        ctt = np.einsum("fq,faq,fbq->fab", sl.w, sl.tr, dn)
        self.C_nit = sl.matrix(np.einsum("fab,fc,fd->facbd", ctt, sl.n, sl.n))
        # <q, v.n>
        btt = np.einsum("fq,fiq,fbq->fib", sl.w, space.fpsi[sl.facets], sl.tr)
        fpd = space.cell_pdofs[sl.cells]
        self.B_n = sp.coo_matrix(
            (np.einsum("fib,fd->fibd", btt, sl.n).ravel(),
             (np.repeat(fpd, 12, axis=1).ravel(), np.tile(sl.dofs, (1, 3)).ravel())),
            shape=shape_pu,
        ).tocsr()

        self.G_c = (self.B_div - self.B_n).tocsr()   # paper continuity operator

    def _scatter_uu(self, loc, shape):
        return sp.coo_matrix(
            (loc.reshape(len(loc), 144).ravel(), (self.cell_rows, self.cell_cols)),
            shape=shape,
        ).tocsr()


def get_cache(space: TaylorHoodSpace) -> FormCache:
    cache = getattr(space, "_form_cache", None)
    if cache is None:
        cache = FormCache(space)
        space._form_cache = cache
    return cache


# ---------------------------------------------------------------------------
# assembly context
# ---------------------------------------------------------------------------

class AssemblyContext:
    """Bundles space, configuration, slip law and problem data.

    forcing(x, t) -> (N,2) is the body force; dirichlet is the boundary
    value map g(x, t) -> (N,2) (pass 0.0 for homogeneous no-slip; it is
    required whenever Dirichlet facets exist); slip_forcing(x, t) -> (N,2)
    is an additive tangential traction on the slip wall used by the
    manufactured-solution verification.  delta=None selects the steady
    problem (no time term); otherwise u_old and t describe the active
    backward Euler step.
    """

    def __init__(
        self,
        space: TaylorHoodSpace,
        config: NitscheConfig,
        law: SlipLaw,
        forcing: Optional[Callable] = None,
        dirichlet: Union[None, float, Callable] = None,
        slip_forcing: Optional[Callable] = None,
        t: float = 0.0,
        delta: Optional[float] = None,
        u_old: Optional[np.ndarray] = None,
    ):
        self.space = space
        self.config = config
        self.law = law
        self.forcing = forcing
        self.slip_forcing = slip_forcing
        self.t = float(t)
        if delta is not None and delta <= 0:
            raise FormsError(f"time step delta must be > 0, got {delta}")
        self.delta = delta
        self.u_old = u_old
        if space.dirichlet_vdofs.size and dirichlet is None:
            raise FormsError(
                "mesh has Dirichlet facets but no Dirichlet data was given "
                "(pass dirichlet=0.0 for homogeneous no-slip)"
            )
        self.dirichlet = dirichlet
        self.cache = get_cache(space)
        self.alpha = self._resolve_alpha()
        self._lin = None
        self._rhs_t = None
        self._g_t = None

    def _resolve_alpha(self) -> float:
        if self.config.alpha != "auto":
            return float(self.config.alpha)
        from .stability import resolve_alpha, inverse_trace_constant, trace_constant_xh

        c_tr = inverse_trace_constant(self.space)
        c_trk = trace_constant_xh(self.space) if self.law.lam > 0 else None
        return resolve_alpha(self.config, self.law, c_tr, c_trk)

    # -- cached linear operator and RHS --------------------------------------

    @property
    def n_sys(self) -> int:
        extra = 1 if self.config.mean_pressure_mode == "multiplier" else 0
        return self.space.n_vdofs + self.space.n_pdofs + extra

    def linear_operator(self) -> sp.csr_matrix:
        """Constant part of the velocity-velocity block."""
        if self._lin is None:
            c, cfg = self.cache, self.config
            s = 1.0 if cfg.variant == "symmetric" else -1.0
            A = (2.0 * cfg.nu) * c.K_D + (cfg.nu * self.alpha) * c.P_pen \
                - (2.0 * cfg.nu) * (c.C_nit + s * c.C_nit.T)
            if self.delta is not None:
                A = A + (1.0 / self.delta) * (c.M_u + self.law.beta_star * c.M_B)
            self._lin = A.tocsr()
        return self._lin

    def advance(self, t: float, u_old: np.ndarray) -> None:
        """Move to the next backward Euler step."""
        self.t = float(t)
        self.u_old = u_old
        self._rhs_t = None
        self._g_t = None

    def set_timestep(self, delta: Optional[float]) -> None:
        """Change the time step (invalidates the cached linear operator)."""
        if delta is not None and delta <= 0:
            raise FormsError(f"time step delta must be > 0, got {delta}")
        self.delta = delta
        self._lin = None

    def force_vector(self) -> np.ndarray:
        """(f(.,t), v) for all velocity test functions."""
        if self._rhs_t is None:
            space = self.space
            F = np.zeros(space.n_vdofs)
            if self.forcing is not None:
                X = space.xq.reshape(-1, 2)
                fv = np.asarray(self.forcing(X, self.t), dtype=float).reshape(
                    space.xq.shape
                )
                wdet = space.qweights[None, :] * space.detJ[:, None]
                loc = np.einsum("tq,aq,tqc->tac", wdet, space.phi, fv)
                np.add.at(F, space.cell_vdofs.ravel(), loc.reshape(-1, 12).ravel())
            self._rhs_t = F
        return self._rhs_t

    def dirichlet_values(self) -> np.ndarray:
        """Full-length vector with boundary values at Dirichlet DOFs."""
        if self._g_t is None:
            space = self.space
            g = np.zeros(space.n_vdofs)
            if callable(self.dirichlet) and space.dirichlet_vnodes.size:
                vals = np.asarray(
                    self.dirichlet(space.vnode_coords[space.dirichlet_vnodes], self.t),
                    dtype=float,
                )
                g[2 * space.dirichlet_vnodes] = vals[:, 0]
                g[2 * space.dirichlet_vnodes + 1] = vals[:, 1]
            self._g_t = g
        return self._g_t

    def project_dirichlet(self, state: SystemState) -> SystemState:
        """Impose boundary values on the state (and the pressure pin)."""
        g = self.dirichlet_values()
        dd = self.space.dirichlet_vdofs
        state.u[dd] = g[dd]
        if self.config.mean_pressure_mode == "pinned":
            state.p[0] = 0.0
        return state

    # -- vector packing --------------------------------------------------------

    def pack(self, state: SystemState) -> np.ndarray:
        parts = [state.u, state.p]
        if self.config.mean_pressure_mode == "multiplier":
            parts.append([state.m])
        return np.concatenate(parts)

    def unpack(self, x: np.ndarray) -> SystemState:
        Nu, Np = self.space.n_vdofs, self.space.n_pdofs
        m = x[Nu + Np] if self.config.mean_pressure_mode == "multiplier" else 0.0
        return SystemState(x[:Nu].copy(), x[Nu:Nu + Np].copy(), float(m))


# ---------------------------------------------------------------------------
# nonlinear pieces
# ---------------------------------------------------------------------------

def _convection_residual(space: TaylorHoodSpace, u: np.ndarray) -> np.ndarray:
    """btilde(u, u, v) for all velocity test functions v."""
    vals, grads = space.velocity_at_quadrature(u)       # (T,Q,2), (T,Q,2,2)
    wdet = space.qweights[None, :] * space.detJ[:, None]
    adv = np.einsum("tqi,tqci->tqc", vals, grads)       # (u.grad)u
    # test-side transport u.grad(phi_a)
    Ba = np.einsum("tqi,taqi->taq", vals, space.G)      # (T,6,Q)
    r1 = np.einsum("tq,aq,tqc->tac", wdet, space.phi, adv)
    r2 = np.einsum("tq,taq,tqc->tac", wdet, Ba, vals)
    loc = 0.5 * (r1 - r2)
    out = np.zeros(space.n_vdofs)
    np.add.at(out, space.cell_vdofs.ravel(), loc.reshape(-1, 12).ravel())
    return out


def _convection_jacobian(space: TaylorHoodSpace, u: np.ndarray,
                         cache: FormCache) -> sp.csr_matrix:
    """Derivative of btilde(u, u, v) in u."""
    vals, grads = space.velocity_at_quadrature(u)
    wdet = space.qweights[None, :] * space.detJ[:, None]
    phi, G = space.phi, space.G
    Bu = np.einsum("tqi,taqi->taq", vals, G)            # u.grad(phi_a)
    # terms in (a,c),(b,d) layout
    t1 = np.einsum("tq,aq,bq,tqcd->tacbd", wdet, phi, phi, grads)
    t2 = np.einsum("tq,aq,tbq->tab", wdet, phi, Bu)
    t4 = np.einsum("tq,bq,taqd,tqc->tadbc", wdet, phi, G, vals)
    loc = t1.copy()
    loc[:, :, 0, :, 0] += t2 - t2.transpose(0, 2, 1)
    loc[:, :, 1, :, 1] += t2 - t2.transpose(0, 2, 1)
    loc -= t4.transpose(0, 1, 4, 3, 2)
    loc *= 0.5
    return sp.coo_matrix(
        (loc.reshape(-1, 144).ravel(), (cache.cell_rows, cache.cell_cols)),
        shape=(space.n_vdofs, space.n_vdofs),
    ).tocsr()


def _slip_traction(ctx: AssemblyContext, u_tau: np.ndarray) -> np.ndarray:
    """Total tangential traction (F,Qf,2) at the slip-wall quadrature
    points: the law value, the verification correction, and the
    moving-wall rate term."""
    sig = ctx.law.sigma(u_tau, ctx.t)
    if ctx.slip_forcing is not None:
        g = ctx.slip_forcing(ctx.cache.slip.points.reshape(-1, 2), ctx.t)
        sig = sig + np.asarray(g, dtype=float).reshape(sig.shape)
    if ctx.law.beta_star > 0 and ctx.law.wall_velocity is not None \
            and ctx.delta is not None:
        sig = sig - ctx.law.beta_star * ctx.law.wall_velocity_rate(ctx.t, ctx.delta)
    return sig


def _slip_residual(ctx: AssemblyContext, u: np.ndarray) -> np.ndarray:
    """<sigma(u_tau), v_tau> over the slip wall."""
    sl = ctx.cache.slip
    u_tau = sl.split(sl.values(u))[1]
    return sl.load(sl.split(_slip_traction(ctx, u_tau))[1])


def _slip_jacobian(ctx: AssemblyContext, u: np.ndarray) -> sp.csr_matrix:
    """Derivative of the slip residual: P sigma'(u_tau) P under the trace
    mass, with P the tangential projector."""
    sl = ctx.cache.slip
    u_tau = sl.split(sl.values(u))[1]
    P = sl.P[:, None]
    K = P @ ctx.law.jacobian(u_tau, ctx.t) @ P                   # (F,Qf,2,2)
    return sl.matrix(
        np.einsum("fq,faq,fbq,fqcd->facbd", sl.w, sl.tr, sl.tr, K, optimize=True)
    )


# ---------------------------------------------------------------------------
# residual and Jacobian
# ---------------------------------------------------------------------------

def assemble_residual(state: SystemState, ctx: AssemblyContext) -> np.ndarray:
    """Nonlinear residual of the fully discrete system at `state`.

    Dirichlet velocity rows report u_dof - g_D(node, t).
    """
    space, c = ctx.space, ctx.cache
    u, p = state.u, state.p
    if u.shape != (space.n_vdofs,) or p.shape != (space.n_pdofs,):
        raise FormsError("state vector lengths do not match the space")
    if ctx.delta is not None and ctx.u_old is None:
        raise FormsError("unsteady assembly needs u_old")

    r_u = ctx.linear_operator() @ u
    r_u -= c.G_c.T @ p
    r_u += _slip_residual(ctx, u)
    if ctx.config.include_convection:
        r_u += _convection_residual(space, u)
    r_u -= ctx.force_vector()
    if ctx.delta is not None:
        r_u -= (1.0 / ctx.delta) * (c.M_u @ ctx.u_old
                                    + ctx.law.beta_star * (c.M_B @ ctx.u_old))

    # Dirichlet rows
    dd = space.dirichlet_vdofs
    r_u[dd] = u[dd] - ctx.dirichlet_values()[dd]

    # continuity rows (sign flipped for symmetry) and mean-pressure control
    r_p = -(c.G_c @ u)
    if ctx.config.mean_pressure_mode == "multiplier":
        r_p = r_p + state.m * c.e_p
        r_m = c.e_p @ p
        return np.concatenate([r_u, r_p, [r_m]])
    r_p[0] = p[0]
    return np.concatenate([r_u, r_p])


def assemble_jacobian(state: SystemState, ctx: AssemblyContext) -> sp.csr_matrix:
    """Exact derivative of assemble_residual with symmetric Dirichlet
    elimination (valid for updates vanishing at Dirichlet DOFs)."""
    space, c = ctx.space, ctx.cache
    J_uu = ctx.linear_operator() + _slip_jacobian(ctx, state.u)
    if ctx.config.include_convection:
        J_uu = J_uu + _convection_jacobian(space, state.u, c)

    Nu, Np = space.n_vdofs, space.n_pdofs
    if ctx.config.mean_pressure_mode == "multiplier":
        e = sp.csr_matrix(c.e_p[:, None])
        J = sp.bmat(
            [
                [J_uu, -c.G_c.T, None],
                [-c.G_c, None, e],
                [None, e.T, None],
            ],
            format="csr",
        )
    else:
        J = sp.bmat([[J_uu, -c.G_c.T], [-c.G_c, None]], format="csr")

    # symmetric elimination of Dirichlet rows/columns (and the pressure pin)
    fixed = space.dirichlet_vdofs
    if ctx.config.mean_pressure_mode == "pinned":
        fixed = np.concatenate([fixed, [Nu]])
    keep = np.ones(J.shape[0])
    keep[fixed] = 0.0
    S = sp.diags(keep)
    return ((S @ J @ S) + sp.diags(1.0 - keep)).tocsr()


# ---------------------------------------------------------------------------
# trilinear forms
# ---------------------------------------------------------------------------

def trilinear_skew(space: TaylorHoodSpace, u, v, w) -> float:
    """Skew convective form 1/2 [ ((u.grad)v, w) - ((u.grad)w, v) ]."""
    uv, _ = space.velocity_at_quadrature(u)
    vv, gv = space.velocity_at_quadrature(v)
    wv, gw = space.velocity_at_quadrature(w)
    wdet = space.qweights[None, :] * space.detJ[:, None]
    t1 = np.einsum("tq,tqi,tqci,tqc->", wdet, uv, gv, wv)
    t2 = np.einsum("tq,tqi,tqci,tqc->", wdet, uv, gw, vv)
    return 0.5 * float(t1 - t2)


def trilinear_standard(space: TaylorHoodSpace, u, v, w) -> float:
    """b(u,v,w) = -(v x u, grad w) + <u.n, v.w>_boundary."""
    uv, _ = space.velocity_at_quadrature(u)
    vv, _ = space.velocity_at_quadrature(v)
    _, gw = space.velocity_at_quadrature(w)
    wdet = space.qweights[None, :] * space.detJ[:, None]
    vol = -np.einsum("tq,tqc,tqi,tqci->", wdet, vv, uv, gw)
    bd = FacetTable(space, np.arange(space.mesh.num_facets))
    un = bd.split(bd.values(u))[0]
    bdry = np.sum(bd.w * un * (bd.values(v) * bd.values(w)).sum(axis=2))
    return float(vol + bdry)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class WallProfile:
    """Per-point arrays on the slip wall, ordered by x."""

    x: np.ndarray
    s: np.ndarray          # arc length along the wall
    u_tau: np.ndarray      # |u_tau|
    sigma: np.ndarray      # |sigma_law(u_tau)|
    un: np.ndarray         # u . n


def boundary_functionals(state: SystemState, ctx: AssemblyContext,
                         t: Optional[float] = None) -> WallProfile:
    """Sample |u_tau|, |sigma| and u.n at the slip-facet quadrature points."""
    sl = ctx.cache.slip
    if t is None:
        t = ctx.t
    un, ut = sl.split(sl.values(state.u))
    sig = ctx.law.sigma(ut, t)
    x = sl.points[:, :, 0].ravel()
    order = np.argsort(x, kind="stable")
    return WallProfile(
        x=x[order],
        s=x[order].copy(),      # top wall: arc length = x
        u_tau=np.linalg.norm(ut, axis=2).ravel()[order],
        sigma=np.linalg.norm(sig, axis=2).ravel()[order],
        un=un.ravel()[order],
    )


@dataclasses.dataclass
class EnergyBalance:
    """Named scalar terms of the per-step energy identity (antisymmetric
    variant: nitsche = 0 by cancellation) and their signed sum."""

    time: float
    viscous: float
    convective: float
    pressure: float
    slip: float
    penalty: float
    nitsche: float
    force: float
    residual: float
    penalty_form: float     # 2|Du|^2 - 4<(Du n).n, u.n> + alpha |h^-1/2 u.n|^2

    @property
    def scale(self) -> float:
        return max(
            abs(self.time), abs(self.viscous), abs(self.slip),
            abs(self.penalty), abs(self.force), 1e-300,
        )


def energy_balance(state: SystemState, ctx: AssemblyContext) -> EnergyBalance:
    """Evaluate the discrete energy identity at a converged step.

    Testing the momentum equation with the solution itself gives
    (d_t u, u)_B + 2 nu |Du|^2 + btilde(u,u,u) + pressure terms
    + <sigma, u_tau> + nu alpha |h^-1/2 u.n|^2 + nitsche terms = (f, u);
    at a converged step with homogeneous Dirichlet data the signed sum
    vanishes to solver tolerance.
    """
    space, c, cfg = ctx.space, ctx.cache, ctx.config
    u, p = state.u, state.p
    if ctx.delta is not None:
        du = (u - ctx.u_old) / ctx.delta
        t_time = float(du @ (c.M_u @ u) + ctx.law.beta_star * (du @ (c.M_B @ u)))
    else:
        t_time = 0.0
    t_visc = 2.0 * cfg.nu * float(u @ (c.K_D @ u))
    t_conv = (
        trilinear_skew(space, u, u, u) if cfg.include_convection else 0.0
    )
    t_pres = -float(p @ (c.G_c @ u))
    t_slip = float(u @ _slip_residual(ctx, u))
    t_pen = cfg.nu * ctx.alpha * float(u @ (c.P_pen @ u))
    s = 1.0 if cfg.variant == "symmetric" else -1.0
    cu = float(u @ (c.C_nit @ u))
    t_nit = -2.0 * cfg.nu * (cu + s * cu)
    t_f = float(ctx.force_vector() @ u)
    resid = t_time + t_visc + t_conv + t_pres + t_slip + t_pen + t_nit - t_f
    pform = float(
        2.0 * (u @ (c.K_D @ u)) - 4.0 * cu + ctx.alpha * (u @ (c.P_pen @ u))
    )
    return EnergyBalance(
        time=t_time, viscous=t_visc, convective=t_conv, pressure=t_pres,
        slip=t_slip, penalty=t_pen, nitsche=t_nit, force=t_f,
        residual=resid, penalty_form=pform,
    )
