import numpy as np
import pytest

import loop_reference as ref
from slipflow.fespace import SystemState, TaylorHoodSpace
from slipflow.forms import (
    AssemblyContext,
    FormsError,
    NitscheConfig,
    assemble_jacobian,
    assemble_residual,
    boundary_functionals,
    energy_balance,
    get_cache,
    trilinear_skew,
)
from slipflow.mesh import BoundaryTag, build_unit_square, tag_boundary, top_wall_tagger
from slipflow.sliplaw import (
    dynamic_moving_wall,
    fang_regularized,
    leroux_rajagopal,
    navier,
    tresca_regularized,
)
from slipflow.verify import dirichlet_data, forcing, slip_correction, taylor_green


def make_ctx(space, law=None, steady=True, rng=None, **kw):
    cfg = kw.pop("config", NitscheConfig(alpha=10.0, **kw))
    law = law or navier(1.0)
    if steady:
        return AssemblyContext(space, cfg, law, dirichlet=0.0)
    u_old = (
        rng.normal(size=space.n_vdofs) if rng is not None
        else np.zeros(space.n_vdofs)
    )
    return AssemblyContext(
        space, cfg, law, dirichlet=0.0, delta=0.01, u_old=u_old, t=0.5
    )


def test_config_validation():
    with pytest.raises(FormsError):
        NitscheConfig(nu=0.0)
    with pytest.raises(FormsError):
        NitscheConfig(variant="skew")
    with pytest.raises(FormsError):
        NitscheConfig(alpha=-1.0)


def test_rest_state_residual_zero(space4):
    ctx = AssemblyContext(
        space4, NitscheConfig(alpha=10.0), navier(1.0),
        dirichlet=0.0, delta=0.01, u_old=np.zeros(space4.n_vdofs),
    )
    r = assemble_residual(SystemState.zero(space4), ctx)
    assert np.abs(r).max() == 0.0


def test_delta_validation(space4):
    with pytest.raises(FormsError):
        AssemblyContext(
            space4, NitscheConfig(alpha=10.0), navier(1.0),
            dirichlet=0.0, delta=-0.1,
        )


def test_missing_dirichlet_data(space4):
    with pytest.raises(FormsError, match="Dirichlet"):
        AssemblyContext(space4, NitscheConfig(alpha=10.0), navier(1.0))


@pytest.mark.parametrize("g", [1.0, -2, 1e-300, True, "0.0", np.zeros(2)])
def test_dirichlet_data_other_than_zero_or_callable_is_rejected(space4, g):
    # the boundary values are zero unless g is callable, so a nonzero
    # constant would silently impose no-slip
    with pytest.raises(FormsError, match="Dirichlet data must be"):
        AssemblyContext(space4, NitscheConfig(alpha=10.0), navier(1.0), dirichlet=g)


def test_unsteady_needs_u_old(space4):
    ctx = AssemblyContext(
        space4, NitscheConfig(alpha=10.0), navier(1.0),
        dirichlet=0.0, delta=0.01, u_old=np.zeros(space4.n_vdofs),
    )
    ctx.u_old = None
    with pytest.raises(FormsError, match="u_old"):
        assemble_residual(SystemState.zero(space4), ctx)


def test_history_term_is_cached_per_step(space4, rng):
    law = dynamic_moving_wall(0.5, 2.0, 0.3)
    ctx = make_ctx(space4, law, steady=False, rng=rng)
    c = ctx.cache
    st = SystemState(rng.normal(size=space4.n_vdofs),
                     rng.normal(size=space4.n_pdofs))

    def history(u_old, delta):
        # the term as assemble_residual used to compute it on every call
        return (1.0 / delta) * (c.M_u @ u_old + law.beta_star * (c.M_B @ u_old))

    def fresh_residual():
        other = AssemblyContext(space4, ctx.config, law, dirichlet=0.0,
                                delta=ctx.delta, u_old=ctx.u_old, t=ctx.t)
        return assemble_residual(st, other)

    r = assemble_residual(st, ctx)
    h = ctx.history_vector()
    assert ctx.history_vector() is h
    assert np.array_equal(h, history(ctx.u_old, 0.01))
    assert np.array_equal(assemble_residual(st, ctx), r)
    # a new step and a new time step each recompute it
    ctx.advance(0.51, rng.normal(size=space4.n_vdofs))
    assert np.array_equal(ctx.history_vector(), history(ctx.u_old, 0.01))
    assert np.array_equal(assemble_residual(st, ctx), fresh_residual())
    assert not np.array_equal(assemble_residual(st, ctx), r)
    ctx.set_timestep(0.02)
    assert np.array_equal(ctx.history_vector(), history(ctx.u_old, 0.02))
    assert np.array_equal(assemble_residual(st, ctx), fresh_residual())


# -- skew convective form ------------------------------------------------------

def test_skew_symmetry_50_pairs(space4, rng):
    for _ in range(50):
        u = rng.normal(size=space4.n_vdofs)
        v = rng.normal(size=space4.n_vdofs)
        scale = np.linalg.norm(u) * np.linalg.norm(v) ** 2
        assert abs(trilinear_skew(space4, u, v, v)) <= 1e-12 * scale


def test_skew_antisymmetry_in_last_two(space4, rng):
    for _ in range(10):
        u, v, w = (rng.normal(size=space4.n_vdofs) for _ in range(3))
        a = trilinear_skew(space4, u, v, w)
        b = trilinear_skew(space4, u, w, v)
        assert abs(a + b) <= 1e-12 * max(1.0, abs(a))


def test_skew_matches_standard_for_solenoidal_impermeable():
    # u = curl(psi) with psi = (x y (1-x)(1-y))^2 vanishes on the boundary
    # together with grad(psi); interpolation breaks the identity only by
    # the interpolation error, which must shrink under refinement
    def stream_velocity(x):
        X, Y = x[:, 0], x[:, 1]
        f = X * Y * (1 - X) * (1 - Y)
        fx = Y * (1 - Y) * (1 - 2 * X)
        fy = X * (1 - X) * (1 - 2 * Y)
        return np.column_stack([2 * f * fy, -2 * f * fx])

    gaps = []
    for n in (8, 16):
        msh = tag_boundary(build_unit_square(n), top_wall_tagger())
        space = TaylorHoodSpace(msh)
        rng = np.random.default_rng(3)
        u = space.interpolate_velocity(stream_velocity)
        v = rng.normal(size=space.n_vdofs)
        w = rng.normal(size=space.n_vdofs)
        gaps.append(
            abs(trilinear_skew(space, u, v, w) - ref.trilinear_standard(space, u, v, w))
        )
    assert gaps[1] < 0.5 * gaps[0]
    assert gaps[1] <= 1e-2


# -- Jacobian --------------------------------------------------------------------

SMOOTH_LAWS = [
    navier(2.0),
    leroux_rajagopal(1.0, 0.1, 0.001, -0.75),
    tresca_regularized(1.0, 2e-4),
    fang_regularized(1.6, 1.5, 10.0, 2e-4),
    dynamic_moving_wall(1.0, 2.0, 0.01),
]


def fd_derivative(f, h):
    """f'(0) by the fourth-order central difference of step h."""
    return (8.0 * (f(h) - f(-h)) - (f(2 * h) - f(-2 * h))) / (12.0 * h)


@pytest.mark.parametrize("variant", ["symmetric", "antisymmetric"])
@pytest.mark.parametrize("law", SMOOTH_LAWS, ids=lambda l: l.name.split("(")[0])
def test_jacobian_fd_directional(space4, rng, law, variant):
    for steady in (True, False):
        if law.beta_star > 0 and steady:
            continue
        ctx = make_ctx(space4, law=law, steady=steady, rng=rng, variant=variant)
        x = rng.normal(size=ctx.n_sys)
        state = ctx.unpack(x)
        ctx.project_dirichlet(state)
        x = ctx.pack(state)
        e = rng.normal(size=ctx.n_sys)
        e[space4.dirichlet_vdofs] = 0.0
        h = 1e-5 / np.linalg.norm(e)
        je = assemble_jacobian(state, ctx) @ e
        fd = fd_derivative(lambda s: assemble_residual(ctx.unpack(x + s * e), ctx), h)
        assert np.linalg.norm(fd - je) <= 1e-6 * np.linalg.norm(je)


def test_stokes_navier_symmetric_matrix(space4):
    ctx = make_ctx(space4, law=navier(1.5), include_convection=False)
    J = assemble_jacobian(SystemState.zero(space4), ctx)
    assert abs(J - J.T).max() <= 1e-12


def test_stokes_jacobian_state_independent(space4, rng):
    # linear problem: Jacobian identical at different states
    ctx = make_ctx(space4, law=navier(0.0), include_convection=False)
    J0 = assemble_jacobian(SystemState.zero(space4), ctx)
    st = ctx.unpack(rng.normal(size=ctx.n_sys))
    ctx.project_dirichlet(st)
    J1 = assemble_jacobian(st, ctx)
    assert abs(J0 - J1).max() <= 1e-14


def test_constant_pressure_nullspace(space4, rng):
    ctx = make_ctx(space4)
    st = ctx.unpack(rng.normal(size=ctx.n_sys))
    ctx.project_dirichlet(st)
    r1 = assemble_residual(st, ctx)
    st2 = st.copy()
    st2.p = st.p + 3.7
    r2 = assemble_residual(st2, ctx)
    Nu = space4.n_vdofs
    assert np.abs(r2[:Nu] - r1[:Nu]).max() <= 1e-12


def test_constant_pressure_nullspace_all_slip(rng):
    msh = tag_boundary(build_unit_square(3), lambda m: BoundaryTag.SLIP)
    space = TaylorHoodSpace(msh)
    ctx = AssemblyContext(space, NitscheConfig(alpha=10.0), navier(1.0))
    st = ctx.unpack(rng.normal(size=ctx.n_sys))
    r1 = assemble_residual(st, ctx)
    st.p += 3.7
    r2 = assemble_residual(st, ctx)
    assert np.abs(r2[: space.n_vdofs] - r1[: space.n_vdofs]).max() <= 1e-12


def test_consistency_rate_interpolated_exact():
    law = navier(1.0)
    sol = taylor_green(1.0)
    f = forcing(sol, 1.0, convection=False)
    g = slip_correction(sol, law, 1.0)
    norms = []
    for n in (4, 8, 16):
        msh = tag_boundary(build_unit_square(n), top_wall_tagger())
        space = TaylorHoodSpace(msh)
        ctx = AssemblyContext(
            space, NitscheConfig(alpha=10.0, include_convection=False),
            law, forcing=f, dirichlet=dirichlet_data(sol), slip_forcing=g,
        )
        st = SystemState(
            space.interpolate_velocity(sol.u),
            space.interpolate_pressure(sol.p),
        )
        norms.append(np.linalg.norm(assemble_residual(st, ctx)))
    rates = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))
    assert np.all(rates >= 1.8)


def test_variants_differ_by_transposed_term_only(space8, rng):
    sol = taylor_green(1.0)
    st = SystemState(
        space8.interpolate_velocity(sol.u),
        space8.interpolate_pressure(sol.p),
    )
    ctx_s = make_ctx(space8, variant="symmetric")
    ctx_a = make_ctx(space8, variant="antisymmetric")
    r_s = assemble_residual(st, ctx_s)
    r_a = assemble_residual(st, ctx_a)
    cache = get_cache(space8)
    expect = np.zeros_like(r_s)
    expect[: space8.n_vdofs] = -4.0 * 1.0 * (cache.C_nit.T @ st.u)
    expect[space8.dirichlet_vdofs] = 0.0
    assert np.abs((r_s - r_a) - expect).max() <= 1e-13


def test_difference_quotient_identity(space4, rng):
    # (d_t phi, phi)_B = (1/2 dt)(|phi_j|^2 - |phi_{j-1}|^2 + |diff|^2)
    cache = get_cache(space4)
    beta = 0.7
    M = (cache.M_u + beta * cache.M_B).toarray()
    dt = 0.01
    for _ in range(5):
        a = rng.normal(size=space4.n_vdofs)
        b = rng.normal(size=space4.n_vdofs)
        lhs = ((a - b) / dt) @ (M @ a)
        rhs = (a @ M @ a - b @ M @ b + (a - b) @ M @ (a - b)) / (2 * dt)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


def test_jacobian_sparsity_within_connectivity(space4, rng):
    ctx = make_ctx(space4, law=tresca_regularized(1.0, 2e-4))
    st = ctx.unpack(rng.normal(size=ctx.n_sys))
    ctx.project_dirichlet(st)
    J = assemble_jacobian(st, ctx)

    # symbolic pattern: dofs interact iff they share a cell (velocity and
    # pressure blocks), plus fixed diagonals
    space = space4
    Nu, Np = space.n_vdofs, space.n_pdofs
    allowed = set()
    for t in range(space.mesh.num_cells):
        vd = space.cell_vdofs[t]
        pd = Nu + space.cell_pdofs[t]
        dofs = np.concatenate([vd, pd])
        for i in dofs:
            for j in dofs:
                allowed.add((int(i), int(j)))
    for i in range(Nu + Np):
        allowed.add((i, i))
    Jc = J.tocoo()
    mask = Jc.data != 0.0
    for i, j in zip(Jc.row[mask], Jc.col[mask]):
        assert (int(i), int(j)) in allowed


def test_boundary_functionals_zero_state(space4):
    ctx = make_ctx(space4)
    prof = boundary_functionals(SystemState.zero(space4), ctx)
    assert np.all(prof.u_tau == 0.0)
    assert np.all(prof.sigma == 0.0)
    assert np.all(prof.un == 0.0)
    assert np.all(np.diff(prof.x) >= 0)


def test_energy_balance_antisymmetric_nitsche_term_vanishes(space4, rng):
    ctx = make_ctx(space4, variant="antisymmetric")
    st = ctx.unpack(rng.normal(size=ctx.n_sys))
    ctx.project_dirichlet(st)
    eb = energy_balance(st, ctx)
    assert eb.nitsche == 0.0
