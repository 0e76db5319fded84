"""The matmul cell kernels, the system-operator residual and the
fixed-pattern Jacobian against the einsum, block-by-block and
CSR-arithmetic references in `loop_reference.py`.

The constant cell matrices of the form cache (masses, stiffnesses,
divergence and pressure integrals) contract the space's reference
tensors with det J and J^-1; their reference integrates them point by
point, on a `right` and a `crossed` mesh, with the same stored pattern
and values to 1e-14 of each matrix's largest entry.
The convection residual, its Jacobian and `trilinear_skew` all contract
one reference tensor (`space.skew_tensor`) with cell data; the
references integrate the same forms point by point at the quadrature
points.  Every comparison is to 1e-13 relative, on top-wall slip and on
slip on all four walls, steady and unsteady, with and without
convection.  The polarization `convection_derivative` is checked
against the assembled convection Jacobian.  The convection kernels are
also checked on a mesh large enough that their products take several
row blocks.  The references work on
(u, p, m) with a mean-pressure multiplier m; the system on (u, p) is
their leading block at m = 0.
One residual call at n = 24 must also allocate less than the
benchmark's mmap threshold at its peak.
"""

import tracemalloc

import numpy as np
import pytest

import loop_reference as ref
from test_boundary_layer import close
from slipflow.fespace import SystemState, TaylorHoodSpace
from slipflow.forms import (
    AssemblyContext,
    NitscheConfig,
    _convection_jacobian,
    _convection_residual,
    assemble_jacobian,
    assemble_residual,
    convection_derivative,
    energy_balance,
    get_cache,
    trilinear_skew,
)
from slipflow.mesh import BoundaryTag, build_unit_square, tag_boundary, top_wall_tagger
from slipflow.sliplaw import (dynamic_moving_wall, fang_regularized,
                              stick_slip_regularized)
from slipflow.verify import dirichlet_data, taylor_green

RTOL = 1e-13


@pytest.fixture(scope="module", params=["top", "all"])
def space(request):
    """Slip on the top wall or on all four of the crossed n = 5 mesh (100
    cells); "top-20" is the right n = 20 mesh (800 cells), on which the
    convection kernels' products take more than one row block
    (`forms.blocked_matmul`)."""
    wall, _, n = request.param.partition("-")
    tagger = top_wall_tagger() if wall == "top" else (lambda m: BoundaryTag.SLIP)
    mesh = build_unit_square(int(n), "right") if n else build_unit_square(5, "crossed")
    return TaylorHoodSpace(tag_boundary(mesh, tagger))


def make_ctx(space, steady, convection, rng, law=None, dirichlet=0.0):
    if law is None:
        law = stick_slip_regularized(0.5, 1.0, 2e-4) if steady else \
            fang_regularized(1.6, 1.5, 10.0, 2e-4)
    return AssemblyContext(
        space, NitscheConfig(alpha=10.0, include_convection=convection),
        law, dirichlet=dirichlet, t=0.3,
        forcing=lambda x, t: np.column_stack([np.sin(3 * x[:, 1]), x[:, 0] ** 2]),
        delta=None if steady else 0.01,
        u_old=None if steady else rng.normal(size=space.n_vdofs),
    )


def random_state(ctx, rng, scale=1.0):
    st = ctx.unpack(scale * rng.normal(size=ctx.n_sys))
    return ctx.project_dirichlet(st)


def ref_residual(st, ctx):
    """The (u, p) rows of the reference residual, at m = 0."""
    return ref.residual(st, ctx)[:-1]


def ref_jacobian(st, ctx):
    """The (u, p) block of the reference Jacobian."""
    return ref.jacobian(st, ctx)[:-1, :-1]


def test_velocity_at_quadrature_matches_einsum(space, rng):
    u = rng.normal(size=space.n_vdofs)
    for new, old in zip(space.velocity_at_quadrature(u),
                        ref.velocity_at_quadrature(space, u)):
        close(new, old)


@pytest.mark.parametrize("n,diagonal", [(3, "right"), (7, "crossed")])
def test_constant_cell_matrices_match_quadrature(n, diagonal):
    # the reference-tensor cell matrices against the point-by-point build
    space = TaylorHoodSpace(tag_boundary(build_unit_square(n, diagonal),
                                         top_wall_tagger()))
    cache = get_cache(space)
    got = (cache.M_u, cache.K_D, cache.K_G, cache.B_div, cache.e_p, cache.M_p)
    for name, a, b in zip(("M_u", "K_D", "K_G", "B_div", "e_p", "M_p"), got,
                          ref.cell_matrices(space)):
        if name != "e_p":
            assert np.array_equal(a.indices, b.indices), name
            assert np.array_equal(a.indptr, b.indptr), name
            a, b = a.data, b.data
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), name


@pytest.mark.parametrize("space", ["top", "all", "top-20"], indirect=True)
def test_convection_kernels_match_einsum(space, rng):
    for scale in (1e-3, 1.0, 30.0):
        u = scale * rng.normal(size=space.n_vdofs)
        close(_convection_residual(space, u), ref.convection_residual(space, u))
        close(ref._cell_scatter(space, _convection_jacobian(get_cache(space), u)),
              ref.convection_jacobian(space, u))


@pytest.mark.parametrize("space", ["top", "all", "top-20"], indirect=True)
def test_convection_derivative_is_the_jacobian_change(space, rng):
    # (C(u) - C(u_f)) d = C(u - u_f) d, C linear in its point; the
    # polarization helper leaves the Dirichlet rows zero
    cache = get_cache(space)
    u, u_f, d = (rng.normal(size=space.n_vdofs) for _ in range(3))
    want = ref._cell_scatter(space, _convection_jacobian(cache, u)
                             - _convection_jacobian(cache, u_f)) @ d
    want[space.dirichlet_vdofs] = 0.0
    close(convection_derivative(space, u - u_f, d), want)


def test_convection_residual_peak_allocation_below_mmap_threshold(rng):
    """The temporaries of one call at n = 24 peak below 1 MiB, the mmap
    threshold `benchmarks/run.py` sets, so they come from the heap the
    same way in every call."""
    space = TaylorHoodSpace(tag_boundary(build_unit_square(24), top_wall_tagger()))
    u = rng.normal(size=space.n_vdofs)
    tracemalloc.start()
    try:
        _convection_residual(space, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("steady", [True, False], ids=["steady", "unsteady"])
@pytest.mark.parametrize("convection", [True, False], ids=["conv", "noconv"])
def test_residual_matches_blocks(space, rng, steady, convection):
    """One system-operator matvec against the block-by-block residual,
    with the default laws and a moving wall with beta* > 0, and with
    zero and nonzero Dirichlet data (the Dirichlet columns then carry
    the boundary values into the other rows)."""
    for law in (None, dynamic_moving_wall(1.0, 2.0, 0.5)):
        for g in (0.0, dirichlet_data(taylor_green(1.0))):
            ctx = make_ctx(space, steady, convection, rng, law=law, dirichlet=g)
            for scale in (1e-5, 1.0):
                st = ctx.unpack(scale * rng.normal(size=ctx.n_sys))
                close(assemble_residual(st, ctx), ref_residual(st, ctx))
                ctx.project_dirichlet(st)
                close(assemble_residual(st, ctx), ref_residual(st, ctx))


@pytest.mark.parametrize("steady", [True, False], ids=["steady", "unsteady"])
@pytest.mark.parametrize("convection", [True, False], ids=["conv", "noconv"])
def test_jacobian_matches_csr_arithmetic(space, rng, steady, convection):
    ctx = make_ctx(space, steady, convection, rng)
    for scale in (1e-5, 1.0):
        st = random_state(ctx, rng, scale)
        close(assemble_jacobian(st, ctx), ref_jacobian(st, ctx))


def test_jacobian_pattern_is_fixed(space, rng):
    ctx = make_ctx(space, steady=False, convection=True, rng=rng)
    zero = ctx.project_dirichlet(SystemState.zero(space))
    J0 = assemble_jacobian(zero, ctx)
    assert J0.format == "csc" and J0.has_canonical_format
    # CSR arithmetic drops the convection entries, which vanish at rest;
    # the pattern keeps them as explicit zeros
    assert ref_jacobian(zero, ctx).nnz < J0.nnz
    st = random_state(ctx, rng)
    J1 = assemble_jacobian(st, ctx)
    ctx.set_timestep(0.002)
    J2 = assemble_jacobian(st, ctx)
    close(J2, ref_jacobian(st, ctx))
    for J in (J1, J2):
        assert np.array_equal(J.indptr, J0.indptr)
        assert np.array_equal(J.indices, J0.indices)


def test_trilinear_and_force_match_einsum(space, rng):
    u, v, w = (rng.normal(size=space.n_vdofs) for _ in range(3))
    scale = np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(w)
    for args in ((u, v, w), (u, w, v), (u, v, v), (v, u, u)):
        new, old = trilinear_skew(space, *args), ref.trilinear_skew(space, *args)
        assert abs(new - old) <= RTOL * scale
    ctx = make_ctx(space, steady=False, convection=True, rng=rng)
    close(ctx.force_vector(), ref.force_vector(ctx))


def test_energy_balance_terms_match_einsum(space, rng):
    ctx = make_ctx(space, steady=False, convection=True, rng=rng)
    st = random_state(ctx, rng)
    eb = energy_balance(st, ctx)
    # one field in all three slots: both terms are the same sum and cancel
    assert eb.convective == ref.trilinear_skew(space, st.u, st.u, st.u) == 0.0
    force = float(ref.force_vector(ctx) @ st.u)
    assert abs(eb.force - force) <= RTOL * abs(force)
