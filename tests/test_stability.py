import importlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import loop_reference as ref
from slipflow.fespace import FacetTable, TaylorHoodSpace
from slipflow.forms import AssemblyContext, NitscheConfig, get_cache, nd_paths
from slipflow.mesh import (
    BoundaryTag, MeshError, _finish_mesh, build_unit_square, tag_boundary,
    top_wall_tagger,
)
from slipflow.sliplaw import fang_regularized, navier
from slipflow.stability import (
    SIGMA,
    STAB_PIVOT,
    StabilityError,
    constants_report,
    infsup_constant,
    inverse_trace_constant,
    korn_normal_trace_min_eig,
    resolve_alpha,
    trace_constant_xh,
    wall_facets,
)


def make_space(n, diag="right"):
    return TaylorHoodSpace(
        tag_boundary(build_unit_square(n, diag), top_wall_tagger())
    )


def no_slip_space(n):
    return TaylorHoodSpace(
        tag_boundary(build_unit_square(n), lambda m: BoundaryTag.DIRICHLET)
    )


def translation(space):
    t = space.interpolate_velocity(
        lambda x: np.column_stack([np.ones(len(x)), np.zeros(len(x))])
    )
    return t / np.linalg.norm(t)


def alignment(a, b):
    return abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))


# the crossed mesh's ND cuts skip the grid lines through the cell centres
@pytest.fixture(scope="module", params=[(4, "right"), (8, "right"), (16, "right"),
                                        (7, "crossed")],
                ids=["4", "8", "16", "crossed7"])
def ref_space(request):
    return make_space(*request.param)


# -- inverse trace constant ----------------------------------------------------

def test_inverse_trace_scale_invariance():
    # all cells of the right-diagonal family are congruent up to scaling,
    # so the constant is resolution-independent
    c8 = inverse_trace_constant(make_space(8))
    c16 = inverse_trace_constant(make_space(16))
    assert abs(c8 - c16) <= 1e-10
    assert c8 > 0


def test_inverse_trace_diagonal_patterns_differ():
    cr = inverse_trace_constant(make_space(4, "right"))
    cc = inverse_trace_constant(make_space(4, "crossed"))
    assert cr != pytest.approx(cc, rel=1e-3)
    assert np.isfinite(cr) and np.isfinite(cc)


def test_inverse_trace_bound_holds_on_samples(space4, rng):
    # h_F^(1/2) |v|_F <= c_tr |v|_K checked against random P2 fields
    c_tr = inverse_trace_constant(space4)
    space = space4
    for f in [0, len(space.mesh.facet_h) // 2]:
        t = space.mesh.facet_cells[f]
        hF = space.mesh.facet_h[f]
        for _ in range(20):
            coeff = rng.normal(size=6)
            tr_vals = coeff @ space.ftr[f]
            cell_vals = coeff @ space.phi
            lhs = hF * hF * np.sum(space.fqweights * tr_vals**2)
            rhs = space.detJ[t] * np.sum(space.qweights * cell_vals**2)
            assert lhs <= c_tr**2 * rhs * (1 + 1e-12)


# -- Korn dichotomy --------------------------------------------------------------

def test_korn_full_boundary_positive():
    space = make_space(8)
    eig, _ = korn_normal_trace_min_eig(space)
    assert eig > 1e-3


def test_korn_top_wall_only_is_singular_with_translation_witness():
    space = make_space(8)
    eig, vec = korn_normal_trace_min_eig(space, wall_facets(space, ["top"]))
    assert abs(eig) <= 1e-10
    assert abs(alignment(vec, translation(space)) - 1.0) <= 1e-6


def test_korn_two_noncollinear_walls_positive():
    space = make_space(8)
    eig, _ = korn_normal_trace_min_eig(space, wall_facets(space, ["top", "left"]))
    assert eig > 1e-3


@pytest.mark.parametrize("walls", ["top", ["top", "front"], ("left", None)],
                         ids=["bare-string", "unknown-name", "none"])
def test_wall_facets_rejects_unknown_walls(walls):
    # a bare string would iterate to its letters
    with pytest.raises(MeshError, match="bottom.*left.*right.*top"):
        wall_facets(make_space(2), walls)


def test_korn_scale_invariance():
    # the quotient is built from scale-balanced quantities relative to the
    # H1 norm; on a uniformly refined mesh of the same domain the discrete
    # minimum can only decrease toward the continuum value
    e8, _ = korn_normal_trace_min_eig(make_space(8))
    e16, _ = korn_normal_trace_min_eig(make_space(16))
    assert e16 <= e8 + 1e-12
    assert e16 > 0.5 * e8


@pytest.mark.parametrize("walls", [None, ("top", "left")])
def test_korn_matches_dense_reference(ref_space, walls):
    facets = None if walls is None else wall_facets(ref_space, walls)
    eig, vec = korn_normal_trace_min_eig(ref_space, facets)
    eig_ref, vec_ref = ref.korn_normal_trace_min_eig(ref_space, facets)
    assert abs(eig - eig_ref) <= 1e-10 * eig_ref
    assert alignment(vec, vec_ref) >= 1 - 1e-9


def test_korn_top_only_matches_dense_reference(ref_space):
    facets = wall_facets(ref_space, ["top"])
    eig, vec = korn_normal_trace_min_eig(ref_space, facets)
    eig_ref, vec_ref = ref.korn_normal_trace_min_eig(ref_space, facets)
    assert abs(eig) <= 1e-10 and abs(eig_ref) <= 1e-10
    assert alignment(vec, translation(ref_space)) >= 1 - 1e-9
    assert alignment(vec, vec_ref) >= 1 - 1e-9


def test_trace_constant_xh_matches_dense_reference(ref_space):
    c, c_ref = trace_constant_xh(ref_space), ref.trace_constant_xh(ref_space)
    assert abs(c - c_ref) <= 1e-10 * c_ref


def test_infsup_matches_dense_reference(ref_space):
    c, c_ref = infsup_constant(ref_space), ref.infsup_constant(ref_space)
    assert abs(c - c_ref) <= 1e-10 * c_ref


# -- inf-sup ----------------------------------------------------------------------

def test_infsup_positive_and_mesh_robust():
    vals = [infsup_constant(make_space(n)) for n in (8, 16)]
    assert all(v > 0 for v in vals)
    assert abs(vals[0] - vals[1]) <= 0.2 * max(vals)


def test_infsup_spurious_pressure_mode_gives_zero():
    # at n = 1 (right diagonal) a second pressure mode lies in the kernel of
    # B^T: beta_h is zero up to rounding, never NaN
    assert 0.0 <= infsup_constant(make_space(1)) <= 1e-6


def test_infsup_singular_velocity_block_raises():
    # zero the row and column of one interior velocity DOF in K and its
    # column in B: the saddle-point matrix has a zero row
    space = make_space(4)
    cache = get_cache(space)
    bnodes = space.facet_vnodes(np.arange(space.mesh.num_facets))
    i = np.setdiff1d(np.arange(space.n_vnodes), bnodes)[0] * 2
    keep = np.ones(space.n_vdofs)
    keep[i] = 0.0
    D = sp.diags(keep)
    cache.K_G = (D @ cache.K_G @ D).tocsr()
    cache.B_div = (cache.B_div @ D).tocsr()
    with pytest.raises(StabilityError, match="singular"):
        infsup_constant(space)


def test_infsup_missing_null_mode_raises():
    # a generic velocity vector added to one continuity row leaves B^T
    # without a null vector
    space = make_space(4)
    cache = get_cache(space)
    row = np.zeros((space.n_pdofs, 1))
    row[0] = 1.0
    c = np.random.default_rng(3).normal(size=(1, space.n_vdofs))
    cache.B_div = (cache.B_div + sp.csr_matrix(row @ c)).tocsr()
    with pytest.raises(StabilityError, match="null mode"):
        infsup_constant(space)


def test_infsup_mesh_too_coarse_raises():
    # a single triangle has every velocity node on the boundary
    mesh = _finish_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                        np.array([[0, 1, 2]]))
    space = TaylorHoodSpace(tag_boundary(mesh, lambda m: BoundaryTag.DIRICHLET))
    with pytest.raises(StabilityError, match="too coarse"):
        infsup_constant(space)


def zero_free_velocity_dof(space, *blocks):
    """Zero the row and column of one velocity DOF off every boundary in
    the named FormCache blocks."""
    cache = get_cache(space)
    bnodes = space.facet_vnodes(np.arange(space.mesh.num_facets))
    keep = np.ones(space.n_vdofs)
    keep[np.setdiff1d(np.arange(space.n_vnodes), bnodes)[0] * 2] = 0.0
    D = sp.diags(keep)
    for name in blocks:
        setattr(cache, name, (D @ getattr(cache, name) @ D).tocsr())


def test_trace_constant_singular_xh_matrix_raises():
    # A_x = K_D + P_pen gets a zero row and column
    space = make_space(4)
    zero_free_velocity_dof(space, "K_D", "P_pen")
    with pytest.raises(StabilityError, match="singular"):
        trace_constant_xh(space)


def test_korn_singular_matrix_raises():
    # with no facets A - SIGMA M = K_D - SIGMA (K_G + M_u) gets a zero row
    # and column
    space = make_space(4)
    zero_free_velocity_dof(space, "K_D", "K_G", "M_u")
    with pytest.raises(StabilityError, match="singular"):
        korn_normal_trace_min_eig(space, [])


def nd_positions(space, dofs):
    """Positions that put the ascending (u, p) unknowns `dofs` in
    nested-dissection order: by node rank, velocity before pressure,
    then by index."""
    nu, rank = space.n_vdofs, nd_paths(space)[0]
    node = np.where(dofs < nu, dofs // 2, dofs - nu)
    return np.argsort(2 * rank[node] + (dofs >= nu), kind="stable")


def stability_matrices(space):
    """The matrix each constant factorizes, on its unknowns in DOF order:
    trace (free velocity), Korn (all velocity), inf-sup (interior
    velocity and pressure), in the order constants_report calls them."""
    cache, nu = get_cache(space), space.n_vdofs
    free = np.setdiff1d(np.arange(nu), space.dirichlet_vdofs)
    bnodes = space.facet_vnodes(np.arange(space.mesh.num_facets))
    inner = np.setdiff1d(np.arange(nu), np.concatenate([2 * bnodes, 2 * bnodes + 1]))
    B = cache.B_div[:, inner]
    return [
        (free, (cache.K_D + cache.P_pen)[np.ix_(free, free)]),
        (np.arange(nu), cache.K_D + FacetTable(space, np.arange(space.mesh.num_facets))
         .mass(normal=True) - SIGMA * (cache.K_G + cache.M_u)),
        (np.concatenate([inner, nu + np.arange(space.n_pdofs)]),
         sp.bmat([[cache.K_G[np.ix_(inner, inner)], B.T], [B, SIGMA * cache.M_p]])),
    ]


def test_constants_report_factorizes_once_per_constant(monkeypatch):
    # every LU goes through spla.splu, of its constant's matrix in the
    # nested-dissection order and with no ordering step; ARPACK's own LU
    # (used when eigsh is given a matrix to invert) is never reached
    calls = []
    splu = spla.splu

    def record(A, **kwargs):
        calls.append((A, kwargs))
        return splu(A, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("ARPACK factorized a matrix itself")

    arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
    monkeypatch.setattr(spla, "splu", record)
    monkeypatch.setattr(arpack, "splu", forbidden)
    space = make_space(8)
    constants_report(space)
    expected = stability_matrices(space)
    assert len(calls) == len(expected)
    for (A, kw), (dofs, matrix) in zip(calls, expected):
        pos = nd_positions(space, dofs)
        assert A.shape == (dofs.size, dofs.size)
        assert abs(A - matrix.tocsr()[pos][:, pos]).max() == 0.0
        assert kw == dict(permc_spec="NATURAL", diag_pivot_thresh=STAB_PIVOT,
                          options=dict(SymmetricMode=True))


def test_constants_match_arpack_lu_and_colamd_path():
    # the earlier sparse path: ARPACK's own LU for Korn and trace, COLAMD
    # with partial pivoting for inf-sup
    space = make_space(24)
    eig, vec = korn_normal_trace_min_eig(space)
    eig_ref, vec_ref = ref.korn_normal_trace_min_eig_arpack_lu(space)
    assert abs(eig - eig_ref) <= 1e-12 * eig_ref
    assert alignment(vec, vec_ref) >= 1 - 1e-12
    c, c_ref = trace_constant_xh(space), ref.trace_constant_xh_arpack_lu(space)
    assert abs(c - c_ref) <= 1e-12 * c_ref
    c, c_ref = infsup_constant(space), ref.infsup_constant_colamd(space)
    assert abs(c - c_ref) <= 1e-12 * c_ref


def test_arpack_failure_is_a_stability_error(monkeypatch):
    def fail(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.zeros(0), None)

    space = make_space(4)
    monkeypatch.setattr(spla, "eigsh", fail)
    for constant in (infsup_constant, trace_constant_xh, korn_normal_trace_min_eig):
        with pytest.raises(StabilityError, match="eigensolver"):
            constant(space)


# -- trace constant in the h-norm --------------------------------------------------

def test_trace_constant_xh_positive():
    space = make_space(8)
    ck = trace_constant_xh(space)
    assert 0 < ck < 10


def test_trace_constant_xh_without_slip_wall_is_zero():
    assert trace_constant_xh(no_slip_space(24)) == 0.0


# -- automatic penalty ---------------------------------------------------------------

def test_resolve_alpha_monotone_formula():
    cfg = NitscheConfig(alpha="auto")
    c_tr = 3.0
    alpha = resolve_alpha(cfg, navier(1.0), c_tr)
    assert abs(alpha - 1.1 * 2 * 2 * c_tr**2) <= 1e-12


def test_resolve_alpha_passthrough():
    cfg = NitscheConfig(alpha=10.0)
    assert resolve_alpha(cfg, navier(1.0), 3.0) == 10.0


def test_resolve_alpha_lambda_near_limit():
    cfg = NitscheConfig(alpha="auto", nu=1.0)
    c_trk = 0.7
    c_lam = 2.0 / c_trk**2
    law = navier(-0.999 * c_lam)
    alpha = resolve_alpha(cfg, law, 3.0, c_trk)
    assert np.isfinite(alpha) and alpha > 1e3


def test_resolve_alpha_without_slip_wall_is_monotone():
    # c_trK = 0 makes c_lam infinite: the lambda-monotone bound becomes the
    # monotone one
    space = no_slip_space(24)
    law = navier(-1.0)
    rep = constants_report(space)
    assert rep.c_trK == 0.0
    assert resolve_alpha(NitscheConfig(alpha="auto"), law, rep.c_tr, rep.c_trK) \
        == rep.alpha_auto == 1.1 * 2 * 2 * rep.c_tr**2
    assert resolve_alpha(NitscheConfig(alpha="auto"), law, 3.0, 0.0) == \
        resolve_alpha(NitscheConfig(alpha="auto"), navier(1.0), 3.0)


def test_auto_alpha_constants_are_computed_once_per_space(monkeypatch):
    stab = importlib.import_module("slipflow.stability")
    calls = {"inverse_trace_constant": 0, "trace_constant_xh": 0}
    for name in calls:
        def counted(space, _name=name, _fn=getattr(stab, name)):
            calls[_name] += 1
            return _fn(space)
        monkeypatch.setattr(stab, name, counted)
    space = make_space(4)
    law = fang_regularized(1.6, 1.5, 10, 2e-4)
    alphas = [AssemblyContext(space, NitscheConfig(alpha="auto", nu=nu), law,
                              dirichlet=0.0).alpha for nu in (1.0, 2.0)]
    assert calls == {"inverse_trace_constant": 1, "trace_constant_xh": 1}
    c_tr, c_trk = inverse_trace_constant(space), trace_constant_xh(space)
    assert alphas == [resolve_alpha(NitscheConfig(alpha="auto", nu=nu), law,
                                    c_tr, c_trk) for nu in (1.0, 2.0)]


def test_resolve_alpha_rejects_large_lambda():
    cfg = NitscheConfig(alpha="auto", nu=1.0)
    c_trk = 0.7
    c_lam = 2.0 / c_trk**2
    with pytest.raises(StabilityError):
        resolve_alpha(cfg, navier(-1.1 * c_lam), 3.0, c_trk)
    with pytest.raises(StabilityError):
        resolve_alpha(cfg, fang_regularized(1.6, 1.5, 10, 2e-4), 3.0, None)


def test_constants_report_fields():
    rep = constants_report(make_space(8))
    assert rep.c_tr > 0 and rep.c_trK > 0 and rep.infsup > 0
    assert rep.alpha_auto > 0
    text = rep.as_text()
    assert "c_tr" in text and "infsup" in text


def test_constants_report_is_deterministic():
    space = make_space(24)
    assert constants_report(space) == constants_report(space)
