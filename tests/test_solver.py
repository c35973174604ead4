import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pfmatch.solver as solver
from pfmatch.bench import grid_mesh
from pfmatch.descriptors import DescriptorField, shot_descriptors
from pfmatch.energy import (EnergyParams, MatchProblem, area_term, eta,
                            g_adjoint, g_forward, mumford_shah,
                            orthogonality_term, slant_term)
from pfmatch.laplacian import mesh_basis
from pfmatch.solver import (_NN_BLOCK, _NN_MAX_K, UNASSIGNED, MatchResult,
                            SolverOptions, alternate, build_problem,
                            c_objective, c_step, initial_mask,
                            invert_assignment, nearest_columns, nonlinear_cg,
                            refine, v_objective, v_step)


@pytest.fixture(scope="module")
def small_pair():
    """Half of a grid matched back into the full grid."""
    full = grid_mesh(8)
    ids = np.flatnonzero(full.vertices[:, 0] <= 0.5 + 1e-9)
    part, vmap = full.submesh(ids)
    k = 8
    basis_full = mesh_basis(full, k)
    basis_part = mesh_basis(part, k)
    desc_full = shot_descriptors(full, radius=0.3)
    desc_part = shot_descriptors(part, radius=0.3)
    params = EnergyParams(k=k)
    prob, r = build_problem(basis_part, basis_full, desc_part, desc_full,
                            full, part.total_area, params)
    return dict(full=full, part=part, vmap=vmap, prob=prob, r=r,
                params=params, phi=basis_part.eigenvectors)


# -- nonlinear CG --------------------------------------------------------------


def test_cg_quadratic(rng):
    n = 12
    M = rng.standard_normal((n, n))
    Q = M @ M.T + n * np.eye(n)
    b = rng.standard_normal(n)
    sol = np.linalg.solve(Q, b)

    def fg(x):
        return 0.5 * x @ Q @ x - b @ x, Q @ x - b

    res = nonlinear_cg(fg, np.zeros(n),
                       SolverOptions(cg_max_iter=500, cg_grad_tol=1e-10))
    assert res.converged
    assert np.allclose(res.x, sol, atol=1e-6)


def _spd_quadratic(rng, n=12):
    """The quadratic of test_cg_quadratic: (fun_grad, minimiser)."""
    M = rng.standard_normal((n, n))
    Q = M @ M.T + n * np.eye(n)
    b = rng.standard_normal(n)

    def fg(x):
        return 0.5 * x @ Q @ x - b @ x, Q @ x - b

    return fg, np.linalg.solve(Q, b)


def test_cg_quadratic_is_conjugate(rng):
    # With its line search exact on a quadratic, CG ends an n-D quadratic
    # in about n steps.
    fg, _ = _spd_quadratic(rng)
    res = nonlinear_cg(fg, np.zeros(12),
                       SolverOptions(cg_max_iter=500, cg_grad_tol=1e-10))
    assert res.converged
    assert res.iterations <= 24


def test_cg_stops_when_it_cannot_move(rng):
    # |g| <= 1e-30 |g0| is below the rounding of g: CG must stop once it
    # can no longer move x instead of running to its cap.
    fg, sol = _spd_quadratic(rng)
    res = nonlinear_cg(fg, np.zeros(12),
                       SolverOptions(cg_max_iter=500, cg_grad_tol=1e-30))
    assert res.converged or res.line_search_failed
    assert res.iterations < 500
    assert np.allclose(res.x, sol, atol=1e-10)


def test_cg_reports_failed_line_search():
    x0 = np.array([1.0, -2.0])

    def fg(x):
        if np.array_equal(x, x0):
            return float(x @ x), 2.0 * x
        return np.nan, np.full_like(x, np.nan)

    res = nonlinear_cg(fg, x0, SolverOptions(cg_max_iter=100))
    assert res.line_search_failed and not res.converged
    assert res.iterations == 1
    assert np.array_equal(res.x, x0) and res.value == 5.0


def test_cg_stationary_start():
    def fg(x):
        return float(x @ x), 2.0 * x

    res = nonlinear_cg(fg, np.zeros(3))
    assert res.converged
    assert res.iterations == 0


def test_cg_rosenbrock():
    def fg(x):
        a, b = x
        f = (1 - a) ** 2 + 100.0 * (b - a * a) ** 2
        g = np.array([-2 * (1 - a) - 400 * a * (b - a * a),
                      200 * (b - a * a)])
        return f, g

    res = nonlinear_cg(fg, np.array([-1.2, 1.0]),
                       SolverOptions(cg_max_iter=5000, cg_grad_tol=1e-10))
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-4)


def test_cg_monotone_decrease(rng):
    values = []

    def fg(x):
        f = float(np.sum(x ** 4) + np.sum(x ** 2))
        values.append(f)
        return f, 4.0 * x ** 3 + 2.0 * x

    x0 = rng.standard_normal(6)
    res = nonlinear_cg(fg, x0, SolverOptions(cg_max_iter=100))
    assert res.value <= fg(x0)[0]
    assert res.value < 1e-8


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_outer=0)


# -- problem assembly and single steps ------------------------------------------


def test_build_problem_shapes(small_pair):
    prob, r = small_pair["prob"], small_pair["r"]
    k = 8
    assert prob.A.shape[0] == k
    assert prob.Psi.shape == (small_pair["full"].n_vertices, k)
    assert prob.W.shape == (k, k)
    assert prob.d.shape == (k,)
    assert 1 <= r <= k
    assert np.isclose(prob.d.sum(), r)


def test_build_problem_drops_bins_zero_on_both_shapes(small_pair):
    full, part = small_pair["full"], small_pair["part"]
    k = 8
    desc_full = shot_descriptors(full, radius=0.3)
    desc_part = shot_descriptors(part, radius=0.3)
    both = np.flatnonzero(np.any(desc_full.values != 0.0, axis=0) &
                          np.any(desc_part.values != 0.0, axis=0))
    assert len(both) >= 4
    # One bin used by the full shape only, one by the partial shape only,
    # and one zero on both.
    only_full, only_part, neither = both[:3]
    desc_part.values[:, only_full] = 0.0
    desc_full.values[:, only_part] = 0.0
    desc_part.values[:, neither] = desc_full.values[:, neither] = 0.0
    basis_part, basis_full = mesh_basis(part, k), mesh_basis(full, k)
    prob, _ = build_problem(basis_part, basis_full, desc_part, desc_full,
                            full, part.total_area, EnergyParams(k=k))
    used = (np.any(desc_full.values != 0.0, axis=0) |
            np.any(desc_part.values != 0.0, axis=0))
    # The kept bins set on at least 15% of the full shape's vertices come
    # first, so that the problem's dense block of G is a view of G.
    dense = np.count_nonzero(desc_full.values, axis=0) >= 0.15 * full.n_vertices
    keep = np.concatenate([np.flatnonzero(used & dense),
                           np.flatnonzero(used & ~dense)])
    assert 0 < np.count_nonzero(dense) < len(keep)
    assert only_full in keep and only_part in keep and neither not in keep
    assert prob.dim == desc_full.dim == 352
    assert np.array_equal(prob.G, desc_full.values[:, keep])
    assert np.shares_memory(prob._G_dense, prob.G)
    assert np.array_equal(prob.F, desc_part.values[:, keep])
    assert prob.A.shape == (k, len(keep))
    A_all = basis_part.eigenvectors.T @ (basis_part.mass[:, None] *
                                         desc_part.values)
    assert not np.any(A_all[:, ~used])
    assert np.allclose(prob.A, A_all[:, keep], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("shape", ["partial", "full"])
def test_build_problem_rejects_all_zero_descriptors(small_pair, shape):
    full, part = small_pair["full"], small_pair["part"]
    k = 8
    descs = {"partial": shot_descriptors(part, radius=0.3),
             "full": shot_descriptors(full, radius=0.3)}
    values = np.zeros_like(descs[shape].values)
    descs[shape] = DescriptorField(values, 1e-3,
                                   np.ones(len(values), dtype=bool))
    with pytest.raises(ValueError, match=f"of the {shape} shape is zero "
                       r"\(support radius 0.001\)"):
        build_problem(mesh_basis(part, k), mesh_basis(full, k),
                      descs["partial"], descs["full"], full,
                      part.total_area, EnergyParams(k=k))


def test_initial_mask_blocks_match_unblocked(rng):
    # Unit descriptors with all-zero columns and all-zero rows, over more
    # rows than one block.
    mesh = grid_mesh(24)
    n, q = mesh.n_vertices, 30
    assert n > 2 * _NN_BLOCK
    G = rng.random((n, q))
    G[:, [0, 7, 8, 29]] = 0.0
    G[::11] = 0.0
    G /= np.maximum(np.linalg.norm(G, axis=1, keepdims=True), 1e-300)
    F = rng.random((70, q))
    F /= np.linalg.norm(F, axis=1, keepdims=True)
    basis = mesh_basis(mesh, 5)
    prob = MatchProblem(A=np.zeros((5, q)), Psi=basis.eigenvectors,
                        mass=basis.mass, G=G, mesh_full=mesh, area_part=0.5,
                        W=np.zeros((5, 5)), d=np.ones(5), F=F, dim=q)
    best = np.max(G @ F.T, axis=1)
    dist = np.sqrt(np.maximum(2.0 - 2.0 * best, 0.0))
    ref = 1.0 - (dist - dist.min()) / (dist.max() - dist.min())
    assert np.abs(initial_mask(prob) - ref).max() <= 1e-12


def test_initial_mask_is_one_where_descriptors_tell_no_vertex_apart():
    # Every full-shape descriptor is equally far from the part's.
    mesh = grid_mesh(4)
    q = 6
    G = np.tile(np.eye(q)[0], (mesh.n_vertices, 1))
    basis = mesh_basis(mesh, 5)
    prob = MatchProblem(A=np.zeros((5, q)), Psi=basis.eigenvectors,
                        mass=basis.mass, G=G, mesh_full=mesh, area_part=0.5,
                        W=np.zeros((5, 5)), d=np.ones(5), F=np.eye(q)[1:4],
                        dim=q)
    assert initial_mask(prob).tobytes() == np.ones(mesh.n_vertices).tobytes()


def test_c_step_decreases(small_pair, rng):
    prob, params = small_pair["prob"], small_pair["params"]
    k = prob.A.shape[0]
    C0 = rng.standard_normal((k, k)) * 0.1
    v = np.ones(prob.Psi.shape[0])
    C1, res = c_step(prob, params, C0, v, SolverOptions(cg_max_iter=50))
    # Energy of the C-subproblem must not increase.
    _, res0 = c_step(prob, params, C1, v, SolverOptions(cg_max_iter=1))
    assert res0.value <= res.value + 1e-9


def test_v_step_decreases(small_pair, rng):
    prob, params = small_pair["prob"], small_pair["params"]
    k = prob.A.shape[0]
    C = np.eye(k)
    v0 = np.ones(prob.Psi.shape[0]) + 0.1 * rng.standard_normal(prob.Psi.shape[0])
    v1, res = v_step(prob, params, C, v0, SolverOptions(cg_max_iter=50))
    v2, res2 = v_step(prob, params, C, v1, SolverOptions(cg_max_iter=1))
    assert res2.value <= res.value + 1e-9


def _smoothed_l21(H, B, dim):
    """Reference: the smoothed L2,1 norm and Hn as the steps computed them
    before the data term had one implementation."""
    eps = max(1e-9 * np.linalg.norm(B) / np.sqrt(dim), 1e-150)
    colnorm = np.sqrt(np.einsum("ij,ij->j", H, H) + eps ** 2)
    return float(np.sum(colnorm - eps)), H / colnorm


def _c_step_closure(prob, params, v_fixed):
    """Reference: the objective that c_step minimised before c_objective."""
    k = prob.A.shape[0]
    B = g_forward(prob, prob.mass * eta(v_fixed))

    def fg(x):
        C = x.reshape(k, k)
        val, Hn = _smoothed_l21(C @ prob.A - B, B, prob.dim)
        gC = Hn @ prob.A.T
        s_val, s_grad = slant_term(C, prob.W)
        o_val, o_grad = orthogonality_term(C, prob.d)
        total = val + params.mu3 * s_val + params.mu4_5 * o_val
        grad = gC + params.mu3 * s_grad + params.mu4_5 * o_grad
        return total, grad.reshape(-1)

    return fg


def _v_step_closure(prob, params, C_fixed):
    """Reference: the objective that v_step minimised before v_objective,
    with tanh(2v - 1) formed once per evaluation."""
    CA = C_fixed @ prob.A

    def fg(v):
        th = np.tanh(2.0 * np.asarray(v) - 1.0)
        B = g_forward(prob, prob.mass * (0.5 * (th + 1.0)))
        d_val, Hn = _smoothed_l21(CA - B, B, prob.dim)
        d_gv = -(1.0 - th ** 2) * prob.mass * g_adjoint(prob, Hn)
        a_val, a_gv = area_term(v, prob.area_part, prob.mass)
        m_val, m_gv = mumford_shah(v, prob.mesh_full, params.sigma_xi)
        val = d_val + params.mu1 * a_val + params.mu2 * m_val
        return val, d_gv + params.mu1 * a_gv + params.mu2 * m_gv

    return fg


def test_objectives_bit_equal_to_step_closures(small_pair, rng):
    # The objectives evaluate the same products in the same order as the
    # closures the steps used before, so the matches stay byte-identical.
    prob, params = small_pair["prob"], small_pair["params"]
    k, n = prob.A.shape[0], prob.Psi.shape[0]
    masks = (initial_mask(prob), rng.standard_normal(n), np.full(n, -30.0))
    maps = (np.zeros((k, k)), rng.standard_normal((k, k)))
    for v in masks:
        for C in maps:
            for fun_grad, ref, x in (
                    (c_objective(prob, params, v),
                     _c_step_closure(prob, params, v), C.ravel()),
                    (v_objective(prob, params, C),
                     _v_step_closure(prob, params, C), v)):
                value, grad = fun_grad(x)
                ref_value, ref_grad = ref(x)
                assert value == ref_value
                assert grad.tobytes() == ref_grad.tobytes()


# -- nearest neighbors and refinement -------------------------------------------


def test_nearest_columns_brute_force(rng):
    pts = rng.standard_normal((40, 5))
    q = rng.standard_normal((25, 5))
    got = nearest_columns(q, pts)
    dists = np.linalg.norm(q[:, None, :] - pts[None, :, :], axis=2)
    assert np.array_equal(got, np.argmin(dists, axis=1))


def test_nearest_columns_ties_exact_and_repeatable(rng):
    # Every point is repeated, and the queries sit on points or halfway
    # between two, so most queries have several equidistant answers.
    pts = np.repeat(rng.integers(-2, 3, size=(30, 4)).astype(float), 5, axis=0)
    q = np.vstack([pts[::7], 0.5 * (pts[::5] + pts[3::5][::-1])])
    got = nearest_columns(q, pts)
    dists = np.sum((q[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    assert np.array_equal(dists[np.arange(len(q)), got], dists.min(axis=1))
    assert np.array_equal(nearest_columns(q.copy(), pts.copy()), got)
    assert np.array_equal(got, np.argmin(dists, axis=1))
    eye = nearest_columns(np.eye(3), np.repeat(np.eye(3), 8, axis=0))
    assert np.array_equal(eye, [0, 8, 16])


def test_nearest_columns_near_ties_match_float64_argmin(rng):
    # Each point sits next to a copy moved up by 1 ulp in every coordinate;
    # each query takes every coordinate from one of the two, so its two
    # distances differ by a few ulp^2, far below the rounding of |p|^2 - 2 q.p.
    # The queries span more than one block.
    base = rng.standard_normal((40, 7))
    up = np.nextafter(base, np.inf)
    pts = np.vstack([base, up])
    n_q = 3 * _NN_BLOCK + 5
    src = rng.integers(0, len(base), n_q)
    q = np.where(rng.random((n_q, base.shape[1])) < 0.5, base[src], up[src])
    got = nearest_columns(q, pts)
    dists = np.sum((q[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    assert np.array_equal(got, np.argmin(dists, axis=1))


def test_nearest_columns_far_queries_near_ties(rng):
    # Queries 1000 times farther out than the points: the float32 scores
    # then carry rounding errors of order eps32 |q| |p|, far above
    # eps32 max |p|^2, so only the |q|^2 part of the margin sends these
    # near ties to the float64 re-ranking.  Each query q = 1000 u sees the
    # unit point u and, 1e-6 farther, u moved by 1e-3 orthogonally to u.
    k = 4
    u = rng.standard_normal((200, k))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    step = rng.standard_normal((200, k))
    step -= np.sum(step * u, axis=1, keepdims=True) * u
    step *= 1e-3 / np.linalg.norm(step, axis=1, keepdims=True)
    points = np.vstack([u + step, u])
    queries = 1000.0 * u
    dists = np.sum((queries[:, None, :] - points[None, :, :]) ** 2, axis=2)
    assert np.array_equal(np.argmin(dists, axis=1), np.arange(200) + 200)
    assert np.array_equal(nearest_columns(queries, points),
                          np.arange(200) + 200)


def _nearest_columns_f64(queries, points):
    """Reference: the float64 blocked search that the float32 screen
    replaced (scores |p|^2 - 2 q.p in float64, margin (4k + 8) eps m)."""
    queries = np.asarray(queries, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    p_sq = np.einsum("ij,ij->i", points, points)
    minus_2pt = -2.0 * points.T
    tol = (4 * points.shape[1] + 8) * np.finfo(np.float64).eps
    out = np.empty(len(queries), dtype=np.intp)
    for start in range(0, len(queries), _NN_BLOCK):
        q = queries[start:start + _NN_BLOCK]
        dist = q @ minus_2pt
        dist += p_sq
        rows = np.arange(len(q))
        best = np.argmin(dist, axis=1)
        d_min = dist[rows, best]
        dist[rows, best] = np.inf
        runner_up = dist.min(axis=1)
        dist[rows, best] = d_min
        bound = tol * (np.einsum("ij,ij->i", q, q) + p_sq.max())
        for i in np.flatnonzero(runner_up - d_min <= bound):
            near = np.flatnonzero(dist[i] <= d_min[i] + bound[i])
            exact = np.sum((points[near] - q[i]) ** 2, axis=1)
            best[i] = near[np.argmin(exact)]
        out[start:start + len(q)] = best
    return out


def _near_tie_cloud(rng, n, k, scale):
    """(queries, points) full of exact and near ties: duplicated points,
    copies moved by 1 to 2 float32 ulp in one coordinate (still distinct in
    float64), and queries on points, on the moved copies and halfway."""
    base = scale * rng.standard_normal((n, k))
    moved = base.copy()
    col = rng.integers(0, k, n)
    moved[np.arange(n), col] *= 1.0 + 2.0 ** -23
    points = np.vstack([base, moved, base[: n // 2]])
    queries = np.vstack([base, moved, 0.5 * (base + moved),
                         scale * rng.standard_normal((n, k)),
                         points[rng.permutation(len(points))[:n]]])
    return queries, points


def _assert_exact(queries, points):
    """nearest_columns equals the float64 search and the brute-force
    argmin of the float64 squared distances."""
    got = nearest_columns(queries, points)
    assert np.array_equal(got, _nearest_columns_f64(queries, points))
    dists = np.sum((queries[:, None, :] - points[None, :, :]) ** 2, axis=2)
    assert np.array_equal(got, np.argmin(dists, axis=1))


@given(seed=st.integers(0, 2 ** 32 - 1), log_scale=st.integers(-40, 40),
       k=st.integers(1, 64), n=st.integers(1, 40))
def test_nearest_columns_float32_screen_matches_float64(seed, log_scale, k,
                                                        n):
    rng = np.random.default_rng(seed)
    queries, points = _near_tie_cloud(rng, n, k, 10.0 ** log_scale)
    assert not np.array_equal(points[:n], points[n:2 * n])
    _assert_exact(queries, points)


@given(seed=st.integers(0, 2 ** 32 - 1), tiny_exp=st.integers(-160, -64),
       cloud_exp=st.integers(-80, -60), k=st.integers(2, 16),
       n=st.integers(1, 40))
def test_nearest_columns_mixed_magnitudes_exact(seed, tiny_exp, cloud_exp, k,
                                                n):
    # Entries below 2^-63 beside O(1) ones: the cloud is scaled by
    # 2^cloud_exp and some of its columns by 2^tiny_exp more, and one O(1)
    # query sets the scale, so the cloud's float32 copies, products and
    # scores are subnormal or zero; only the absolute term of the margin
    # then covers their rounding.  Some queries are 1e-30 times smaller
    # again.
    rng = np.random.default_rng(seed)
    queries, points = _near_tie_cloud(rng, n, k, 2.0 ** cloud_exp)
    tiny = rng.random(k) < 0.5
    queries[:, tiny] *= 2.0 ** tiny_exp
    points[:, tiny] *= 2.0 ** tiny_exp
    queries[rng.random(len(queries)) < 0.2] *= 1e-30
    _assert_exact(np.vstack([queries, np.ones((1, k))]), points)


@pytest.mark.parametrize("scale, query_scale", [
    pytest.param(1e30, 1.0, id="1e+30"), pytest.param(3e-30, 1.0, id="3e-30"),
    pytest.param(1e-30, 1.0, id="1e-30"),
    pytest.param(1.0, 1e-30, id="queries-1e-30")])
def test_nearest_columns_scaled_screen_exact_at_extreme_scales(
        rng, scale, query_scale):
    # Unscaled, float32 scores would overflow near 1e30 and their products
    # would underflow near 1e-30; the power-of-two scale keeps the float32
    # screen exact, whether the points or only the queries are extreme.
    queries, points = _near_tie_cloud(rng, 300, 6, scale)
    _assert_exact(query_scale * queries, points)


_WIDE = np.broadcast_to(np.zeros(1), (2, _NN_MAX_K + 1))  # no memory


@pytest.mark.parametrize("queries, points", [
    pytest.param([[0.0, np.nan]], [[0.0, 1.0]], id="nan-query"),
    pytest.param([[0.0, 1.0]], [[np.inf, 1.0]], id="inf-point"),
    pytest.param([[1e200, 0.0]], [[0.0, 0.0]], id="distance-overflow"),
    pytest.param(_WIDE, _WIDE, id="k-beyond-the-bound")])
def test_nearest_columns_rejects_what_its_bound_does_not_cover(queries,
                                                               points):
    with pytest.raises(ValueError, match="finite coordinates"):
        nearest_columns(queries, points)


def test_refine_recovers_permutation(rng):
    n, k = 30, 6
    Phi = rng.standard_normal((n, k))
    perm = rng.permutation(n)
    Psi = Phi[perm]
    d = np.ones(k)
    C, sigma, residuals = refine(np.eye(k), Phi, Psi, d,
                                 opts=SolverOptions(refine_max_iter=5))
    assert np.array_equal(sigma, np.argsort(perm))
    assert residuals[0] < 1e-20


def test_refine_fit_is_optimal(rng, monkeypatch):
    # One re-fit: the C fitted to the first search's assignment sigma is the
    # exact minimiser of |Phi C^T - Psi_a|^2 over C^T C = diag(d), Psi_a =
    # Psi[sigma].
    n_part, n_full, k = 40, 60, 6
    Phi = rng.standard_normal((n_part, k))
    Psi = rng.standard_normal((n_full, k))
    searches = []
    real = solver.nearest_columns

    def recorded(*args):
        searches.append(real(*args))
        return searches[-1]

    monkeypatch.setattr(solver, "nearest_columns", recorded)
    for r in (1, 4, k, *rng.integers(1, k + 1, 3)):
        d = (np.arange(k) < r).astype(float)
        searches.clear()
        C, _, _ = refine(rng.standard_normal((k, k)), Phi, Psi, d,
                         SolverOptions(refine_max_iter=1))
        np.testing.assert_allclose(C.T @ C, np.diag(d), rtol=0, atol=1e-12)
        Psi_a = Psi[searches[0]]
        fitted = np.sum((Phi @ C.T - Psi_a) ** 2)
        for _ in range(100):
            X = np.zeros((k, k))
            X[:, :r] = np.linalg.qr(rng.standard_normal((k, r)))[0]
            assert fitted <= np.sum((Phi @ X.T - Psi_a) ** 2)


def test_refine_stops_at_fixed_point(small_pair, rng):
    # A refine that stops because sigma repeated returns what a run capped
    # one re-fit earlier returns, whose last search finds that sigma again,
    # and what a run allowed more rounds returns.
    prob = small_pair["prob"]
    k = prob.A.shape[0]
    C0 = np.eye(k) + 0.3 * rng.standard_normal((k, k))
    phi = small_pair["phi"]
    args = (C0, phi, prob.Psi, prob.d)
    C, sigma, residuals = refine(*args, SolverOptions(refine_max_iter=50))
    rounds = len(residuals)
    assert 2 < rounds < 50
    assert np.array_equal(nearest_columns(phi @ C.T, prob.Psi), sigma)
    for cap in (rounds - 1, 100):
        C_cap, sigma_cap, resid_cap = refine(
            *args, SolverOptions(refine_max_iter=cap))
        assert C_cap.tobytes() == C.tobytes()
        assert sigma_cap.tobytes() == sigma.tobytes()
        assert resid_cap == residuals


def test_refine_at_cap_returns_nearest_map_of_its_c(small_pair, rng):
    # Stopped by refine_max_iter, not at a fixed point, refine still returns
    # the nearest map of the C it returns, after one more search.
    prob = small_pair["prob"]
    k = prob.A.shape[0]
    C0 = np.eye(k) + 0.3 * rng.standard_normal((k, k))
    phi = small_pair["phi"]
    C, sigma, residuals = refine(C0, phi, prob.Psi, prob.d,
                                 SolverOptions(refine_max_iter=1))
    assert len(residuals) == 2 and residuals[1] <= residuals[0]
    assert np.array_equal(nearest_columns(phi @ C.T, prob.Psi), sigma)


def test_refine_residuals_decrease(small_pair):
    prob = small_pair["prob"]
    k = prob.A.shape[0]
    C0 = prob.W + 0.5 * np.eye(k)
    _, sigma, residuals = refine(C0, small_pair["phi"], prob.Psi, prob.d)
    assert all(residuals[i + 1] <= residuals[i] + 1e-9
               for i in range(len(residuals) - 1))
    assert sigma.shape == (small_pair["part"].n_vertices,)
    assert sigma.min() >= 0
    assert sigma.max() < prob.Psi.shape[0]


# -- map post-processing ---------------------------------------------------------


def test_invert_assignment_ties():
    assignment = np.array([2, 0, 2, UNASSIGNED, 1])
    inv = invert_assignment(assignment, 4)
    # Target 2 receives sources 0 and 2: the smallest index wins.
    assert np.array_equal(inv, [1, 4, 0, UNASSIGNED])


def _invert_assignment_loop(assignment, n_target):
    """Reference: the per-vertex loop that invert_assignment replaced."""
    inv = np.full(n_target, UNASSIGNED, dtype=np.int64)
    for source in range(len(assignment) - 1, -1, -1):
        t = assignment[source]
        if t != UNASSIGNED:
            inv[t] = source
    return inv


@pytest.mark.parametrize("n_source, n_target", [(0, 3), (1, 1), (50, 7),
                                                (300, 40), (40, 300)])
def test_invert_assignment_matches_loop(rng, n_source, n_target):
    assignment = rng.integers(UNASSIGNED, n_target, n_source)
    inv = invert_assignment(assignment, n_target)
    assert inv.dtype == np.int64
    assert np.array_equal(inv, _invert_assignment_loop(assignment, n_target))


# -- alternating scheme ----------------------------------------------------------


def test_alternate_monotone_and_valid(small_pair):
    prob, params = small_pair["prob"], small_pair["params"]
    opts = SolverOptions(max_outer=3, cg_max_iter=40)
    result = alternate(prob, params, small_pair["phi"], opts)

    totals = [b.total for b in result.energy_trace]
    assert len(totals) >= 1
    assert all(totals[i + 1] <= totals[i] * (1.0 + 1e-9)
               for i in range(len(totals) - 1))

    n_full = small_pair["full"].n_vertices
    n_part = small_pair["part"].n_vertices
    assert result.pi.shape == (n_full,)
    assigned = result.pi[result.pi != UNASSIGNED]
    assert len(assigned) > 0
    assert assigned.min() >= 0 and assigned.max() < n_part
    assert result.C.shape == (8, 8)
    assert result.rank_estimate == small_pair["r"]


def test_alternate_pi_inverts_the_part_to_full_map(small_pair):
    # pi is the part-to-full nearest map of the returned C, inverted: each
    # full vertex gets the smallest part vertex sent onto it, or -1.
    prob, params = small_pair["prob"], small_pair["params"]
    opts = SolverOptions(max_outer=2, cg_max_iter=30)
    result = alternate(prob, params, small_pair["phi"], opts)
    n_full = small_pair["full"].n_vertices
    sigma = nearest_columns(small_pair["phi"] @ result.C.T, prob.Psi)
    assert result.sigma.tobytes() == sigma.tobytes()
    assert np.array_equal(result.pi, invert_assignment(result.sigma, n_full))


def test_alternate_stops_when_the_total_stops_falling(small_pair,
                                                     monkeypatch):
    # A flat total ends the loop at the second outer iteration, the first
    # with a total before it, long before max_outer.
    prob, params = small_pair["prob"], small_pair["params"]
    real = solver.total_energy
    monkeypatch.setattr(solver, "total_energy", lambda *args:
                        dataclasses.replace(real(*args), total=1.0))
    opts = SolverOptions(max_outer=5, cg_max_iter=10)
    result = alternate(prob, params, small_pair["phi"], opts)
    assert [b.total for b in result.energy_trace] == [1.0, 1.0]


def test_alternate_deterministic(small_pair):
    prob, params = small_pair["prob"], small_pair["params"]
    opts = SolverOptions(max_outer=2, cg_max_iter=30)
    a = alternate(prob, params, small_pair["phi"], opts)
    b = alternate(prob, params, small_pair["phi"], opts)
    assert a.C.tobytes() == b.C.tobytes()
    assert a.v.tobytes() == b.v.tobytes()
    assert np.array_equal(a.pi, b.pi)


def test_alternate_truncates_a_wider_basis():
    # build_problem truncates to params.k; alternate must align only the
    # first k partial eigenvectors even when handed the wider basis.
    full = grid_mesh(8)
    part, _ = full.submesh(np.flatnonzero(full.vertices[:, 0] <= 0.5 + 1e-9))
    basis_full, basis_part = mesh_basis(full, 12), mesh_basis(part, 12)
    params = EnergyParams(k=8)
    prob, _ = build_problem(basis_part, basis_full,
                            shot_descriptors(part, radius=0.3),
                            shot_descriptors(full, radius=0.3), full,
                            part.total_area, params)
    opts = SolverOptions(max_outer=2, cg_max_iter=30)
    phi = basis_part.eigenvectors
    wide = alternate(prob, params, phi, opts)
    narrow = alternate(prob, params, phi[:, :8], opts)
    assert wide.C.tobytes() == narrow.C.tobytes()
    assert wide.v.tobytes() == narrow.v.tobytes()
    assert np.array_equal(wide.pi, narrow.pi)


@pytest.mark.parametrize("given", [False, True])
def test_match_equals_the_hand_assembly(small_pair, given):
    # The assembly that match replaces: both bases, SHOT at one radius,
    # build_problem and alternate, with sigma from the returned C.
    full, part, params = small_pair["full"], small_pair["part"], \
        small_pair["params"]
    opts = SolverOptions(max_outer=2, cg_max_iter=30, refine_max_iter=6)
    basis_part = mesh_basis(part, params.k)
    basis_full = mesh_basis(full, params.k)
    desc_part = shot_descriptors(part, 0.3)
    desc_full = shot_descriptors(full, 0.3)
    prob, _ = build_problem(basis_part, basis_full, desc_part, desc_full,
                            full, part.total_area, params)
    ref = alternate(prob, params, basis_part.eigenvectors, opts)
    sigma = nearest_columns(basis_part.eigenvectors @ ref.C.T, prob.Psi)
    if given:
        got = solver.match(part, full, params, opts, desc_part=desc_part,
                           desc_full=desc_full)
    else:
        got = solver.match(part, full, params, opts, radius=0.3)
    assert got.C.tobytes() == ref.C.tobytes()
    assert got.v.tobytes() == ref.v.tobytes()
    assert got.pi.tobytes() == ref.pi.tobytes()
    assert got.sigma.tobytes() == sigma.tobytes()
    assert got.energy_trace == ref.energy_trace
    assert got.refine_residuals == ref.refine_residuals


def test_alternate_recovers_part_region(small_pair):
    # The left half of the grid should be matched onto itself: recovered
    # membership must be high inside the part's footprint and the assignment
    # roughly near the identity correspondence.
    prob, params = small_pair["prob"], small_pair["params"]
    opts = SolverOptions(max_outer=4, cg_max_iter=80)
    result = alternate(prob, params, small_pair["phi"], opts)

    full = small_pair["full"]
    vmap = small_pair["vmap"]
    in_part = np.zeros(full.n_vertices, dtype=bool)
    in_part[vmap] = True
    ev = eta(result.v)
    # Mask should concentrate on the true region more than its complement.
    assert ev[in_part].mean() > ev[~in_part].mean()


@pytest.mark.parametrize("outer_before", [0, 1])
def test_steps_do_not_raise_total_energy(small_pair, outer_before):
    # The outer trace is monotone because each step descends on the total
    # energy: the C-step from the state it starts in, the v-step from the
    # C-step's result.  Checked from the initial state and after one outer
    # iteration.
    prob, params = small_pair["prob"], small_pair["params"]
    opts = SolverOptions(cg_max_iter=30)

    def total(C, v):
        return solver.total_energy(C, v, prob, params).total

    C = np.zeros_like(prob.W)
    v = initial_mask(prob)
    for _ in range(outer_before):
        C, _ = c_step(prob, params, C, v, opts)
        v, _ = v_step(prob, params, C, v, opts)
    before = total(C, v)
    C, _ = c_step(prob, params, C, v, opts)
    after_c = total(C, v)
    assert after_c <= before + 1e-9 * abs(before)
    v, _ = v_step(prob, params, C, v, opts)
    after_v = total(C, v)
    assert after_v <= after_c + 1e-9 * abs(after_c)


def _alternate_reference(prob, params, phi_part, opts=SolverOptions()):
    """Reference: alternate as it was with a refine after every C-step,
    whose C replaced the C-step's only when it did not raise the total
    energy (the descent safeguard), and a final refine.  Returns the result
    and the list of safeguard decisions, True where the refined C was
    taken.  It looks up the solver's functions on the module, so a test
    that patches them patches both versions."""
    C = np.zeros_like(prob.W)
    v = initial_mask(prob)
    trace = []
    accepted = []
    prev_total = np.inf
    for _ in range(opts.max_outer):
        C, _ = solver.c_step(prob, params, C, v, opts)
        C_ref, _, _ = solver.refine(C, phi_part, prob.Psi, prob.d, opts)
        e_ref = solver.total_energy(C_ref, v, prob, params)
        e_raw = solver.total_energy(C, v, prob, params)
        accepted.append(bool(e_ref.total <= e_raw.total))
        if accepted[-1]:
            C = C_ref
        v, _ = solver.v_step(prob, params, C, v, opts)
        breakdown = solver.total_energy(C, v, prob, params)
        trace.append(breakdown)
        if np.isfinite(prev_total) and prev_total - breakdown.total <= \
                solver._OUTER_REL_TOL * max(abs(prev_total), 1e-300):
            break
        prev_total = breakdown.total

    C_out, sigma, resids = solver.refine(C, phi_part, prob.Psi, prob.d,
                                         opts)
    pi = invert_assignment(sigma, len(prob.Psi))
    r = int(np.sum(prob.d))
    ref = MatchResult(C=C_out, v=v, pi=pi, sigma=sigma, energy_trace=trace,
                      rank_estimate=r, refine_residuals=resids)
    return ref, accepted


def _count_refines(monkeypatch):
    """Patch solver.refine to record the C each call starts from."""
    calls = []
    real = solver.refine

    def counted(C, *args, **kwargs):
        calls.append(C.copy())
        return real(C, *args, **kwargs)

    monkeypatch.setattr(solver, "refine", counted)
    return calls


@pytest.mark.parametrize("max_outer", [1, 2, 3])
def test_alternate_matches_safeguarded_reference(small_pair, monkeypatch,
                                                 max_outer):
    # Where the reference's safeguard rejects every in-loop refine, those
    # refines change nothing, and the single final refine gives the same
    # result.
    prob, params = small_pair["prob"], small_pair["params"]
    opts = SolverOptions(max_outer=max_outer, cg_max_iter=30,
                         refine_max_iter=6)
    calls = _count_refines(monkeypatch)
    ref, accepted = _alternate_reference(prob, params, small_pair["phi"],
                                         opts)
    n_ref = len(calls)
    got = alternate(prob, params, small_pair["phi"], opts)
    assert accepted == [False] * len(ref.energy_trace)
    assert n_ref == len(accepted) + 1
    assert len(calls) - n_ref == 1
    assert calls[-1].tobytes() == calls[-2].tobytes()
    assert got.C.tobytes() == ref.C.tobytes()
    assert got.v.tobytes() == ref.v.tobytes()
    assert got.pi.tobytes() == ref.pi.tobytes()
    assert got.sigma.tobytes() == ref.sigma.tobytes()
    assert got.energy_trace == ref.energy_trace
    assert got.refine_residuals == ref.refine_residuals
    assert got.rank_estimate == ref.rank_estimate
