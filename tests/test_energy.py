import dataclasses

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from pfmatch.bench import bumpy_sphere, grid_mesh
from pfmatch.energy import (EnergyBreakdown, EnergyParams, MatchProblem,
                            area_term, data_term, dense_bins, eta, eta_prime,
                            g_adjoint, g_forward, mask_coefficients,
                            mumford_shah, orthogonality_term, slant_term,
                            total_energy, xi)
from pfmatch.laplacian import mesh_basis
from pfmatch.mesh import TriangleMesh
from pfmatch.solver import c_objective, v_objective
from pfmatch.spectral import build_d_vector, build_weight_matrix

# Weights that leave the data term alone in c_objective and v_objective.
DATA_ONLY = dict(mu1=0.0, mu2=0.0, mu3=0.0, mu4_5=0.0)


def fd_gradient(fun, x, h=1e-6):
    """Central-difference gradient of a scalar function of a flat array."""
    x = x.astype(np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy(); xp.flat[i] += h
        xm = x.copy(); xm.flat[i] -= h
        g.flat[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def assert_grad_close(analytic, numeric, rtol=1e-5):
    scale = max(np.abs(numeric).max(), 1.0)
    assert np.allclose(analytic, numeric, atol=rtol * scale)


@pytest.fixture
def tiny_problem(rng):
    mesh = grid_mesh(5)
    k, q = 6, 7
    basis = mesh_basis(mesh, k)
    G = rng.standard_normal((mesh.n_vertices, q))
    A = rng.standard_normal((k, q))
    return MatchProblem(A=A, Psi=basis.eigenvectors, mass=basis.mass, G=G,
                        mesh_full=mesh, area_part=0.4,
                        W=build_weight_matrix(k, 3, 0.03),
                        d=build_d_vector(k, 3), F=np.zeros((1, q)), dim=q)


# -- saturation functions -----------------------------------------------------


def test_eta_values():
    assert np.isclose(eta(0.5), 0.5)
    assert eta(10.0) > 0.999
    assert eta(-10.0) < 0.001
    assert np.isclose(eta(1.0), 0.5 * (np.tanh(1.0) + 1.0))


def test_eta_monotone():
    v = np.linspace(-3, 4, 200)
    assert np.all(np.diff(eta(v)) > 0)
    assert np.all(eta_prime(v) > 0)


def test_eta_prime_fd(rng):
    v = rng.standard_normal(20)
    assert_grad_close(eta_prime(v) * 0.5 * 2.0,  # chain rule of tanh(2v-1)
                      fd_gradient(lambda x: float(np.sum(eta(x))), v))


def test_xi_peak_and_decay():
    assert np.isclose(xi(0.5, 0.5), 1.0)  # peak where eta = 1/2
    assert xi(0.5, 0.5) > xi(1.5, 0.5) > xi(3.0, 0.5)
    assert np.isclose(xi(0.5 + 1.0, 0.5), xi(0.5 - 1.0, 0.5))  # even around 0.5


# -- data term ----------------------------------------------------------------


def test_data_term_zero_residual(tiny_problem, rng):
    # With a square invertible A the residual can be driven to zero exactly;
    # the smoothed norm must stay finite there.
    p = tiny_problem
    k = p.A.shape[0]
    A_sq = rng.standard_normal((k, k)) + 3.0 * np.eye(k)
    G_sq = p.G[:, :k]
    v = rng.standard_normal(p.mesh_full.n_vertices)
    B = p.Psi.T @ ((p.mass * eta(v))[:, None] * G_sq)
    C = B @ np.linalg.inv(A_sq)
    value, Hn = data_term(C @ A_sq, B, k)
    assert value < 1e-6
    assert np.all(np.isfinite(Hn @ A_sq.T))


def test_data_term_empty_mask_zero_map(tiny_problem):
    # eta(-30) = 0 makes B = 0, so eps falls to its floor and eps**2
    # underflows; with C = 0 every residual column is zero as well.
    p = tiny_problem
    k = p.A.shape[0]
    C = np.zeros((k, k))
    v = np.full(p.mesh_full.n_vertices, -30.0)
    B = mask_coefficients(p, v)
    assert not B.any()
    value, Hn = data_term(C @ p.A, B, p.dim)
    assert value == 0.0 and not Hn.any()
    params = EnergyParams(k=k)
    for fun_grad, x in ((c_objective(p, params, v), C.ravel()),
                        (v_objective(p, params, C), v)):
        value, grad = fun_grad(x)
        assert np.isfinite(value) and value >= 0
        assert np.all(np.isfinite(grad))
    b = total_energy(C, v, p, params)
    assert np.isfinite(b.data) and b.data >= 0
    assert np.isfinite(b.total) and b.total >= 0


def test_data_term_grad_C(tiny_problem, rng):
    # With every other weight zero, c_objective is the data term alone.
    p = tiny_problem
    k = p.A.shape[0]
    C = rng.standard_normal((k, k))
    v = rng.standard_normal(p.mesh_full.n_vertices)
    fun_grad = c_objective(p, EnergyParams(k=k, **DATA_ONLY), v)
    value, grad = fun_grad(C.ravel())
    assert value == data_term(C @ p.A, mask_coefficients(p, v), p.dim)[0]
    assert_grad_close(grad, fd_gradient(lambda x: fun_grad(x)[0], C.ravel()))


def test_data_term_grad_v(tiny_problem, rng):
    # With every other weight zero, v_objective is the data term alone.
    p = tiny_problem
    k = p.A.shape[0]
    C = rng.standard_normal((k, k))
    v = rng.standard_normal(p.mesh_full.n_vertices)
    fun_grad = v_objective(p, EnergyParams(k=k, **DATA_ONLY), C)
    value, grad = fun_grad(v)
    assert value == data_term(C @ p.A, mask_coefficients(p, v), p.dim)[0]
    assert_grad_close(grad, fd_gradient(lambda x: fun_grad(x)[0], v))


def test_data_term_column_sparsity_scaling(tiny_problem, rng):
    # The L2,1 norm is 1-homogeneous: doubling the residual doubles the value.
    p = tiny_problem
    k = p.A.shape[0]
    C = rng.standard_normal((k, k))
    v = np.full(p.mesh_full.n_vertices, -10.0)  # eta ~ 0, so B ~ 0
    B = mask_coefficients(p, v)
    val1 = data_term(C @ p.A, B, p.dim)[0]
    val2 = data_term(2.0 * C @ p.A, B, p.dim)[0]
    assert np.isclose(val2, 2.0 * val1, rtol=1e-6)


def test_data_term_single_column_norm(tiny_problem):
    # One residual column (3, 4, 0, ...): the L2,1 value is its plain
    # Euclidean norm 5, and Hn is that column over its norm.
    k = tiny_problem.A.shape[0]
    CA = np.zeros((k, 1))
    CA[0, 0], CA[1, 0] = 3.0, 4.0
    value, Hn = data_term(CA, np.zeros((k, 1)), 1)
    assert np.isclose(value, 5.0)
    assert np.allclose(Hn, CA / 5.0)


def test_data_term_column_permutation_invariant(tiny_problem, rng):
    p = tiny_problem
    k, q = p.A.shape
    C = rng.standard_normal((k, k))
    v = rng.standard_normal(p.mesh_full.n_vertices)
    perm = rng.permutation(q)
    r = dataclasses.replace(p, A=p.A[:, perm], G=p.G[:, perm])
    v1 = data_term(C @ p.A, mask_coefficients(p, v), p.dim)[0]
    v2 = data_term(C @ r.A, mask_coefficients(r, v), r.dim)[0]
    assert np.isclose(v1, v2)


# -- the products with G: a dense block and a sparse tail ---------------------


def _sparse_g_problem(rng, shares):
    """A problem whose bin j of G is set on about shares[j] of the vertices,
    the dense bins first as build_problem orders them."""
    mesh = grid_mesh(9)
    n, k = mesh.n_vertices, 6
    G = rng.standard_normal((n, len(shares))) * (rng.random((n, len(shares)))
                                                 < shares)
    G = G[:, np.argsort(~dense_bins(G), kind="stable")]
    return _problem(mesh, k, G, rng)


@pytest.mark.parametrize("shares, n_dense", [
    (np.linspace(0.02, 0.6, 25), (8, 20)),  # both kinds
    (np.full(10, 0.8), (10, 10)),           # every bin dense
    (np.full(10, 0.05), (0, 0)),            # every bin sparse
])
def test_g_products_match_dense_products(rng, shares, n_dense):
    p = _sparse_g_problem(rng, shares)
    n, q = p.G.shape
    assert n_dense[0] <= np.count_nonzero(dense_bins(p.G)) <= n_dense[1]
    assert np.shares_memory(p._G_dense, p.G) or p._G_dense.size == 0
    k = p.Psi.shape[1]
    w, H = rng.standard_normal(n), rng.standard_normal((k, q))
    forward, adjoint = g_forward(p, w), g_adjoint(p, H)
    assert np.allclose(forward, p.Psi.T @ (w[:, None] * p.G),
                       rtol=1e-12, atol=0.0)
    assert np.allclose(adjoint, np.einsum("ij,ij->i", p.Psi, (H @ p.G.T).T),
                       rtol=1e-12, atol=1e-12 * np.abs(adjoint).max())
    # <forward(w), H> = <w, adjoint(H)>
    assert np.isclose(np.sum(forward * H), w @ adjoint, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shares", [
    np.linspace(0.02, 0.6, 25), np.full(10, 0.8), np.full(10, 0.05)],
    ids=["both_kinds", "every_bin_dense", "every_bin_sparse"])
def test_g_tail_is_the_csr_of_the_sparse_bins(rng, shares):
    p = _sparse_g_problem(rng, shares)
    ref = csr_matrix(p.G[:, ~dense_bins(p.G)])
    assert p._G_tail.shape == ref.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(p._G_tail, name), getattr(ref, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_replace_with_permuted_bins_rebuilds_the_split(rng):
    p = _sparse_g_problem(rng, np.linspace(0.02, 0.6, 25))
    perm = rng.permutation(p.G.shape[1])
    r = dataclasses.replace(p, A=p.A[:, perm], G=p.G[:, perm])
    dense = dense_bins(r.G)
    assert not dense[:np.count_nonzero(dense)].all()  # no longer dense-first
    assert np.array_equal(r._G_dense, r.G[:, dense])
    assert np.array_equal(r._G_tail.toarray(), r.G[:, ~dense])
    w = rng.standard_normal(len(r.G))
    H = rng.standard_normal(r.A.shape)
    adjoint = g_adjoint(p, H)
    assert np.allclose(g_forward(r, w), g_forward(p, w)[:, perm],
                       rtol=1e-12, atol=0.0)
    assert np.allclose(g_adjoint(r, H[:, perm]), adjoint,
                       rtol=1e-12, atol=1e-12 * np.abs(adjoint).max())


# -- area term ----------------------------------------------------------------


def test_area_term_exact(tiny_problem):
    p = tiny_problem
    n = p.mesh_full.n_vertices
    v_full = np.full(n, 10.0)  # eta = 1 everywhere: mask area = 1
    value, _ = area_term(v_full, 1.0, p.mass)
    assert value < 1e-12
    value_off, _ = area_term(v_full, 0.4, p.mass)
    assert np.isclose(value_off, 0.36, atol=1e-6)


def test_area_term_empty_part_limit(tiny_problem):
    p = tiny_problem
    v = np.full(p.mesh_full.n_vertices, -40.0)  # eta -> 0
    value, _ = area_term(v, 0.4, p.mass)
    assert np.isclose(value, 0.16)


def test_area_term_grad(tiny_problem, rng):
    p = tiny_problem
    v = rng.standard_normal(p.mesh_full.n_vertices)
    _, grad = area_term(v, 0.4, p.mass)
    num = fd_gradient(lambda x: area_term(x, 0.4, p.mass)[0], v)
    assert_grad_close(grad, num)


# -- Mumford-Shah term ----------------------------------------------------------


def test_triangle_metric_equilateral(equilateral):
    E, F, G = equilateral.triangle_metric
    assert np.isclose(E[0], 1.0)
    assert np.isclose(F[0], 0.5)
    assert np.isclose(G[0], 1.0)


def test_mumford_shah_constant_mask(square_grid):
    for c in (-2.0, 0.5, 3.0):
        v = np.full(square_grid.n_vertices, c)
        value, grad = mumford_shah(v, square_grid, 0.5)
        assert value == 0.0
        assert np.allclose(grad, 0.0)


def test_mumford_shah_step_approximates_cut_length():
    # Hard 0/1 step with a one-cell transition band around x = 0.5: the soft
    # boundary length should approximate the true cut length 1 within 25%,
    # and stay stable under refinement.
    for n in (10, 20, 40):
        mesh = grid_mesh(n)
        x = mesh.vertices[:, 0]
        h = 1.0 / n
        v = np.where(x < 0.5 - h / 2, 1.0, np.where(x > 0.5 + h / 2, 0.0, 0.5))
        value, _ = mumford_shah(v, mesh, 0.5)
        assert abs(value - 1.0) < 0.25


def test_mumford_shah_grad(rng):
    mesh = grid_mesh(5)
    v = rng.standard_normal(mesh.n_vertices)
    _, grad = mumford_shah(v, mesh, 0.5)
    num = fd_gradient(lambda x: mumford_shah(x, mesh, 0.5)[0], v)
    assert_grad_close(grad, num, rtol=1e-4)


def test_mumford_shah_grad_other_sigma(rng):
    mesh = grid_mesh(4)
    v = rng.standard_normal(mesh.n_vertices) * 2.0
    _, grad = mumford_shah(v, mesh, sigma_xi=0.3)
    num = fd_gradient(lambda x: mumford_shah(x, mesh, sigma_xi=0.3)[0], v)
    assert_grad_close(grad, num, rtol=1e-4)


# -- slant and orthogonality ----------------------------------------------------


def test_slant_term_diagonal_free():
    # With r = k the weight line is the main diagonal, so diagonal maps of
    # matching slope are not penalized.
    W = build_weight_matrix(6, 6, sigma=0.0)
    value, _ = slant_term(np.eye(6), W)
    assert value == 0.0
    value_off, _ = slant_term(np.ones((6, 6)), W)
    assert value_off > 0.0


def test_slant_term_grad(rng):
    k = 5
    C = rng.standard_normal((k, k))
    W = build_weight_matrix(k, 3, 0.03)
    _, grad = slant_term(C, W)
    num = fd_gradient(lambda x: slant_term(x.reshape(k, k), W)[0],
                      C.ravel()).reshape(k, k)
    assert_grad_close(grad, num)


def test_orthogonality_value_identity():
    d_full = np.ones(4)
    value, _ = orthogonality_term(np.eye(4), d_full)
    assert value == 0.0
    # Rank-2 target: last two diagonal entries should be zero instead.
    d2 = build_d_vector(4, 2)
    value2, _ = orthogonality_term(np.eye(4), d2)
    assert np.isclose(value2, 2.0)


def test_orthogonality_semi_orthogonal_rectangular_structure(rng):
    # A map supported on the first r columns with orthonormal columns
    # achieves zero penalty for d = (1..1, 0..0).
    k, r = 6, 3
    M = rng.standard_normal((k, r))
    Q, _ = np.linalg.qr(M)
    C = np.zeros((k, k))
    C[:, :r] = Q[:, :r]
    value, _ = orthogonality_term(C, build_d_vector(k, r))
    assert value < 1e-20


def test_orthogonality_zero_map():
    d = build_d_vector(5, 3)
    value, _ = orthogonality_term(np.zeros((5, 5)), d)
    assert np.isclose(value, 3.0)


def test_orthogonality_left_rotation_invariant(rng):
    # The term depends on C only through C^T C.
    k = 5
    C = rng.standard_normal((k, k))
    Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    d = build_d_vector(k, 2)
    assert np.isclose(orthogonality_term(C, d)[0],
                      orthogonality_term(Q @ C, d)[0])


def test_orthogonality_grad(rng):
    k = 5
    C = rng.standard_normal((k, k))
    d = build_d_vector(k, 2)
    _, grad = orthogonality_term(C, d)
    num = fd_gradient(lambda x: orthogonality_term(x.reshape(k, k), d)[0],
                      C.ravel()).reshape(k, k)
    assert_grad_close(grad, num, rtol=1e-4)


# -- combined -------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(mu1=-1.0)
    with pytest.raises(ValueError):
        EnergyParams(sigma_xi=0.0)


def test_breakdown_combination():
    params = EnergyParams(mu1=2.0, mu2=3.0, mu3=5.0, mu4_5=7.0)
    b = EnergyBreakdown.combine(1.0, 1.0, 1.0, 1.0, 1.0, params)
    assert b.total == 1.0 + 2.0 + 3.0 + 5.0 + 7.0
    assert dataclasses.astuple(b) == (1.0, 1.0, 1.0, 1.0, 1.0, 18.0)


def test_total_energy_grads(tiny_problem, rng):
    # At the default weights, the gradients of the total energy in C and in
    # v are those of c_objective and v_objective, which leave out only terms
    # of the other block.
    p = tiny_problem
    k = p.A.shape[0]
    params = EnergyParams(k=k)
    C = rng.standard_normal((k, k)) * 0.5
    v = rng.standard_normal(p.mesh_full.n_vertices)
    assert total_energy(C, v, p, params).total > 0

    def f_C(x):
        return total_energy(x.reshape(k, k), v, p, params).total

    def f_v(x):
        return total_energy(C, x, p, params).total

    grad_C = c_objective(p, params, v)(C.ravel())[1]
    grad_v = v_objective(p, params, C)(v)[1]
    assert_grad_close(grad_C, fd_gradient(f_C, C.ravel()), rtol=1e-4)
    assert_grad_close(grad_v, fd_gradient(f_v, v), rtol=1e-4)


def test_objectives_sum_to_total_energy(tiny_problem, rng):
    # Each block's objective plus the weighted terms of the other block is
    # the total energy.
    p = tiny_problem
    k = p.A.shape[0]
    C = rng.standard_normal((k, k))
    v = rng.standard_normal(p.mesh_full.n_vertices)
    for params in (EnergyParams(k=k),
                   EnergyParams(mu1=2.0, mu2=3.0, mu3=5.0, mu4_5=7.0, k=k)):
        b = total_energy(C, v, p, params)
        c_val = c_objective(p, params, v)(C.ravel())[0]
        v_val = v_objective(p, params, C)(v)[0]
        c_sum = c_val + params.mu1 * b.area + params.mu2 * b.mumford_shah
        v_sum = v_val + params.mu3 * b.slant + params.mu4_5 * b.orthogonality
        assert abs(c_sum - b.total) <= 1e-12 * abs(b.total)
        assert abs(v_sum - b.total) <= 1e-12 * abs(b.total)


def test_objectives_invariant_under_relabelling(rng):
    # Relabelling the full shape's vertices permutes the rows of Psi, mass
    # and G and re-indexes the triangles; the energies stay and the
    # v-gradient is permuted with the vertices.
    mesh = bumpy_sphere(2)
    n, k, q = mesh.n_vertices, 10, 12
    p = _problem(mesh, k, rng.standard_normal((n, q)), rng)
    perm = rng.permutation(n)  # new vertex i is old vertex perm[i]
    relabel = np.argsort(perm)
    mesh_p = TriangleMesh(mesh.vertices[perm], relabel[mesh.triangles])
    r = dataclasses.replace(p, Psi=p.Psi[perm], mass=p.mass[perm],
                            G=p.G[perm], mesh_full=mesh_p)
    params = EnergyParams(k=k)
    C = rng.standard_normal((k, k))
    v = rng.standard_normal(n)

    def close(x, y):
        return np.abs(x - y).max() <= 1e-12 * max(np.abs(y).max(), 1e-300)

    row = dataclasses.astuple
    assert close(np.array(row(total_energy(C, v[perm], r, params))),
                 np.array(row(total_energy(C, v, p, params))))
    c_got = c_objective(r, params, v[perm])(C.ravel())
    c_ref = c_objective(p, params, v)(C.ravel())
    assert close(c_got[0], c_ref[0]) and close(c_got[1], c_ref[1])
    v_got = v_objective(r, params, C)(v[perm])
    v_ref = v_objective(p, params, C)(v)
    assert close(v_got[0], v_ref[0]) and close(v_got[1], v_ref[1][perm])


def test_total_energy_matches_terms(tiny_problem, rng):
    p = tiny_problem
    params = EnergyParams(k=p.A.shape[0])
    k = p.A.shape[0]
    C = rng.standard_normal((k, k))
    v = rng.standard_normal(p.mesh_full.n_vertices)
    b = total_energy(C, v, p, params)
    assert np.isclose(b.data, data_term(C @ p.A, mask_coefficients(p, v),
                                        p.dim)[0])
    assert np.isclose(b.area, area_term(v, p.area_part, p.mass)[0])
    assert np.isclose(b.mumford_shah, mumford_shah(v, p.mesh_full, 0.5)[0])
    assert np.isclose(b.slant, slant_term(C, p.W)[0])
    assert np.isclose(b.orthogonality, orthogonality_term(C, p.d)[0])


# -- thin data-term products and the summed Mumford-Shah gradient -------------


def _data_term_reference(C, A, Psi, mass, G, v):
    """Reference: the data term over every descriptor bin, with full-width
    n x k x q products."""
    ev = eta(v)
    weighted = (mass * ev)[:, None] * G
    B = Psi.T @ weighted
    H = C @ A - B
    q = H.shape[1]
    eps = max(1e-9 * np.linalg.norm(B) / np.sqrt(q), 1e-300)
    colnorm = np.sqrt(np.einsum("ij,ij->j", H, H) + eps ** 2)
    # A zero column has a zero gradient, also where eps ** 2 underflows.
    Hn = np.divide(H, colnorm, out=np.zeros_like(H), where=colnorm > 0.0)
    U = Psi @ Hn
    grad_v = -eta_prime(v) * mass * np.einsum("ij,ij->i", U, G)
    return float(np.sum(colnorm - eps)), Hn @ A.T, grad_v


def _mumford_shah_reference(v, mesh, sigma_xi=0.5):
    """Reference: mumford_shah as it was, with per-corner saturations and
    one np.add.at pass per corner."""
    E, F, G = mesh.triangle_metric
    tri = mesh.triangles
    v0, v1, v2 = v[tri[:, 0]], v[tri[:, 1]], v[tri[:, 2]]
    va = v1 - v0
    vb = v2 - v0
    D2 = va ** 2 * G - 2.0 * va * vb * F + vb ** 2 * E
    D = np.sqrt(np.maximum(D2, 0.0))
    xs = xi(v0, sigma_xi) + xi(v1, sigma_xi) + xi(v2, sigma_xi)
    value = float(np.sum(D * xs)) / 6.0
    inv2D = np.where(D > 0.0, 1.0 / np.maximum(2.0 * D, 1e-300), 0.0)
    dD0 = (-2.0 * va * G + 2.0 * F * (va + vb) - 2.0 * vb * E) * inv2D
    dD1 = (2.0 * va * G - 2.0 * vb * F) * inv2D
    dD2 = (2.0 * vb * E - 2.0 * va * F) * inv2D
    grad = np.zeros_like(v)
    for corner, dD, vc in ((0, dD0, v0), (1, dD1, v1), (2, dD2, v2)):
        th = np.tanh(2.0 * vc - 1.0)
        xi_p = xi(vc, sigma_xi) * (-th * (1.0 - th ** 2) / sigma_xi ** 2)
        contrib = xs * dD + D * xi_p
        np.add.at(grad, tri[:, corner], contrib)
    return value, grad / 6.0


def _problem(mesh, k, G, rng):
    basis = mesh_basis(mesh, k)
    return MatchProblem(A=rng.standard_normal((k, G.shape[1])),
                        Psi=basis.eigenvectors, mass=basis.mass, G=G,
                        mesh_full=mesh, area_part=0.4,
                        W=build_weight_matrix(k, 3, 0.03),
                        d=build_d_vector(k, 3), F=np.zeros((1, G.shape[1])),
                        dim=G.shape[1])


@pytest.mark.parametrize("zero_cols", [0, 5, 30])
def test_data_term_support_matches_reference(rng, zero_cols):
    # Bins that are zero in both A and G leave the energy and both
    # gradients as they are once dropped, with eps still set by all q bins.
    mesh = grid_mesh(9)
    k, q = 12, 40
    G = rng.standard_normal((mesh.n_vertices, q))
    G[:3] = 0.0  # some all-zero descriptors as well
    p = _problem(mesh, k, G, rng)
    zero = rng.permutation(q)[:zero_cols]
    G[:, zero] = 0.0
    p.A[:, zero] = 0.0
    keep = np.setdiff1d(np.arange(q), zero)
    r = _problem(mesh, k, G[:, keep], rng)
    r.A, r.dim = p.A[:, keep], q
    C = rng.standard_normal((k, k))
    v = rng.standard_normal(mesh.n_vertices)
    data_only = EnergyParams(k=k, **DATA_ONLY)
    for w in (v, np.full(mesh.n_vertices, -30.0)):  # eta = 0: B = 0
        ref = _data_term_reference(C, p.A, p.Psi, p.mass, G, w)
        value, grad_C = c_objective(r, data_only, w)(C.ravel())
        got = (value, grad_C.reshape(k, k),
               v_objective(r, data_only, C)(w)[1])
        for x, y in zip(ref, got):
            assert np.abs(y - x).max() <= 1e-12 * max(np.abs(x).max(), 1e-300)
    # The whole objective, through total_energy and both blocks.
    params = EnergyParams(k=k)
    e_ref = total_energy(C, v, p, params)
    e_got = total_energy(C, v, r, params)
    assert abs(e_got.total - e_ref.total) <= 1e-12 * abs(e_ref.total)
    for ref, got in ((c_objective(p, params, v)(C.ravel()),
                      c_objective(r, params, v)(C.ravel())),
                     (v_objective(p, params, C)(v),
                      v_objective(r, params, C)(v))):
        assert abs(got[0] - ref[0]) <= 1e-12 * abs(ref[0])
        assert np.abs(got[1] - ref[1]).max() <= 1e-12 * np.abs(ref[1]).max()


@pytest.mark.parametrize("seed", range(3))
def test_mumford_shah_matches_add_at_reference(rng, seed):
    mesh = bumpy_sphere(2 + seed % 2, seed=seed)
    for sigma in (0.3, 0.5):
        v = 2.0 * rng.standard_normal(mesh.n_vertices)
        v = np.minimum(v, 1.0)  # plateaus: D = 0 on some triangles
        ref = _mumford_shah_reference(v, mesh, sigma)
        got = mumford_shah(v, mesh, sigma)
        assert got[0] == ref[0]
        assert np.array_equal(got[1], ref[1])
