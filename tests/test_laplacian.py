import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pfmatch import laplacian
from pfmatch.bench import bumpy_sphere, grid_mesh, icosphere, plane_cut
from pfmatch.laplacian import (EigensolveError, LaplacianPair, _fix_signs,
                               cotan_stiffness, eigensolve, laplacian_pair,
                               mesh_basis)
from pfmatch.mesh import TriangleMesh


def test_stiffness_equilateral(equilateral):
    # All angles are 60 degrees, so each boundary-edge weight is cot(60)/2.
    K = cotan_stiffness(equilateral).toarray()
    off = 1.0 / (2.0 * np.sqrt(3.0))
    expected = np.diag([3 * off] * 3) - np.full((3, 3), off)
    assert np.allclose(K, expected)


def test_stiffness_right_isoceles_square():
    # Unit square split along the diagonal: the diagonal edge is flanked by
    # two right angles, cot(90) = 0, so its weight vanishes.
    v = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    mesh = TriangleMesh(v, [[0, 1, 2], [0, 2, 3]])
    K = cotan_stiffness(mesh).toarray()
    assert np.isclose(K[0, 2], 0.0)
    assert np.isclose(K[0, 1], -0.5)
    assert np.isclose(K[1, 2], -0.5)


def _cotan_stiffness_unscaled(mesh):
    """Reference: the cotangent formula on the unscaled corner vectors."""
    t = mesh.triangles
    p = mesh.vertices[t]
    n = mesh.n_vertices
    rows, cols, vals = [], [], []
    for c, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        u = p[:, a] - p[:, c]
        w = p[:, b] - p[:, c]
        cot = np.einsum("ij,ij->i", u, w) / np.linalg.norm(np.cross(u, w), axis=1)
        rows.append(t[:, a]); cols.append(t[:, b]); vals.append(cot / 2.0)
        rows.append(t[:, b]); cols.append(t[:, a]); vals.append(cot / 2.0)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    W = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return (sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W).tocsr()


def test_stiffness_scaling_leaves_the_formula_bit_exact(bumpy):
    # The corner vectors are scaled by a power of two before the products;
    # on a mesh of ordinary size every cotangent keeps its bits.
    K, ref = cotan_stiffness(bumpy), _cotan_stiffness_unscaled(bumpy)
    assert K.data.tobytes() == ref.data.tobytes()
    assert K.indices.tobytes() == ref.indices.tobytes()
    assert K.indptr.tobytes() == ref.indptr.tobytes()


@pytest.mark.parametrize("exponent", [-300, -400, -500])
def test_tiny_meshes_have_a_spectrum(exponent):
    # Below about 2^-266 the squares of the cross products underflow to 0,
    # and the cotangents divide by zero (an error, as the suite turns
    # warnings into errors), unless the corner vectors are scaled first.
    # Eigenvalues scale as length^-2.
    grid = grid_mesh(8)
    ref = mesh_basis(grid, 6).eigenvalues
    tiny = TriangleMesh(np.ldexp(grid.vertices, exponent), grid.triangles)
    vals = np.ldexp(mesh_basis(tiny, 6).eigenvalues, 2 * exponent)
    np.testing.assert_allclose(vals, ref, rtol=1e-9, atol=1e-9 * ref[-1])


def test_eigenvalues_that_overflow_raise_eigensolve_error():
    # From 2^-508 S^-1/2 K S^-1/2, which scales as length^-2, overflows
    # float64; it is rejected before the factorization and ARPACK.
    grid = grid_mesh(8)
    tiny = TriangleMesh(np.ldexp(grid.vertices, -510), grid.triangles)
    with pytest.raises(EigensolveError, match=r"S\^-1/2 K S\^-1/2 overflows "
                       r"float64: the smallest vertex area, 2\.31779e-310, "
                       "is too small"):
        mesh_basis(tiny, 6)


@pytest.mark.parametrize("exponent", range(-504, -513, -1))
def test_meshes_near_overflow_have_a_spectrum_or_raise(exponent, capfd):
    # At 2^-508 the overflowing matrix once gave a wrong spectrum without an
    # error, and from 2^-509 LAPACK wrote its complaints to standard output.
    grid = grid_mesh(8)
    ref = mesh_basis(grid, 6).eigenvalues
    tiny = TriangleMesh(np.ldexp(grid.vertices, exponent), grid.triangles)
    try:
        vals = np.ldexp(mesh_basis(tiny, 6).eigenvalues, 2 * exponent)
    except EigensolveError as exc:
        assert "smallest vertex area" in str(exc)
    else:
        np.testing.assert_allclose(vals, ref, rtol=1e-9, atol=1e-9 * ref[-1])
    assert capfd.readouterr().out == ""


def _scaled_grid(exponent):
    grid = grid_mesh(8)
    return TriangleMesh(np.ldexp(grid.vertices, exponent), grid.triangles)


@pytest.mark.parametrize("make_mesh, overflows", [
    (lambda: bumpy_sphere(3), False),
    (lambda: plane_cut(bumpy_sphere(3), [0.0, 0.0, 0.2],
                       [0.0, 0.0, 1.0])[0], False),
    (lambda: grid_mesh(8), False),
    *[(lambda e=e: _scaled_grid(e), True) for e in range(-508, -513, -1)],
], ids=["bumpy", "cut", "grid8",
        *[f"grid8-2^{e}" for e in range(-508, -513, -1)]])
def test_scaled_stiffness_matches_sparse_products(make_mesh, overflows,
                                                  monkeypatch):
    # eigensolve forms S^-1/2 K S^-1/2 entrywise; the factorization, its
    # ordering and its overflow check must see the matrix of the two sparse
    # products, entry by entry and in the same layout.
    factored = []
    factor = laplacian._shifted_band_factor

    def spy(A, min_area):
        factored.append(A)
        return factor(A, min_area)

    monkeypatch.setattr(laplacian, "_shifted_band_factor", spy)
    pair = laplacian_pair(make_mesh())
    if overflows:
        with pytest.raises(EigensolveError, match="overflows float64"):
            eigensolve(pair, 6)
    else:
        eigensolve(pair, 6)
    r = 1.0 / np.sqrt(pair.mass)
    ref = sp.diags(r) @ pair.stiffness.tocsc() @ sp.diags(r)
    (A,) = factored
    assert A.format == ref.format
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.array_equal(A.data, ref.data)
    assert np.isfinite(ref.data).all() != overflows


@pytest.mark.xfail(strict=True, reason="eigensolve drops one copy of a "
                   "repeated eigenvalue (ROADMAP item 7)")
def test_repeated_eigenvalues_are_all_returned():
    # On icosphere(3) the 9th and 10th eigenvalues are equal; eigensolve
    # returns the next cluster's value in place of the 10th.
    pair = laplacian_pair(icosphere(3))
    r = 1.0 / np.sqrt(pair.mass)
    dense = (r[:, None] * pair.stiffness.toarray()) * r[None, :]
    ref = scipy.linalg.eigh(dense, eigvals_only=True, subset_by_index=[0, 9])
    got = eigensolve(pair, 10).eigenvalues
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-8 * ref[-1])


@pytest.mark.xfail(strict=True, raises=EigensolveError,
                   reason="SHIFT is absolute, so A - SHIFT I of a small mesh "
                   "does not factor (ROADMAP item 7)")
def test_small_meshes_have_a_spectrum():
    # The same mesh solves at 2^-8; eigenvalues scale as length^-2.
    mesh = bumpy_sphere(3)
    small = TriangleMesh(np.ldexp(mesh.vertices, -10), mesh.triangles)
    ref = mesh_basis(mesh, 30).eigenvalues
    vals = np.ldexp(mesh_basis(small, 30).eigenvalues, -20)
    np.testing.assert_allclose(vals, ref, rtol=1e-9, atol=1e-9 * ref[-1])


def test_stiffness_row_sums_zero(square_grid, sphere):
    for mesh in (square_grid, sphere):
        K = cotan_stiffness(mesh)
        assert np.allclose(np.asarray(K.sum(axis=1)).ravel(), 0.0, atol=1e-12)


def test_stiffness_symmetric(bumpy):
    K = cotan_stiffness(bumpy)
    assert abs(K - K.T).max() < 1e-12


def test_stiffness_positive_semidefinite(square_grid, rng):
    # Dirichlet energy f'Kf must be nonnegative for arbitrary functions.
    K = cotan_stiffness(square_grid)
    for _ in range(20):
        f = rng.standard_normal(square_grid.n_vertices)
        assert f @ (K @ f) >= -1e-10


def test_mass_matrix_trace(equilateral, square_grid, sphere):
    def area(mesh):
        return laplacian_pair(mesh).mass.sum()

    assert np.isclose(area(equilateral), np.sqrt(3) / 4)
    assert np.isclose(area(square_grid), 1.0)
    assert abs(area(sphere) - 4 * np.pi) < 0.01 * 4 * np.pi


def test_first_eigenpair_constant(square_grid):
    basis = mesh_basis(square_grid, 5)
    assert basis.eigenvalues[0] < 1e-8
    # Constant eigenfunction, normalized to 1/sqrt(area) with area 1.
    assert np.allclose(basis.eigenvectors[:, 0], 1.0, atol=1e-6)


def test_eigenvalues_sorted_nonnegative(sphere):
    # The sphere's eigenvalues come in groups of 2l + 1 equal ones, which
    # stay in ascending order to the last bit.
    for k in (20, 40):
        basis = mesh_basis(sphere, k)
        assert np.all(np.diff(basis.eigenvalues) >= 0)
        assert basis.eigenvalues[0] >= 0.0


def test_s_orthonormality(square_grid):
    basis = mesh_basis(square_grid, 12)
    gram = basis.eigenvectors.T @ (basis.mass[:, None] * basis.eigenvectors)
    assert np.allclose(gram, np.eye(12), atol=1e-9)


def test_eigen_residual(square_grid):
    # Besides the grid, the bases of the benchmark's shapes: 642 vertices at
    # k = 50 and 2562 at k = 30, solved to ARPACK's Ritz tolerance.
    for mesh, k in ((square_grid, 10), (bumpy_sphere(3), 50),
                    (bumpy_sphere(4), 30)):
        pair = laplacian_pair(mesh)
        basis = eigensolve(pair, k)
        phi, lam = basis.eigenvectors, basis.eigenvalues
        r = pair.stiffness @ phi - lam * (basis.mass[:, None] * phi)
        assert np.linalg.norm(r, axis=0).max() <= 1e-11 * lam[-1]
        gram = phi.T @ (basis.mass[:, None] * phi)
        assert np.abs(gram - np.eye(k)).max() <= 1e-12


def test_grid_neumann_spectrum(fine_grid):
    # Unit square with natural boundary conditions: pi^2 (p^2 + q^2).
    basis = mesh_basis(fine_grid, 8)
    analytic = np.pi ** 2 * np.array([0, 1, 1, 2, 4, 4, 5, 5])
    got = basis.eigenvalues
    assert got[0] < 1e-8
    assert np.all(np.abs(got[1:] - analytic[1:]) / analytic[1:] < 0.03)


def test_sphere_spectrum(sphere):
    # Unit sphere: l(l+1) with multiplicity 2l+1, here through l = 3.
    basis = mesh_basis(sphere, 16)
    analytic = np.repeat([0.0, 2.0, 6.0, 12.0], [1, 3, 5, 7])
    got = basis.eigenvalues
    assert got[0] < 1e-6
    assert np.all(np.abs(got[1:] - analytic[1:]) / analytic[1:] < 0.03)


def test_truncated_basis(sphere):
    basis = mesh_basis(sphere, 10)
    small = basis.truncated(4)
    assert small.k == 4
    assert np.array_equal(small.eigenvalues, basis.eigenvalues[:4])
    with pytest.raises(ValueError):
        small.truncated(6)


def _grid_and_ball():
    """Two components: a 20 x 20 grid beside a bumpy sphere (1083 vertices)."""
    grid, ball = grid_mesh(20), bumpy_sphere(3)
    with pytest.warns(UserWarning, match="2 connected components"):
        return TriangleMesh(
            np.vstack([grid.vertices, ball.vertices + [3.0, 0.0, 0.0]]),
            np.vstack([grid.triangles, ball.triangles + grid.n_vertices]))


def _generalized_reference(pair, k):
    """Reference: the dense generalized solve with an n x n mass matrix that
    the standard-form solve replaced, then eigensolve's sign rule."""
    K = pair.stiffness.toarray()
    S = np.diag(pair.mass)
    vals, vecs = scipy.linalg.eigh(K, S, subset_by_index=[0, k - 1])
    return vals, _fix_signs(vecs)


def _tetrahedron():
    v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    return TriangleMesh(v, [[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])


@pytest.mark.parametrize("make, k", [
    (lambda: grid_mesh(30), 10), (_grid_and_ball, 10),
    (lambda: bumpy_sphere(3), 50),
    # The smallest meshes, and k up to n - 1.
    (lambda: TriangleMesh(np.eye(3), [[0, 1, 2]]), 1),
    (lambda: TriangleMesh(np.eye(3), [[0, 1, 2]]), 2),
    (_tetrahedron, 3), (lambda: grid_mesh(2), 8),
    (lambda: grid_mesh(10), 120), (lambda: icosphere(3), 641)],
    ids=["grid", "two_components", "bumpy_sphere", "triangle_k1",
         "triangle_k2", "tetrahedron", "grid2", "grid10", "icosphere3"])
def test_eigensolve_matches_generalized_solve(make, k):
    pair = laplacian_pair(make())
    basis = eigensolve(pair, k)
    # One eigenvalue past the k-th tells whether the k-th is simple.
    vals, vecs = _generalized_reference(pair, k + 1)
    assert basis.eigenvalues[0] < 1e-12
    assert np.allclose(basis.eigenvalues, vals[:k], rtol=1e-10, atol=1e-11)
    gram = basis.eigenvectors.T @ (basis.mass[:, None] * basis.eigenvectors)
    assert np.allclose(gram, np.eye(k), atol=1e-9)
    # Eigenvectors are unique up to sign only for simple eigenvalues.
    apart = np.diff(vals) > 1e-6
    simple = apart[:k] & np.r_[True, apart[:k - 1]]
    assert np.allclose(basis.eigenvectors[:, simple], vecs[:, :k][:, simple],
                       rtol=0, atol=1e-8)


def test_sparse_eigensolve_errors(square_grid, monkeypatch):
    pair = laplacian_pair(square_grid)
    # A negated stiffness makes K negative semi-definite: A - SHIFT I then
    # has no Cholesky factor.
    with pytest.raises(EigensolveError, match="dpbtrf"):
        eigensolve(LaplacianPair(-pair.stiffness, pair.mass), 5)

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", None, None)

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_convergence)
    with pytest.raises(EigensolveError, match="ARPACK"):
        eigensolve(pair, 5)


def _fix_signs_loop(vecs):
    """Reference sign rule: one column at a time."""
    out = vecs.copy()
    for c in range(out.shape[1]):
        v = out[:, c]
        sig = np.flatnonzero(np.abs(v) > 1e-6 * np.abs(v).max())
        lead = v[sig[0]] if len(sig) else 1.0
        if lead < 0:
            out[:, c] = -v
    return out


def test_sign_rule_matches_loop(rng):
    vecs = rng.standard_normal((30, 8))
    vecs[:3, 1] = 1e-9 * vecs[:3, 1]  # first significant entry below row 0
    vecs[:, 2] = 0.0                  # no significant entry
    vecs[:, 6] = -vecs[:, 5]
    vecs[4:, 7] = 0.0
    assert _fix_signs(vecs).tobytes() == _fix_signs_loop(vecs).tobytes()


def test_eigensolve_determinism(sphere):
    a = mesh_basis(sphere, 15)
    b = mesh_basis(sphere, 15)
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()


def test_subdivision_stability():
    coarse, fine = icosphere(2), icosphere(3)
    lc = mesh_basis(coarse, 10).eigenvalues
    lf = mesh_basis(fine, 10).eigenvalues
    assert np.all(np.abs(lc[1:] - lf[1:]) / lf[1:] < 0.05)


def test_bad_k(square_grid):
    pair = laplacian_pair(square_grid)
    with pytest.raises(ValueError):
        eigensolve(pair, 0)
    with pytest.raises(ValueError):
        eigensolve(pair, square_grid.n_vertices)


def test_nonpositive_mass_rejected(square_grid):
    pair = laplacian_pair(square_grid)
    bad_mass = np.zeros(square_grid.n_vertices)
    with pytest.raises(ValueError):
        eigensolve(LaplacianPair(pair.stiffness, bad_mass), 3)
