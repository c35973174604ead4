import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from pfmatch.bench import grid_mesh
from pfmatch.laplacian import (LaplacianPair, SpectralBasis, cotan_stiffness,
                               eigensolve, mesh_basis)
from pfmatch.spectral import (PAIR_SKIP_REL_TOL, boundary_interaction,
                              build_d_vector, build_weight_matrix,
                              eigenvalue_derivative, eigenvector_derivative,
                              estimate_rank, fourier_coeffs, ground_truth_map,
                              perturbation_setup)


def left_half_ids(mesh):
    return np.flatnonzero(mesh.vertices[:, 0] <= 0.5 + 1e-9)


def part_basis(setup, k):
    pair = LaplacianPair(setup.K_part, setup.mass_part)
    return eigensolve(pair, k)


def comp_basis(setup, k):
    pair = LaplacianPair(setup.K_comp, setup.mass_comp)
    return eigensolve(pair, k)


# -- Fourier coefficients -----------------------------------------------------


def test_fourier_of_eigenfunctions(square_grid):
    basis = mesh_basis(square_grid, 8)
    a = fourier_coeffs(basis, basis.eigenvectors[:, 3])
    expected = np.zeros(8)
    expected[3] = 1.0
    assert np.allclose(a, expected, atol=1e-9)


def test_fourier_matrix_argument(square_grid):
    basis = mesh_basis(square_grid, 6)
    A = fourier_coeffs(basis, basis.eigenvectors)
    assert np.allclose(A, np.eye(6), atol=1e-9)


def test_fourier_linear(square_grid, rng):
    basis = mesh_basis(square_grid, 6)
    f = rng.standard_normal(square_grid.n_vertices)
    g = rng.standard_normal(square_grid.n_vertices)
    lhs = fourier_coeffs(basis, 2.0 * f - 3.0 * g)
    rhs = 2.0 * fourier_coeffs(basis, f) - 3.0 * fourier_coeffs(basis, g)
    assert np.allclose(lhs, rhs)


def test_fourier_length_mismatch(square_grid):
    basis = mesh_basis(square_grid, 4)
    with pytest.raises(ValueError):
        fourier_coeffs(basis, np.zeros(basis.n + 1))


# -- rank, weights, d ---------------------------------------------------------


def test_estimate_rank_interior():
    # Partial eigenvalues grow faster; those strictly below the full cutoff
    # define the rank.
    r = estimate_rank([0.0, 2.0, 5.0, 9.0], [0.0, 1.0, 2.0, 3.0], 4)
    assert r == 2


def test_estimate_rank_full_overlap():
    assert estimate_rank([0.0, 0.5, 1.0, 1.5], [0.0, 1.0, 2.0, 3.0], 4) == 4


def test_estimate_rank_zero():
    assert estimate_rank([10.0, 11.0], [0.0, 1.0], 2) == 0


def test_estimate_rank_needs_k(sphere):
    with pytest.raises(ValueError):
        estimate_rank([0.0], [0.0, 1.0], 2)


def test_weight_matrix_example():
    # k = 3, r = 3, sigma = 0: the line is the main diagonal and the
    # off-diagonal neighbors sit at distance 1/sqrt(2).
    w = build_weight_matrix(3, 3, sigma=0.0)
    assert np.allclose(np.diag(w), 0.0)
    assert np.isclose(w[0, 1], 1.0 / np.sqrt(2.0))
    assert np.allclose(w, w.T)


def test_weight_matrix_origin_zero():
    for r in (1, 5, 10):
        w = build_weight_matrix(10, r, 0.03)
        assert w[0, 0] == 0.0


def test_weight_matrix_slant_follows_rank():
    # With r < k the zero line has slope r/k in (row, col) indexing: entry
    # (i, j) vanishes when (j - 1) = (i - 1) * r / k.
    k, r = 10, 5
    w = build_weight_matrix(k, r, sigma=0.0)
    assert np.isclose(w[2, 1], 0.0)  # i=3, j=2: (2) * 0.5 = 1
    assert w[1, 1] > 0.0
    # Decay factor shrinks entries with growing index at fixed distance.
    w_decay = build_weight_matrix(k, r, sigma=0.5)
    assert w_decay[0, 9] < w[0, 9]


def test_weight_matrix_validation():
    with pytest.raises(ValueError):
        build_weight_matrix(5, 0, 0.03)
    with pytest.raises(ValueError):
        build_weight_matrix(5, 6, 0.03)
    with pytest.raises(ValueError):
        build_weight_matrix(5, 3, sigma=-1.0)


def test_d_vector():
    assert np.array_equal(build_d_vector(5, 2), [1, 1, 0, 0, 0])
    assert np.array_equal(build_d_vector(3, 0), [0, 0, 0])
    with pytest.raises(ValueError):
        build_d_vector(3, 4)


# -- ground truth map ---------------------------------------------------------


def test_ground_truth_identity(square_grid):
    basis = mesh_basis(square_grid, 8)
    corr = np.arange(square_grid.n_vertices)
    C = ground_truth_map(basis, basis, corr, k=8)
    assert np.allclose(C, np.eye(8), atol=1e-9)


def test_ground_truth_map_needs_an_injective_correspondence(square_grid):
    # Two part vertices on one full vertex would overwrite each other in
    # the injected functions.
    basis = mesh_basis(square_grid, 4)
    part = SpectralBasis(basis.eigenvalues, basis.eigenvectors[:3],
                         basis.mass[:3])
    with pytest.raises(ValueError, match="injective"):
        ground_truth_map(part, basis, np.array([3, 1, 3]))


def test_ground_truth_transfers_coefficients(square_grid):
    # C maps the partial coefficients of a transferred function to the full
    # shape's coefficients of its zero-padded version.
    ids = left_half_ids(square_grid)
    sub, vmap = square_grid.submesh(ids)
    basis_part = mesh_basis(sub, 6)
    basis_full = mesh_basis(square_grid, 6)
    C = ground_truth_map(basis_part, basis_full, vmap, k=6)

    phi2 = basis_part.eigenvectors[:, 2]
    padded = np.zeros(square_grid.n_vertices)
    padded[vmap] = phi2
    expected = fourier_coeffs(basis_full, padded)
    a = np.zeros(6)
    a[2] = 1.0
    assert np.allclose(C @ a, expected, atol=1e-12)


# -- perturbation laboratory --------------------------------------------------


def test_parametric_endpoints(square_grid):
    ids = left_half_ids(square_grid)
    setup = perturbation_setup(square_grid, ids)
    K_full = cotan_stiffness(square_grid)
    K_perm = K_full[setup.order][:, setup.order]

    K1 = setup.stiffness(1.0)
    assert abs(K1 - K_perm).max() == 0.0

    K0 = setup.stiffness(0.0)
    n = setup.n_part
    assert abs(K0[:n, n:]).max() == 0.0
    assert abs(K0[:n, :n] - setup.K_part).max() == 0.0


def test_perturbation_symmetric_and_local(square_grid):
    ids = left_half_ids(square_grid)
    setup = perturbation_setup(square_grid, ids)
    P = setup.P
    assert abs(P - P.T).max() < 1e-14
    # The perturbation only touches vertices adjacent to the cut: every
    # vertex in the part band must lie on the dividing line x = 0.5.
    part_x = square_grid.vertices[setup.order[setup.boundary_part], 0]
    assert np.allclose(part_x, 0.5)
    comp_x = square_grid.vertices[setup.order[setup.n_part +
                                              setup.boundary_comp], 0]
    assert np.all(comp_x <= 0.7 + 1e-9)


def test_stiffness_interpolates(square_grid):
    ids = left_half_ids(square_grid)
    setup = perturbation_setup(square_grid, ids)
    half = setup.stiffness(0.5)
    avg = 0.5 * (setup.stiffness(0.0) + setup.stiffness(1.0))
    assert abs(half - avg).max() < 1e-14


def test_perturbation_whole_mesh_rejected(square_grid):
    with pytest.raises(ValueError):
        perturbation_setup(square_grid, np.arange(square_grid.n_vertices))


def test_eigenvalue_derivative_fd():
    # Central finite differences on the parametric family are the oracle for
    # the first-order formula phi^T P phi.
    mesh = grid_mesh(8)
    ids = np.flatnonzero(mesh.vertices[:, 0] <= 0.5 + 1e-9)
    setup = perturbation_setup(mesh, ids)
    bp = part_basis(setup, 8)
    bc = comp_basis(setup, 8)

    S = np.concatenate([setup.mass_part, setup.mass_comp])
    h = 1e-6

    def spectrum(t):
        K = setup.stiffness(t).toarray()
        return scipy.linalg.eigh(K, np.diag(S), eigvals_only=True)

    lam_plus = spectrum(h)
    lam_minus = spectrum(-h)
    union = np.sort(np.concatenate([bp.eigenvalues[:8], bc.eigenvalues[:8]]))

    checked = 0
    for i in range(1, 6):
        lam_i = bp.eigenvalues[i]
        # Only isolated eigenvalues of the t = 0 union can be tracked by rank.
        gaps = np.abs(union - lam_i)
        if np.sort(gaps)[1] < 1e-3:
            continue
        pos = int(np.argmin(gaps))
        fd = (lam_plus[pos] - lam_minus[pos]) / (2.0 * h)
        formula = eigenvalue_derivative(bp, setup.P_part, i)
        assert abs(fd - formula) <= 1e-4 * max(abs(fd), 1.0)
        checked += 1
    assert checked >= 2


def test_eigenvalue_derivative_index_check(square_grid):
    ids = left_half_ids(square_grid)
    setup = perturbation_setup(square_grid, ids)
    bp = part_basis(setup, 4)
    with pytest.raises(IndexError):
        eigenvalue_derivative(bp, setup.P_part, 4)


def test_eigenvector_derivative_orthogonal_to_mode(square_grid):
    ids = left_half_ids(square_grid)
    setup = perturbation_setup(square_grid, ids)
    bp = part_basis(setup, 6)
    bc = comp_basis(setup, 6)
    i = 2
    d = eigenvector_derivative(bp, bc, setup.P_part, setup.P_cross, i)
    d_part = d[:setup.n_part]
    # First-order normalization: the derivative has no component along the
    # mode itself in the S-inner product.
    assert abs(bp.eigenvectors[:, i] @ (setup.mass_part * d_part)) < 1e-10


def test_eigenvector_derivative_fd():
    mesh = grid_mesh(8)
    ids = np.flatnonzero(mesh.vertices[:, 0] <= 0.5 + 1e-9)
    setup = perturbation_setup(mesh, ids)

    # Complete eigenbases of both blocks: the two-sum formula is exact only
    # when no modes are truncated away.
    def full_basis(K, mass):
        vals, vecs = scipy.linalg.eigh(K.toarray(), np.diag(mass))
        return SpectralBasis(vals, vecs, mass)

    bp = full_basis(setup.K_part, setup.mass_part)
    bc = full_basis(setup.K_comp, setup.mass_comp)

    S = np.concatenate([setup.mass_part, setup.mass_comp])
    union = np.sort(np.concatenate([bp.eigenvalues, bc.eigenvalues]))
    h = 1e-6

    def eigvec_at(t, pos, reference):
        K = setup.stiffness(t).toarray()
        vals, vecs = scipy.linalg.eigh(K, np.diag(S))
        v = vecs[:, pos]
        if v @ (S * reference) < 0:
            v = -v
        return v

    checked = 0
    for i in range(1, 5):
        lam_i = bp.eigenvalues[i]
        gaps = np.abs(union - lam_i)
        if np.sort(gaps)[1] < 1e-2:
            continue
        pos = int(np.argmin(gaps))
        ref = np.concatenate([bp.eigenvectors[:, i], np.zeros(setup.n_comp)])
        fd = (eigvec_at(h, pos, ref) - eigvec_at(-h, pos, ref)) / (2.0 * h)
        formula = eigenvector_derivative(bp, bc, setup.P_part, setup.P_cross, i)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(fd - formula) / denom < 1e-4
        checked += 1
    assert checked >= 2


def test_eigenvector_derivative_eigengap_violation():
    lam = np.array([1.0, 1.0 + 1e-12])
    basis = SpectralBasis(lam, np.eye(2), np.ones(2))
    other = SpectralBasis(np.array([5.0, 6.0]), np.eye(2), np.ones(2))
    P = sp.eye(2, format="csr")
    with pytest.raises(ValueError, match="eigengap"):
        eigenvector_derivative(basis, other, P, P, 0)
    basis_ok = SpectralBasis(np.array([1.0, 3.0]), np.eye(2), np.ones(2))
    clash = SpectralBasis(np.array([1.0, 9.0]), np.eye(2), np.ones(2))
    with pytest.raises(ValueError, match="complement"):
        eigenvector_derivative(basis_ok, clash, P, P, 0)


# -- boundary interaction -----------------------------------------------------


def test_boundary_interaction_closed_form():
    # Two modes: f(v) = 2 (phi_1v phi_2v / (lam_1 - lam_2))^2.
    Phi = np.array([[0.6, 0.8], [0.8, -0.6]])
    lam = np.array([1.0, 3.0])
    basis = SpectralBasis(lam, Phi, np.ones(2))
    f = boundary_interaction(basis)
    expected = 2.0 * (Phi[:, 0] * Phi[:, 1] / (lam[0] - lam[1])) ** 2
    assert np.allclose(f, expected)


def test_boundary_interaction_nonnegative(square_grid):
    ids = left_half_ids(square_grid)
    sub, _ = square_grid.submesh(ids)
    basis = mesh_basis(sub, 10)
    f = boundary_interaction(basis)
    assert np.all(f >= 0.0)
    assert f.shape == (sub.n_vertices,)


def test_boundary_interaction_degenerate_warning():
    Phi = np.eye(3)
    lam = np.array([1.0, 1.0, 2.0])
    basis = SpectralBasis(lam, Phi, np.ones(3))
    with pytest.warns(UserWarning, match="near-degenerate"):
        boundary_interaction(basis)


def _boundary_interaction_loop(basis_part):
    """Reference: the loop over the k^2 / 2 eigenpairs that the product
    form replaced.  Returns (f, skipped pairs)."""
    lam = basis_part.eigenvalues
    Phi = basis_part.eigenvectors
    k = basis_part.k
    scale = max(abs(lam[-1]), 1e-300)
    f = np.zeros(basis_part.n)
    skipped = 0
    for i in range(k):
        for j in range(i + 1, k):
            gap = lam[i] - lam[j]
            if abs(gap) < PAIR_SKIP_REL_TOL * scale:
                skipped += 1
                continue
            f += 2.0 * (Phi[:, i] * Phi[:, j] / gap) ** 2
    return f, skipped


@pytest.mark.parametrize("k", [2, 10, 30])
def test_boundary_interaction_matches_loop(square_grid, k):
    sub, _ = square_grid.submesh(left_half_ids(square_grid))
    basis = mesh_basis(sub, k)
    f_ref, skipped = _boundary_interaction_loop(basis)
    assert skipped == 0
    np.testing.assert_allclose(boundary_interaction(basis), f_ref,
                               rtol=1e-12, atol=0.0)


def test_boundary_interaction_skips_like_loop(rng):
    # Two clusters of equal eigenvalues and one near-equal pair: the same
    # pairs are skipped, counted and left out of f.
    lam = np.array([0.0, 0.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0 + 1e-12, 5.0])
    Phi = rng.standard_normal((40, len(lam)))
    basis = SpectralBasis(lam, Phi, np.ones(40))
    f_ref, skipped = _boundary_interaction_loop(basis)
    assert skipped == 5
    with pytest.warns(UserWarning, match=f"skipped {skipped} near"):
        f = boundary_interaction(basis)
    np.testing.assert_allclose(f, f_ref, rtol=1e-12, atol=0.0)

