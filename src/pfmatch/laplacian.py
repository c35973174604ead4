"""Cotangent Laplace-Beltrami discretization and truncated eigendecomposition.

One convention throughout: K phi = lambda S phi, lambda >= 0 ascending.  The
stiffness K is positive semi-definite, with off-diagonal entries minus the
cotangent weights and the row sum of the weights on the diagonal.  The lumped
mass S is kept as the vector of vertex areas.  Boundary edges receive the
single-cotangent branch, which realizes natural (Neumann) boundary
conditions.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

# Every mesh takes the banded path; the name stays for the benchmark tracer.
DENSE_FALLBACK_N = 0
SHIFT = -1e-8
RITZ_TOL = 1e-12  # ARPACK's default 0 (machine precision) costs a restart


class EigensolveError(RuntimeError):
    """Eigensolver failed: ARPACK did not converge within its iteration cap
    or stopped with an error, or the shifted stiffness could not be
    factored."""


@dataclass(frozen=True)
class LaplacianPair:
    """Stiffness K (sparse symmetric, positive semi-definite) and lumped
    mass S (vertex areas) of a mesh."""
    stiffness: sp.csr_matrix
    mass: np.ndarray  # (n,)

    @property
    def n(self):
        return self.stiffness.shape[0]


@dataclass(frozen=True)
class SpectralBasis:
    """First k eigenpairs of (K, S): ascending eigenvalues and S-orthonormal
    eigenvectors with a deterministic sign convention."""
    eigenvalues: np.ndarray  # (k,)
    eigenvectors: np.ndarray  # (n, k)
    mass: np.ndarray  # (n,) vertex areas

    @property
    def k(self):
        return len(self.eigenvalues)

    @property
    def n(self):
        return self.eigenvectors.shape[0]

    def truncated(self, k):
        if k > self.k:
            raise ValueError("cannot extend a truncated basis")
        return SpectralBasis(self.eigenvalues[:k], self.eigenvectors[:, :k],
                             self.mass)


def cotan_stiffness(mesh):
    """Sparse cotangent stiffness matrix K per the classical formula.

    Interior edges get -(cot a + cot b)/2, boundary edges -(cot a)/2, and the
    diagonal is the negated off-diagonal row sum.
    """
    t = mesh.triangles
    p = mesh.vertices[t]
    n = mesh.n_vertices
    # The corner vectors are scaled by the power of two 2^-e that puts the
    # mesh's largest extent in [1/2, 1), as TriangleMesh's validation does,
    # so that the squares in the cross product's norm do not underflow on a
    # tiny mesh.  The cotangent is a ratio: the exact scaling leaves it
    # unchanged.
    e = int(np.frexp(np.ptp(mesh.vertices, axis=0).max())[1])
    rows, cols, vals = [], [], []
    # Angle at corner c is opposite the edge (a, b).
    for c, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        u = np.ldexp(p[:, a] - p[:, c], -e)
        w = np.ldexp(p[:, b] - p[:, c], -e)
        cot = np.einsum("ij,ij->i", u, w) / np.linalg.norm(np.cross(u, w), axis=1)
        rows.append(t[:, a]); cols.append(t[:, b]); vals.append(cot / 2.0)
        rows.append(t[:, b]); cols.append(t[:, a]); vals.append(cot / 2.0)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    W = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return (sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W).tocsr()


def laplacian_pair(mesh):
    return LaplacianPair(cotan_stiffness(mesh), mesh.vertex_areas())


def _fix_signs(vecs):
    """Flip each column so its first significant entry is positive: the
    first above 1e-6 times the column's largest magnitude (row 0 for a zero
    column).

    Using the first entry above a relative threshold (rather than the entry
    of largest magnitude) keeps the convention stable for antisymmetric
    modes, where the maximum magnitude is attained at several entries with
    opposite signs and floating-point noise would pick among them.
    """
    mag = np.abs(vecs)
    rows = np.argmax(mag > 1e-6 * mag.max(axis=0), axis=0)
    return np.where(vecs[rows, np.arange(vecs.shape[1])] < 0, -vecs, vecs)


def _shifted_band_factor(A, min_area):
    """Banded Cholesky factor of A - SHIFT I in a reverse Cuthill-McKee
    ordering, and the new position of each vertex in that ordering.

    ``min_area``, the mesh's smallest vertex area, is named in the errors:
    A = S^-1/2 K S^-1/2 grows as its inverse.
    """
    if not np.isfinite(A.data).all():
        raise EigensolveError(
            "S^-1/2 K S^-1/2 overflows float64: the smallest vertex area, "
            f"{min_area:.6g}, is too small")
    n = A.shape[0]
    perm = reverse_cuthill_mckee(A.tocsr(), symmetric_mode=True)
    rank = np.argsort(perm)
    A = A.tocoo()
    row, col = rank[A.row], rank[A.col]
    # Lower band storage of A - SHIFT I: band[i - j, j] = A[i, j].
    low = row >= col
    offset = row[low] - col[low]
    band = np.zeros((offset.max() + 1, n), order="F")
    band[offset, col[low]] = A.data[low]
    band[0] -= SHIFT
    factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info != 0:
        raise EigensolveError(
            "banded Cholesky factorization of A - SHIFT I failed "
            f"(LAPACK dpbtrf info={info}): the shifted stiffness is "
            "not positive definite (smallest vertex area "
            f"{min_area:.6g})")
    return factor, rank


def eigensolve(pair, k):
    """First k eigenpairs of the generalized problem K phi = lambda S phi.

    The mass matrix is diagonal, so the pencil reduces to the standard
    problem (S^-1/2 K S^-1/2) y = lambda y with phi = S^-1/2 y, whose
    eigenvectors come out S-orthonormal.  Shift-invert Lanczos runs on it in
    a reverse Cuthill-McKee ordering, where A - SHIFT I is a narrow band:
    one banded Cholesky factor serves every solve.
    """
    n = pair.n
    if k >= n:
        raise ValueError(f"k={k} must be smaller than n={n}")
    if k < 1:
        raise ValueError("k must be positive")
    # CSC sorts the indices: the reverse Cuthill-McKee ordering breaks ties
    # in stored index order, which K0 + t P leaves unsorted.
    K = pair.stiffness.tocsc()
    s = pair.mass
    if np.any(s <= 0):
        raise ValueError("vertex areas must be strictly positive")
    r = 1.0 / np.sqrt(s)

    factor, rank = _shifted_band_factor(sp.diags(r) @ K @ sp.diags(r),
                                        s.min())
    OPinv = spla.LinearOperator(
        (n, n), dtype=np.float64,
        matvec=lambda b: dpbtrs(factor, b, lower=1)[0])
    v0 = np.full(n, 1.0 / np.sqrt(n))  # deterministic start vector
    try:
        # In shift-invert mode eigsh reads only the shape of its first
        # argument, so the permuted A need not outlive the factor.
        vals, y = spla.eigsh(OPinv, k=k, sigma=SHIFT, which="LM", v0=v0,
                             OPinv=OPinv, tol=RITZ_TOL)
    except spla.ArpackNoConvergence as exc:
        raise EigensolveError(f"ARPACK failed to converge: {exc}") from exc
    except spla.ArpackError as exc:
        raise EigensolveError(f"ARPACK failed: {exc}") from exc
    order = np.argsort(vals)
    vals = vals[order]
    vecs = y[np.ix_(rank, order)] * r[:, None]

    # A - SHIFT I factored, so every Ritz value lies above SHIFT; a value
    # below 0 is rounding of a zero eigenvalue.
    vals = np.maximum(vals, 0.0)
    vecs = _fix_signs(vecs)
    # Lanczos vectors are S-orthonormal only to rounding: re-normalize.
    nrm = np.sqrt(np.einsum("ij,i,ij->j", vecs, s, vecs))
    vecs = vecs / nrm
    return SpectralBasis(np.asarray(vals, dtype=np.float64), vecs, s)


def mesh_basis(mesh, k):
    """Convenience: cotangent pair plus eigensolve in one call."""
    return eigensolve(laplacian_pair(mesh), k)
