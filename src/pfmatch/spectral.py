"""Fourier analysis, rank estimation, slant weights, and the
perturbation laboratory for cut meshes.

Conventions
-----------
The functional map C is stored so that C @ a maps coefficients in the partial
shape's basis (columns) to coefficients in the full shape's basis (rows).

Stiffness matrices are the positive semi-definite cotangent K of
``laplacian`` and masses the vectors S of vertex areas, so eigenpairs solve
K phi = lambda S phi.  The perturbation laboratory holds the full-shape mass
fixed: under the part-first vertex ordering the parametric family is
K(t) = K0 + t P, with K0 = blockdiag(K_N, K_Nc) and P the perturbation.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .laplacian import cotan_stiffness

EIGENGAP_REL_TOL = 1e-6
PAIR_SKIP_REL_TOL = 1e-8


def fourier_coeffs(basis, f):
    """Coefficients a_i = phi_i^T S f of a vertex function in the basis."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape[0] != basis.n:
        raise ValueError("function length does not match basis")
    return basis.eigenvectors.T @ (basis.mass[:, None] * f
                                   if f.ndim == 2 else basis.mass * f)


def estimate_rank(lambda_part, lambda_full, k):
    """Estimated rank r = max{ i : lambda_i(part) < max_{j<=k} lambda_j(full) }.

    Returns 0 (degenerate, no spectral overlap) when even the first partial
    eigenvalue exceeds the full shape's k-th eigenvalue.
    """
    lp = np.asarray(lambda_part)[:k]
    lf = np.asarray(lambda_full)[:k]
    if len(lp) < k or len(lf) < k:
        raise ValueError("need at least k eigenvalues on both shapes")
    cutoff = lf.max()
    below = np.flatnonzero(lp < cutoff)
    return int(below[-1] + 1) if len(below) else 0


def build_weight_matrix(k, r, sigma):
    """Slanted-diagonal weight matrix.

    w_ij = exp(-sigma * sqrt(i^2 + j^2)) * distance of the 1-based grid point
    (i, j) from the line through p = (1, 1) with direction (1, r/k); entries
    on the line are zero.
    """
    if not 1 <= r <= k:
        raise ValueError("rank must satisfy 1 <= r <= k")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma={sigma!r} must be finite and nonnegative")
    i = np.arange(1, k + 1)[:, None].astype(np.float64)
    j = np.arange(1, k + 1)[None, :].astype(np.float64)
    n = np.array([1.0, r / k])
    n /= np.linalg.norm(n)
    # 2-D cross product of the unit direction with (i, j) - p.
    dist = np.abs(n[0] * (j - 1.0) - n[1] * (i - 1.0))
    return np.exp(-sigma * np.sqrt(i ** 2 + j ** 2)) * dist


def build_d_vector(k, r):
    """Binary target for diag(C^T C): r ones followed by k - r zeros."""
    if not 0 <= r <= k:
        raise ValueError("rank must satisfy 0 <= r <= k")
    d = np.zeros(k)
    d[:r] = 1.0
    return d


def ground_truth_map(basis_part, basis_full, correspondence, k=None):
    """Ground-truth k x k C from a known part-to-full vertex correspondence.

    ``correspondence[i]`` is the full-shape vertex of partial vertex i.  Each
    partial eigenfunction is injected (zero elsewhere) and projected:
    C[j, i] = psi_j^T S_M (T phi_i).  The injection needs each full vertex
    to receive at most one partial vertex.
    """
    correspondence = np.asarray(correspondence)
    if len(np.unique(correspondence)) != len(correspondence):
        raise ValueError("ground_truth_map needs an injective correspondence")
    k = k or min(basis_part.k, basis_full.k)
    T_phi = np.zeros((basis_full.n, k))
    T_phi[correspondence] = basis_part.eigenvectors[:, :k]
    return fourier_coeffs(basis_full.truncated(k), T_phi)


# -- perturbation laboratory --------------------------------------------------


@dataclass(frozen=True)
class PerturbationSetup:
    """Block decomposition of the cut stiffness under part-first ordering.

    ``K0`` is blockdiag(K_part, K_comp) and ``P`` the whole perturbation, of
    which ``P_part`` and ``P_cross`` are the part and part-complement
    blocks.  ``order`` maps position in the reordered full matrix to the
    original full-mesh vertex index (part vertices first).
    """
    K_part: sp.csr_matrix
    K_comp: sp.csr_matrix
    K0: sp.csr_matrix
    P: sp.csr_matrix
    P_part: sp.csr_matrix
    P_cross: sp.csr_matrix
    mass_part: np.ndarray
    mass_comp: np.ndarray
    order: np.ndarray
    boundary_part: np.ndarray  # indices into the part block
    boundary_comp: np.ndarray  # indices into the complement block

    @property
    def n_part(self):
        return self.K_part.shape[0]

    @property
    def n_comp(self):
        return self.K_comp.shape[0]

    def stiffness(self, t):
        """K(t); at t = 1 this is exactly the reordered full-shape stiffness."""
        return self.K0 + t * self.P


def perturbation_setup(full_mesh, part_vertex_ids):
    """Split a mesh by a vertex set and extract the boundary perturbation.

    The perturbation is computed numerically as the difference between the
    reordered full stiffness and the block diagonal of the two submesh
    stiffnesses, which guarantees K(1) = K_M exactly.  Masses are the
    full-shape ones, restricted to each block.
    """
    part_ids = np.asarray(part_vertex_ids, dtype=np.int64)
    in_part = np.zeros(full_mesh.n_vertices, dtype=bool)
    in_part[part_ids] = True
    comp_ids = np.flatnonzero(~in_part)
    if len(comp_ids) == 0:
        raise ValueError("part covers the whole mesh; nothing to perturb")

    sub_p, map_p = full_mesh.submesh(part_ids)
    sub_c, map_c = full_mesh.submesh(comp_ids)
    if len(map_p) != len(part_ids) or len(map_c) != len(comp_ids):
        raise ValueError("vertex set leaves isolated vertices in a submesh")
    order = np.concatenate([map_p, map_c])

    K_full = cotan_stiffness(full_mesh)[order][:, order]
    K_p = cotan_stiffness(sub_p)
    K_c = cotan_stiffness(sub_c)
    K0 = sp.block_diag([K_p, K_c], format="csr")
    P = K_full - K0
    P.eliminate_zeros()
    n = len(map_p)
    P_part = P[:n, :n].tocsr()
    P_cross = P[:n, n:].tocsr()

    s_full = full_mesh.vertex_areas()
    # Boundary bands: vertices touched by any perturbation entry.
    b_part = np.unique(np.concatenate([P_part.nonzero()[0],
                                       P_cross.nonzero()[0]]))
    b_comp = np.unique(np.concatenate([P[n:, n:].nonzero()[0],
                                       P_cross.nonzero()[1]]))
    return PerturbationSetup(K_p, K_c, K0, P, P_part, P_cross,
                             s_full[map_p], s_full[map_c], order,
                             b_part, b_comp)


def eigenvalue_derivative(basis_part, P_part, i):
    """First-order change of the i-th partial eigenvalue: phi_i^T P_N phi_i."""
    if not 0 <= i < basis_part.k:
        raise IndexError("eigenpair index out of range")
    phi = basis_part.eigenvectors[:, i]
    return float(phi @ (P_part @ phi))


def eigenvector_derivative(basis_part, basis_comp, P_part, P_cross, i):
    """Two-sum perturbation formula for the i-th partial eigenvector.

    Returns a vector of length n_part + n_comp in the part-first ordering;
    the first sum lives on the part block, the second on the complement.
    Raises when the eigengap hypothesis (distinct eigenvalues) fails.
    """
    lam = basis_part.eigenvalues
    lam_c = basis_comp.eigenvalues
    if not 0 <= i < basis_part.k:
        raise IndexError("eigenpair index out of range")
    scale = max(np.abs(lam).max(), np.abs(lam_c).max(), 1e-300)
    gaps = np.abs(lam - lam[i])
    gaps[i] = np.inf
    if gaps.min() < EIGENGAP_REL_TOL * scale:
        raise ValueError(f"eigengap violation within the part spectrum at i={i}")
    if np.abs(lam_c - lam[i]).min() < EIGENGAP_REL_TOL * scale:
        raise ValueError(f"eigengap violation against the complement at i={i}")

    phi_i = basis_part.eigenvectors[:, i]
    Phi = basis_part.eigenvectors
    num = Phi.T @ (P_part @ phi_i)  # phi_j^T P_N phi_i
    den = lam[i] - lam
    den[i] = 1.0  # placeholder, coefficient zeroed below
    coef = num / den
    coef[i] = 0.0
    d_part = Phi @ coef

    num_c = basis_comp.eigenvectors.T @ (P_cross.T @ phi_i)  # phibar_j^T P^T phi_i
    coef_c = num_c / (lam[i] - lam_c)
    d_comp = basis_comp.eigenvectors @ coef_c
    return np.concatenate([d_part, d_comp])


def boundary_interaction(basis_part):
    """Per-vertex boundary interaction strength.

    f(v) = sum_{i != j} (phi_iv phi_jv / (lambda_i - lambda_j))^2 over the
    basis truncation, skipping (and counting) near-degenerate pairs.  With
    P = Phi o Phi and Q_ij = 1 / (lambda_i - lambda_j)^2, zero on the
    diagonal and on skipped pairs, f = rowsum((P Q) o P).
    """
    k = basis_part.k
    lam = basis_part.eigenvalues
    scale = max(abs(lam[-1]), 1e-300)
    gap = lam[:k, None] - lam[None, :k]
    skip = np.abs(gap) < PAIR_SKIP_REL_TOL * scale  # the diagonal too
    skipped = (np.count_nonzero(skip) - k) // 2
    Q = np.divide(1.0, gap ** 2, out=np.zeros_like(gap), where=~skip)
    P = basis_part.eigenvectors[:, :k] ** 2
    f = np.einsum("ij,ij->i", P @ Q, P)
    if skipped:
        warnings.warn(f"boundary_interaction: skipped {skipped} "
                      "near-degenerate eigenvalue pairs", stacklevel=2)
    return f
