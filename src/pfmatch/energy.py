"""Objective terms of the partial-correspondence energy and their gradients.

Each term returns its value and its gradient, except the data term, the one
term that couples C and v: it returns its value and Hn, from which
``solver.c_objective`` forms its C-gradient and ``solver.v_objective`` its
v-gradient.  Every gradient is verified against central finite differences
in the test suite; that suite is the authority on the sign and scaling
conventions below.  The L2,1 data norm is smoothed per column as
sqrt(|col|^2 + eps^2) - eps so the gradient exists at zero residual columns.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

# Share of the full-shape vertices from which a bin of G is multiplied as
# dense; CHANGES.md gives the measurement behind 0.15.
_DENSE_BIN_SHARE = 0.15


@dataclass(frozen=True)
class EnergyParams:
    """Weights and spreads of the objective."""
    mu1: float = 1.0       # area preservation
    mu2: float = 1e2       # Mumford-Shah boundary length
    mu3: float = 1.0       # slanted-diagonal penalty
    mu4_5: float = 1e3     # merged semi-orthogonality penalty
    sigma_w: float = 0.03  # spread of the slant weight matrix
    sigma_xi: float = 0.5
    k: int = 100

    def __post_init__(self):
        if min(self.mu1, self.mu2, self.mu3, self.mu4_5) < 0:
            raise ValueError("energy weights must be nonnegative")
        if self.sigma_xi <= 0:
            raise ValueError("sigma_xi must be positive")
        if self.k < 1:
            raise ValueError(f"k={self.k} must be at least 1")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Raw term values plus the weighted total."""
    data: float
    area: float
    mumford_shah: float
    slant: float
    orthogonality: float
    total: float

    @staticmethod
    def combine(data, area, ms, slant, orth, params):
        total = (data + params.mu1 * area + params.mu2 * ms
                 + params.mu3 * slant + params.mu4_5 * orth)
        return EnergyBreakdown(data, area, ms, slant, orth, total)


@dataclass
class MatchProblem:
    """Fixed inputs of one matching job.

    A:    k x q Fourier coefficients of the partial-shape descriptors
    Psi:  n x k full-shape eigenvectors
    mass: n vertex areas of the full shape
    G:    n x q full-shape descriptors
    W, d: slant weights and rank indicator for the regularizers
    """
    A: np.ndarray
    Psi: np.ndarray
    mass: np.ndarray
    G: np.ndarray
    mesh_full: object
    area_part: float
    W: np.ndarray
    d: np.ndarray
    F: np.ndarray  # q-column descriptors of the partial shape
    dim: int  # descriptor length before all-zero bins were dropped

    def __post_init__(self):
        # G as a C-contiguous dense block and a CSR tail with its
        # transpose, in G's column order when the dense bins come first, as
        # build_problem orders them.  G must not change in place;
        # dataclasses.replace rebuilds the split.
        dense = dense_bins(self.G)
        nd = np.count_nonzero(dense)
        self._bins = ((slice(0, nd), slice(nd, None)) if dense[:nd].all()
                      else (np.flatnonzero(dense), np.flatnonzero(~dense)))
        self._G_dense = np.ascontiguousarray(self.G[:, self._bins[0]])
        tail = self.G[:, self._bins[1]]
        rows, cols = np.nonzero(tail != 0)
        self._G_tail = csr_matrix((tail[rows, cols], cols, np.searchsorted(
            rows, np.arange(len(tail) + 1))), shape=tail.shape)
        self._G_tail_T = self._G_tail.T.tocsr()


def dense_bins(G):
    """Mask of the bins set on _DENSE_BIN_SHARE of the rows of G or more."""
    return np.count_nonzero(G, axis=0) >= _DENSE_BIN_SHARE * len(G)


# -- saturation functions -----------------------------------------------------
# Each is a function of th = tanh(2v - 1); an evaluation that needs several
# of them computes th once.


def eta(v):
    """Soft part membership: (tanh(2v - 1) + 1) / 2, in [0, 1]."""
    return _eta(_th(v))


def eta_prime(v):
    return _eta_prime(_th(v))


def xi(v, sigma):
    """Bump concentrated where eta(v) = 1/2: exp(-tanh^2(2v-1) / (4 sigma^2))."""
    return _xi(_th(v), sigma)


def _th(v):
    return np.tanh(2.0 * np.asarray(v) - 1.0)


def _eta(th):
    return 0.5 * (th + 1.0)


def _eta_prime(th):
    return 1.0 - th ** 2


def _xi(th, sigma):
    return np.exp(-th ** 2 / (4.0 * sigma ** 2))


# -- individual terms ---------------------------------------------------------


def data_term(CA, B, dim):
    """Smoothed L2,1 norm of the residual H = C A - B, with eps scaled to B
    and to ``dim``, the descriptor length before bins zero in both A and G
    were dropped.

    Returns (value, Hn), Hn being H with each column divided by its
    smoothed norm.
    """
    H = CA - B
    # The floor's square is a normal double, so every colnorm is positive:
    # with B = 0 a zero column of H adds 0 to the value and to Hn.
    eps = max(1e-9 * np.linalg.norm(B) / np.sqrt(dim), 1e-150)
    colnorm = np.sqrt(np.einsum("ij,ij->j", H, H) + eps ** 2)
    return float(np.sum(colnorm - eps)), H / colnorm


def g_forward(prob, w):
    """Psi^T diag(w) G, k x q, from the n x k Psi scaled by w."""
    P = prob.Psi * w[:, None]
    dense, tail = prob._bins
    B = np.empty((P.shape[1], prob.G.shape[1]))
    B[:, dense] = P.T @ prob._G_dense
    B[:, tail] = (prob._G_tail_T @ P).T
    return B


def g_adjoint(prob, H):
    """Adjoint of g_forward: a_i = sum_j Psi[i, j] (G H^T)[i, j]."""
    dense, tail = prob._bins
    U = prob._G_dense @ H[:, dense].T  # n x k, C-contiguous
    U += prob._G_tail @ H[:, tail].T
    return np.einsum("ij,ij->i", prob.Psi, U)


def mask_coefficients(prob, v):
    """B = Psi^T diag(mass eta(v)) G."""
    return g_forward(prob, prob.mass * eta(v))


def area_term(v, area_part, mass):
    """Squared mismatch between the part area and the soft-mask area."""
    th = _th(v)
    diff = area_part - float(mass @ _eta(th))
    grad_v = -2.0 * diff * mass * _eta_prime(th)
    return diff ** 2, grad_v


def mumford_shah(v, mesh, sigma_xi):
    """Soft boundary length: (1/6) sum_j D_j (xi(v1) + xi(v2) + xi(v3)).

    D_j is the integrated gradient magnitude sqrt(va^2 G - 2 va vb F + vb^2 E)
    over triangle j, taken as zero on triangles with constant v.
    Returns (value, grad_v).
    """
    E, F, G = mesh.triangle_metric
    corners = np.ascontiguousarray(mesh.triangles.T)  # row c: corner c
    v = np.asarray(v)
    th = _th(v)
    xi_v = _xi(th, sigma_xi)
    v0, v1, v2 = v[corners]
    va = v1 - v0
    vb = v2 - v0
    D2 = va ** 2 * G - 2.0 * va * vb * F + vb ** 2 * E
    D = np.sqrt(np.maximum(D2, 0.0))
    x0, x1, x2 = xi_v[corners]
    xs = x0 + x1 + x2
    value = float(np.sum(D * xs)) / 6.0

    inv2D = np.where(D > 0.0, 1.0 / np.maximum(2.0 * D, 1e-300), 0.0)
    # d(D^2)/dv for each corner, halved by 1/(2D).
    dD0 = (-2.0 * va * G + 2.0 * F * (va + vb) - 2.0 * vb * E) * inv2D
    dD1 = (2.0 * va * G - 2.0 * vb * F) * inv2D
    dD2 = (2.0 * vb * E - 2.0 * va * F) * inv2D
    xi_p = xi_v * (-th * _eta_prime(th) / sigma_xi ** 2)  # d xi / dv
    # One sum over corners 0, 1, 2 in turn, each in triangle order.
    contrib = xs * np.array((dD0, dD1, dD2)) + D * xi_p[corners]
    grad = np.bincount(corners.ravel(), weights=contrib.ravel(),
                       minlength=len(v))
    return value, grad / 6.0


def slant_term(C, W):
    """Hadamard-weighted Frobenius penalty |C o W|_F^2."""
    CW = C * W
    return float(np.sum(CW ** 2)), 2.0 * CW * W


def orthogonality_term(C, d):
    """Semi-orthogonality: off-diagonal energy of C^T C plus the deviation of
    its diagonal from the binary rank indicator d."""
    CtC = C.T @ C
    diag = np.diag(CtC)
    value = float(np.sum(CtC ** 2) - np.sum(diag ** 2) + np.sum((diag - d) ** 2))
    grad = 4.0 * (C @ CtC - C * d[None, :])
    return value, grad


def total_energy(C, v, prob, params):
    """Weighted sum of all terms, as an EnergyBreakdown."""
    data, _ = data_term(C @ prob.A, mask_coefficients(prob, v), prob.dim)
    area, _ = area_term(v, prob.area_part, prob.mass)
    ms, _ = mumford_shah(v, prob.mesh_full, params.sigma_xi)
    slant, _ = slant_term(C, prob.W)
    orth, _ = orthogonality_term(C, prob.d)
    return EnergyBreakdown.combine(data, area, ms, slant, orth, params)
