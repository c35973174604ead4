"""Nonlinear conjugate gradients, the alternating C/v scheme, and the
ICP spectral refinement.

Everything here is deterministic: no unseeded randomness, and exact
nearest-neighbor search with ties going to the smallest index.  The outer
energy trace is monotone by construction: ``c_objective`` is the total
energy less its v-only terms and ``v_objective`` is the total energy less
its C-only terms, so each step descends from where it starts.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import descriptors, laplacian
from .energy import (EnergyParams, MatchProblem, area_term, data_term,
                     dense_bins, eta_prime, g_adjoint, mask_coefficients,
                     mumford_shah, orthogonality_term, slant_term,
                     total_energy)
from .spectral import (build_d_vector, build_weight_matrix, estimate_rank,
                       fourier_coeffs)

UNASSIGNED = -1

# Line-search constants of nonlinear_cg (see _line_search).
# SIGMA trades the accuracy of the search, which PR+ needs to stay conjugate,
# against evaluations per step; CHANGES.md gives the measurements behind 0.3.
_SIGMA = 0.3      # strong Wolfe curvature: |phi'(a)| <= SIGMA |phi'(0)|
_ARMIJO_C = 1e-4  # sufficient decrease (Armijo constant c1)
_BACKTRACK = 0.5  # bracket contraction; 1 / BACKTRACK grows a trial step
_MAX_BACKTRACKS = 50  # objective evaluations of one search
_EPS_F = 1e-12    # relative change of f below which f is not trusted
_MAX_GROW = 10.0  # largest growth of the trial step while extrapolating

_OUTER_REL_TOL = 1e-4  # smallest relative energy fall that continues alternate

# Rows per block of nearest_columns' float32 score matrix (1.8 MB at 1800
# points).
_NN_BLOCK = 256
# Rows per block of initial_mask's float64 G F^T, apart from _NN_BLOCK
# because the mask's rounding depends on it.
_MASK_BLOCK = 256
# initial_mask seeds the mask from, and refine fits its rounds on, a
# farthest-point sample of this many part vertices per eigenfunction (see
# _part_sample).
_SAMPLE_PER_K = 16
_NN_MAX_K = (3 * 2 ** 21 - 9) // 5  # largest k with (5k + 9) 2^-24 <= 3/8


@dataclass(frozen=True)
class SolverOptions:
    max_outer: int = 5
    cg_max_iter: int = 300
    cg_grad_tol: float = 1e-6
    refine_max_iter: int = 20

    def __post_init__(self):
        if min(self.max_outer, self.cg_max_iter, self.refine_max_iter) < 1:
            raise ValueError("iteration caps must be positive")
        if self.cg_grad_tol <= 0:
            raise ValueError("cg_grad_tol must be positive")


@dataclass
class CGResult:
    x: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    line_search_failed: bool = False


@dataclass
class MatchResult:
    C: np.ndarray
    v: np.ndarray
    # full-shape vertex -> smallest partial-shape vertex mapped onto it (or -1)
    pi: np.ndarray
    sigma: np.ndarray  # partial-shape vertex -> full-shape vertex
    energy_trace: list
    rank_estimate: int
    refine_residuals: list = field(default_factory=list)  # one per ICP round


def nonlinear_cg(fun_grad, x0, opts=SolverOptions()):
    """Polak-Ribiere+ nonlinear CG with a Wolfe line search.

    ``fun_grad(x)`` returns (value, gradient).  The direction is
    d = -g + beta d with beta = max(0, g_new (g_new - g) / |g|^2); it restarts
    to steepest descent whenever it fails to be a descent direction.  Each
    step is found by :func:`_line_search`.

    Stops with ``converged`` once |g| <= cg_grad_tol |g0|.  Stops with
    ``line_search_failed`` when x cannot be moved: no acceptable step within
    MAX_BACKTRACKS evaluations, or an accepted step that leaves x
    unchanged in floating point.  Otherwise it runs to ``cg_max_iter``.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun_grad(x)
    g0_norm = np.linalg.norm(g)
    if g0_norm == 0.0:
        return CGResult(x, f, 0.0, 0, True)
    g_tol = opts.cg_grad_tol * g0_norm
    d = -g
    gd_prev = 0.0
    step = 1.0 / max(1.0, g0_norm)
    failed = False
    it = 0
    for it in range(1, opts.cg_max_iter + 1):
        gd = g @ d
        if gd >= 0:  # not a descent direction: restart
            d = -g
            gd = -(g @ g)
        if gd_prev:
            # First trial: the first-order decrease of the last step
            # (Nocedal & Wright, sec. 3.5).
            step = min(max(step * gd_prev / gd, 1e-12), 1e12)
        found = _line_search(fun_grad, x, f, gd, d, step)
        if found is None:
            failed = True
            break
        step, x_new, f_new, g_new = found
        # A null step passes the curvature test only if fun_grad is not
        # deterministic; it would repeat forever.
        if np.array_equal(x_new, x):
            failed = True
            break
        beta = max(0.0, (g_new @ (g_new - g)) / (g @ g))
        d = -g_new + beta * d
        x, f, g = x_new, f_new, g_new
        gd_prev = gd
        if np.linalg.norm(g) <= g_tol:
            return CGResult(x, f, float(np.linalg.norm(g)), it, True)
    return CGResult(x, f, float(np.linalg.norm(g)), it, False,
                    line_search_failed=failed)


def _line_search(fun_grad, x, f0, dphi0, d, alpha):
    """Step along the descent direction ``d`` from x, for nonlinear_cg.

    With phi(a) = f(x + a d) and dphi0 = phi'(0) < 0, a step a is accepted
    when the strong Wolfe curvature condition |phi'(a)| <= SIGMA |phi'(0)|
    holds together with sufficient decrease, which is either
    - Armijo: phi(a) <= phi(0) + ARMIJO_C a phi'(0), or
    - once the decrease a |phi'(0)| is below what f resolves
      (EPS_F |phi(0)|), the approximate Wolfe test of Hager & Zhang (2005):
      phi(a) <= phi(0) + EPS_F |phi(0)|.  Near the floor the search then
      runs on the sign of phi' alone, where f only carries rounding noise.

    Trial steps are secant steps on phi'.  Until a trial fails sufficient
    decrease or has phi' >= 0, which closes a bracket [lo, hi], the secant
    extrapolates through the last two trials, by at most MAX_GROW times the
    step (1 / BACKTRACK times when phi' does not increase).  Inside the
    bracket the secant interpolates between lo and hi; when phi'(hi) < 0
    gives it no sign change, or the last trial did not shrink the bracket
    by the factor BACKTRACK, the bracket contracts to
    lo + BACKTRACK (hi - lo) instead.  Returns (a, x + a d, phi(a), gradient),
    or None when no step is accepted within MAX_BACKTRACKS evaluations
    or the bracket collapses in floating point.
    """
    resolved = _EPS_F * abs(f0)
    f_cap = f0 + resolved
    lo, dlo = 0.0, dphi0
    hi = dhi = None
    last_width = np.inf
    for _ in range(_MAX_BACKTRACKS):
        x_new = x + alpha * d
        f, g = fun_grad(x_new)
        dphi = g @ d
        if not (np.isfinite(f) and np.isfinite(dphi)):
            decrease = False
        elif alpha * -dphi0 <= resolved:
            decrease = f <= f_cap
        else:
            decrease = f <= f0 + _ARMIJO_C * alpha * dphi0
        if decrease and abs(dphi) <= -_SIGMA * dphi0:
            return alpha, x_new, f, g
        if decrease and dphi < 0:
            if hi is None:  # extrapolate from the last two points
                if dlo < dphi:
                    nxt = min(alpha - dphi * (alpha - lo) / (dphi - dlo),
                              alpha * _MAX_GROW)
                else:
                    nxt = alpha / _BACKTRACK
            lo, dlo = alpha, dphi
        else:
            hi, dhi = alpha, dphi
        if hi is not None:
            width = hi - lo
            nxt = lo + _BACKTRACK * width
            if dhi >= 0 and width <= _BACKTRACK * last_width:
                secant = lo - dlo * width / (dhi - dlo)
                if lo < secant < hi:
                    nxt = secant
            if not lo < nxt < hi:
                return None
            last_width = width
        alpha = nxt
    return None


def build_problem(basis_part, basis_full, desc_part, desc_full, mesh_full,
                  area_part, params):
    """Assemble the fixed matrices of a matching job (A, G, W, d).

    A, G and F keep only the descriptor bins that are nonzero on either
    shape; any other bin has a zero residual column for every C and v.
    Bins dense on the full shape come first (see MatchProblem).

    Raises ValueError when the shapes' descriptors differ in length, or
    when every descriptor of a shape is zero, as when no vertex has enough
    neighbours within the support radius.
    """
    if desc_part.dim != desc_full.dim:
        raise ValueError(f"descriptor lengths differ: {desc_part.dim} on the "
                         f"partial shape, {desc_full.dim} on the full shape")
    # One scan per shape: the bins that are nonzero anywhere on it.
    used = []
    for name, desc in (("partial", desc_part), ("full", desc_full)):
        used.append(desc.values.any(axis=0))
        if not used[-1].any():
            where = ("" if desc.radius is None
                     else f" (support radius {desc.radius:g})")
            raise ValueError(f"every descriptor of the {name} shape is "
                             f"zero{where}")
    k = min(params.k, basis_part.k, basis_full.k)
    bp = basis_part.truncated(k)
    bf = basis_full.truncated(k)
    bins = np.flatnonzero(used[0] | used[1])
    bins = bins[np.argsort(~dense_bins(desc_full.values)[bins], kind="stable")]
    F = desc_part.values.take(bins, axis=1)
    A = fourier_coeffs(bp, F)
    r = estimate_rank(bp.eigenvalues, bf.eigenvalues, k)
    r = max(r, 1)
    W = build_weight_matrix(k, r, params.sigma_w)
    d = build_d_vector(k, r)
    prob = MatchProblem(A=A, Psi=bf.eigenvectors, mass=bf.mass,
                        G=desc_full.values.take(bins, axis=1),
                        mesh_full=mesh_full, area_part=area_part, W=W, d=d,
                        F=F, dim=desc_part.dim)
    return prob, r


def c_objective(prob, params, v):
    """fun_grad of the flattened C: the data, slant and orthogonality terms
    of total_energy at the fixed mask v, whose B is formed once."""
    k = prob.A.shape[0]
    B = mask_coefficients(prob, v)

    def fun_grad(x):
        C = x.reshape(k, k)
        d_val, Hn = data_term(C @ prob.A, B, prob.dim)
        s_val, s_grad = slant_term(C, prob.W)
        o_val, o_grad = orthogonality_term(C, prob.d)
        val = d_val + params.mu3 * s_val + params.mu4_5 * o_val
        grad = Hn @ prob.A.T + params.mu3 * s_grad + params.mu4_5 * o_grad
        return val, grad.reshape(-1)

    return fun_grad


def v_objective(prob, params, C):
    """fun_grad of v: the data, area and Mumford-Shah terms of total_energy
    at the fixed map C, whose C A is formed once."""
    CA = C @ prob.A

    def fun_grad(v):
        d_val, Hn = data_term(CA, mask_coefficients(prob, v), prob.dim)
        d_grad = -eta_prime(v) * prob.mass * g_adjoint(prob, Hn)
        a_val, a_grad = area_term(v, prob.area_part, prob.mass)
        m_val, m_grad = mumford_shah(v, prob.mesh_full, params.sigma_xi)
        val = d_val + params.mu1 * a_val + params.mu2 * m_val
        return val, d_grad + params.mu1 * a_grad + params.mu2 * m_grad

    return fun_grad


def c_step(prob, params, C0, v_fixed, opts=SolverOptions()):
    """Minimize c_objective over C, from C0."""
    res = nonlinear_cg(c_objective(prob, params, v_fixed), C0.reshape(-1),
                       opts)
    return res.x.reshape(C0.shape), res


def v_step(prob, params, C_fixed, v0, opts=SolverOptions()):
    """Minimize v_objective over v, from v0."""
    res = nonlinear_cg(v_objective(prob, params, C_fixed), v0, opts)
    return res.x, res


class SearchSide:
    """The points of nearest_columns, prepared once for many searches: the
    float64 points, their largest magnitude, and for each scaling exponent
    e met so far the float32 screen columns and max_j |p_j|^2 of the points
    scaled by 2^-e.  The points must not change in place.
    """

    def __init__(self, points):
        self.points = np.asarray(points, dtype=np.float64)
        self.big = np.abs(self.points).max(initial=0.0)
        self.scaled = {}


def nearest_columns(queries, points):
    """Index of the nearest row of ``points`` for each row of ``queries``.

    ``points`` is an array or a SearchSide of one; a SearchSide serves
    every search against the same points.

    Exact search: the returned row j minimises the float64 squared distance
    ``np.sum((q - points[j]) ** 2)``, and among equal distances it is the
    smallest such j, as ``np.argmin`` over every row would give.

    Both arrays are scaled by the power of two 2^-e that puts their largest
    magnitude in [1/2, 1), and a float32 screen of the scaled values decides
    most rows.  One GEMM per block of queries scores every point as
    S_j = |p_j|^2 - 2 q.p_j, the rows [q, 1] against the columns
    [-2 p_j, |p_j|^2]; S_j ranks the points as |q - p_j|^2 does.  A row's
    float32 argmin is the answer when its float32 runner-up lies more than
    2 E above it.  Every other row is re-ranked on the float64 direct sums,
    of the unscaled inputs, for the points scored within 2 E of its
    minimum, a set that holds every float64 minimiser.

    In scaled units E = (4k + 8) eps m + (k + 1) (2^-122 + 2^(-2e - 1074))
    is rigorous, with eps = 2^-23, u = eps / 2, m = |q|^2 + max_j |p_j|^2,
    gamma_n = n u / (1 - n u) and nu = 2^-126, the smallest normal float32:
    - rounding q and p to float32 and the (k + 1)-term dot product put a
      factor within gamma_{k+3} of 1 on every q_i p_i;
    - |p|^2, summed in float64, rounded to float32 and carried through the
      dot product, gets a factor within gamma_{2k+2} of 1;
    - results below nu, rounded to a subnormal or flushed to zero, add at
      most (6k + 4) nu, as every scaled entry is below 1;
    so a score is within gamma_{3k+5} m + (6k + 4) nu of S_j, and a float64
    direct sum within 2 gamma64_{k+2} m + k 2^(-2e - 1075) (underflowing
    squares) of the distance.  The parts stay below E while (5k + 9) u <=
    3/8, so a gap of more than 2 E leaves the float32 argmin the only
    float64 minimiser.  The term in e is capped at (k + 1) 2^64, where 2 E
    already spans every score.

    Raises ValueError beyond _NN_MAX_K columns, and for coordinates that
    are not finite or whose squared distances could overflow float64.
    """
    side = points if isinstance(points, SearchSide) else SearchSide(points)
    queries = np.asarray(queries, dtype=np.float64)
    points = side.points
    k = points.shape[1]
    # np.max, not max(): the builtin drops a NaN that comes second.
    big = float(np.max([np.abs(queries).max(initial=0.0), side.big]))
    if k > _NN_MAX_K or not math.isfinite(4.0 * (k + 1) * big * big):
        raise ValueError(f"nearest_columns needs at most {_NN_MAX_K} columns "
                         "and finite coordinates whose squared distances "
                         "fit in float64")
    e = math.frexp(big)[1]  # big 2^-e lies in [1/2, 1); e = 0 for big = 0
    if e not in side.scaled:
        p = np.ldexp(points, -e)
        p_sq = np.einsum("ij,ij->i", p, p)
        side.scaled[e] = (np.vstack([-2.0 * p.T, p_sq]).astype(np.float32),
                          p_sq.max(initial=0.0))
    cols_p, p_sq_max = side.scaled[e]
    q = np.ldexp(queries, -e)
    rows_q = np.ones((len(q), k + 1), dtype=np.float32)
    rows_q[:, :-1] = q
    floor = (k + 1) * (2.0 ** -122 + math.ldexp(1.0, min(-2 * e - 1074, 64)))
    margin = 2 * ((4 * k + 8) * 2.0 ** -23 * (
        np.einsum("ij,ij->i", q, q) + p_sq_max) + floor)
    out = np.empty(len(rows_q), dtype=np.intp)
    for start in range(0, len(rows_q), _NN_BLOCK):
        stop = start + _NN_BLOCK
        dist = rows_q[start:stop] @ cols_p
        rows = np.arange(len(dist))
        best = np.argmin(dist, axis=1)
        d_min = dist[rows, best].astype(np.float64)
        dist[rows, best] = np.inf
        runner_up = dist.min(axis=1)
        dist[rows, best] = d_min
        bound = margin[start:stop]
        for i in np.flatnonzero(runner_up - d_min <= bound):
            near = np.flatnonzero(dist[i] <= d_min[i] + bound[i])
            exact = np.sum((points[near] - queries[start + i]) ** 2, axis=1)
            best[i] = near[np.argmin(exact)]
        out[start:stop] = best
    return out


def _procrustes(M):
    """[U V^T, 0], k x k, for the thin SVD U S V^T of the k x r matrix M: the
    C with C^T C = diag(r ones, k - r zeros) nearest to [M, 0]."""
    U, _, Vt = np.linalg.svd(M, full_matrices=False)
    C = np.zeros((len(M), len(M)))
    C[:, :M.shape[1]] = U @ Vt
    return C


def _spectral_sample(Phi, m):
    """Farthest-point sample of m rows of Phi, in increasing order.

    The first row is the one farthest from the mean of the rows; each next
    row is the one farthest from the rows already taken, ties going to the
    smallest index.  Distances in the spectral embedding do not depend on
    the mesh's placement, on the signs of the eigenvectors or, up to exact
    ties, on the vertex numbering.
    """
    Phi = np.ascontiguousarray(Phi, dtype=np.float64)
    sq = np.einsum("ij,ij->i", Phi, Phi)
    # |x - mean|^2 less |mean|^2, which is the same for every row
    j = int(np.argmax(sq - 2.0 * (Phi @ Phi.mean(axis=0))))
    gap = np.full(len(Phi), np.inf)
    dot, dist = np.empty(len(Phi)), np.empty(len(Phi))
    picked = np.empty(m, dtype=np.intp)
    for i in range(m):
        picked[i] = j
        # (sq + sq[j]) - 2 (Phi Phi[j]), in place
        np.matmul(Phi, Phi[j], out=dot)
        dot *= 2.0
        np.add(sq, sq[j], out=dist)
        dist -= dot
        np.minimum(gap, dist, out=gap)
        gap[j] = -np.inf  # never taken twice, even among equal rows
        j = int(np.argmax(gap))
    return np.sort(picked)


def _part_sample(Phi):
    """The part rows S that seed initial_mask and fit refine's rounds.

    S is the _spectral_sample of _SAMPLE_PER_K k rows of Phi, the part's
    first k eigenvectors, when the part has more rows than that, and
    slice(None), every row, otherwise.  Either indexes Phi and F alike.
    """
    m = _SAMPLE_PER_K * Phi.shape[1]
    return _spectral_sample(Phi, m) if len(Phi) > m else slice(None)


def refine(C, Phi, Psi, d, sample, opts=SolverOptions()):
    """ICP alignment of the spectral embeddings (Ovsjanikov et al. 2012).

    The rounds are fitted on the rows S of Phi that ``sample`` gives, such
    as _part_sample(Phi).  Each round maps every sampled image point (row
    of Phi[S] C^T) to its nearest full-shape point (row of Psi), sigma_S,
    then sets C to the exact minimiser of |Phi[S] C^T - Psi[sigma_S]|^2
    over C^T C = diag(d), with r ones in d:
    _procrustes(Psi[sigma_S]^T Phi[S, :r]).  C starts on that set, at
    _procrustes(C[:, :r]), so the residuals, taken over S, never increase.
    Stops once sigma_S repeats, a fixed point, or after ``refine_max_iter``
    re-fits, which one more search then follows.  When S is not every row,
    one search of every row of Phi C^T follows the rounds.  Every search
    runs against one SearchSide of Psi.  Returns (C, sigma, residuals),
    sigma mapping partial-shape to full-shape vertices; sigma is always the
    nearest map of the returned C.
    """
    r = int(np.count_nonzero(d))
    C = _procrustes(C[:, :r])
    fit = Phi[sample]
    side = SearchSide(Psi)
    residuals, sigma = [], None
    for fits in range(opts.refine_max_iter + 1):
        image = fit @ C.T
        sigma_prev, sigma = sigma, nearest_columns(image, side)
        target = Psi[sigma]
        residuals.append(float(np.sum((image - target) ** 2)))
        if fits == opts.refine_max_iter or np.array_equal(sigma, sigma_prev):
            break
        C = _procrustes(target.T @ fit[:, :r])
    if len(fit) < len(Phi):
        sigma = nearest_columns(Phi @ C.T, side)
    return C, sigma, residuals


def initial_mask(prob, sample):
    """Descriptor-similarity seed for the soft part membership.

    Every constant mask is a stationary point of the boundary-length term
    (its integrand has a kink at zero gradient where the analytic gradient
    vanishes), so descent from a constant start never moves.  Seeding from
    the per-vertex distance to the closest partial-shape descriptor among
    the part rows ``sample`` gives a non-constant, data-driven start
    instead.
    """
    # Unit descriptors: squared distance is 2 - 2 <g, f>, so the nearest
    # partial descriptor is the one of largest inner product, taken a block
    # of rows at a time so that the n x n_sample matrix never exists whole.
    G, F = prob.G, prob.F[sample]
    best = np.concatenate([np.max(G[i:i + _MASK_BLOCK] @ F.T, axis=1)
                           for i in range(0, len(G), _MASK_BLOCK)])
    dist = np.sqrt(np.maximum(2.0 - 2.0 * best, 0.0))
    lo, hi = dist.min(), dist.max()
    if hi - lo < 1e-12:
        return np.ones(prob.Psi.shape[0])
    return 1.0 - (dist - lo) / (hi - lo)


def invert_assignment(assignment, n_target):
    """Inverse view of an assignment of source to target vertices, -1 for
    an unassigned source.

    For each target vertex, the smallest source vertex mapped onto it, or
    -1 when none is.
    """
    assignment = np.asarray(assignment)
    source = np.flatnonzero(assignment != UNASSIGNED)
    # return_index gives each target's first, so smallest, source vertex
    targets, first = np.unique(assignment[source], return_index=True)
    inv = np.full(n_target, UNASSIGNED, dtype=np.int64)
    inv[targets] = source[first]
    return inv


def alternate(prob, params, phi_part, opts=SolverOptions()):
    """Full alternating optimization: C-step, then v-step, until the total
    energy stops falling by ``_OUTER_REL_TOL`` or ``max_outer`` is reached.

    The ICP refinement then runs once, from the final C, and gives the
    returned C and the part-to-full map sigma; it aligns the first k
    columns of ``phi_part``, the partial-shape eigenvectors, with k the
    problem's.  Refine's objective has no descriptor data term, so its C is
    not fed back into the alternation.  The result holds sigma and ``pi``,
    sigma inverted: for each full-shape vertex, the smallest partial-shape
    vertex that sigma sends there, or -1 where none does.  One _part_sample
    of those columns seeds the mask and fits refine's rounds.
    """
    k = prob.Psi.shape[1]
    phi = phi_part[:, :k]
    sample = _part_sample(phi)
    C = np.zeros_like(prob.W)
    v = initial_mask(prob, sample)
    trace = []
    prev_total = np.inf
    for _ in range(opts.max_outer):
        C, _ = c_step(prob, params, C, v, opts)
        v, _ = v_step(prob, params, C, v, opts)
        breakdown = total_energy(C, v, prob, params)
        trace.append(breakdown)
        if np.isfinite(prev_total) and prev_total - breakdown.total <= \
                _OUTER_REL_TOL * max(abs(prev_total), 1e-300):
            break
        prev_total = breakdown.total

    C, sigma, resids = refine(C, phi, prob.Psi, prob.d, sample, opts)
    pi = invert_assignment(sigma, len(prob.Psi))
    r = int(np.sum(prob.d))
    return MatchResult(C=C, v=v, pi=pi, sigma=sigma, energy_trace=trace,
                       rank_estimate=r, refine_residuals=resids)


def match(part, full, params=EnergyParams(), opts=SolverOptions(),
          radius=None, desc_part=None, desc_full=None):
    """Match the partial mesh ``part`` to the full mesh ``full``.

    Builds both eigenbases with ``params.k`` functions, computes the SHOT
    descriptors not given, both at one support radius (by default
    ``descriptors.default_radius(full)``), then runs build_problem and
    alternate.  Every stage is looked up on its module at call time, so
    that a function patched there is the one called.  match drops its
    references to the descriptor fields before alternate runs:
    build_problem keeps what it uses of them.
    """
    for name, mesh in (("partial", part), ("full", full)):
        if params.k >= mesh.n_vertices:
            raise ValueError(f"k={params.k} must be smaller than the "
                             f"{mesh.n_vertices} vertices of the {name} shape")
    basis_part = laplacian.mesh_basis(part, params.k)
    basis_full = laplacian.mesh_basis(full, params.k)
    if radius is None:
        radius = descriptors.default_radius(full)
    if desc_part is None:
        desc_part = descriptors.shot_descriptors(part, radius)
    if desc_full is None:
        desc_full = descriptors.shot_descriptors(full, radius)
    prob, _ = build_problem(basis_part, basis_full, desc_part, desc_full,
                            full, part.total_area, params)
    del desc_part, desc_full
    return alternate(prob, params, basis_part.eigenvectors, opts)
