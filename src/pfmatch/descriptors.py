"""Dense local SHOT-style surface descriptors.

Layout: 32 spatial sectors (8 azimuth x 2 elevation x 2 radial shells) times
an 11-bin histogram of the cosine between neighbor and center normals, for
352 values per vertex.  Each descriptor is unit-normalized; vertices with
fewer than 5 neighbors in the support radius get a zero descriptor and are
flagged.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

N_AZIMUTH = 8
N_ELEVATION = 2
N_RADIAL = 2
N_COS_BINS = 11
DESCRIPTOR_DIM = N_AZIMUTH * N_ELEVATION * N_RADIAL * N_COS_BINS  # 352
MIN_NEIGHBORS = 5
DEFAULT_RADIUS_FRACTION = 0.18
# Neighbour pairs per block of centres, which bounds the block's pair
# arrays unless one centre alone has more: 64 centres of 288 neighbours, the
# size of a block of a 2562-vertex benchmark shape.
SHOT_PAIRS = 64 * 288


@dataclass(frozen=True)
class DescriptorField:
    """Per-vertex descriptors (n x 352) with the support radius used and a
    flag marking vertices whose support was too sparse."""
    values: np.ndarray
    radius: float  # None for descriptors not computed here
    flags: np.ndarray  # bool, True where the descriptor is a zero vector

    @property
    def dim(self):
        return self.values.shape[1]


def default_radius(mesh):
    """Default support radius: 18% of the square root of the surface area."""
    return DEFAULT_RADIUS_FRACTION * np.sqrt(mesh.total_area)


def _runs(cnt):
    """(first, stop, span) of each run of equal count in ``cnt``: centres
    first:stop, whose pairs are ``span`` of the block's flat pair arrays."""
    bounds = np.concatenate([[0], np.cumsum(cnt)])
    edges = np.flatnonzero(np.diff(cnt, prepend=-1, append=-1))
    return [(a, b, slice(bounds[a], bounds[b]))
            for a, b in zip(edges[:-1], edges[1:])]


def _frames(diff, cnt, radius):
    """Local reference frames of a block of centres.

    ``diff`` (sum cnt, 3) holds the neighbour offsets of the centres, centre
    by centre, and ``cnt`` their neighbour counts.  Returns (len(cnt), 3, 3):
    rows (x, y, z) per centre, x and z the covariance eigenvectors of
    largest and smallest eigenvalue.
    """
    runs = _runs(cnt)
    w = _row_norms(diff)
    np.subtract(radius, w, out=w)
    dw = diff * w[:, None]
    # The elementwise steps run once over the block's pairs.  The products
    # and sums run per run of equal count m on (c, m, 3) stacks: a stacked
    # matmul makes per centre the BLAS call of the 2-D product, and
    # sum(axis=1) the pairwise sum of one centre's weights.  On a flat or
    # symmetric support one ulp of w.sum() rotates the degenerate
    # eigenvectors, and the in-plane signs below sit at rounding level.
    cov = np.empty((len(cnt), 3, 3))
    w_sum = np.empty(len(cnt))
    for a, b, span in runs:
        d = diff[span].reshape(b - a, -1, 3)
        np.matmul(dw[span].reshape(d.shape).transpose(0, 2, 1), d,
                  out=cov[a:b])
        np.sum(w[span].reshape(b - a, -1), axis=1, out=w_sum[a:b])
    cov /= w_sum[:, None, None]
    evecs = np.linalg.eigh(cov)[1]  # eigenvalues ascending
    axes = evecs[:, :, 2], evecs[:, :, 0]
    proj = np.empty((2, len(diff)))
    for a, b, span in runs:
        d = diff[span].reshape(b - a, -1, 3)
        for p, axis in zip(proj, axes):
            np.matmul(d, axis[a:b, :, None],
                      out=p[span].reshape(b - a, -1, 1))
    # Sign disambiguation: majority of neighbours on the positive side,
    # counted per centre and axis over the centre's pairs.
    n_pos = np.add.reduceat(proj >= 0, np.cumsum(cnt) - cnt, axis=1)
    flip = (n_pos < cnt / 2.0)[:, :, None]
    x_axis, z_axis = (np.where(f, -axis, axis) for f, axis in zip(flip, axes))
    return np.stack([x_axis, np.cross(z_axis, x_axis), z_axis], axis=1)


def _row_norms(x):
    """Euclidean norms along the last axis of an (..., 3) array, bit-equal
    to ``np.linalg.norm(x, axis=-1)``, which sums the same squares in the
    same order but runs a slow three-element reduction per row."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    return np.sqrt((x0 * x0 + x1 * x1) + x2 * x2)


def _neighbour_table(pts, radius):
    """CSR table of the points within ``radius`` of each point, itself left
    out: point v's neighbours are ``nbr[indptr[v]:indptr[v + 1]]``, in
    ascending index order."""
    n = len(pts)
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    i, j = pairs.T
    # Sorting the keys centre * n + neighbour orders the table by centre,
    # then by neighbour.  Both halves of the keys are written into the one
    # array that becomes the table, 32-bit where the keys fit.
    p = len(i)
    key = np.empty(2 * p, dtype=np.int32 if n * n < 2**31 else np.int64)
    for half, centre, other in ((key[:p], i, j), (key[p:], j, i)):
        np.multiply(centre, n, out=half, casting="unsafe")
        np.add(half, other, out=half, casting="unsafe")
    key.sort()
    key %= n
    indptr = np.zeros(n + 1, dtype=np.int64)
    # A point's count is how often it appears in a pair, on either side.
    np.cumsum(np.bincount(pairs.ravel(), minlength=n), out=indptr[1:])
    return indptr, key


def shot_descriptors(mesh, radius):
    """Compute SHOT-style descriptors for every mesh vertex."""
    if not 0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")
    pts = mesh.vertices
    normals = mesh.vertex_normals()
    indptr, nbr = _neighbour_table(pts, radius)

    n = mesh.n_vertices
    desc = np.zeros((n, DESCRIPTOR_DIM))
    cnt = np.diff(indptr)
    flags = cnt < MIN_NEIGHBORS
    # Visiting centres by neighbour count puts those of equal count next to
    # each other, so each such run stacks into (c, m, 3) arrays.
    order = np.flatnonzero(~flags)
    order = order[np.argsort(cnt[order], kind="stable")]
    # A block takes centres in visit order while their pairs fit in
    # SHOT_PAIRS, and at least one centre.
    pairs = np.concatenate([[0], np.cumsum(cnt[order])])
    first = 0
    while first < len(order):
        stop = max(first + 1, np.searchsorted(pairs, pairs[first] + SHOT_PAIRS,
                                              side="right") - 1)
        centres = order[first:stop]
        first = stop
        hist = _histograms(centres, indptr, nbr, pts, normals, radius)
        # np.linalg.norm(h) per row: the same BLAS dot, stacked.
        norm = np.sqrt((hist[:, None, :] @ hist[:, :, None]).ravel())
        # Each neighbour adds 1 to its centre's histogram, so a zero norm
        # means an all-zero histogram: every neighbour coincides with the
        # centre.  Its descriptor stays zero and is flagged.
        empty = norm == 0
        norm[empty] = 1.0
        hist /= norm[:, None]
        desc[centres] = hist
        flags[centres[empty]] = True
    return DescriptorField(desc, float(radius), flags)


def _histograms(centres, indptr, nbr, pts, normals, radius):
    """Unnormalised (len(centres), 352) histograms of a block of centres in
    ascending order of neighbour count, from their rows of the neighbour
    table."""
    cnt = np.diff(indptr)[centres]
    bounds = np.concatenate([[0], np.cumsum(cnt)])
    rows = np.repeat(indptr[centres] - bounds[:-1], cnt) + np.arange(bounds[-1])
    nb = nbr[rows]
    owner = np.repeat(np.arange(len(centres)), cnt)
    diff = pts.take(nb, axis=0)
    diff -= pts.take(centres, axis=0).repeat(cnt, axis=0)
    frames = _frames(diff, cnt, radius)
    nb_normals = normals.take(nb, axis=0)
    centre_normals = normals.take(centres, axis=0)
    local = np.empty_like(diff)
    cosang = np.empty(len(nb))
    for a, b, span in _runs(cnt):
        d = diff[span].reshape(b - a, -1, 3)
        np.matmul(d, frames[a:b].transpose(0, 2, 1),
                  out=local[span].reshape(d.shape))
        np.matmul(nb_normals[span].reshape(d.shape),
                  centre_normals[a:b, :, None],
                  out=cosang[span].reshape(b - a, -1, 1))
    dist = _row_norms(local)
    ok = dist > 1e-12 * radius
    if not ok.all():  # a neighbour coincides with its centre
        local, dist, cosang, owner = local[ok], dist[ok], cosang[ok], owner[ok]

    # Each neighbour adds two terms, to its lower and then its upper cosine
    # bin.  Both land in one index and one weight array, lower terms first,
    # computed in place by the floating-point steps of the per-neighbour
    # formulas, in their order, so the bins match a per-vertex loop's.
    m = len(cosang)
    index = np.empty(2 * m, dtype=np.int64)
    weight = np.empty(2 * m)
    lo, hi = index[:m], index[m:]
    w_lo, w_hi = weight[:m], weight[m:]

    # base = (owner * 32 + sector) * 11, the first bin of the neighbour's
    # sector in the block's histograms, built in owner.
    np.arctan2(local[:, 1], local[:, 0], out=w_lo)  # (-pi, pi]
    w_lo += np.pi
    w_lo /= 2 * np.pi
    w_lo *= N_AZIMUTH
    np.minimum(w_lo, N_AZIMUTH - 1e-9, out=w_lo)
    base = owner
    base *= N_AZIMUTH
    lo[...] = w_lo  # the azimuth bin
    base += lo
    base *= N_ELEVATION
    base += np.greater_equal(local[:, 2], 0, out=lo)
    base *= N_RADIAL
    base += np.greater_equal(dist, radius / 2.0, out=lo)
    base *= N_COS_BINS

    # Soft assignment across the two adjacent cosine bins, each clamped
    # into the histogram.
    pos = np.clip(cosang, -1.0, 1.0, out=cosang)
    pos += 1.0
    pos /= 2.0
    pos *= N_COS_BINS
    pos -= 0.5
    np.floor(pos, out=w_lo)
    np.subtract(pos, w_lo, out=w_hi)  # frac
    lo[...] = w_lo
    np.subtract(1.0, w_hi, out=w_lo)
    np.add(lo, 1, out=hi)
    np.minimum(hi, N_COS_BINS - 1, out=hi)
    hi += base
    np.maximum(lo, 0, out=lo)
    lo += base
    # One bincount in the order of two passes, lower bin then upper bin,
    # so every bin sums its terms in neighbour order, pass by pass.
    hist = np.bincount(index, weight, minlength=len(centres) * DESCRIPTOR_DIM)
    return hist.reshape(len(centres), DESCRIPTOR_DIM)
