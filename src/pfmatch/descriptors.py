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
SHOT_BLOCK = 64  # centres per batch; bounds the live pair arrays


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


def _frames(stacks, radius):
    """Local reference frames of the centres of a list of stacks.

    Stack i (c_i, m_i, 3) holds the neighbour offsets of c_i centres with
    m_i neighbours each.  Returns (sum c_i, 3, 3) in stack order: rows
    (x, y, z) per centre, x and z the covariance eigenvectors of largest
    and smallest eigenvalue.
    """
    # A stacked matmul makes per centre the BLAS call of the 2-D product,
    # and sum(axis=1) the pairwise sum of one centre's weights: on a flat or
    # symmetric support one ulp of w.sum() rotates the degenerate
    # eigenvectors, and the in-plane signs below sit at rounding level.
    cov = []
    for d in stacks:
        w = radius - _row_norms(d)
        cov.append((d * w[..., None]).transpose(0, 2, 1) @ d
                   / w.sum(axis=1)[:, None, None])
    evecs = np.linalg.eigh(np.concatenate(cov))[1]  # eigenvalues ascending
    sizes = [len(d) for d in stacks]
    half = np.repeat([d.shape[1] / 2.0 for d in stacks], sizes)
    axes = []
    for col in (2, 0):
        axis = evecs[:, :, col]
        # Sign disambiguation: majority of neighbors on the positive side.
        n_pos = np.concatenate([
            (d @ a[:, :, None] >= 0)[:, :, 0].sum(axis=1)
            for d, a in zip(stacks, np.split(axis, np.cumsum(sizes[:-1])))])
        axes.append(np.where((n_pos < half)[:, None], -axis, axis))
    x_axis, z_axis = axes
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
    i, j = cKDTree(pts).query_pairs(radius, output_type="ndarray").T
    # Sorting the keys centre * n + neighbour orders the table by centre,
    # then by neighbour.
    nbr = np.sort(np.concatenate([i * n + j, j * n + i])) % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(i, minlength=n) + np.bincount(j, minlength=n),
              out=indptr[1:])
    return indptr, nbr


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
    for first in range(0, len(order), SHOT_BLOCK):
        centres = order[first:first + SHOT_BLOCK]
        hist = _histograms(centres, indptr, nbr, pts, normals, radius)
        # np.linalg.norm(h) per row: the same BLAS dot, stacked.
        norm = np.sqrt((hist[:, None, :] @ hist[:, :, None]).ravel())
        good = norm > 0
        desc[centres[good]] = hist[good] / norm[good, None]
        flags[centres[~good]] = True
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
    diff = (pts.take(nb, axis=0)
            - pts.take(centres, axis=0).repeat(cnt, axis=0))
    # Centres of equal count m come in runs, each one (c, m, 3) stack and
    # one stacked product per step, bit-equal to a product per centre.
    edges = np.flatnonzero(np.diff(cnt, prepend=-1, append=-1))
    runs = [(a, b, slice(bounds[a], bounds[b]))
            for a, b in zip(edges[:-1], edges[1:])]
    stacks = [diff[span].reshape(b - a, -1, 3) for a, b, span in runs]
    frames = _frames(stacks, radius)
    nb_normals = normals.take(nb, axis=0)
    local = np.empty_like(diff)
    cosang = np.empty(len(nb))
    for (a, b, span), d in zip(runs, stacks):
        local[span] = (d @ frames[a:b].transpose(0, 2, 1)).reshape(-1, 3)
        cosang[span] = (nb_normals[span].reshape(d.shape)
                        @ normals[centres[a:b], :, None]).ravel()
    dist = _row_norms(local)
    ok = dist > 1e-12 * radius
    if not ok.all():  # a neighbour coincides with its centre
        local, dist, cosang, owner = local[ok], dist[ok], cosang[ok], owner[ok]

    azimuth = np.arctan2(local[:, 1], local[:, 0])  # (-pi, pi]
    az_bin = np.minimum((azimuth + np.pi) / (2 * np.pi) * N_AZIMUTH,
                        N_AZIMUTH - 1e-9).astype(np.int64)
    el_bin = (local[:, 2] >= 0).astype(np.int64)
    rad_bin = (dist >= radius / 2.0).astype(np.int64)
    sector = (az_bin * N_ELEVATION + el_bin) * N_RADIAL + rad_bin

    cosang = np.clip(cosang, -1.0, 1.0)
    # Soft assignment across the two adjacent cosine bins.
    pos = (cosang + 1.0) / 2.0 * N_COS_BINS - 0.5
    lo = np.floor(pos).astype(np.int64)
    frac = pos - lo
    base = (owner * (N_AZIMUTH * N_ELEVATION * N_RADIAL) + sector) * N_COS_BINS
    # One bincount in the order of two passes, lower bin then upper bin,
    # each clamped into the histogram, so every bin sums its terms in
    # neighbour order, pass by pass.
    index = np.concatenate([base + np.maximum(lo, 0),
                            base + np.minimum(lo + 1, N_COS_BINS - 1)])
    weight = np.concatenate([1.0 - frac, frac])
    hist = np.bincount(index, weight, minlength=len(centres) * DESCRIPTOR_DIM)
    return hist.reshape(len(centres), DESCRIPTOR_DIM)
