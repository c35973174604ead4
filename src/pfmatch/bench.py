"""Synthetic partial-dataset generation and correspondence evaluation.

Cuts operate at the triangle level: a triangle survives only when all three
vertices lie on the kept side, so partial vertices keep their exact full-shape
positions and the ground-truth correspondence stays vertex-to-vertex.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .matio import save_csv
from .mesh import TriangleMesh, edge_table

GEODESIC_BLOCK = 64  # Dijkstra sources per call in princeton_error
# Bound of princeton_error's first Dijkstra pass, in units of sqrt(area).
# On a 2562-vertex benchmark pair (mean error 0.066) 0.15 left 8% of the
# rows to the unbounded pass and took the least time of 0.05-0.4.
GEODESIC_LIMIT = 0.15


@dataclass(frozen=True)
class GroundTruth:
    """Maps each partial-shape vertex to its originating full-shape vertex.
    Several part vertices may share one, as on a part meshed finer than
    its model."""
    correspondence: np.ndarray


# -- synthetic shapes ---------------------------------------------------------


def grid_mesh(nx, ny=None, width=1.0, height=1.0):
    """Regular triangulated grid of a rectangle with nx x ny cells."""
    ny = ny or nx
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel(), np.zeros(X.size)])
    # Cell (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1) and
    # d = (i, j+1), vertex (i, j) being i * (ny + 1) + j; two triangles each.
    a = (np.arange(nx)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    b, c, d = a + ny + 1, a + ny + 2, a + 1
    tris = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return TriangleMesh(verts, tris)


def icosphere(subdivisions=3, radius=1.0):
    """Unit icosahedron subdivided and projected onto the sphere."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    tris = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    # The literal triangles face outward, and subdivision keeps that.
    for _ in range(subdivisions):
        edges, _, tri_edges = edge_table(tris)
        mid = 0.5 * (verts[edges[:, 0]] + verts[edges[:, 1]])
        # Row-wise dot products through matmul round like the norm of a
        # single 3-vector does; np.linalg.norm(axis=1) does not.
        mid /= np.sqrt(mid[:, None, :] @ mid[:, :, None])[:, 0]
        a, b, c = tris.T
        mab, mbc, mca = (len(verts) + tri_edges).T
        tris = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca],
                        axis=1).reshape(-1, 3)
        verts = np.vstack([verts, mid])
    return TriangleMesh(verts * radius, tris)


def bumpy_sphere(subdivisions=4, n_bumps=8, amplitude=0.25, width=0.45,
                 seed=7):
    """Icosphere with Gaussian radial bumps; asymmetric for generic spectra."""
    base = icosphere(subdivisions)
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_bumps, 3))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    amps = amplitude * rng.uniform(0.4, 1.0, size=n_bumps) * \
        rng.choice([-1.0, 1.0], size=n_bumps)
    r = np.ones(base.n_vertices)
    dirs = base.vertices / np.linalg.norm(base.vertices, axis=1, keepdims=True)
    for c, a in zip(centers, amps):
        ang = np.arccos(np.clip(dirs @ c, -1.0, 1.0))
        r += a * np.exp(-(ang / width) ** 2)
    return TriangleMesh(dirs * r[:, None], base.triangles)


# -- partiality generators ----------------------------------------------------


def _unit_normal(normal):
    normal = np.asarray(normal, dtype=np.float64)
    length = np.linalg.norm(normal)
    if length == 0.0:
        raise ValueError("the plane normal is the zero vector")
    return normal / length


def positive_side(mesh, point, normal):
    """Vertices on the positive side of the plane, boundary included."""
    normal = _unit_normal(normal)
    return (mesh.vertices - np.asarray(point)) @ normal >= 0.0


def plane_cut(mesh, point, normal):
    """Keep triangles entirely on the positive side of the plane.

    Returns (partial mesh, GroundTruth).
    """
    keep_ids = np.flatnonzero(positive_side(mesh, point, normal))
    if len(keep_ids) == 0:
        raise ValueError("plane cut removes the entire mesh")
    sub, vertex_map = mesh.submesh(keep_ids)
    return sub, GroundTruth(vertex_map)


def plane_offset_for_area(mesh, normal, keep_fraction, tol=0.01):
    """Bisect the plane offset along ``normal`` so the cut keeps roughly the
    requested fraction of the surface area.  The kept area is summed over
    the triangles plane_cut would keep, without building the cut mesh."""
    if not 0.0 < keep_fraction < 1.0:
        raise ValueError("keep fraction must be in (0, 1)")
    normal = _unit_normal(normal)
    proj = mesh.vertices @ normal
    lo, hi = proj.min() - 1e-9, proj.max() + 1e-9
    total = mesh.total_area
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        side = positive_side(mesh, mid * normal, normal)
        kept = side[mesh.triangles].all(axis=1)
        frac = float(mesh.triangle_areas[kept].sum()) / total
        if abs(frac - keep_fraction) < tol:
            return mid * normal
        if frac > keep_fraction:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * normal


def erode_holes(mesh, seed_count, area_budget):
    """Grow geodesic holes from farthest-point seeds, the first at vertex 0,
    until the kept area drops to the budgeted fraction of the total area.

    Returns (partial mesh, GroundTruth).
    """
    if not 0.0 < area_budget < 1.0:
        raise ValueError("area budget must be in (0, 1)")
    _, dmin = mesh.farthest_point_sample(seed_count, 0)
    total = mesh.total_area
    areas = mesh.triangle_areas
    tri_d = dmin[mesh.triangles]

    def kept_area(radius):
        removed = (tri_d < radius).all(axis=1)
        return float(areas[~removed].sum())

    lo, hi = 0.0, float(np.max(dmin)) * 1.001
    if kept_area(hi) > area_budget * total:
        raise ValueError("area budget unreachable: holes cannot grow enough")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if kept_area(mid) > area_budget * total:
            lo = mid
        else:
            hi = mid
    radius = hi  # smallest radius with kept area <= budget
    removed = (tri_d < radius).all(axis=1)
    # Build from the kept triangle list; selecting by vertex set instead
    # would resurrect removed triangles whose corners all survive through
    # neighboring triangles.
    sub = TriangleMesh(mesh.vertices, mesh.triangles[~removed])
    return sub, GroundTruth(sub.kept_vertices)


# -- evaluation ---------------------------------------------------------------


def princeton_error(assignment, gt, mesh_full):
    """Per-vertex normalized geodesic error of a partial-to-full assignment.

    ``assignment[x]`` is the predicted full-shape vertex for partial vertex x
    (negative = unassigned, reported as NaN).  Errors are geodesic distances
    on the full shape between prediction and ground truth, divided by the
    square root of the full shape's area.
    """
    assignment = np.asarray(assignment)
    targets = np.asarray(gt.correspondence)
    if len(assignment) != len(targets):
        raise ValueError("assignment and ground truth length mismatch")
    scale = np.sqrt(mesh_full.total_area)
    errors = np.full(len(assignment), np.nan)
    assigned = np.flatnonzero(assignment >= 0)
    if len(assigned) == 0:
        return errors
    sources, row = np.unique(targets[assigned], return_inverse=True)
    pred = assignment[assigned]
    dist = np.full(len(assigned), np.inf)
    # Dijkstra fills a row over vertices and edge midpoints per source;
    # blocks of sources keep only GEODESIC_BLOCK of those rows alive.  A
    # first pass stops at GEODESIC_LIMIT * scale, where most predictions
    # lie; a second, unbounded one runs only from the sources of rows it
    # did not reach.  The finite distances of both are exact.
    for limit in (GEODESIC_LIMIT * scale, np.inf):
        todo = np.unique(row[np.isinf(dist)])
        for first in range(0, len(todo), GEODESIC_BLOCK):
            block = todo[first:first + GEODESIC_BLOCK]
            dmat = mesh_full.geodesic_distances(sources[block], limit=limit)
            sel = np.flatnonzero(np.isin(row, block))
            dist[sel] = dmat[np.searchsorted(block, row[sel]), pred[sel]]
    errors[assigned] = dist / scale
    return errors


def cumulative_curve(errors, thresholds):
    """Fraction of (finite) errors at or below each finite threshold."""
    errors = np.asarray(errors, dtype=np.float64)
    errors = np.sort(errors[np.isfinite(errors)])
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if len(errors) == 0:
        return np.zeros_like(thresholds)
    return np.searchsorted(errors, thresholds, side="right") / len(errors)


# -- persistence --------------------------------------------------------------


def save_ground_truth(gt, path):
    save_csv(path, ["part_vertex", "full_vertex"],
             ([i, int(y)] for i, y in enumerate(gt.correspondence)))


def read_index_pairs(path):
    """(line, a, b) for every row after the header of a CSV of two integer
    columns; a ValueError names the path and line of a malformed row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    out = []
    for line, row in enumerate(rows, 2):
        try:
            a, b = map(int, row)
        except ValueError:
            raise ValueError(f"{path}:{line}: expected two integers") from None
        out.append((line, a, b))
    return out


def load_ground_truth(path, n_full=None):
    """Read what save_ground_truth wrote.  A ValueError names the path and
    line of the first row that does not give each of the n part vertices
    once a full vertex in 0..n_full-1 (any nonnegative one by default)."""
    rows = read_index_pairs(path)
    corr = np.full(len(rows), -1, dtype=np.int64)
    top = np.inf if n_full is None else n_full
    for line, part, full in rows:
        if not (0 <= part < len(rows) and corr[part] < 0 and 0 <= full < top):
            raise ValueError(f"{path}:{line}: part vertex {part} repeats or "
                             f"is outside 0..{len(rows) - 1}, or full vertex "
                             f"{full} is outside 0..{top - 1}")
        corr[part] = full
    return GroundTruth(corr)
