import tracemalloc

import numpy as np
import pytest

from scipy.spatial import cKDTree

from pfmatch import descriptors
from pfmatch.bench import bumpy_sphere, grid_mesh, icosphere, plane_cut
from pfmatch.descriptors import (DESCRIPTOR_DIM, MIN_NEIGHBORS, N_AZIMUTH,
                                 N_COS_BINS, N_ELEVATION, N_RADIAL, SHOT_BLOCK,
                                 DescriptorField, _frames, _neighbour_table,
                                 default_radius, shot_descriptors)
from pfmatch.mesh import TriangleMesh


def _lrf_loop(center, neighbors, radius):
    """Reference local frame: one centre at a time."""
    diff = neighbors - center
    dist = np.linalg.norm(diff, axis=1)
    w = radius - dist
    cov = (diff * w[:, None]).T @ diff / w.sum()
    evals, evecs = np.linalg.eigh(cov)  # ascending
    x_axis = evecs[:, 2]
    z_axis = evecs[:, 0]
    if np.sum(diff @ x_axis >= 0) < len(diff) / 2.0:
        x_axis = -x_axis
    if np.sum(diff @ z_axis >= 0) < len(diff) / 2.0:
        z_axis = -z_axis
    y_axis = np.cross(z_axis, x_axis)
    return np.vstack([x_axis, y_axis, z_axis])


def _shot_loop(mesh, radius):
    """Reference SHOT: the per-vertex loop that the batched code replaces."""
    pts = mesh.vertices
    normals = mesh.vertex_normals()
    neighbor_lists = cKDTree(pts).query_ball_point(pts, radius)
    n = mesh.n_vertices
    desc = np.zeros((n, DESCRIPTOR_DIM))
    flags = np.zeros(n, dtype=bool)
    for v in range(n):
        nbr = [u for u in neighbor_lists[v] if u != v]
        if len(nbr) < MIN_NEIGHBORS:
            flags[v] = True
            continue
        nbr = np.asarray(nbr)
        frame = _lrf_loop(pts[v], pts[nbr], radius)
        local = (pts[nbr] - pts[v]) @ frame.T
        dist = np.linalg.norm(local, axis=1)
        ok = dist > 1e-12 * radius
        local, dist, nbr = local[ok], dist[ok], nbr[ok]

        azimuth = np.arctan2(local[:, 1], local[:, 0])
        az_bin = np.minimum((azimuth + np.pi) / (2 * np.pi) * N_AZIMUTH,
                            N_AZIMUTH - 1e-9).astype(np.int64)
        el_bin = (local[:, 2] >= 0).astype(np.int64)
        rad_bin = (dist >= radius / 2.0).astype(np.int64)
        sector = (az_bin * N_ELEVATION + el_bin) * N_RADIAL + rad_bin

        cosang = np.clip(normals[nbr] @ normals[v], -1.0, 1.0)
        pos = (cosang + 1.0) / 2.0 * N_COS_BINS - 0.5
        lo = np.floor(pos).astype(np.int64)
        frac = pos - lo
        hist = np.zeros((N_AZIMUTH * N_ELEVATION * N_RADIAL, N_COS_BINS))
        # Lower bin, then upper bin, each clamped into the histogram.
        np.add.at(hist, (sector, np.maximum(lo, 0)), 1.0 - frac)
        np.add.at(hist, (sector, np.minimum(lo + 1, N_COS_BINS - 1)), frac)

        flat = hist.reshape(-1)
        norm = np.linalg.norm(flat)
        if norm > 0:
            desc[v] = flat / norm
        else:
            flags[v] = True
    return desc, flags


def _neighbour_table_argsort(pts, radius):
    """Reference: the neighbour table ordered by an argsort of the keys
    centre * n + neighbour."""
    n = len(pts)
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    centre = np.concatenate([pairs[:, 0], pairs[:, 1]])
    nbr = np.concatenate([pairs[:, 1], pairs[:, 0]])
    nbr = nbr[np.argsort(centre * n + nbr)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(centre, minlength=n), out=indptr[1:])
    return indptr, nbr


def _folded_sheets():
    """Two 8 x 8 grids folded at a right angle along their y = 0 edge, each
    with its own vertex ids, so the 9 edge vertices of each sheet have a
    coincident neighbour on the other."""
    flat = grid_mesh(8)
    x, y, _ = flat.vertices.T
    angle = np.pi / 2
    folded = np.column_stack([x, y * np.cos(angle), y * np.sin(angle)])
    with pytest.warns(UserWarning, match="2 connected components"):
        return TriangleMesh(np.vstack([flat.vertices, folded]),
                            np.vstack([flat.triangles,
                                       flat.triangles + flat.n_vertices]))


def _creased_sheet():
    """An 8 x 8 grid whose half y > 0.5 is folded back by 160 degrees: at
    radius 0.3 a sector of one centre can hold cosines below -1 + 1/11 and
    at or above 1 - 1/11, which spill over the end bins, beside ordinary
    terms of those bins."""
    flat = grid_mesh(8)
    x, y, _ = flat.vertices.T
    angle = np.radians(160)
    t = np.maximum(y - 0.5, 0.0)
    creased = np.column_stack([x, np.minimum(y, 0.5) + t * np.cos(angle),
                               t * np.sin(angle)])
    return TriangleMesh(creased, flat.triangles)


def rotation_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis /= np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def test_dimension(square_grid):
    field = shot_descriptors(square_grid, radius=0.25)
    assert field.values.shape == (square_grid.n_vertices, 352)
    assert field.dim == DESCRIPTOR_DIM == 352


def test_default_radius(square_grid):
    # Unit-area grid: 18% of sqrt(1).
    assert np.isclose(default_radius(square_grid), 0.18)


def test_unit_norm(square_grid):
    field = shot_descriptors(square_grid, radius=0.3)
    norms = np.linalg.norm(field.values, axis=1)
    assert np.allclose(norms[~field.flags], 1.0)
    assert np.allclose(norms[field.flags], 0.0)


def test_sparse_support_flagged(square_grid):
    # Radius below the grid spacing leaves every vertex without neighbors.
    field = shot_descriptors(square_grid, radius=0.05)
    assert field.flags.all()
    assert np.allclose(field.values, 0.0)


def test_flat_plane_top_cosine_bin(square_grid):
    # On a flat grid all normals agree, so only the last cosine bin of each
    # occupied sector can carry mass.
    field = shot_descriptors(square_grid, radius=0.3)
    hist = field.values.reshape(square_grid.n_vertices, 32, 11)
    assert np.allclose(hist[:, :, :10], 0.0, atol=1e-12)


def test_rigid_invariance(bumpy, rng):
    # An asymmetric shape keeps the local frames unambiguous; on locally
    # symmetric geometry the in-plane covariance axes are degenerate and the
    # descriptor is legitimately frame dependent.
    field = shot_descriptors(bumpy, radius=0.6)

    R = rotation_matrix([1.0, 2.0, 0.5], 1.234)
    shift = np.array([3.0, -2.0, 0.7])
    moved = TriangleMesh(bumpy.vertices @ R.T + shift, bumpy.triangles)
    field_m = shot_descriptors(moved, radius=0.6)

    diffs = np.linalg.norm(field.values - field_m.values, axis=1)
    # Near-tied frames may still flip on a handful of vertices.
    assert np.median(diffs) < 1e-9
    assert np.mean(diffs < 1e-6) > 0.9


def test_locality(square_grid):
    # Editing geometry far from a vertex leaves its descriptor unchanged.
    base = shot_descriptors(square_grid, radius=0.2)
    verts = square_grid.vertices.copy()
    far = np.linalg.norm(verts - [1.0, 1.0, 0.0], axis=1) < 0.25
    verts[far, 2] += 0.3
    edited = TriangleMesh(verts, square_grid.triangles)
    field = shot_descriptors(edited, radius=0.2)
    origin = int(np.argmin(np.linalg.norm(square_grid.vertices, axis=1)))
    assert np.allclose(base.values[origin], field.values[origin], atol=1e-9)


def test_distinguishes_geometry():
    flat = grid_mesh(8)
    verts = flat.vertices.copy()
    verts[:, 2] = 0.5 * np.sin(2 * np.pi * verts[:, 0])
    wavy = TriangleMesh(verts, flat.triangles)
    a = shot_descriptors(flat, radius=0.3)
    b = shot_descriptors(wavy, radius=0.3)
    center = int(np.argmin(np.linalg.norm(
        flat.vertices - [0.5, 0.5, 0.0], axis=1)))
    assert np.linalg.norm(a.values[center] - b.values[center]) > 0.05


def test_lrf_orthonormal_right_handed(rng):
    pts = rng.standard_normal((40, 3)) * 0.2
    center = np.zeros(3)
    frame = _frames([(pts - center)[None]], 1.0)[0]
    assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-12)
    assert np.isclose(np.linalg.det(frame), 1.0)


def test_invalid_radius(square_grid):
    for radius in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError,
                           match="radius must be positive and finite"):
            shot_descriptors(square_grid, radius)


def _cut_bumpy():
    part, _ = plane_cut(bumpy_sphere(3), [0.0, 0.0, 0.2], [0.0, 0.0, 1.0])
    return part


@pytest.mark.parametrize("make_mesh, radius", [
    (lambda: grid_mesh(8), 0.3),     # flat: degenerate in-plane frames
    (lambda: grid_mesh(8), 0.05),    # below the spacing: all flagged
    (lambda: grid_mesh(30), 0.1),    # more vertices than one block
    (lambda: bumpy_sphere(3), 0.6),
    (_cut_bumpy, 0.3),               # boundary vertices
    (lambda: bumpy_sphere(3), 0.15),  # flagged and unflagged in one block
    (_folded_sheets, 0.3),           # neighbours that coincide with a centre
    (_creased_sheet, 0.3),           # spills and ordinary terms in end bins
], ids=["grid8-r0.3", "grid8-r0.05", "grid30-r0.1", "bumpy-r0.6",
        "cut-r0.3", "bumpy-r0.15", "folded-r0.3", "creased-r0.3"])
def test_shot_matches_loop_exactly(make_mesh, radius):
    mesh = make_mesh()
    field = shot_descriptors(mesh, radius=radius)
    desc, flags = _shot_loop(mesh, radius)
    assert np.array_equal(field.flags, flags)
    assert np.array_equal(field.values, desc)


def _stacked_sheets():
    """Six coincident copies of a 2 x 2 grid (spacing 0.5) beside an 8 x 8
    grid: at radius 0.3 each vertex of the copies has exactly its 5
    coincident twins as neighbours, so no neighbour survives the filter."""
    small, big = grid_mesh(2), grid_mesh(8)
    parts = [small] * 6 + [TriangleMesh(big.vertices + [2.0, 0.0, 0.0],
                                        big.triangles)]
    first = np.cumsum([0] + [m.n_vertices for m in parts[:-1]])
    with pytest.warns(UserWarning, match="7 connected components"):
        return TriangleMesh(np.vstack([m.vertices for m in parts]),
                            np.vstack([m.triangles + f
                                       for m, f in zip(parts, first)]))


def test_shot_matches_loop_on_coincident_support():
    mesh = _stacked_sheets()
    field = shot_descriptors(mesh, radius=0.3)
    desc, flags = _shot_loop(mesh, 0.3)
    assert np.array_equal(field.flags, flags)
    assert np.array_equal(field.values, desc)


def _visited_blocks(monkeypatch, mesh, radius):
    """Neighbour counts of the centres of each block that shot_descriptors
    hands to _histograms, and the descriptor flags."""
    blocks = []
    histograms = descriptors._histograms

    def spy(centres, indptr, *args):
        blocks.append(np.diff(indptr)[centres])
        return histograms(centres, indptr, *args)

    monkeypatch.setattr(descriptors, "_histograms", spy)
    return blocks, shot_descriptors(mesh, radius).flags


def test_shot_reference_cases_cover_blocks(monkeypatch):
    # The reference cases must reach the block logic they are for.
    blocks, flags = _visited_blocks(monkeypatch, bumpy_sphere(3), 0.6)
    counts = np.concatenate(blocks)
    assert len(counts) == len(flags) and np.all(np.diff(counts) >= 0)
    assert all(len(b) <= SHOT_BLOCK for b in blocks)
    # A block holds several runs of equal count, the last of which goes on
    # in the next block.
    assert any(len(np.unique(a)) > 1 and a[-1] == b[0]
               for a, b in zip(blocks[:-1], blocks[1:]))

    grid_blocks, _ = _visited_blocks(monkeypatch, grid_mesh(30), 0.1)
    assert len(grid_blocks) > 1

    # Sparse centres never enter a block; the others all do.
    mesh = bumpy_sphere(3)
    indptr, _ = _neighbour_table(mesh.vertices, 0.15)
    sparse = np.diff(indptr) < MIN_NEIGHBORS
    blocks, flags = _visited_blocks(monkeypatch, mesh, 0.15)
    assert sparse.any() and not sparse.all()
    assert len(np.concatenate(blocks)) == np.count_nonzero(~sparse)
    assert np.array_equal(flags, sparse)

    # A centre whose neighbours all coincide with it gets a zero histogram
    # and is flagged in a block beside unflagged centres.
    blocks, flags = _visited_blocks(monkeypatch, _stacked_sheets(), 0.3)
    assert np.count_nonzero(blocks[0] == MIN_NEIGHBORS) == 54
    assert len(blocks[0]) == SHOT_BLOCK
    assert np.count_nonzero(flags) == 54


def test_shot_invariant_under_relabelling(rng):
    # Visits follow neighbour counts, so relabelling the vertices reorders
    # blocks and the neighbours inside each support.
    mesh = bumpy_sphere(3)
    perm = rng.permutation(mesh.n_vertices)
    relabelled = TriangleMesh(mesh.vertices[perm],
                              np.argsort(perm)[mesh.triangles])
    for radius in (0.15, 0.6):
        field = shot_descriptors(mesh, radius)
        moved = shot_descriptors(relabelled, radius)
        assert np.array_equal(moved.flags, field.flags[perm])
        assert np.allclose(moved.values, field.values[perm], rtol=0,
                           atol=1e-12)


def test_lrf_matches_loop_exactly(rng):
    for _ in range(5):
        pts = rng.standard_normal((40, 3)) * 0.2
        center = rng.standard_normal(3) * 0.01
        assert np.array_equal(_frames([(pts - center)[None]], 1.0)[0],
                              _lrf_loop(center, pts, 1.0))


def test_neighbour_table_matches_argsort():
    sheets = _folded_sheets().vertices
    # The last point has no neighbour within the radius.
    lonely = np.vstack([sheets, [[5.0, 5.0, 5.0]]])
    for pts, radius in ((lonely, 0.3), (bumpy_sphere(3).vertices, 0.15),
                        (grid_mesh(30).vertices, 0.1)):
        indptr, nbr = _neighbour_table(pts, radius)
        ref_indptr, ref_nbr = _neighbour_table_argsort(pts, radius)
        assert np.array_equal(indptr, ref_indptr)
        assert np.array_equal(nbr, ref_nbr)
    indptr, nbr = _neighbour_table(lonely, 0.3)
    assert indptr[-1] == indptr[-2]
    # The folded case reaches the filter on coincident neighbours.
    owner = np.repeat(np.arange(len(lonely)), np.diff(indptr))
    coincident = np.all(lonely[nbr] == lonely[owner], axis=1)
    assert len(np.unique(owner[coincident])) == 18


def test_neighbour_table_key_width(rng):
    # 32-bit keys while centre * n + neighbour fits them, 64-bit from
    # n = 46341, where n * n passes 2**31 - 1; the random points at that
    # radius make a few thousand pairs.
    for pts, radius, dtype in ((bumpy_sphere(3).vertices, 0.3, np.int32),
                               (rng.random((46341, 3)), 0.009, np.int64)):
        indptr, nbr = _neighbour_table(pts, radius)
        ref_indptr, ref_nbr = _neighbour_table_argsort(pts, radius)
        assert nbr.dtype == dtype and len(nbr) > 1000
        assert np.array_equal(indptr, ref_indptr)
        assert np.array_equal(nbr, ref_nbr)


def test_neighbour_table_is_its_only_large_array():
    # The keys are built, sorted and reduced in the array that is returned,
    # so the call's traced peak stays near the table's own size.
    mesh = bumpy_sphere(4)
    radius = default_radius(mesh)
    tracemalloc.start()
    try:
        _, nbr = _neighbour_table(mesh.vertices, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nbr.nbytes > 1e6
    assert peak <= 1.25 * nbr.nbytes
