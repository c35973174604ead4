import warnings

import numpy as np
import pytest

from pfmatch.bench import (GEODESIC_BLOCK, GEODESIC_LIMIT, bumpy_sphere,
                           cumulative_curve, erode_holes, grid_mesh,
                           icosphere, plane_cut,
                           plane_offset_for_area, princeton_error,
                           load_ground_truth, save_ground_truth)


def test_grid_mesh_counts():
    mesh = grid_mesh(10)
    assert mesh.n_vertices == 121
    assert mesh.n_triangles == 200
    assert np.isclose(mesh.total_area, 1.0)


def test_grid_mesh_rectangular():
    mesh = grid_mesh(4, 2, width=2.0, height=0.5)
    assert mesh.n_vertices == 15
    assert mesh.n_triangles == 16
    assert np.isclose(mesh.total_area, 1.0)


def test_icosphere_closed_area():
    mesh = icosphere(3)
    assert len(mesh.boundary_edges) == 0
    assert abs(mesh.total_area - 4 * np.pi) < 0.01 * 4 * np.pi
    scaled = icosphere(2, radius=2.0)
    assert abs(scaled.total_area - 16 * np.pi) < 0.04 * 16 * np.pi


def test_bumpy_sphere_reproducible():
    a = bumpy_sphere(2, seed=11)
    b = bumpy_sphere(2, seed=11)
    c = bumpy_sphere(2, seed=12)
    assert np.array_equal(a.vertices, b.vertices)
    assert not np.array_equal(a.vertices, c.vertices)
    assert len(a.boundary_edges) == 0


def test_plane_cut_positions_preserved(sphere):
    part, gt = plane_cut(sphere, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert np.array_equal(part.vertices, sphere.vertices[gt.correspondence])
    assert np.all(part.vertices[:, 2] >= 0.0)
    # A straddling triangle never survives: kept area is below the hemisphere.
    assert part.total_area < 0.5 * sphere.total_area


def test_plane_cut_whole_mesh(sphere):
    part, gt = plane_cut(sphere, [0.0, 0.0, -10.0], [0.0, 0.0, 1.0])
    assert part.n_vertices == sphere.n_vertices
    assert np.array_equal(gt.correspondence, np.arange(sphere.n_vertices))


def test_plane_cut_empty(sphere):
    with pytest.raises(ValueError):
        plane_cut(sphere, [0.0, 0.0, 10.0], [0.0, 0.0, 1.0])


def test_plane_offset_hits_fraction(sphere):
    for frac in (0.4, 0.6):
        point = plane_offset_for_area(sphere, [0.0, 0.0, 1.0], frac, tol=0.02)
        part, _ = plane_cut(sphere, point, [0.0, 0.0, 1.0])
        assert abs(part.total_area / sphere.total_area - frac) < 0.03


@pytest.mark.parametrize("frac", [1.5, 1.0, 0.0, -0.2])
def test_plane_offset_rejects_fraction_outside_unit_interval(sphere, frac):
    with pytest.raises(ValueError, match="keep fraction"):
        plane_offset_for_area(sphere, [0.0, 0.0, 1.0], frac)


def test_plane_cuts_reject_zero_normal(sphere):
    # A clear error, not a division by zero and an empty cut.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="normal is the zero vector"):
            plane_cut(sphere, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="normal is the zero vector"):
            plane_offset_for_area(sphere, [0.0, 0.0, 0.0], 0.5)


def _offset_by_cutting(mesh, normal, keep_fraction, tol=0.01):
    """The search as it was first written: one plane_cut mesh per step."""
    normal = np.asarray(normal, dtype=np.float64)
    normal = normal / np.linalg.norm(normal)
    proj = mesh.vertices @ normal
    lo, hi = proj.min() - 1e-9, proj.max() + 1e-9
    total = mesh.total_area
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        try:
            sub, _ = plane_cut(mesh, mid * normal, normal)
            frac = sub.total_area / total
        except ValueError:
            frac = 0.0
        if abs(frac - keep_fraction) < tol:
            return mid * normal
        if frac > keep_fraction:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * normal


def test_plane_offset_matches_cutting_loop():
    rng = np.random.default_rng(3)
    for mesh in (bumpy_sphere(subdivisions=3), bumpy_sphere(subdivisions=4)):
        for _ in range(4):
            normal = rng.normal(size=3)
            frac = rng.uniform(0.25, 0.7)
            for tol in (0.01, 1e-6):
                got = plane_offset_for_area(mesh, normal, frac, tol)
                ref = _offset_by_cutting(mesh, normal, frac, tol)
                assert got.tobytes() == ref.tobytes()


def test_erode_holes_budget(sphere):
    part, gt = erode_holes(sphere, seed_count=4, area_budget=0.7)
    frac = part.total_area / sphere.total_area
    assert frac <= 0.7 + 1e-9
    assert frac > 0.5  # smallest radius that satisfies the budget
    assert np.array_equal(part.vertices, sphere.vertices[gt.correspondence])
    # The seeds are the hole centers and must be gone.
    seeds, _ = sphere.farthest_point_sample(4, 0)
    assert not set(seeds) & set(gt.correspondence.tolist())


def test_erode_holes_validation(sphere):
    with pytest.raises(ValueError):
        erode_holes(sphere, 2, 1.5)


def test_princeton_error_perfect(square_grid):
    part, gt = plane_cut(square_grid, [0.4, 0.0, 0.0], [1.0, 0.0, 0.0])
    err = princeton_error(gt.correspondence, gt, square_grid)
    assert np.allclose(err, 0.0)


def test_princeton_error_neighbor(square_grid):
    # Predicting an adjacent vertex gives exactly the edge length over
    # sqrt(area); the grid has unit area and 0.1 spacing.
    part, gt = plane_cut(square_grid, [0.4, 0.0, 0.0], [1.0, 0.0, 0.0])
    pred = gt.correspondence.copy()
    pred[0] = gt.correspondence[0] + 1  # vertex one step along y
    err = princeton_error(pred, gt, square_grid)
    assert np.isclose(err[0], 0.1)
    assert np.allclose(np.delete(err, 0), 0.0)


def test_princeton_error_scale_invariant():
    small = grid_mesh(6)
    from pfmatch.mesh import TriangleMesh
    big = TriangleMesh(small.vertices * 5.0, small.triangles)
    _, gt_s = plane_cut(small, [0.4, 0.0, 0.0], [1.0, 0.0, 0.0])
    _, gt_b = plane_cut(big, [2.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    pred_s = gt_s.correspondence.copy(); pred_s[1] += 1
    pred_b = gt_b.correspondence.copy(); pred_b[1] += 1
    es = princeton_error(pred_s, gt_s, small)
    eb = princeton_error(pred_b, gt_b, big)
    assert np.isclose(es[1], eb[1])


def test_princeton_error_unassigned(square_grid):
    _, gt = plane_cut(square_grid, [0.4, 0.0, 0.0], [1.0, 0.0, 0.0])
    pred = gt.correspondence.copy()
    pred[2] = -1
    err = princeton_error(pred, gt, square_grid)
    assert np.isnan(err[2])
    assert np.isfinite(np.delete(err, 2)).all()


def test_princeton_error_nothing_assigned(square_grid):
    _, gt = plane_cut(square_grid, [0.4, 0.0, 0.0], [1.0, 0.0, 0.0])
    err = princeton_error(np.full(len(gt.correspondence), -1), gt, square_grid)
    assert err.shape == gt.correspondence.shape and np.isnan(err).all()


def _princeton_dense(assignment, gt, mesh_full):
    """Reference evaluation: one dense Dijkstra matrix over all sources."""
    targets = np.asarray(gt.correspondence)
    scale = np.sqrt(mesh_full.total_area)
    errors = np.full(len(assignment), np.nan)
    assigned = np.flatnonzero(assignment >= 0)
    if len(assigned) == 0:
        return errors
    sources = np.unique(targets[assigned])
    dmat = mesh_full.geodesic_distances(sources)
    row = {int(s): i for i, s in enumerate(sources)}
    for x in assigned:
        errors[x] = dmat[row[int(targets[x])], assignment[x]] / scale
    return errors


def test_princeton_error_matches_dense(rng):
    full = grid_mesh(30)
    _, gt = plane_cut(full, [0.3, 0.0, 0.0], [1.0, 0.0, 0.0])
    n = len(gt.correspondence)
    assert n > 2 * GEODESIC_BLOCK  # several blocks of sources
    pred = rng.integers(0, full.n_vertices, size=n)
    pred[rng.random(n) < 0.2] = -1        # unassigned vertices
    pred[rng.random(n) < 0.3] = 7         # many vertices share one prediction
    err = princeton_error(pred, gt, full)
    ref = _princeton_dense(pred, gt, full)
    assert np.isnan(err).any()
    assert np.array_equal(err, ref, equal_nan=True)


def test_princeton_error_bounded_pass_matches_dense(rng, bumpy):
    # Predictions on, next to and far from their targets: the bounded first
    # pass settles the near rows and the unbounded second pass the rest.
    _, gt = plane_cut(bumpy, [0.0, 0.0, -0.2], [0.0, 0.0, 1.0])
    n = len(gt.correspondence)
    edges = bumpy.edges
    nbr = np.full(bumpy.n_vertices, -1)
    nbr[edges[:, 0]] = edges[:, 1]
    pred = np.where(rng.random(n) < 0.5, gt.correspondence,
                    nbr[gt.correspondence])
    far = rng.random(n) < 0.3
    pred[far] = rng.integers(0, bumpy.n_vertices, far.sum())
    pred[rng.random(n) < 0.1] = -1
    err = princeton_error(pred, gt, bumpy)
    assert np.array_equal(err, _princeton_dense(pred, gt, bumpy),
                          equal_nan=True)
    assert (err == 0).any()
    assert ((err > 0) & (err <= GEODESIC_LIMIT)).any()
    assert (err > GEODESIC_LIMIT).sum() > GEODESIC_BLOCK


def test_princeton_error_length_mismatch(square_grid):
    _, gt = plane_cut(square_grid, [0.4, 0.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        princeton_error(gt.correspondence[:-1], gt, square_grid)


def test_cumulative_curve_basic():
    errors = [0.0, 0.05, 0.1, 0.2]
    curve = cumulative_curve(errors, [0.0, 0.05, 0.1, 0.15, 1.0])
    assert np.allclose(curve, [0.25, 0.5, 0.75, 0.75, 1.0])


@pytest.mark.parametrize("n", [10, 1000, 1811])
def test_cumulative_curve_equals_per_threshold_mean(n):
    # Errors that sit on thresholds, and repeats, count as at or below.
    rng = np.random.default_rng(n)
    thresholds = np.linspace(0.0, 0.25, 101)
    errors = np.round(rng.random(n) * 0.3, 2)
    errors[:3] = thresholds[[0, 20, 100]]
    assert np.array_equal(cumulative_curve(errors, thresholds),
                          [(errors <= t).mean() for t in thresholds])


def test_cumulative_curve_nan_dropped():
    curve = cumulative_curve([0.0, np.nan, 0.2], [0.1])
    assert np.isclose(curve[0], 0.5)
    assert np.allclose(cumulative_curve([np.nan], [0.1]), 0.0)


def test_ground_truth_round_trip(tmp_path, sphere):
    _, gt = plane_cut(sphere, [0.0, 0.0, 0.1], [0.0, 0.0, 1.0])
    path = tmp_path / "gt.csv"
    save_ground_truth(gt, path)
    back = load_ground_truth(path)
    assert np.array_equal(back.correspondence, gt.correspondence)
