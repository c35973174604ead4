"""End-to-end acceptance suite.

Each test prints a single pass/fail line (visible with -s or in failure
output) and asserts the quantitative threshold it reports.
"""

import csv
import os
import time

import numpy as np
import pytest
import scipy.linalg

from pfmatch.bench import (GroundTruth, bumpy_sphere, grid_mesh, icosphere,
                           plane_cut, plane_offset_for_area, princeton_error)
from pfmatch.energy import (EnergyParams, MatchProblem, area_term, eta,
                            mumford_shah, orthogonality_term, slant_term)
from pfmatch.laplacian import EigensolveError, SpectralBasis, mesh_basis
from pfmatch.matio import save_matrix
from pfmatch.mesh import TriangleMesh
from pfmatch.solver import SolverOptions, c_objective, match, v_objective
from pfmatch.spectral import (build_d_vector, build_weight_matrix,
                              eigenvalue_derivative, eigenvector_derivative,
                              estimate_rank, ground_truth_map,
                              perturbation_setup)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def fd_gradient(fun, x, h=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    for i in range(x.size):
        xp = x.copy(); xp.flat[i] += h
        xm = x.copy(); xm.flat[i] -= h
        g.flat[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def rel_err(analytic, numeric):
    scale = max(np.linalg.norm(numeric), 1.0)
    return np.linalg.norm(analytic - numeric) / scale


# -- shared heavy fixtures -----------------------------------------------------


@pytest.fixture(scope="module")
def cut_sphere():
    """Plane-cut icosphere (642 vertices) with complete block eigenbases."""
    mesh = icosphere(3)
    part_ids = np.flatnonzero(mesh.vertices[:, 2] >= 0.12)
    setup = perturbation_setup(mesh, part_ids)

    def full_basis(K, mass):
        vals, vecs = scipy.linalg.eigh(K.toarray(), np.diag(mass))
        return SpectralBasis(vals, vecs, mass)

    bp = full_basis(setup.K_part, setup.mass_part)
    bc = full_basis(setup.K_comp, setup.mass_comp)
    S = np.concatenate([setup.mass_part, setup.mass_comp])
    union = np.sort(np.concatenate([bp.eigenvalues, bc.eigenvalues]))
    return dict(mesh=mesh, setup=setup, bp=bp, bc=bc, S=S, union=union)


def bend_and_move(mesh, angle_per_z=0.05):
    """Mild near-isometric bend (rotation angle linear in z) plus a fixed
    rigid motion.

    The twist shears the surface by roughly angle_per_z times the distance
    from the axis, so small angles keep the deformation near-isometric.
    """
    v = mesh.vertices
    theta = angle_per_z * v[:, 2]
    c, s = np.cos(theta), np.sin(theta)
    bent = np.column_stack([v[:, 0] * c - v[:, 1] * s,
                            v[:, 0] * s + v[:, 1] * c,
                            v[:, 2]])
    rot = 0.7
    R = np.array([[np.cos(rot), 0.0, np.sin(rot)],
                  [0.0, 1.0, 0.0],
                  [-np.sin(rot), 0.0, np.cos(rot)]])
    return TriangleMesh(bent @ R.T + np.array([2.0, -1.0, 0.5]),
                        mesh.triangles)


def run_end_to_end():
    """One full matching run of the bumpy-sphere benchmark pair."""
    full = bumpy_sphere(4, n_bumps=16, amplitude=0.35, width=0.25)
    deformed = bend_and_move(full)
    point = plane_offset_for_area(deformed, [0.0, 0.0, 1.0], 0.6)
    part, gt = plane_cut(deformed, point, [0.0, 0.0, 1.0])

    result = match(part, full, EnergyParams(k=100))
    errors = princeton_error(result.sigma, gt, full)
    return dict(result=result, errors=errors, gt=gt, full=full, part=part)


@pytest.fixture(scope="module")
def end_to_end():
    start = time.perf_counter()
    first = run_end_to_end()
    first["runtime"] = time.perf_counter() - start
    second = run_end_to_end()
    return first, second


# -- criteria -------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(123)
    for trial in range(20):
        n_cells = int(rng.integers(4, 6))
        mesh = grid_mesh(n_cells)
        verts = mesh.vertices.copy()
        verts[:, 2] = 0.05 * rng.standard_normal(len(verts))
        mesh = TriangleMesh(verts, mesh.triangles)
        n = mesh.n_vertices
        assert n <= 50
        k = int(rng.integers(4, 12))
        q = int(rng.integers(4, 15))
        basis = mesh_basis(mesh, k)
        A = rng.standard_normal((k, q))
        G = rng.standard_normal((n, q))
        C = rng.standard_normal((k, k))
        v = rng.standard_normal(n)
        W = build_weight_matrix(k, max(k // 2, 1), 0.03)
        d = build_d_vector(k, max(k // 2, 1))
        Psi, mass = basis.eigenvectors, basis.mass

        # The data term alone, through the solver's objectives of C and v.
        prob = MatchProblem(A=A, Psi=Psi, mass=mass, G=G, mesh_full=mesh,
                            area_part=0.4, W=W, d=d, F=np.zeros((1, q)),
                            dim=q)
        data_only = EnergyParams(mu1=0.0, mu2=0.0, mu3=0.0, mu4_5=0.0, k=k)
        f_C = c_objective(prob, data_only, v)
        worst = max(worst, rel_err(f_C(C.ravel())[1], fd_gradient(
            lambda x: f_C(x)[0], C.ravel())))
        f_v = v_objective(prob, data_only, C)
        worst = max(worst, rel_err(f_v(v)[1], fd_gradient(
            lambda x: f_v(x)[0], v)))

        _, ga = area_term(v, 0.4, mass)
        worst = max(worst, rel_err(ga, fd_gradient(
            lambda x: area_term(x, 0.4, mass)[0], v)))

        _, gm = mumford_shah(v, mesh, 0.5)
        worst = max(worst, rel_err(gm, fd_gradient(
            lambda x: mumford_shah(x, mesh, 0.5)[0], v)))

        _, gs = slant_term(C, W)
        worst = max(worst, rel_err(gs, fd_gradient(
            lambda x: slant_term(x.reshape(k, k), W)[0],
            C.ravel()).reshape(k, k)))

        _, go = orthogonality_term(C, d)
        worst = max(worst, rel_err(go, fd_gradient(
            lambda x: orthogonality_term(x.reshape(k, k), d)[0],
            C.ravel()).reshape(k, k)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report(1, ok, f"20 randomized instances, worst gradient relative error "
                  f"{worst:.2e} (tol 1e-4), runtime {elapsed:.1f}s (< 30s)")


def test_criterion_2_eigenvalue_derivative(cut_sphere):
    start = time.perf_counter()
    setup, bp, S = cut_sphere["setup"], cut_sphere["bp"], cut_sphere["S"]
    union = cut_sphere["union"]
    h = 1e-4
    lam_h = scipy.linalg.eigh(setup.stiffness(h).toarray(), np.diag(S),
                              eigvals_only=True)
    scale = union[60]
    checked = []
    for i in range(1, len(bp.eigenvalues)):
        if len(checked) == 10:
            break
        lam_i = bp.eigenvalues[i]
        gaps = np.sort(np.abs(union - lam_i))
        if gaps[1] < 1e-3 * scale:  # not simple in the merged spectrum
            continue
        pos = int(np.argmin(np.abs(union - lam_i)))
        fd = (lam_h[pos] - union[pos]) / h
        pred = eigenvalue_derivative(bp, setup.P_part, i)
        checked.append(abs(pred - fd) / max(abs(fd), 1e-300))
    elapsed = time.perf_counter() - start
    worst = max(checked)
    ok = len(checked) == 10 and worst < 1e-2 and elapsed < 60.0
    report(2, ok, f"first {len(checked)} simple eigenvalue derivatives, worst "
                  f"relative error {worst:.2e} (tol 1e-2), "
                  f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_3_eigenvector_derivative(cut_sphere):
    setup, bp, bc = cut_sphere["setup"], cut_sphere["bp"], cut_sphere["bc"]
    S, union = cut_sphere["S"], cut_sphere["union"]
    h = 1e-4
    vals_h, vecs_h = scipy.linalg.eigh(setup.stiffness(h).toarray(),
                                       np.diag(S))
    scale = union[60]
    checked = []
    n_part = setup.n_part
    for i in range(1, len(bp.eigenvalues)):
        if len(checked) == 5:
            break
        lam_i = bp.eigenvalues[i]
        gaps = np.sort(np.abs(union - lam_i))
        if gaps[1] < 1e-3 * scale:
            continue
        ref = np.concatenate([bp.eigenvectors[:, i], np.zeros(setup.n_comp)])
        pos = int(np.argmin(np.abs(vals_h - lam_i)))
        v_h = vecs_h[:, pos]
        if v_h @ (S * ref) < 0:  # overlap-based sign alignment
            v_h = -v_h
        fd = (v_h - ref) / h
        pred = eigenvector_derivative(bp, bc, setup.P_part, setup.P_cross, i)
        checked.append(np.linalg.norm(pred - fd) /
                       max(np.linalg.norm(fd), 1e-300))
    worst = max(checked)
    ok = len(checked) == 5 and worst < 5e-2
    report(3, ok, f"first {len(checked)} simple eigenvector derivatives, "
                  f"worst relative error {worst:.2e} (tol 5e-2)")


def test_criterion_4_interleaving(cut_sphere):
    setup, S = cut_sphere["setup"], cut_sphere["S"]
    union = cut_sphere["union"]
    lam0 = scipy.linalg.eigh(setup.stiffness(0.0).toarray(), np.diag(S),
                             eigvals_only=True)
    scale = max(abs(union[-1]), 1e-300)
    worst = np.max(np.abs(lam0 - union)) / scale
    ok = worst < 1e-8
    report(4, ok, f"block-diagonal spectrum equals merge-sorted sub-spectra, "
                  f"worst relative deviation {worst:.2e} (tol 1e-8)")


def test_criterion_5_slope_estimate():
    mesh = icosphere(3)
    k = 50
    basis_full = mesh_basis(mesh, k)
    # The closed sphere has no boundary while the cut part does, so the
    # Neumann boundary term of Weyl's counting law biases the slope upward
    # by roughly L*sqrt(lambda_k)/(4 pi k); the 0.12 tolerance absorbs it up
    # to roughly half-area cuts.  The middle instance reproduces the 21/50
    # reference slope.
    details = []
    ok = True
    for target in (0.2, 0.3, 0.5):
        point = plane_offset_for_area(mesh, [0.0, 0.0, 1.0], target)
        part, _ = plane_cut(mesh, point, [0.0, 0.0, 1.0])
        alpha = part.total_area / mesh.total_area
        basis_part = mesh_basis(part, k)
        r = estimate_rank(basis_part.eigenvalues, basis_full.eigenvalues, k)
        slope = r / k
        details.append(f"alpha={alpha:.3f} slope={slope:.3f}")
        ok = ok and abs(slope - alpha) <= 0.12
    report(5, ok, "estimated slope within 0.12 of kept-area fraction: "
                  + ", ".join(details))


def test_criterion_6_ground_truth_structure():
    mesh = icosphere(3)
    point = plane_offset_for_area(mesh, [0.0, 0.0, 1.0], 0.6)
    part, gt = plane_cut(mesh, point, [0.0, 0.0, 1.0])
    k = 50
    basis_full = mesh_basis(mesh, k)
    basis_part = mesh_basis(part, k)
    C = ground_truth_map(basis_part, basis_full, gt.correspondence, k)
    r = max(estimate_rank(basis_part.eigenvalues, basis_full.eigenvalues, k),
            1)
    W = build_weight_matrix(k, r, 0.03)
    total = np.sum(C ** 2)
    band = W < np.median(W)
    in_band = np.sum(C[band] ** 2) / total
    tail = np.sum(C[:, r:] ** 2) / total
    ok = in_band >= 0.70 and tail < 0.10
    report(6, ok, f"ground-truth map: {100 * in_band:.1f}% of energy in the "
                  f"low-weight band (need >= 70%), last k-r columns carry "
                  f"{100 * tail:.1f}% (need < 10%)")


def test_criterion_7_end_to_end(end_to_end):
    first, _ = end_to_end
    errors = first["errors"]
    finite = errors[np.isfinite(errors)]
    mean = float(finite.mean())
    frac05 = float((finite < 0.05).mean())
    outer = len(first["result"].energy_trace)
    runtime = first["runtime"]
    ok = (len(finite) == len(errors) and mean < 0.01 and frac05 >= 0.99
          and outer <= 5 and runtime < 600.0)
    report(7, ok, f"end-to-end: mean error {mean:.4f} (< 0.01), "
                  f"{100 * frac05:.1f}% below 0.05 (>= 99%), "
                  f"{outer} outer iterations (<= 5), "
                  f"runtime {runtime:.0f}s (< 600s)")


def test_criterion_8_monotonicity(end_to_end):
    first, _ = end_to_end
    result = first["result"]
    totals = [b.total for b in result.energy_trace]
    slack = 1e-6 * max(abs(t) for t in totals)
    outer_ok = all(b <= a + slack for a, b in zip(totals, totals[1:]))
    res = result.refine_residuals
    refine_ok = all(r2 <= r1 * (1 + 1e-9) for r1, r2 in zip(res, res[1:]))
    ok = outer_ok and refine_ok
    report(8, ok, f"outer energy non-increasing over {len(totals)} iterations "
                  f"(1e-6 slack): {outer_ok}; refinement residuals "
                  f"non-increasing: {refine_ok}")


def test_criterion_9_spectra_sanity():
    grid = grid_mesh(30)
    lam = mesh_basis(grid, 13).eigenvalues
    nonzero = lam[lam > 1e-6][:10]
    analytic = np.pi ** 2 * np.array([1, 1, 2, 4, 4, 5, 5, 8, 9, 9],
                                     dtype=np.float64)
    grid_err = np.max(np.abs(nonzero - analytic) / analytic)

    sphere = icosphere(3)
    lam_s = mesh_basis(sphere, 25).eigenvalues
    analytic_s = np.repeat([2.0, 6.0, 12.0, 20.0], [3, 5, 7, 9])
    sphere_err = np.max(np.abs(lam_s[1:25] - analytic_s) / analytic_s)
    ok = grid_err < 0.03 and sphere_err < 0.03
    report(9, ok, f"Neumann square spectrum max error {100 * grid_err:.2f}%, "
                  f"sphere spectrum (l <= 4) max error "
                  f"{100 * sphere_err:.2f}% (tol 3%)")


def test_criterion_10_determinism(end_to_end, tmp_path):
    first, second = end_to_end
    blobs = []
    for idx, run in enumerate((first, second)):
        out = tmp_path / f"run{idx}"
        os.makedirs(out)
        save_matrix(out / "C.bin", run["result"].C)
        with open(out / "pi.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["full_vertex", "part_vertex"])
            for i, p in enumerate(run["result"].pi):
                w.writerow([i, int(p)])
        blobs.append(((out / "C.bin").read_bytes(),
                      (out / "pi.csv").read_bytes()))
    ok = blobs[0] == blobs[1]
    report(10, ok, "two independent end-to-end runs produce byte-identical "
                   f"C.bin and pi.csv: {ok}")


# -- invariance: ROADMAP items 1 and 8, pinned as strict xfails ----------------


def sweep_pair(subdivisions, index, keep_fraction=0.6):
    """(part, full) of sweep pair ``index``: perfbench's bumpy sphere of seed
    SeedSequence([950, index]), twisted and moved, and cut by a plane that
    keeps ``keep_fraction`` of its area."""
    seed = int(np.random.SeedSequence([950, index]).generate_state(1)[0])
    full = bumpy_sphere(subdivisions, n_bumps=16, amplitude=0.35, width=0.25,
                        seed=seed)
    deformed = bend_and_move(full)
    point = plane_offset_for_area(deformed, [0.0, 0.0, 1.0], keep_fraction)
    part, _ = plane_cut(deformed, point, [0.0, 0.0, 1.0])
    return part, full


@pytest.fixture(scope="module")
def capped_match():
    """Sweep pair 0 at 642 full vertices, matched at k = 50 under the
    match-642 workload's capped options."""
    part, full = sweep_pair(3, 0)
    params = EnergyParams(k=50)
    opts = SolverOptions(max_outer=2, refine_max_iter=8, cg_max_iter=40)
    return part, full, params, opts, match(part, full, params, opts)


@pytest.mark.parametrize("exponent", [
    pytest.param(9, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the energy's weights depend on the unit of the meshes "
        "(ROADMAP item 1)")),
    pytest.param(-20, marks=pytest.mark.xfail(
        strict=True, raises=EigensolveError,
        reason="laplacian.SHIFT is absolute, so A - SHIFT I of a small mesh "
        "does not factor (ROADMAP items 1 and 7)")),
])
def test_match_does_not_depend_on_the_unit(capped_match, exponent):
    # Scaling by 2^j is exact, so a match in a scale-free unit gives the
    # same bits at every j.
    part, full, params, opts, ref = capped_match
    got = match(*(TriangleMesh(np.ldexp(m.vertices, exponent), m.triangles)
                  for m in (part, full)), params, opts)
    same = (got.C.tobytes() == ref.C.tobytes()
            and got.v.tobytes() == ref.v.tobytes()
            and np.array_equal(got.sigma, ref.sigma))
    report(f"item 1 at 2^{exponent}", same,
           f"C, v and sigma byte-identical to scale 1: {same} (sigma agrees "
           f"on {np.mean(got.sigma == ref.sigma):.1%})")


@pytest.fixture(scope="module")
def default_match():
    """Sweep pair 3 at 162 full vertices, matched at k = 30 and default
    options: small, and far from invariant at one and at two BLAS threads."""
    part, full = sweep_pair(2, 3)
    params = EnergyParams(k=30)
    return part, full, params, match(part, full, params)


def report_agreement(what, share):
    report(f"item 8, {what}", share >= 0.99,
           f"sigma agrees with the unmoved match on {share:.1%} of the part "
           "(need >= 99%)")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at default options sigma depends on rounding "
                   "(ROADMAP item 8)")
def test_sigma_survives_a_rigid_motion_of_the_part(default_match):
    part, full, params, ref = default_match
    a, b = 0.9, 0.4
    Rz = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0],
                   [0.0, 0.0, 1.0]])
    Rx = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(b), -np.sin(b)],
                   [0.0, np.sin(b), np.cos(b)]])
    moved = TriangleMesh(part.vertices @ (Rz @ Rx).T + 3.0, part.triangles)
    got = match(moved, full, params)
    report_agreement("rigid motion", np.mean(got.sigma == ref.sigma))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at default options sigma depends on rounding "
                   "(ROADMAP item 8)")
def test_sigma_survives_relabelling_the_full_shape(default_match):
    part, full, params, ref = default_match
    perm = np.random.default_rng(0).permutation(full.n_vertices)
    relabelled = TriangleMesh(full.vertices[perm],
                              np.argsort(perm)[full.triangles])
    got = match(part, relabelled, params)
    report_agreement("relabelling", np.mean(perm[got.sigma] == ref.sigma))
