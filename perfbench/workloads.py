"""The benchmark's workloads: inputs made from a seed, one match per
operation, and the checks of every output.

All pairs follow one recipe: a bumpy sphere (16 bumps, amplitude 0.35,
width 0.25), a near-isometric bend plus a rigid motion, and a plane cut whose
offset is searched so that it keeps a given share of the surface area.  The
descriptor support radius is 0.18 * sqrt(area of the full shape).
"""

import contextlib
import csv
import hashlib
import io
import os

import numpy as np

from pfmatch import bench, cli, descriptors, laplacian, matio, mesh, solver
from pfmatch.energy import EnergyParams

CUT_NORMAL = (0.0, 0.0, 1.0)
RADIUS_FRACTION = 0.18
# Thresholds of the cumulative error curve; ``pfmatch eval`` uses the same
# ones by default.
THRESHOLDS = np.linspace(0.0, 0.25, 101)
# Sanity bound on the mean over the pairs of a run.  Single pairs are not
# held to it: on a few shapes the method finds a poor match (mean error near
# 0.35, where a random assignment scores about 0.44) without anything being
# broken.
MIN_MEAN_AUC = 0.4


class CheckFailed(Exception):
    pass


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def pair_seed(seed, index):
    """Shape seed of pair ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def bend_and_move(shape, angle_per_z=0.05):
    """Near-isometric bend (rotation angle linear in z) and a fixed rigid
    motion."""
    v = shape.vertices
    theta = angle_per_z * v[:, 2]
    c, s = np.cos(theta), np.sin(theta)
    bent = np.column_stack([v[:, 0] * c - v[:, 1] * s,
                            v[:, 0] * s + v[:, 1] * c,
                            v[:, 2]])
    rot = 0.7
    R = np.array([[np.cos(rot), 0.0, np.sin(rot)],
                  [0.0, 1.0, 0.0],
                  [-np.sin(rot), 0.0, np.cos(rot)]])
    return mesh.TriangleMesh(bent @ R.T + np.array([2.0, -1.0, 0.5]),
                             shape.triangles)


def make_shapes(subdivisions, shape_seed):
    """(full model, its bent and moved copy)."""
    full = bench.bumpy_sphere(subdivisions, n_bumps=16, amplitude=0.35,
                              width=0.25, seed=shape_seed)
    return full, bend_and_move(full)


def digest(C, pi):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(C, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(pi, dtype="<i8").tobytes())
    return h.hexdigest()


def check_match(C, v, pi, k, n_full, n_part):
    check(C.shape == (k, k) and np.all(np.isfinite(C)), "C not finite k x k")
    check(v.shape == (n_full,) and np.all(np.isfinite(v)), "v not finite")
    check(pi.shape == (n_full,), "pi has the wrong length")
    check(pi.min() >= solver.UNASSIGNED and pi.max() < n_part,
          "pi index out of range")


def check_accuracy(acc, rank, k):
    check(1 <= rank <= k, f"rank {rank} outside [1, {k}]")
    check(np.isfinite(acc["mean_error"]) and acc["mean_error"] > 0.0,
          f"mean error {acc['mean_error']}")
    check(0.0 < acc["error_auc"] <= 1.0, "error curve area outside (0, 1]")
    check(0.0 < acc["coverage"] <= 1.0, "no partial vertex is assigned")


def pool_accuracy(accuracies):
    """Mean over the pairs of a run of each accuracy metric.

    Raises CheckFailed when the mean area under the error curve is below
    the sanity bound."""
    mean = {name: float(np.mean([a[name] for a in accuracies]))
            for name in accuracies[0]}
    check(mean["error_auc"] >= MIN_MEAN_AUC,
          f"mean error curve area {mean['error_auc']:.3f} under "
          f"{MIN_MEAN_AUC}")
    return mean


class InProcessMatch:
    """An in-process match through public functions, as acceptance
    criterion 7 runs it, at 642 full vertices and with capped solver
    iterations."""

    name = "match-642"
    subdivisions = 3
    keep_fraction = 0.6
    k = 50
    options = solver.SolverOptions(max_outer=2, refine_max_iter=8,
                                   cg_max_iter=40)
    pool = 16
    stage_wraps = ()

    def run(self, tracer, shape_seed, workdir):
        stage = tracer.stage
        with stage("stage.gen"):
            full, deformed = make_shapes(self.subdivisions, shape_seed)
            point = bench.plane_offset_for_area(deformed, CUT_NORMAL,
                                                self.keep_fraction)
            part, gt = bench.plane_cut(deformed, point, CUT_NORMAL)
            arrays = (full.vertices, full.triangles,
                      part.vertices, part.triangles)
        params = EnergyParams(k=self.k)
        with stage("stage.setup"):
            full = mesh.TriangleMesh(arrays[0], arrays[1])
            part = mesh.TriangleMesh(arrays[2], arrays[3])
            basis_full = laplacian.mesh_basis(full, self.k)
            basis_part = laplacian.mesh_basis(part, self.k)
            radius = RADIUS_FRACTION * np.sqrt(full.total_area)
            desc_full = descriptors.shot_descriptors(full, radius)
            desc_part = descriptors.shot_descriptors(part, radius)
            prob, rank = solver.build_problem(
                basis_part, basis_full, desc_part, desc_full, full,
                part.total_area, params)
        with stage("stage.solve"):
            result = solver.alternate(prob, params, basis_part.eigenvectors,
                                      self.options)
        with stage("stage.pointmap"):
            assignment = solver.nearest_columns(
                basis_part.eigenvectors @ result.C.T, prob.Psi)
        with stage("stage.eval"):
            errors = bench.princeton_error(assignment, gt, full)

        n_full, n_part = full.n_vertices, part.n_vertices
        check_match(result.C, result.v, result.pi, self.k, n_full, n_part)
        check(np.all(np.isfinite(errors)), "unassigned partial vertex")
        acc = {
            "mean_error": float(np.mean(errors)),
            "frac_below_0.05": float(np.mean(errors <= 0.05)),
            "error_auc": float(np.mean(
                bench.cumulative_curve(errors, THRESHOLDS))),
            "coverage": float(np.mean(
                solver.invert_assignment(result.pi, n_part) >= 0)),
        }
        check_accuracy(acc, rank, self.k)
        return acc, digest(result.C, result.pi)

    @staticmethod
    def times(spans):
        t = {s.name: s.duration for s in spans if s.name.startswith("stage.")}
        return {
            "gen_s": t["stage.gen"],
            "setup_s": t["stage.setup"],
            "solve_s": t["stage.solve"],
            "match_s": t["stage.setup"] + t["stage.solve"] +
            t["stage.pointmap"],
            "eval_s": t["stage.eval"],
        }


class CommandLine:
    """The ``pfmatch`` command run in-process through ``pfmatch.cli.main``:
    ``gen cut`` and ``gen holes`` on the deformed model, ``match`` against
    the undeformed one, then ``eval``."""

    name = "cli-2562"
    subdivisions = 4
    # 70% keeps the partial shape above laplacian.DENSE_FALLBACK_N on every
    # seed, so both eigensolves take the sparse path.
    keep_fraction = 0.7
    k = 30
    solver_flags = ("--max-outer", "1", "--cg-max-iter", "20")
    pool = 3
    # Where ``pfmatch match`` moves from set-up to solving.
    stage_wraps = ((solver, "alternate", "stage.solve"),)

    def run(self, tracer, shape_seed, workdir):
        stage = tracer.stage
        os.makedirs(workdir, exist_ok=True)
        p = {name: os.path.join(workdir, name) for name in
             ("full.ply", "deformed.ply", "cut", "holes", "out", "curve.csv")}
        with stage("stage.gen"):
            full, deformed = make_shapes(self.subdivisions, shape_seed)
            mesh.save_ply(full, p["full.ply"])
            mesh.save_ply(deformed, p["deformed.ply"])
            _cli("gen", "cut", "--mesh", p["deformed.ply"],
                 "--keep-fraction", str(self.keep_fraction),
                 "--out-prefix", p["cut"])
            _cli("gen", "holes", "--mesh", p["deformed.ply"], "--seeds", "4",
                 "--area-budget", "0.7", "--out-prefix", p["holes"])
        radius = RADIUS_FRACTION * np.sqrt(full.total_area)
        with stage("stage.match"):
            said_match = _cli("match", "--part", p["cut"] + "_part.ply",
                              "--full", p["full.ply"], "--out", p["out"],
                              "--k", str(self.k),
                              "--radius", repr(float(radius)),
                              *self.solver_flags)
        with stage("stage.eval"):
            said = _cli("eval", "--pi", os.path.join(p["out"], "pi.csv"),
                        "--gt", p["cut"] + "_gt.csv", "--full", p["full.ply"],
                        "--out", p["curve.csv"])

        gt = bench.load_ground_truth(p["cut"] + "_gt.csv")
        holes = bench.load_ground_truth(p["holes"] + "_gt.csv")
        n_full, n_part = full.n_vertices, len(gt.correspondence)
        check(0 < len(holes.correspondence) < n_full, "holes kept nothing")
        C = matio.load_matrix(os.path.join(p["out"], "C.bin"))
        v = _read_column(os.path.join(p["out"], "v.csv"), 1, float)
        pi = _read_column(os.path.join(p["out"], "pi.csv"), 1, int)
        check_match(C, v, pi, self.k, n_full, n_part)
        curve = np.array(_read_rows(p["curve.csv"]), dtype=np.float64)
        check(np.array_equal(curve[:, 0], THRESHOLDS),
              "eval used other thresholds")
        # "eval: <assigned>/<total> assigned, mean error <e>"
        words = said.split()
        assigned, total = (int(x) for x in words[1].split("/"))
        check(total == n_part, "eval counted the wrong partial shape")
        acc = {
            "mean_error": float(words[-1]),
            "frac_below_0.05": float(curve[THRESHOLDS == 0.05, 1][0]),
            "error_auc": float(np.mean(curve[:, 1])),
            "coverage": assigned / total,
        }
        # "match: rank <r>/<k>, ..."
        rank = int(said_match.split()[2].split("/")[0])
        check_accuracy(acc, rank, self.k)
        return acc, digest(C, pi)

    @staticmethod
    def times(spans):
        t = {s.name: s for s in spans if s.name.startswith("stage.")}
        match, solve = t["stage.match"], t["stage.solve"]
        return {
            "gen_s": t["stage.gen"].duration,
            "setup_s": solve.start - match.start,
            "solve_s": solve.duration,
            "match_s": match.duration,
            "eval_s": t["stage.eval"].duration,
        }


def _cli(*argv):
    """Run one ``pfmatch`` command in-process; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    check(code == 0, f"pfmatch {argv[0]} exited with {code}")
    return out.getvalue().strip()


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _read_column(path, column, typ):
    return np.array([typ(row[column]) for row in _read_rows(path)])


WORKLOADS = {w.name: w for w in (InProcessMatch(), CommandLine())}
