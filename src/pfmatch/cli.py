"""Command-line interface: match, eval, gen, perturb.

Exit codes: 0 success, 1 numerical failure, 2 usage or I/O error.
Configuration files are flat ``key=value`` text; command-line flags override
file values.  A ``--pairs`` batch runs in spawned workers at one BLAS
thread, ``--jobs N`` jobs at a time; a single ``match`` runs in-process.
"""

import argparse
import concurrent.futures
import dataclasses
import functools
import multiprocessing
import os
import sys

import numpy as np

from . import bench, descriptors, laplacian, matio, solver, spectral
from .energy import EnergyParams, eta
from .laplacian import EigensolveError
from .mesh import MeshError, load_mesh, save_ply
from .solver import SolverOptions


class UsageError(Exception):
    pass


# What ends a command, by exit code; a numerical failure is checked for
# first, because LinAlgError is a ValueError.
_USAGE_ERRORS = (UsageError, MeshError, OSError, ValueError)
_NUMERICAL_ERRORS = (EigensolveError, FloatingPointError,
                     np.linalg.LinAlgError)
# Set to 1 in the environment of a batch's worker processes.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _report(exc, where=""):
    """Print the one stderr line of a failed command and return its exit
    code: 2 for a usage or I/O error, 1 for a numerical failure."""
    if isinstance(exc, _NUMERICAL_ERRORS):
        print(f"numerical failure: {where}{exc}", file=sys.stderr)
        return 1
    print(f"error: {where}{exc}", file=sys.stderr)
    return 2


def _read_config(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}: malformed config line {line!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


# Match settings that are also flags; their defaults are the dataclasses'.
_SETTING_FLAGS = {
    EnergyParams: tuple(f.name for f in dataclasses.fields(EnergyParams)),
    SolverOptions: ("max_outer", "cg_max_iter", "cg_grad_tol"),
}


def _settings(cls, args):
    return cls(**{name: getattr(args, name) for name in _SETTING_FLAGS[cls]})


def _load_descriptors(path, mesh):
    """The descriptors of ``mesh`` saved at ``path``, or None without one."""
    if not path:
        return None
    values = matio.load_matrix(path)
    if values.shape[0] != mesh.n_vertices:
        raise UsageError(f"{path}: descriptor rows do not match mesh")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if len(bad):
        raise UsageError(f"{path}: descriptor row {bad[0]} holds a value that "
                         "is not finite")
    return descriptors.DescriptorField(
        values, None, np.zeros(mesh.n_vertices, dtype=bool))


def _check_out(out, where=""):
    if os.path.exists(out) and not os.path.isdir(out):
        raise UsageError(f"{where}output directory {out!r} is an existing "
                         "file")


def _coordinate_colors(mesh):
    v = mesh.vertices
    lo, hi = v.min(axis=0), v.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    return np.clip((v - lo) / span * 255.0, 0, 255).astype(np.uint8)


def run_match(args):
    _check_out(args.out)
    mesh_part = load_mesh(args.part)
    mesh_full = load_mesh(args.full)
    params = _settings(EnergyParams, args)
    result = solver.match(
        mesh_part, mesh_full, params, _settings(SolverOptions, args),
        args.radius or None,
        _load_descriptors(args.descriptors_part, mesh_part),
        _load_descriptors(args.descriptors_full, mesh_full))
    os.makedirs(args.out, exist_ok=True)  # only once the inputs are usable

    matio.save_matrix(os.path.join(args.out, "C.bin"), result.C)
    matio.save_csv(os.path.join(args.out, "v.csv"),
                   ["vertex", "value", "eta"],
                   ([i, repr(float(val)), repr(float(e))]
                    for i, (val, e) in enumerate(zip(result.v,
                                                     eta(result.v)))))
    matio.save_csv(os.path.join(args.out, "pi.csv"),
                   ["full_vertex", "part_vertex"],
                   ([i, int(p)] for i, p in enumerate(result.pi)))
    matio.save_csv(os.path.join(args.out, "energy.csv"),
                   ["iteration", "data", "area", "mumford_shah", "slant",
                    "orthogonality", "total"],
                   ([it] + [repr(float(x)) for x in dataclasses.astuple(bd)]
                    for it, bd in enumerate(result.energy_trace)))
    # Correspondence visualization: full-shape coordinate colors carried to
    # the partial shape through the point-wise map.
    colors_full = _coordinate_colors(mesh_full)
    save_ply(mesh_full, os.path.join(args.out, "full_colored.ply"),
             colors=colors_full)
    save_ply(mesh_part, os.path.join(args.out, "part_colored.ply"),
             colors=colors_full[result.sigma])
    print(f"match: rank {result.rank_estimate}/{params.k}, "
          f"{len(result.energy_trace)} outer iterations, "
          f"final energy {result.energy_trace[-1].total:.6g}")
    return 0


def _read_pairs(path):
    """Jobs (line number, part, full, outdir) of a ``--pairs`` manifest, all
    checked before any job runs."""
    jobs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 3:
                raise UsageError(f"{path}:{lineno}: expected 'part full outdir',"
                                 f" got {len(fields)} fields")
            _check_out(fields[2], f"{path}:{lineno}: ")
            jobs.append([lineno] + fields)
    return jobs


def _batch_job(args, job):
    """Run one job of a --pairs batch; returns its exit code, or the error
    that ended it."""
    lineno, part, full, out = job
    sub = argparse.Namespace(**vars(args))
    sub.part, sub.full, sub.out = part, full, out
    try:
        return run_match(sub)
    except _USAGE_ERRORS + _NUMERICAL_ERRORS as exc:
        return exc


def run_match_batch(args):
    """Run every job of the manifest in ``--jobs`` spawned worker processes,
    whose environment pins BLAS to one thread; so N jobs use N cores, and a
    job's results are those of ``pfmatch match`` at one BLAS thread at every
    ``--jobs``.  A failed job prints one line naming its manifest line.
    Returns the largest exit code of the jobs."""
    jobs = _read_pairs(args.pairs)
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with concurrent.futures.ProcessPoolExecutor(
                max(1, min(args.jobs, len(jobs))),
                multiprocessing.get_context("spawn")) as ex:
            outcomes = list(ex.map(functools.partial(_batch_job, args), jobs))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    codes = [out if isinstance(out, int)
             else _report(out, f"{args.pairs}:{job[0]}: ")
             for job, out in zip(jobs, outcomes)]
    return max(codes, default=0)


def run_eval(args):
    t = args.max_threshold
    if not (np.isfinite(t) and t > 0):
        raise UsageError(f"--max-threshold {t!r}: expected a finite positive "
                         "number")
    if args.n_thresholds < 2:
        raise UsageError(f"--n-thresholds {args.n_thresholds}: expected at "
                         "least 2")
    mesh_full = load_mesh(args.full)
    n_full = mesh_full.n_vertices
    gt = bench.load_ground_truth(args.gt, n_full)
    n_part = len(gt.correspondence)
    pi = np.full(n_full, solver.UNASSIGNED, dtype=np.int64)
    listed = np.zeros(n_full, dtype=bool)
    for line, full_v, part_v in bench.read_index_pairs(args.pi):
        if not (0 <= full_v < n_full and solver.UNASSIGNED <= part_v < n_part):
            raise UsageError(f"{args.pi}:{line}: full vertex {full_v} is "
                             f"outside 0..{n_full - 1} or part vertex "
                             f"{part_v} outside -1..{n_part - 1}")
        if listed[full_v]:
            raise UsageError(f"{args.pi}:{line}: full vertex {full_v} is "
                             "listed twice")
        pi[full_v], listed[full_v] = part_v, True
    assignment = solver.invert_assignment(pi, n_part)
    errors = bench.princeton_error(assignment, gt, mesh_full)
    thresholds = np.linspace(0.0, t, args.n_thresholds)
    curve = bench.cumulative_curve(errors, thresholds)
    matio.save_csv(args.out, ["threshold", "fraction"],
                   ([repr(float(t)), repr(float(f))]
                    for t, f in zip(thresholds, curve)))
    finite = errors[np.isfinite(errors)]
    mean = float(finite.mean()) if len(finite) else float("nan")
    print(f"eval: {len(finite)}/{len(errors)} assigned, mean error {mean:.5f}")
    return 0


def _plane_vectors(args):
    """(point, normal) of ``--plane-point`` and ``--plane-normal``."""
    out = []
    for flag, text in (("--plane-point", args.plane_point),
                       ("--plane-normal", args.plane_normal)):
        try:
            vec = np.array([float(x) for x in text.split(",")])
        except ValueError:
            vec = np.empty(0)
        if vec.shape != (3,) or not np.isfinite(vec).all():
            raise UsageError(f"{flag} {text!r}: expected three finite "
                             "numbers x,y,z")
        out.append(vec)
    return out


def run_gen(args):
    mesh = load_mesh(args.mesh)
    if args.kind == "cut":
        point, normal = _plane_vectors(args)
        if args.keep_fraction is not None:
            point = bench.plane_offset_for_area(mesh, normal,
                                                args.keep_fraction)
        partial, gt = bench.plane_cut(mesh, point, normal)
    else:
        if not 1 <= args.seeds <= mesh.n_vertices:
            raise UsageError(f"--seeds {args.seeds}: expected 1 to "
                             f"{mesh.n_vertices}, the vertices of {args.mesh}")
        partial, gt = bench.erode_holes(mesh, args.seeds, args.area_budget)
    save_ply(partial, args.out_prefix + "_part.ply")
    bench.save_ground_truth(gt, args.out_prefix + "_gt.csv")
    print(f"gen: kept {partial.n_vertices}/{mesh.n_vertices} vertices, "
          f"area fraction {partial.total_area / mesh.total_area:.3f}")
    return 0


def _spectrum_past(K, mass, value, m):
    """Ascending eigenvalues of K phi = lambda S phi: the first m, with m
    doubled until one lies above ``value`` or m is n - 1, the most that
    eigensolve gives.  The nearest to ``value`` is then among them."""
    pair = laplacian.LaplacianPair(K, mass)
    while True:
        m = min(m, pair.n - 1)
        lam = laplacian.eigensolve(pair, m).eigenvalues
        if lam[-1] > value or m == pair.n - 1:
            return lam
        m *= 2


def run_perturb(args):
    mesh = load_mesh(args.mesh)
    point, normal = _plane_vectors(args)
    t = args.fd_step
    if not (np.isfinite(t) and t > 0):
        raise UsageError(f"--fd-step {t!r}: expected a finite positive number")
    part_ids = np.flatnonzero(bench.positive_side(mesh, point, normal))
    setup = spectral.perturbation_setup(mesh, part_ids)
    pair = laplacian.LaplacianPair(setup.K_part, setup.mass_part)
    kk = min(args.k, setup.n_part - 1)
    # Finite-difference check of the eigenvalue derivative formula.  Part
    # eigenvalue i sits at position pos of the spectrum of K(0), the union
    # of the part's and the complement's.  2 i + 4 eigenvalues reach past it
    # while the complement's spectrum is no denser than the part's.
    checked = range(1, min(args.n_check + 1, kk))
    if not checked:
        raise UsageError("perturb checks no eigenvalue: it needs --n-check "
                         "of at least 1 and --k of at least 2")
    os.makedirs(args.out, exist_ok=True)  # only once the flags are usable
    basis = laplacian.eigensolve(pair, kk)

    mass = np.concatenate([setup.mass_part, setup.mass_comp])
    lam0 = _spectrum_past(setup.stiffness(0.0), mass,
                          basis.eigenvalues[checked[-1]], 2 * checked[-1] + 4)
    lam1 = _spectrum_past(setup.stiffness(t), mass, -np.inf, len(lam0))
    report = []
    for i in checked:
        pred = spectral.eigenvalue_derivative(basis, setup.P_part, i)
        pos = int(np.argmin(np.abs(lam0 - basis.eigenvalues[i])))
        fd = (lam1[pos] - lam0[pos]) / t
        denom = max(abs(fd), 1e-300)
        report.append((i, pred, fd, abs(pred - fd) / denom))
    matio.save_csv(os.path.join(args.out, "eigenvalue_fd.csv"),
                   ["index", "formula", "finite_difference", "rel_error"],
                   ([row[0]] + [repr(float(x)) for x in row[1:]]
                    for row in report))

    f = spectral.boundary_interaction(basis)
    matio.save_csv(os.path.join(args.out, "boundary_interaction.csv"),
                   ["vertex", "f"],
                   ([i, repr(float(val))] for i, val in enumerate(f)))
    sub, _ = mesh.submesh(part_ids)
    fn = f / f.max() if f.max() > 0 else f
    colors = np.zeros((len(f), 3), dtype=np.uint8)
    colors[:, 0] = (255 * fn).astype(np.uint8)
    colors[:, 2] = (255 * (1 - fn)).astype(np.uint8)
    save_ply(sub, os.path.join(args.out, "boundary_interaction.ply"),
             colors=colors)
    worst = max(r[3] for r in report)
    print(f"perturb: {len(report)} eigenvalue derivatives checked, "
          f"max relative error {worst:.3e}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="pfmatch",
                                description="Partial functional correspondence toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("match", help="match a partial shape to a full model")
    m.add_argument("--part", help="partial mesh (OFF/PLY)")
    m.add_argument("--full", help="full mesh (OFF/PLY)")
    m.add_argument("--pairs", help="batch manifest: part full outdir per line")
    m.add_argument("--out", default="match_out")
    m.add_argument("--config", help="key=value configuration file")
    m.add_argument("--radius", type=float, default=0.0,
                   help="descriptor support radius (0 = 18%% of "
                   "sqrt(full-shape area))")
    m.add_argument("--descriptors-part", default="")
    m.add_argument("--descriptors-full", default="")
    for cls, names in _SETTING_FLAGS.items():
        defaults = cls()
        for name in names:
            value = getattr(defaults, name)
            m.add_argument("--" + name.replace("_", "-"), type=type(value),
                           default=value)
    m.add_argument("--jobs", type=int, default=1)

    e = sub.add_parser("eval", help="evaluate a match against ground truth")
    e.add_argument("--pi", required=True)
    e.add_argument("--gt", required=True)
    e.add_argument("--full", required=True)
    e.add_argument("--out", default="curve.csv")
    e.add_argument("--max-threshold", type=float, default=0.25)
    e.add_argument("--n-thresholds", type=int, default=101)

    g = sub.add_parser("gen", help="generate a synthetic partial shape")
    g.add_argument("kind", choices=["cut", "holes"])
    g.add_argument("--mesh", required=True)
    g.add_argument("--plane-point", default="0,0,0")
    g.add_argument("--plane-normal", default="0,0,1")
    g.add_argument("--keep-fraction", type=float, default=None)
    g.add_argument("--seeds", type=int, default=5)
    g.add_argument("--area-budget", type=float, default=0.7)
    g.add_argument("--out-prefix", default="partial")

    r = sub.add_parser("perturb", help="perturbation-theory report for a cut")
    r.add_argument("--mesh", required=True)
    r.add_argument("--plane-point", default="0,0,0")
    r.add_argument("--plane-normal", default="0,0,1")
    r.add_argument("--k", type=int, default=50)
    r.add_argument("--n-check", type=int, default=10)
    r.add_argument("--fd-step", type=float, default=1e-4)
    r.add_argument("--out", default="perturb_out")
    p.subcommands = {"match": m, "eval": e, "gen": g, "perturb": r}
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # File values become defaults, typed by argparse; flags win.
            values = _read_config(args.config)
            for key in values:
                if key in ("command", "config") or not hasattr(args, key):
                    raise UsageError(f"unknown config key {key!r}")
            parser.subcommands[args.command].set_defaults(**values)
            args = parser.parse_args(argv)
        if args.command == "match":
            if args.jobs < 1:
                raise UsageError(f"--jobs {args.jobs}: expected at least 1")
            if args.pairs:
                return run_match_batch(args)
            if not args.part or not args.full:
                raise UsageError("match requires --part and --full (or --pairs)")
            return run_match(args)
        run = {"eval": run_eval, "gen": run_gen, "perturb": run_perturb}
        return run[args.command](args)
    except _USAGE_ERRORS + _NUMERICAL_ERRORS as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
