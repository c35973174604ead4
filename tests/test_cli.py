import csv
import dataclasses
import os
import pathlib
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from pfmatch import cli, descriptors, laplacian, solver
from pfmatch.bench import (bumpy_sphere, grid_mesh, icosphere,
                           load_ground_truth, plane_cut, plane_offset_for_area)
from pfmatch.cli import UsageError, _read_config, build_parser, main
from pfmatch.descriptors import default_radius, shot_descriptors
from pfmatch.energy import EnergyParams
from pfmatch.matio import MAGIC, load_matrix, save_matrix
from pfmatch.mesh import load_mesh, save_off, save_ply
from pfmatch.solver import SolverOptions
from pfmatch.spectral import perturbation_setup


@pytest.fixture(scope="module")
def mesh_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("meshes")
    full = grid_mesh(8)
    ids = np.flatnonzero(full.vertices[:, 0] <= 0.5 + 1e-9)
    part, _ = full.submesh(ids)
    sphere = icosphere(2)
    paths = {"full": root / "full.ply", "part": root / "part.ply",
             "sphere": root / "sphere.ply"}
    save_ply(full, paths["full"])
    save_ply(part, paths["part"])
    save_ply(sphere, paths["sphere"])
    return {k: str(v) for k, v in paths.items()}


MATCH_FLAGS = ["--k", "8", "--radius", "0.3", "--max-outer", "2",
               "--cg-max-iter", "30"]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_gen_cut(mesh_files, tmp_path):
    prefix = str(tmp_path / "cut")
    code = main(["gen", "cut", "--mesh", mesh_files["sphere"],
                 "--plane-normal", "0,0,1", "--plane-point", "0,0,0.1",
                 "--out-prefix", prefix])
    assert code == 0
    part = load_mesh(prefix + "_part.ply")
    gt = load_ground_truth(prefix + "_gt.csv")
    assert part.n_vertices == len(gt.correspondence)
    assert np.all(part.vertices[:, 2] >= 0.1)
    assert sorted(os.listdir(tmp_path)) == ["cut_gt.csv", "cut_part.ply"]


def test_gen_cut_keep_fraction(mesh_files, tmp_path):
    prefix = str(tmp_path / "frac")
    code = main(["gen", "cut", "--mesh", mesh_files["sphere"],
                 "--keep-fraction", "0.6", "--out-prefix", prefix])
    assert code == 0
    part = load_mesh(prefix + "_part.ply")
    sphere = load_mesh(mesh_files["sphere"])
    assert abs(part.total_area / sphere.total_area - 0.6) < 0.05


@pytest.mark.parametrize("frac", ["1.5", "1", "0", "-0.1"])
def test_gen_rejects_keep_fraction_outside_unit_interval(mesh_files, tmp_path,
                                                         capsys, frac):
    code = main(["gen", "cut", "--mesh", mesh_files["sphere"],
                 "--keep-fraction", frac,
                 "--out-prefix", str(tmp_path / "frac")])
    assert code == 2
    assert "keep fraction must be in (0, 1)" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("command", ["gen", "perturb"])
@pytest.mark.parametrize("flag, value", [
    ("--plane-normal", "0,1"), ("--plane-normal", "0,0,z"),
    ("--plane-point", "0,0,nan"), ("--plane-point", "0,0,0,1"),
    ("--plane-normal", "0,0,0")])
def test_plane_vectors_rejected(mesh_files, tmp_path, capsys, command, flag,
                                value):
    out = str(tmp_path / "out")
    argv = {"gen": ["gen", "cut", "--out-prefix", out],
            "perturb": ["perturb", "--k", "6", "--n-check", "2", "--out",
                        out]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--mesh", mesh_files["sphere"], flag, value])
    assert code == 2
    message = ("the plane normal is the zero vector" if value == "0,0,0" else
               f"{flag} {value!r}: expected three finite numbers x,y,z")
    assert message in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_gen_holes(mesh_files, tmp_path):
    prefix = str(tmp_path / "holes")
    code = main(["gen", "holes", "--mesh", mesh_files["sphere"],
                 "--seeds", "3", "--area-budget", "0.75",
                 "--out-prefix", prefix])
    assert code == 0
    part = load_mesh(prefix + "_part.ply")
    sphere = load_mesh(mesh_files["sphere"])
    assert part.total_area <= 0.75 * sphere.total_area + 1e-9


def test_match_outputs(mesh_files, tmp_path):
    out = str(tmp_path / "out")
    code = main(["match", "--part", mesh_files["part"],
                 "--full", mesh_files["full"], "--out", out] + MATCH_FLAGS)
    assert code == 0
    C = load_matrix(os.path.join(out, "C.bin"))
    assert C.shape == (8, 8)
    full = load_mesh(mesh_files["full"])
    part = load_mesh(mesh_files["part"])

    v_rows = read_rows(os.path.join(out, "v.csv"))
    assert v_rows[0] == ["vertex", "value", "eta"]
    assert len(v_rows) == full.n_vertices + 1

    pi_rows = read_rows(os.path.join(out, "pi.csv"))
    assert pi_rows[0] == ["full_vertex", "part_vertex"]
    targets = np.array([int(r[1]) for r in pi_rows[1:]])
    assert targets.max() < part.n_vertices
    assert targets.min() >= -1

    e_rows = read_rows(os.path.join(out, "energy.csv"))
    totals = [float(r[-1]) for r in e_rows[1:]]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(totals, totals[1:]))

    assert load_mesh(os.path.join(out, "full_colored.ply")).n_vertices \
        == full.n_vertices
    assert load_mesh(os.path.join(out, "part_colored.ply")).n_vertices \
        == part.n_vertices


def test_match_colours_every_part_vertex_through_sigma(mesh_files, tmp_path):
    out = tmp_path / "out"
    assert main(["match", "--part", mesh_files["part"], "--full",
                 mesh_files["full"], "--out", str(out)] + MATCH_FLAGS) == 0
    part, full = load_mesh(mesh_files["part"]), load_mesh(mesh_files["full"])
    result = solver.match(part, full, EnergyParams(k=8),
                          SolverOptions(max_outer=2, cg_max_iter=30),
                          radius=0.3)
    expected = tmp_path / "expected.ply"
    save_ply(part, expected,
             colors=cli._coordinate_colors(full)[result.sigma])
    assert (out / "part_colored.ply").read_bytes() == expected.read_bytes()


def test_match_calls_the_stages_through_their_modules(mesh_files, tmp_path,
                                                      monkeypatch):
    # A stage patched on its module, as a profiler wraps it, is the one that
    # pfmatch match runs.
    calls = []

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((solver, "alternate"), (solver, "build_problem"),
                        (laplacian, "mesh_basis"),
                        (descriptors, "shot_descriptors")):
        counted(owner, name)
    assert main(["match", "--part", mesh_files["part"], "--full",
                 mesh_files["full"], "--out", str(tmp_path / "out")]
                + MATCH_FLAGS) == 0
    assert sorted(calls) == ["alternate", "build_problem", "mesh_basis",
                             "mesh_basis", "shot_descriptors",
                             "shot_descriptors"]


def test_match_rejects_file_as_out_before_solving(mesh_files, tmp_path,
                                                  monkeypatch, capsys):
    def no_match(*args, **kwargs):
        raise AssertionError("match ran")

    monkeypatch.setattr(solver, "match", no_match)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    code = main(["match", "--part", mesh_files["part"], "--full",
                 mesh_files["full"], "--out", str(taken)] + MATCH_FLAGS)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: output directory {str(taken)!r} is an existing file"]
    assert taken.read_text() == "keep"


def test_match_deterministic(mesh_files, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["match", "--part", mesh_files["part"],
                     "--full", mesh_files["full"], "--out", out]
                    + MATCH_FLAGS) == 0
        outs.append(out)
    for fname in ("C.bin", "v.csv", "pi.csv", "energy.csv"):
        a = pathlib.Path(outs[0], fname).read_bytes()
        b = pathlib.Path(outs[1], fname).read_bytes()
        assert a == b, fname


def test_match_reads_off_with_face_colors_as_binary_ply(mesh_files, tmp_path):
    # The full shape once as binary PLY, once as OFF from save_off with a
    # color after every face row: the same mesh, so the same match.
    full = load_mesh(mesh_files["full"])
    off = tmp_path / "full.off"
    save_off(full, off)
    rows = off.read_text().splitlines()
    faces = 2 + full.n_vertices  # past OFF, the counts and the vertices
    off.write_text("\n".join(rows[:faces]
                             + [row + " 255 128 0" for row in rows[faces:]])
                   + "\n")
    for name, path in (("ply", mesh_files["full"]), ("off", off)):
        assert main(["match", "--part", mesh_files["part"], "--full",
                     str(path), "--out", str(tmp_path / name)]
                    + MATCH_FLAGS) == 0
    for name in ("C.bin", "v.csv", "pi.csv", "energy.csv"):
        assert (tmp_path / "ply" / name).read_bytes() == \
            (tmp_path / "off" / name).read_bytes()


@pytest.mark.filterwarnings("ignore:mesh is not consistently orientable")
def test_match_names_the_file_of_a_non_manifold_mesh(mesh_files, tmp_path,
                                                     capsys):
    # Edge (0, 1) lies in three triangles.
    path = tmp_path / "fan.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 5\n"
                    "property float x\nproperty float y\nproperty float z\n"
                    "element face 3\nproperty list uchar int vertex_indices\n"
                    "end_header\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 -1 0\n"
                    "3 0 1 2\n3 0 1 3\n3 0 1 4\n")
    code = main(["match", "--part", str(path), "--full", mesh_files["full"],
                 "--out", str(tmp_path / "out")] + MATCH_FLAGS)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: non-manifold edge (0, 1): 3 incident triangles"]


def test_match_names_the_file_of_a_mesh_with_coincident_vertices(
        mesh_files, tmp_path, capsys):
    path = tmp_path / "point.off"
    path.write_text("OFF\n3 1 0\n1 1 1\n1 1 1\n1 1 1\n3 0 1 2\n")
    code = main(["match", "--part", str(path), "--full", mesh_files["full"],
                 "--out", str(tmp_path / "out")] + MATCH_FLAGS)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: degenerate triangle 0 (area 0.000e+00)"]


def test_match_names_the_file_of_a_mesh_whose_areas_underflow(
        mesh_files, tiny_grid_off, tmp_path, capsys):
    path, _ = tiny_grid_off
    code = main(["match", "--part", str(path), "--full", mesh_files["full"],
                 "--out", str(tmp_path / "out")] + MATCH_FLAGS)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: triangle 0 has area 0: the areas underflow at this "
        "scale (extent 2.410e-181)"]
    assert not (tmp_path / "out").exists()


def test_match_batch(mesh_files, tmp_path):
    manifest = tmp_path / "pairs.txt"
    manifest.write_text(
        f"{mesh_files['part']} {mesh_files['full']} {tmp_path / 'j1'}\n"
        f"{mesh_files['part']} {mesh_files['full']} {tmp_path / 'j2'}\n")
    code = main(["match", "--pairs", str(manifest), "--jobs", "2"]
                + MATCH_FLAGS)
    assert code == 0
    assert os.path.exists(tmp_path / "j1" / "C.bin")
    assert os.path.exists(tmp_path / "j2" / "C.bin")


def test_match_batch_workers_leave_the_environment_alone(
        mesh_files, tmp_path, monkeypatch):
    # A batch runs in worker processes with BLAS pinned in their own
    # environment; the outputs at --jobs 2 equal those of --jobs 1.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    outputs = {}
    for jobs in ("1", "2"):
        manifest = tmp_path / f"pairs{jobs}.txt"
        outs = [tmp_path / f"jobs{jobs}_{i}" for i in range(2)]
        manifest.write_text("".join(
            f"{mesh_files['part']} {mesh_files['full']} {out}\n"
            for out in outs))
        assert main(["match", "--pairs", str(manifest), "--jobs", jobs]
                    + MATCH_FLAGS) == 0
        outputs[jobs] = [(out / "C.bin").read_bytes() for out in outs]
    assert outputs["2"] == outputs["1"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    assert "OMP_NUM_THREADS" not in os.environ


def test_match_batch_equals_one_thread_match_at_every_jobs(tmp_path):
    # A batch job gives the C.bin of a single match at one BLAS thread, at
    # --jobs 1 as at --jobs 2.  Under one BLAS thread in the calling process
    # every run is a one-thread run, so this catches only a batch that runs
    # under the caller's BLAS threads when those are several.
    full = bumpy_sphere(4)
    normal = [0.0, 0.0, 1.0]
    part, _ = plane_cut(full, plane_offset_for_area(full, normal, 0.7),
                        normal)
    paths = {"part": tmp_path / "part.ply", "full": tmp_path / "full.ply"}
    save_ply(part, paths["part"])
    save_ply(full, paths["full"])
    flags = ["--k", "30", "--max-outer", "1", "--cg-max-iter", "20"]
    outputs = {}
    for jobs in ("1", "2"):
        manifest = tmp_path / f"pairs{jobs}.txt"
        outs = [tmp_path / f"jobs{jobs}_{i}" for i in range(2)]
        manifest.write_text("".join(
            f"{paths['part']} {paths['full']} {out}\n" for out in outs))
        assert main(["match", "--pairs", str(manifest), "--jobs", jobs]
                    + flags) == 0
        outputs[jobs] = [(out / "C.bin").read_bytes() for out in outs]
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src,
               **dict.fromkeys(cli._BLAS_THREAD_VARS, "1"))
    single = tmp_path / "single"
    subprocess.run([sys.executable, "-m", "pfmatch.cli", "match", "--part",
                    str(paths["part"]), "--full", str(paths["full"]),
                    "--out", str(single)] + flags,
                   env=env, check=True, capture_output=True, timeout=300)
    expected = (single / "C.bin").read_bytes()
    assert outputs["1"] == outputs["2"] == [expected, expected]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_match_batch_runs_every_job(mesh_files, tmp_path, capsys, jobs):
    # A job that fails does not stop the others; each failure prints one
    # line naming its manifest line.
    manifest = tmp_path / "pairs.txt"
    manifest.write_text(
        f"missing.ply {mesh_files['full']} {tmp_path / 'j1'}\n"
        f"{mesh_files['part']} {mesh_files['full']} {tmp_path / 'j2'}\n")
    code = main(["match", "--pairs", str(manifest), "--jobs", jobs]
                + MATCH_FLAGS)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {manifest}:1: [Errno 2] No such file or "
                   "directory: 'missing.ply'"]
    assert not (tmp_path / "j1").exists()
    assert os.path.exists(tmp_path / "j2" / "C.bin")


def test_match_batch_exits_with_largest_job_code(mesh_files, tmp_path,
                                                 capsys):
    # Job exit codes follow main's: 1 for a numerical failure, 2 for bad
    # input; the batch returns the largest.  The jobs fail for real, in the
    # workers.
    tiny, bad = tmp_path / "tiny.off", tmp_path / "bad.ply"
    _write_overflowing_grid(tiny)
    bad.write_text("not a mesh\n")
    inputs = {"ok": (mesh_files["part"], mesh_files["full"]),
              "num": (tiny, tiny), "bad": (bad, mesh_files["full"])}
    manifest = tmp_path / "pairs.txt"
    for parts, expected in ((["ok", "num", "ok"], 1),
                            (["num", "bad", "ok"], 2), (["ok"], 0)):
        manifest.write_text("".join(
            f"{inputs[p][0]} {inputs[p][1]} {tmp_path / f'{expected}_{i}'}\n"
            for i, p in enumerate(parts)))
        assert main(["match", "--pairs", str(manifest)] + MATCH_FLAGS) \
            == expected
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert err[0].startswith(f"numerical failure: {manifest}:2: S^-1/2 K "
                             "S^-1/2 overflows float64")
    assert err[1].startswith(f"numerical failure: {manifest}:1: S^-1/2 K "
                             "S^-1/2 overflows float64")
    assert err[2] == (f"error: {manifest}:2: {bad}: unrecognized mesh "
                      "format")


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_match_rejects_jobs_below_one(mesh_files, tmp_path, capsys, jobs):
    manifest = tmp_path / "pairs.txt"
    manifest.write_text(
        f"{mesh_files['part']} {mesh_files['full']} {tmp_path / 'j1'}\n")
    assert main(["match", "--pairs", str(manifest), f"--jobs={jobs}"]
                + MATCH_FLAGS) == 2
    assert f"--jobs {jobs}: expected at least 1" in capsys.readouterr().err
    assert not (tmp_path / "j1").exists()


@pytest.mark.parametrize("line", ["a.ply b.ply", "a.ply b.ply out extra"])
def test_match_batch_rejects_field_count(mesh_files, tmp_path, capsys, line):
    manifest = tmp_path / "pairs.txt"
    manifest.write_text(
        f"{mesh_files['part']} {mesh_files['full']} {tmp_path / 'j1'}\n"
        f"\n{line}\n")
    assert main(["match", "--pairs", str(manifest)] + MATCH_FLAGS) == 2
    err = capsys.readouterr().err
    assert f"{manifest}:3:" in err
    assert "expected 'part full outdir'" in err
    assert not (tmp_path / "j1").exists()  # no job ran before the check


def test_match_batch_rejects_file_as_outdir(mesh_files, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    manifest = tmp_path / "pairs.txt"
    manifest.write_text(
        f"{mesh_files['part']} {mesh_files['full']} {tmp_path / 'j1'}\n"
        f"{mesh_files['part']} {mesh_files['full']} {taken}\n")
    assert main(["match", "--pairs", str(manifest)] + MATCH_FLAGS) == 2
    assert f"{manifest}:2:" in capsys.readouterr().err
    assert not (tmp_path / "j1").exists()


def _perfect_eval_inputs(mesh_files, tmp_path):
    """eval's --pi, --gt and --full flags for a plane cut of the sphere and
    its true map."""
    prefix = str(tmp_path / "cut")
    assert main(["gen", "cut", "--mesh", mesh_files["sphere"],
                 "--plane-point", "0,0,0.1", "--out-prefix", prefix]) == 0
    gt = load_ground_truth(prefix + "_gt.csv")
    full = load_mesh(mesh_files["sphere"])

    pi_path = tmp_path / "pi.csv"
    with open(pi_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["full_vertex", "part_vertex"])
        inverse = {int(f): p for p, f in enumerate(gt.correspondence)}
        for full_v in range(full.n_vertices):
            w.writerow([full_v, inverse.get(full_v, -1)])
    return ["--pi", str(pi_path), "--gt", prefix + "_gt.csv",
            "--full", mesh_files["sphere"]]


def test_eval_perfect(mesh_files, tmp_path):
    curve_path = str(tmp_path / "curve.csv")
    code = main(["eval"] + _perfect_eval_inputs(mesh_files, tmp_path)
                + ["--out", curve_path])
    assert code == 0
    rows = read_rows(curve_path)
    assert rows[0] == ["threshold", "fraction"]
    assert float(rows[1][1]) == 1.0  # all errors are zero


@pytest.mark.parametrize("flag, message", [
    ("--max-threshold=nan", "--max-threshold nan: expected a finite positive"),
    ("--max-threshold=inf", "--max-threshold inf: expected a finite positive"),
    ("--max-threshold=-1", "--max-threshold -1.0: expected a finite "
     "positive"),
    ("--n-thresholds=0", "--n-thresholds 0: expected at least 2"),
])
def test_eval_rejects_curve_flags(mesh_files, tmp_path, capsys, flag,
                                   message):
    inputs = _perfect_eval_inputs(mesh_files, tmp_path)
    capsys.readouterr()
    curve_path = tmp_path / "curve.csv"
    code = main(["eval"] + inputs + ["--out", str(curve_path), flag])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not curve_path.exists()


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)


def test_eval_many_to_one_truth(mesh_files, tmp_path, capsys):
    # Part vertices 2 f and 2 f + 1 both lie on full vertex f, as on a part
    # meshed finer than its model.  pi gives each full vertex one of them.
    m = load_mesh(mesh_files["sphere"]).n_vertices // 2
    paths = {"gt": tmp_path / "gt.csv", "pi": tmp_path / "pi.csv"}
    _write_rows(paths["gt"], ["part_vertex", "full_vertex"],
                [[p, p // 2] for p in range(2 * m)])
    _write_rows(paths["pi"], ["full_vertex", "part_vertex"],
                [[f, 2 * f + f % 2] for f in range(m)])
    curve_path = tmp_path / "curve.csv"
    code = main(["eval", "--pi", str(paths["pi"]), "--gt", str(paths["gt"]),
                 "--full", mesh_files["sphere"], "--out", str(curve_path)])
    assert code == 0
    assert capsys.readouterr().out == \
        f"eval: {m}/{2 * m} assigned, mean error 0.00000\n"
    assert float(read_rows(curve_path)[1][1]) == 1.0


@pytest.mark.parametrize("name, row", [
    ("gt", "0,{full}"),            # part vertex 0 repeats
    ("gt", "-1,{full}"),           # negative part vertex
    ("gt", "{n_part},{full}"),     # part vertex past the last
    ("gt", "1,-1"),                # negative full vertex
    ("gt", "1,{n_full}"),          # full vertex past the full mesh
    ("pi", "-1,0"),                # negative full vertex
    ("pi", "{n_full},0"),          # full vertex past the full mesh
    ("pi", "0,{n_part}"),          # part vertex past the part
    ("pi", "0,-2"),                # part vertex below -1 (unassigned)
    ("pi", "0,-1"),                # full vertex 0 repeats
    ("pi", "1,x"),                 # not an integer
])
def test_eval_rejects_bad_index(mesh_files, tmp_path, capsys, name, row):
    # The second data row (line 3) of one file is replaced by ``row``.
    full = load_mesh(mesh_files["sphere"])
    gt_rows = [[p, f] for p, f in
               enumerate(range(0, 2 * (full.n_vertices // 3), 2))]
    pi_rows = [[f, -1] for f in range(full.n_vertices)]
    for p, f in gt_rows:
        pi_rows[f][1] = p
    rows = {"gt": gt_rows, "pi": pi_rows}
    rows[name][1] = row.format(full=gt_rows[1][1], n_part=len(gt_rows),
                               n_full=full.n_vertices).split(",")
    paths = {"gt": tmp_path / "gt.csv", "pi": tmp_path / "pi.csv"}
    _write_rows(paths["gt"], ["part_vertex", "full_vertex"], rows["gt"])
    _write_rows(paths["pi"], ["full_vertex", "part_vertex"], rows["pi"])
    code = main(["eval", "--pi", str(paths["pi"]), "--gt", str(paths["gt"]),
                 "--full", mesh_files["sphere"],
                 "--out", str(tmp_path / "curve.csv")])
    assert code == 2
    assert f"{paths[name]}:3:" in capsys.readouterr().err


@pytest.mark.parametrize("plane_point", ["0,0,-0.6", "0,0,0.6"])
def test_perturb_matches_dense_spectra(mesh_files, tmp_path, plane_point):
    # Cuts keeping about 80% and 20% of the sphere's area; the finite
    # differences equal those of every eigenvalue of K(0) and K(t).
    out = str(tmp_path / "perturb")
    assert main(["perturb", "--mesh", mesh_files["sphere"], "--plane-point",
                 plane_point, "--k", "12", "--n-check", "8",
                 "--out", out]) == 0
    fd = [float(r[2]) for r in read_rows(os.path.join(out,
                                                      "eigenvalue_fd.csv"))[1:]]
    mesh = load_mesh(mesh_files["sphere"])
    point = np.array([float(x) for x in plane_point.split(",")])
    setup = perturbation_setup(
        mesh, np.flatnonzero((mesh.vertices - point)[:, 2] >= 0))
    s = np.diag(np.concatenate([setup.mass_part, setup.mass_comp]))
    lam_part = scipy.linalg.eigh(setup.K_part.toarray(),
                                 np.diag(setup.mass_part), eigvals_only=True)
    lam0, lam1 = (scipy.linalg.eigh(setup.stiffness(t).toarray(), s,
                                    eigvals_only=True) for t in (0.0, 1e-4))
    pos = [int(np.argmin(np.abs(lam0 - lam_part[i])))
           for i in range(1, len(fd) + 1)]
    assert len(fd) == 8
    np.testing.assert_allclose(fd, (lam1[pos] - lam0[pos]) / 1e-4,
                               rtol=1e-6)


@pytest.mark.parametrize("step", ["0", "-1e-4", "nan", "inf"])
def test_perturb_rejects_fd_step(mesh_files, tmp_path, capsys, step):
    out = tmp_path / "perturb"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["perturb", "--mesh", mesh_files["sphere"], "--k", "6",
                     "--n-check", "2", f"--fd-step={step}", "--out",
                     str(out)])
    assert code == 2
    assert "expected a finite positive number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--n-check", "0"), ("--k", "1")])
def test_perturb_rejects_no_check(mesh_files, tmp_path, capsys, flag, value):
    out = tmp_path / "perturb"
    # The last of a repeated flag wins.
    code = main(["perturb", "--mesh", mesh_files["sphere"], "--k", "6",
                 "--n-check", "2", flag, value, "--out", str(out)])
    assert code == 2
    assert "perturb checks no eigenvalue" in capsys.readouterr().err
    assert not out.exists()


def test_perturb_report(mesh_files, tmp_path):
    out = str(tmp_path / "perturb")
    code = main(["perturb", "--mesh", mesh_files["sphere"],
                 "--plane-point", "0,0,0.1", "--k", "12",
                 "--n-check", "5", "--out", out])
    assert code == 0
    rows = read_rows(os.path.join(out, "eigenvalue_fd.csv"))
    rels = [float(r[3]) for r in rows[1:]]
    assert len(rels) >= 3
    assert max(rels) < 0.05
    f_rows = read_rows(os.path.join(out, "boundary_interaction.csv"))
    assert all(float(r[1]) >= 0 for r in f_rows[1:])
    assert os.path.exists(os.path.join(out, "boundary_interaction.ply"))


def test_config_file(mesh_files, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("k = 8\nmax-outer = 1  # quick run\ncg-max-iter = 20\n")
    out = str(tmp_path / "out")
    code = main(["match", "--part", mesh_files["part"],
                 "--full", mesh_files["full"], "--out", out,
                 "--radius", "0.3", "--config", str(cfg)])
    assert code == 0
    rows = read_rows(os.path.join(out, "energy.csv"))
    assert len(rows) == 2  # header + single outer iteration


def test_config_cli_override(mesh_files, tmp_path):
    # A flag given on the command line beats the config file value.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("max-outer = 4\n")
    out = str(tmp_path / "out")
    code = main(["match", "--part", mesh_files["part"],
                 "--full", mesh_files["full"], "--out", out,
                 "--config", str(cfg), "--max-outer", "1"] + MATCH_FLAGS[:4])
    assert code == 0
    rows = read_rows(os.path.join(out, "energy.csv"))
    assert len(rows) == 2


def test_config_does_not_override_flag_at_default(mesh_files, tmp_path,
                                                  monkeypatch):
    # A flag given on the command line wins even when it equals its default.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("k = 50\nmax-outer = 2\n")
    seen = []
    monkeypatch.setattr(cli, "run_match", lambda args: seen.append(args) or 0)
    assert main(["match", "--part", mesh_files["part"],
                 "--full", mesh_files["full"], "--k", "100",
                 "--config", str(cfg)]) == 0
    assert (seen[0].k, seen[0].max_outer) == (100, 2)


def test_match_flag_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["match"])
    energy = {f.name: getattr(args, f.name)
              for f in dataclasses.fields(EnergyParams)}
    assert EnergyParams(**energy) == EnergyParams()
    for name in ("max_outer", "cg_max_iter", "cg_grad_tol"):
        assert getattr(args, name) == getattr(SolverOptions(), name)


@pytest.mark.parametrize("key", ["command", "config"])
def test_config_rejects_parser_keys(mesh_files, tmp_path, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key} = eval\n")
    out = tmp_path / "out"
    assert main(["match", "--part", mesh_files["part"],
                 "--full", mesh_files["full"], "--out", str(out),
                 "--config", str(cfg)] + MATCH_FLAGS) == 2
    assert not out.exists()


def test_read_config_malformed(tmp_path):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("this is not a key value pair\n")
    with pytest.raises(UsageError):
        _read_config(cfg)


def test_unknown_config_key(mesh_files, tmp_path):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("bogus = 1\n")
    code = main(["match", "--part", mesh_files["part"],
                 "--full", mesh_files["full"], "--config", str(cfg)])
    assert code == 2


def test_eval_ply_element_without_properties_exit_2(tmp_path, capsys):
    # A binary element with no properties has records of zero bytes.
    path = tmp_path / "full.ply"
    path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement foo 2\n"
                     b"element vertex 0\nproperty float x\nend_header\n")
    code = main(["eval", "--pi", str(tmp_path / "pi.csv"), "--gt",
                 str(tmp_path / "gt.csv"), "--full", str(path),
                 "--out", str(tmp_path / "curve.csv")])
    assert code == 2
    assert f"{path}: ply element foo has no properties" in \
        capsys.readouterr().err


def test_gen_ply_declaring_more_vertices_than_it_holds_exit_2(tmp_path,
                                                              capsys):
    # Read whole, 10^9 declared vertices of 24 bytes would take 24 GB.
    path = tmp_path / "huge.ply"
    path.write_bytes(b"ply\nformat binary_little_endian 1.0\n"
                     b"element vertex 1000000000\nproperty double x\n"
                     b"property double y\nproperty double z\n"
                     b"element face 1\nproperty list uchar int vertex_indices\n"
                     b"end_header\n" + bytes(3 * 24))
    code = main(["gen", "cut", "--mesh", str(path),
                 "--out-prefix", str(tmp_path / "cut")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {path}: truncated ply data" in err
    assert "Traceback" not in err


def test_missing_mesh_exit_2(tmp_path):
    out = tmp_path / "out"
    code = main(["match", "--part", str(tmp_path / "nope.ply"),
                 "--full", str(tmp_path / "nope2.ply"), "--out", str(out)])
    assert code == 2
    assert not out.exists()  # nothing is created before the inputs load


def test_match_eigensolve_failure_exit_1(mesh_files, tmp_path, monkeypatch,
                                         capsys):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence",
                                                      None, None)

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_convergence)
    code = main(["match", "--part", mesh_files["part"],
                 "--full", mesh_files["full"], "--out",
                 str(tmp_path / "out")] + MATCH_FLAGS)
    assert code == 1
    assert "ARPACK failed to converge" in capsys.readouterr().err


def _write_overflowing_grid(path):
    """An OFF grid at 2^-510, where S^-1/2 K S^-1/2 overflows float64."""
    grid = grid_mesh(8)
    path.write_text("\n".join(
        ["OFF", f"{grid.n_vertices} {grid.n_triangles} 0"]
        + [" ".join(map(repr, row))
           for row in np.ldexp(grid.vertices, -510).tolist()]
        + [f"3 {a} {b} {c}" for a, b, c in grid.triangles.tolist()]) + "\n")


def test_match_eigenvalue_overflow_exit_1(tmp_path, capfd):
    path = tmp_path / "tiny.off"
    _write_overflowing_grid(path)
    code = main(["match", "--part", str(path), "--full", str(path),
                 "--out", str(tmp_path / "out")] + MATCH_FLAGS)
    assert code == 1
    # capfd: LAPACK once wrote to the standard output's file descriptor.
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "overflows float64: the smallest vertex area" in err


def test_match_svd_failure_exit_1(mesh_files, tmp_path, monkeypatch, capsys):
    # LinAlgError is a ValueError, yet a numerical failure.
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("numpy.linalg.svd", no_convergence)
    code = main(["match", "--part", mesh_files["part"],
                 "--full", mesh_files["full"], "--out",
                 str(tmp_path / "out")] + MATCH_FLAGS)
    assert code == 1
    assert "numerical failure: SVD did not converge" in \
        capsys.readouterr().err


@pytest.mark.parametrize("shape", ["part", "full"])
def test_match_all_zero_descriptors_exit_2(mesh_files, tmp_path, capsys,
                                           shape):
    # Descriptors of the other shape come from SHOT; this shape's are all
    # zero, as when no vertex has enough neighbours in the support radius.
    n = load_mesh(mesh_files[shape]).n_vertices
    zeros = tmp_path / "zeros.bin"
    save_matrix(str(zeros), np.zeros((n, 352)))
    out = tmp_path / "out"
    code = main(["match", "--part", mesh_files["part"],
                 "--full", mesh_files["full"], f"--descriptors-{shape}",
                 str(zeros), "--out", str(out)] + MATCH_FLAGS)
    assert code == 2
    name = {"part": "partial", "full": "full"}[shape]
    # The file's descriptors were made at no radius known here.
    assert capsys.readouterr().err.splitlines() == [
        f"error: every descriptor of the {name} shape is zero"]
    assert not out.exists()


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_match_non_finite_radius_exit_2(mesh_files, tmp_path, capsys, radius):
    out = tmp_path / "out"
    code = main(["match", "--part", mesh_files["part"],
                 "--full", mesh_files["full"], "--out", str(out)]
                + MATCH_FLAGS + ["--radius", radius])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: radius must be positive and finite"]
    assert not out.exists()


def test_match_descriptor_length_mismatch_exit_2(mesh_files, tmp_path,
                                                 capsys):
    n = load_mesh(mesh_files["full"]).n_vertices
    short = tmp_path / "short.bin"
    save_matrix(str(short), np.ones((n, 10)))
    out = tmp_path / "out"
    code = main(["match", "--part", mesh_files["part"],
                 "--full", mesh_files["full"], "--descriptors-full",
                 str(short), "--out", str(out)] + MATCH_FLAGS)
    assert code == 2
    assert "descriptor lengths differ: 352 on the partial shape, 10 on the " \
        "full shape" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def cut_files(tmp_path_factory):
    """A 60% cut of a bumpy sphere, with both shapes' SHOT descriptors at
    the default radius, taken from the full shape, saved as matrices."""
    root = tmp_path_factory.mktemp("cut")
    full = bumpy_sphere(2)
    normal = [0.0, 0.0, 1.0]
    part, _ = plane_cut(full, plane_offset_for_area(full, normal, 0.6), normal)
    radius = default_radius(full)
    paths = {}
    for name, mesh in (("part", part), ("full", full)):
        paths[name] = str(root / f"{name}.ply")
        paths[name + "_desc"] = str(root / f"{name}_desc.bin")
        save_ply(mesh, paths[name])
        save_matrix(paths[name + "_desc"],
                    shot_descriptors(mesh, radius).values)
    return paths


def test_match_given_descriptors_equal_computed(cut_files, tmp_path):
    base = ["match", "--part", cut_files["part"], "--full", cut_files["full"],
            "--k", "20", "--max-outer", "2", "--cg-max-iter", "30"]
    given = ["--descriptors-part", cut_files["part_desc"],
             "--descriptors-full", cut_files["full_desc"]]
    outs = [str(tmp_path / "computed"), str(tmp_path / "given")]
    assert main(base + ["--out", outs[0]]) == 0
    assert main(base + given + ["--out", outs[1]]) == 0
    for fname in ("C.bin", "v.csv", "pi.csv", "energy.csv"):
        a = pathlib.Path(outs[0], fname).read_bytes()
        b = pathlib.Path(outs[1], fname).read_bytes()
        assert a == b, fname


@pytest.mark.parametrize("shape", ["part", "full"])
def test_match_descriptor_rows_mismatch_exit_2(cut_files, tmp_path, capsys,
                                               shape):
    # The other shape's descriptors have the wrong number of rows.
    wrong = cut_files[{"part": "full_desc", "full": "part_desc"}[shape]]
    out = tmp_path / "out"
    code = main(["match", "--part", cut_files["part"], "--full",
                 cut_files["full"], f"--descriptors-{shape}", wrong,
                 "--k", "20", "--out", str(out)])
    assert code == 2
    assert f"{wrong}: descriptor rows do not match mesh" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("shape", ["part", "full"])
def test_match_truncated_descriptor_header_exit_2(cut_files, tmp_path, capsys,
                                                  shape):
    short = tmp_path / "short.bin"
    short.write_bytes(pathlib.Path(cut_files[shape + "_desc"]).read_bytes()[:10])
    out = tmp_path / "out"
    code = main(["match", "--part", cut_files["part"], "--full",
                 cut_files["full"], f"--descriptors-{shape}", str(short),
                 "--k", "20", "--out", str(out)])
    assert code == 2
    assert f"error: {short}: truncated header" in capsys.readouterr().err
    assert not out.exists()


def test_match_descriptor_header_larger_than_file_exit_2(cut_files, tmp_path,
                                                         capsys):
    # 2^40 x 2^40 doubles: a size no read can be asked for.
    huge = tmp_path / "huge.bin"
    huge.write_bytes(MAGIC + struct.pack("<QQ", 2 ** 40, 2 ** 40) + bytes(160))
    out = tmp_path / "out"
    code = main(["match", "--part", cut_files["part"], "--full",
                 cut_files["full"], "--descriptors-part", str(huge),
                 "--k", "20", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {huge}: truncated payload" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_match_descriptor_header_without_entries_exit_2(cut_files, tmp_path,
                                                        capsys):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(MAGIC + struct.pack("<QQ", 2 ** 63, 0))
    out = tmp_path / "out"
    code = main(["match", "--part", cut_files["part"], "--full",
                 cut_files["full"], "--descriptors-part", str(empty),
                 "--k", "20", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {empty}: header declares {2 ** 63} x 0, " \
        "no entries\n"
    assert not out.exists()


def test_match_tiny_radius_exit_2(mesh_files, tmp_path, capsys):
    out = tmp_path / "out"
    flags = MATCH_FLAGS[:2] + ["--radius", "1e-3"] + MATCH_FLAGS[4:]
    code = main(["match", "--part", mesh_files["part"],
                 "--full", mesh_files["full"], "--out", str(out)] + flags)
    assert code == 2
    assert "descriptor of the partial shape is zero" in \
        capsys.readouterr().err


def test_match_requires_inputs():
    assert main(["match"]) == 2


def test_gen_bad_budget(mesh_files):
    assert main(["gen", "holes", "--mesh", mesh_files["sphere"],
                 "--area-budget", "2.0"]) == 2


@pytest.mark.parametrize("swap, k, message", [
    (False, "500", "k=500 must be smaller than the 45 vertices of the "
     "partial shape"),
    (True, "60", "k=60 must be smaller than the 45 vertices of the full "
     "shape"),
    (False, "0", "k=0 must be at least 1"),
], ids=["partial", "full", "zero"])
def test_match_rejects_k_out_of_range_before_any_eigensolve(
        mesh_files, tmp_path, capsys, monkeypatch, swap, k, message):
    def no_eigensolve(*args):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(laplacian, "mesh_basis", no_eigensolve)
    part, full = mesh_files["part"], mesh_files["full"]
    if swap:
        part, full = full, part
    out = tmp_path / "out"
    assert main(["match", "--part", part, "--full", full, "--out", str(out)]
                + MATCH_FLAGS + ["--k", k]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_match_batch_names_the_line_of_a_k_out_of_range(mesh_files, tmp_path,
                                                        capsys):
    manifest = tmp_path / "pairs.txt"
    manifest.write_text(
        f"{mesh_files['part']} {mesh_files['full']} {tmp_path / 'j1'}\n")
    assert main(["match", "--pairs", str(manifest)] + MATCH_FLAGS
                + ["--k", "500"]) == 2
    assert capsys.readouterr().err == (
        f"error: {manifest}:1: k=500 must be smaller than the 45 vertices of "
        "the partial shape\n")


@pytest.mark.parametrize("seeds", ["0", "-1", "163"])
def test_gen_holes_rejects_seeds_out_of_range(mesh_files, tmp_path, capsys,
                                              seeds):
    sphere = mesh_files["sphere"]  # icosphere(2): 162 vertices
    assert main(["gen", "holes", "--mesh", sphere, "--seeds", seeds,
                 "--out-prefix", str(tmp_path / "holes")]) == 2
    assert capsys.readouterr().err == (
        f"error: --seeds {seeds}: expected 1 to 162, the vertices of "
        f"{sphere}\n")
    assert not os.listdir(tmp_path)
