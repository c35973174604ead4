"""Tests of the benchmark's own code: span arithmetic, wrapper pass-through,
seeded inputs and the metric lists of BENCHMARK.json."""

import json
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH_DIR)
for path in (os.path.join(REPO, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import (Span, Tracer, covered_length, inclusive_by_name,  # noqa: E402
                   inclusive_within, self_times)

import pfmatch.solver as solver  # noqa: E402


def test_self_time_nested_and_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),     # overlaps a
        Span("a.child", 1.5, 2.0, 1, 0),
        Span("c", 9.0, 12.0, 0, 0),    # runs past the end of root
    ]
    # root: 10 minus the union [1, 6] + [9, 10] of its children.
    assert self_times(spans) == pytest.approx([4.0, 2.5, 3.0, 0.5, 3.0])


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(2.0, 3.0), (0.5, 1.0), (0.8, 2.5)], 0.0, 2.8) \
        == pytest.approx(2.3)
    assert covered_length([(5.0, 6.0)], 0.0, 1.0) == 0.0


def test_inclusive_time_counts_recursion_once():
    spans = [
        Span("f", 0.0, 4.0, -1, 0),
        Span("f", 1.0, 2.0, 0, 0),
        Span("g", 2.0, 3.0, 0, 0),
        Span("f", 5.0, 6.0, -1, 0),
    ]
    assert inclusive_by_name(spans) == pytest.approx({"f": 5.0, "g": 1.0})


def test_inclusive_time_within_an_ancestor():
    spans = [
        Span("solve", 0.0, 10.0, -1, 0),
        Span("cg", 1.0, 3.0, 0, 0),
        Span("refine", 4.0, 9.0, 0, 0),
        Span("cg", 5.0, 8.0, 2, 0),
        Span("cg", 11.0, 12.0, -1, 0),   # outside every refine
    ]
    assert inclusive_within(spans, "refine") == pytest.approx({"cg": 3.0})
    assert inclusive_within(spans, "solve") == \
        pytest.approx({"cg": 5.0, "refine": 5.0})


def _quadratic(n=6):
    rng = np.random.default_rng(3)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.standard_normal(n)

    def fun_grad(x):
        return 0.5 * x @ A @ x - b @ x, A @ x - b

    return fun_grad, np.zeros(n)


def test_wrapped_nonlinear_cg_returns_the_same_result():
    fun_grad, x0 = _quadratic()
    opts = solver.SolverOptions(cg_max_iter=50)
    plain = solver.nonlinear_cg(fun_grad, x0, opts)
    original = solver.nonlinear_cg

    tracer = Tracer()
    tracer.instrument_cg(solver, "nonlinear_cg", "solver.nonlinear_cg")
    try:
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return fun_grad(x)

        wrapped = solver.nonlinear_cg(counted, x0, opts)
    finally:
        tracer.uninstall()
    assert solver.nonlinear_cg is original

    assert np.array_equal(wrapped.x, plain.x)
    assert (wrapped.value, wrapped.grad_norm, wrapped.iterations,
            wrapped.converged, wrapped.line_search_failed) == \
        (plain.value, plain.grad_norm, plain.iterations, plain.converged,
         plain.line_search_failed)
    (span,) = tracer.take()
    assert span.name == "solver.nonlinear_cg"
    assert span.attrs["evals"] == calls
    assert span.attrs["iters"] == plain.iterations


def test_layer_install_is_undone():
    import pfmatch.energy as energy
    import pfmatch.mesh as mesh
    before = (solver.refine, solver.data_term, energy.data_term,
              mesh.TriangleMesh.__init__)
    tracer = Tracer()
    layers.install(tracer)
    assert solver.refine is not before[0]
    tracer.uninstall()
    assert (solver.refine, solver.data_term, energy.data_term,
            mesh.TriangleMesh.__init__) == before


def test_seed_gives_identical_meshes():
    seed = workloads.pair_seed(5, 0)
    a_full, a_bent = workloads.make_shapes(3, seed)
    b_full, b_bent = workloads.make_shapes(3, seed)
    for a, b in ((a_full, b_full), (a_bent, b_bent)):
        assert a.vertices.tobytes() == b.vertices.tobytes()
        assert a.triangles.tobytes() == b.triangles.tobytes()
    c_full, _ = workloads.make_shapes(3, workloads.pair_seed(5, 1))
    assert c_full.vertices.tobytes() != a_full.vertices.tobytes()


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == layers.PER_LAYER


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "match-642", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""
