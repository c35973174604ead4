"""Which pfmatch functions a traced run wraps, and the per-layer metrics
derived from the spans of one match.

Every function is patched where its caller looks it up: the solver imports
the energy terms into its own namespace, the CLI imports ``load_mesh`` and
``save_ply``, and methods are patched on ``TriangleMesh``.
"""

import numpy as np

from spans import inclusive_by_name, self_by_name

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "solver.alternate_s": ("s", "lower"),
    "solver.outer_iters": ("count", "lower"),
    "solver.c_step_s": ("s", "lower"),
    "solver.v_step_s": ("s", "lower"),
    "solver.refine_s": ("s", "lower"),
    "solver.refine_calls": ("count", "lower"),
    "solver.refine_rounds": ("count", "lower"),
    "solver.refine_capped": ("count", "lower"),
    "solver.nearest_columns_s": ("s", "lower"),
    "solver.nearest_columns_calls": ("count", "lower"),
    "solver.build_problem_s": ("s", "lower"),
    "solver.final_energy": ("energy", "lower"),
    "solver.cg_solves": ("count", "lower"),
    "solver.cg_iters": ("count", "lower"),
    "solver.cg_evals": ("count", "lower"),
    "solver.cg_evals.c_step": ("count", "lower"),
    "solver.cg_evals.v_step": ("count", "lower"),
    "solver.cg_evals.refine": ("count", "lower"),
    "solver.cg_capped": ("count", "lower"),
    "solver.cg_ls_failed": ("count", "lower"),
    "solver.cg_steps_per_eval": ("ratio", "higher"),
    "energy.data_term_s": ("s", "lower"),
    "energy.data_term_calls": ("count", "lower"),
    "energy.mumford_shah_s": ("s", "lower"),
    "energy.mumford_shah_calls": ("count", "lower"),
    "energy.orthogonality_s": ("s", "lower"),
    "energy.orthogonality_calls": ("count", "lower"),
    "energy.total_energy_s": ("s", "lower"),
    "laplacian.pair_s": ("s", "lower"),
    "laplacian.eigensolve_s": ("s", "lower"),
    "laplacian.dense_calls": ("count", "lower"),
    "laplacian.sparse_calls": ("count", "lower"),
    "descriptors.shot_s": ("s", "lower"),
    "descriptors.vertices": ("count", "lower"),
    "descriptors.flagged": ("count", "lower"),
    "descriptors.us_per_vertex": ("us", "lower"),
    "spectral.rank": ("count", "higher"),
    "mesh.construct_s": ("s", "lower"),
    "mesh.construct_calls": ("count", "lower"),
    "mesh.load_s": ("s", "lower"),
    "mesh.save_s": ("s", "lower"),
    "mesh.geodesic_s": ("s", "lower"),
    "mesh.geodesic_sources": ("count", "lower"),
    "bench.shape_s": ("s", "lower"),
    "bench.cut_search_s": ("s", "lower"),
    "bench.erode_holes_s": ("s", "lower"),
    "bench.princeton_s": ("s", "lower"),
    "matio.save_s": ("s", "lower"),
    "cli.gen_s": ("s", "lower"),
    "cli.match_s": ("s", "lower"),
    "cli.eval_s": ("s", "lower"),
    "cli.output_self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def install(tracer):
    """Wrap the public functions of every pfmatch module."""
    import pfmatch.bench as bench
    import pfmatch.cli as cli
    import pfmatch.descriptors as descriptors
    import pfmatch.energy as energy
    import pfmatch.laplacian as laplacian
    import pfmatch.matio as matio
    import pfmatch.mesh as mesh
    import pfmatch.solver as solver

    def alternate_note(args, kwargs, res):
        return {"outer": len(res.energy_trace),
                "final_energy": float(res.energy_trace[-1].total)}

    def refine_note(args, kwargs, res):
        return {"rounds": len(res[2])}

    def eigensolve_note(args, kwargs, basis):
        return {"dense": bool(args[0].n <= laplacian.DENSE_FALLBACK_N)}

    def shot_note(args, kwargs, field):
        return {"vertices": int(field.values.shape[0]),
                "flagged": int(np.count_nonzero(field.flags))}

    def geodesic_note(args, kwargs, out):
        source = args[1] if len(args) > 1 else kwargs["source"]
        return {"sources": int(np.atleast_1d(source).size)}

    def build_note(args, kwargs, out):
        return {"rank": int(out[1])}

    w = tracer.instrument
    w(solver, "alternate", "solver.alternate", alternate_note)
    w(solver, "build_problem", "solver.build_problem", build_note)
    w(solver, "c_step", "solver.c_step")
    w(solver, "v_step", "solver.v_step")
    w(solver, "refine", "solver.refine", refine_note)
    w(solver, "nearest_columns", "solver.nearest_columns")
    tracer.instrument_cg(solver, "nonlinear_cg", "solver.nonlinear_cg")
    for owner in (solver, energy):
        w(owner, "data_term", "energy.data_term")
        w(owner, "mumford_shah", "energy.mumford_shah")
        w(owner, "orthogonality_term", "energy.orthogonality")
    w(solver, "total_energy", "energy.total_energy")
    w(laplacian, "laplacian_pair", "laplacian.pair")
    w(laplacian, "eigensolve", "laplacian.eigensolve", eigensolve_note)
    w(descriptors, "shot_descriptors", "descriptors.shot", shot_note)
    w(mesh.TriangleMesh, "__init__", "mesh.construct")
    w(mesh.TriangleMesh, "geodesic_distances", "mesh.geodesic",
      geodesic_note)
    w(cli, "load_mesh", "mesh.load")
    for owner in (mesh, cli):
        w(owner, "save_ply", "mesh.save")
    w(bench, "bumpy_sphere", "bench.shape")
    w(bench, "plane_offset_for_area", "bench.cut_search")
    w(bench, "erode_holes", "bench.erode_holes")
    w(bench, "princeton_error", "bench.princeton")
    w(matio, "save_matrix", "matio.save")
    w(cli, "run_gen", "cli.gen")
    w(cli, "run_match", "cli.match")
    w(cli, "run_eval", "cli.eval")


def op_metrics(spans):
    """Per-layer metrics of the spans of one match (``trace.overhead_s``
    excepted: it compares two runs of the match)."""
    incl = inclusive_by_name(spans)
    selfs = self_by_name(spans)
    count = {}
    for s in spans:
        count[s.name] = count.get(s.name, 0) + 1

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in spans
                   if s.name == name and s.attrs is not None)

    cg = [(i, s) for i, s in enumerate(spans)
          if s.name == "solver.nonlinear_cg"]
    cg_parent = {i: spans[s.parent].name if s.parent >= 0 else ""
                 for i, s in cg}
    cg_iters = sum(s.attrs["iters"] for _, s in cg)
    cg_evals = sum(s.attrs["evals"] for _, s in cg)

    def evals_from(caller):
        return sum(s.attrs["evals"] for i, s in cg
                   if cg_parent[i] == caller)

    refine_capped = 0
    for i, s in enumerate(spans):
        if s.name == "solver.refine":
            solves = sum(1 for j, _ in cg if spans[j].parent == i)
            # Every round ran a CG solve: the tolerance never stopped it.
            refine_capped += solves == s.attrs["rounds"]

    alternates = [s for s in spans if s.name == "solver.alternate"]
    ranks = [s.attrs["rank"] for s in spans if s.name == "solver.build_problem"]
    shot_s = incl.get("descriptors.shot", 0.0)
    vertices = attr_sum("descriptors.shot", "vertices")
    dense = attr_sum("laplacian.eigensolve", "dense")

    m = {
        "solver.alternate_s": incl.get("solver.alternate", 0.0),
        "solver.outer_iters": attr_sum("solver.alternate", "outer"),
        "solver.c_step_s": incl.get("solver.c_step", 0.0),
        "solver.v_step_s": incl.get("solver.v_step", 0.0),
        "solver.refine_s": incl.get("solver.refine", 0.0),
        "solver.refine_calls": count.get("solver.refine", 0),
        "solver.refine_rounds": attr_sum("solver.refine", "rounds"),
        "solver.refine_capped": refine_capped,
        "solver.nearest_columns_s": incl.get("solver.nearest_columns", 0.0),
        "solver.nearest_columns_calls": count.get("solver.nearest_columns", 0),
        "solver.build_problem_s": incl.get("solver.build_problem", 0.0),
        "solver.final_energy": (alternates[-1].attrs["final_energy"]
                                if alternates else 0.0),
        "solver.cg_solves": len(cg),
        "solver.cg_iters": cg_iters,
        "solver.cg_evals": cg_evals,
        "solver.cg_evals.c_step": evals_from("solver.c_step"),
        "solver.cg_evals.v_step": evals_from("solver.v_step"),
        "solver.cg_evals.refine": evals_from("solver.refine"),
        "solver.cg_capped": sum(s.attrs["capped"] for _, s in cg),
        "solver.cg_ls_failed": sum(s.attrs["ls_failed"] for _, s in cg),
        "solver.cg_steps_per_eval": cg_iters / cg_evals if cg_evals else 0.0,
        "energy.data_term_s": incl.get("energy.data_term", 0.0),
        "energy.data_term_calls": count.get("energy.data_term", 0),
        "energy.mumford_shah_s": incl.get("energy.mumford_shah", 0.0),
        "energy.mumford_shah_calls": count.get("energy.mumford_shah", 0),
        "energy.orthogonality_s": incl.get("energy.orthogonality", 0.0),
        "energy.orthogonality_calls": count.get("energy.orthogonality", 0),
        "energy.total_energy_s": incl.get("energy.total_energy", 0.0),
        "laplacian.pair_s": incl.get("laplacian.pair", 0.0),
        "laplacian.eigensolve_s": incl.get("laplacian.eigensolve", 0.0),
        "laplacian.dense_calls": dense,
        "laplacian.sparse_calls": count.get("laplacian.eigensolve", 0) - dense,
        "descriptors.shot_s": shot_s,
        "descriptors.vertices": vertices,
        "descriptors.flagged": attr_sum("descriptors.shot", "flagged"),
        "descriptors.us_per_vertex": 1e6 * shot_s / vertices if vertices else 0.0,
        "spectral.rank": ranks[-1] if ranks else 0,
        "mesh.construct_s": incl.get("mesh.construct", 0.0),
        "mesh.construct_calls": count.get("mesh.construct", 0),
        "mesh.load_s": incl.get("mesh.load", 0.0),
        "mesh.save_s": incl.get("mesh.save", 0.0),
        "mesh.geodesic_s": incl.get("mesh.geodesic", 0.0),
        "mesh.geodesic_sources": attr_sum("mesh.geodesic", "sources"),
        "bench.shape_s": incl.get("bench.shape", 0.0),
        "bench.cut_search_s": incl.get("bench.cut_search", 0.0),
        "bench.erode_holes_s": incl.get("bench.erode_holes", 0.0),
        "bench.princeton_s": incl.get("bench.princeton", 0.0),
        "matio.save_s": incl.get("matio.save", 0.0),
        "cli.gen_s": incl.get("cli.gen", 0.0),
        "cli.match_s": incl.get("cli.match", 0.0),
        "cli.eval_s": incl.get("cli.eval", 0.0),
        "cli.output_self_s": selfs.get("cli.match", 0.0),
    }
    return m
