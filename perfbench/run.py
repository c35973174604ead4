"""pfmatch benchmark: one workload per process, closed loop, one match at a
time.

    python3 perfbench/run.py --workload match-642 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A full record of the run (settings, every operation, and in a traced run
every span) is written under ``.perfbench_out/``.  The exit code is 0 when
every output check passed, 1 when one failed and 2 on a usage error.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
# BLAS threads are pinned before numpy loads: with OpenBLAS's default of
# one thread per core a match spends more CPU time for no speed-up.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
E2E = {
    "setup_s": "s", "solve_s": "s", "match_s": "s", "error_auc": "fraction",
    "coverage": "fraction", "peak_rss_mb": "MB",
}
# gen_s and eval_s are recorded per match but not reported: their cost
# depends on the shape (cut-search steps, Dijkstra sources) and spread by
# up to 21% between seeds.
TIMES = ("setup_s", "solve_s", "match_s")
ACCURACY = ("error_auc", "coverage")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(args):
    import numpy
    import scipy

    def blas_version(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"]["version"]

    return {
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "seconds": args.seconds,
    }


def code_hash(root):
    """Hash of the package and benchmark sources, so stored digests are
    compared only between runs of the same code."""
    h = hashlib.sha256()
    for base in (os.path.join(root, "src", "pfmatch"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


class DigestStore:
    """Digests of earlier runs of the same code, settings and seed."""

    def __init__(self, path, prefix):
        self.path = path
        self.prefix = prefix
        self.known = {}
        if os.path.exists(path):
            with open(path) as fh:
                self.known = json.load(fh)

    def check(self, pair, value):
        key = f"{self.prefix} pair={pair}"
        seen = self.known.setdefault(key, value)
        return seen == value

    def save(self):
        tmp = self.path + f".{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(self.known, fh, indent=0, sort_keys=True)
        os.replace(tmp, self.path)


def run_op(workload, tracer, probe, pair, shape_seed, workdir, traced):
    """One match; returns its record.  Failures are recorded, not raised.

    Stage times are reported at reference speed (see speed.py); the wall
    times are kept as ``raw_times``."""
    import layers

    first_sample = len(probe.samples)
    tracer.op += 1
    for owner, attr, name in workload.stage_wraps:
        tracer.instrument(owner, attr, name)
    if traced:
        layers.install(tracer)
    record = {"op": tracer.op, "pair": pair, "traced": traced,
              "failure": None}
    try:
        record["accuracy"], record["digest"] = workload.run(
            tracer, shape_seed, workdir)
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        record["failure"] = f"{type(exc).__name__}: {exc}"
    finally:
        tracer.uninstall()
    spans = tracer.take()
    if record["failure"] is None:
        record["raw_times"] = workload.times(spans)
        factor = probe.factor_since(first_sample)
        record["speed_factor"] = factor
        record["times"] = {k: v * factor
                           for k, v in record["raw_times"].items()}
        if traced:
            record["layers"] = {
                k: v * factor if layers.PER_LAYER[k][0] in ("s", "us") else v
                for k, v in layers.op_metrics(spans).items()}
    return record, spans


def closed_loop(args, workload, store, workdir):
    """Match the pairs of the pool one after another.

    The loop stops before a pair that would, at the mean pace so far, end
    after ``--seconds``, once every pair has been matched (untraced) or one
    pair has been matched both ways (traced).

    Returns (op records, spans of traced ops, traced-minus-untraced match_s
    per pair)."""
    import workloads
    from spans import Tracer
    from speed import SpeedProbe

    tracer = Tracer()
    ops, spans_out, overhead = [], [], []
    first_digest = {}
    start = time.perf_counter()
    index = 0
    with SpeedProbe() as probe:
        while True:
            pair = index % workload.pool
            shape_seed = workloads.pair_seed(args.seed, pair)
            # A traced run matches each pair twice, untraced and traced, in
            # alternating order so that neither side always runs first.
            if not args.trace:
                passes = (False,)
            else:
                passes = (False, True) if index % 2 == 0 else (True, False)
            done = {}
            for traced in passes:
                rec, spans = run_op(workload, tracer, probe, pair, shape_seed,
                                    os.path.join(workdir, f"pair{pair}"),
                                    traced)
                if rec["failure"] is None:
                    if first_digest.setdefault(pair, rec["digest"]) \
                            != rec["digest"]:
                        rec["failure"] = "digest differs from an earlier " \
                            "match of the same pair in this run"
                    elif not store.check(pair, rec["digest"]):
                        rec["failure"] = "digest differs from an earlier " \
                            "run of the same code, settings and seed"
                if rec["failure"] is None:
                    done[traced] = rec
                ops.append(rec)
                if traced:
                    spans_out.extend(s.as_list() for s in spans)
            if len(done) == 2:
                overhead.append(done[True]["times"]["match_s"] -
                                done[False]["times"]["match_s"])
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed * (index + 1) / index > args.seconds and \
                    (args.trace or index >= workload.pool):
                return ops, spans_out, overhead


def summarise(args, good, overhead):
    """Metrics of the successful ops, and the run's pooled accuracy.

    Raises CheckFailed when the pooled accuracy is outside its sanity
    bound."""
    import layers
    import workloads

    metrics = {}
    if args.trace:
        traced = [r for r in good if r["traced"]]
        for name, (unit, _) in layers.PER_LAYER.items():
            values = [r["layers"][name] for r in traced if name in r["layers"]]
            if values:
                metrics[name] = {"value": statistics.median(values),
                                 "unit": unit}
        if overhead:
            metrics["trace.overhead_s"] = {
                "value": statistics.median(overhead), "unit": "s"}
        return metrics, None
    if not good:
        return metrics, None
    for name in TIMES:
        metrics[name] = {
            "value": statistics.median(r["times"][name] for r in good),
            "unit": E2E[name]}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unit": "MB"}
    firsts = {}
    for r in good:
        firsts.setdefault(r["pair"], r["accuracy"])
    accuracy = workloads.pool_accuracy(list(firsts.values()))
    for name in ACCURACY:
        metrics[name] = {"value": accuracy[name], "unit": E2E[name]}
    return metrics, accuracy


def measure(args, root):
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = environment(args)
    print(json.dumps({"env": env}), flush=True)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    settings = {k: v for k, v in env.items() if k != "seconds"}
    store = DigestStore(
        os.path.join(out_dir, "digests.json"),
        f"{args.workload} seed={args.seed} code={code_hash(root)} "
        f"env={json.dumps(settings, sort_keys=True)}")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    try:
        ops, spans_out, overhead = closed_loop(args, workload, store, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    store.save()

    good = [r for r in ops if r["failure"] is None]
    failed = len(ops) - len(good)
    try:
        metrics, accuracy = summarise(args, good, overhead)
        pool_ok = True
    except workloads.CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        metrics, accuracy, pool_ok = {}, None, False
    expected = set(layers.PER_LAYER) if args.trace else set(E2E)
    correct = failed == 0 and pool_ok and set(metrics) == expected
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": metrics}

    records = os.path.join(out_dir, "records")
    os.makedirs(records, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.time_ns()}.json")
    with open(os.path.join(records, name), "w") as fh:
        json.dump({"args": vars(args), "env": env, "ops": ops,
                   "result": result, "accuracy": accuracy,
                   "spans": spans_out}, fh)
    for r in ops:
        if r["failure"]:
            print(f"failed op {r['op']} (pair {r['pair']}): {r['failure']}",
                  file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args):
    """Every workload, each in its own process; prints one table."""
    import workloads
    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})")
            code = 1
            continue
        print(f"{name}: attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
        if proc.returncode != 0 or not result["correct"]:
            code = 1
    return code


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pfmatch", "solver.py")):
        print("error: run from the root of a pfmatch checkout "
              "(src/pfmatch not found)", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return measure(args, root)


if __name__ == "__main__":
    sys.exit(main())
