"""Summarise benchmark records, or compare two sets of them.

    python3 perfbench/report.py [RECORDS_DIR]
    python3 perfbench/report.py --compare BASE_DIR NEW_DIR

Records are the JSON files ``perfbench/run.py`` writes to
``.perfbench_out/records``.  The summary prints, per workload, every
end-to-end metric (median and quartiles over runs, with unit), the self
and inclusive time of every traced span, the share of each stage in its
parent, and the tracing overhead.  ``--compare`` refuses (exit 2) when the
two sets were run with different settings, and exits 1 when a metric got
worse by more than its bound in BENCHMARK.json.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import (Span, inclusive_by_name, inclusive_within,  # noqa: E402
                   self_by_name)

DEFAULT_DIR = os.path.join(".perfbench_out", "records")
TOP_SPANS = 20  # span rows per workload, by self time
# (stage, layers inside it) whose shares of the stage the summary prints.
SHARES = (
    ("stage.solve", ("solver.refine", "solver.v_step", "solver.c_step",
                     "solver.nearest_columns")),
    ("solver.refine", ("solver.nearest_columns", "solver.nonlinear_cg")),
    ("stage.setup", ("descriptors.shot", "laplacian.eigensolve",
                     "mesh.construct")),
    ("stage.match", ("mesh.load", "descriptors.shot", "laplacian.eigensolve",
                     "stage.solve", "mesh.save")),
    ("stage.gen", ("bench.shape", "bench.cut_search", "bench.erode_holes",
                   "mesh.save")),
    ("stage.eval", ("bench.princeton", "mesh.load")),
)


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            runs.append(json.load(fh))
    if not runs:
        sys.exit(f"no records in {directory}")
    return runs


def settings(runs):
    """The one setting shared by every run, or exit naming the difference."""
    first = runs[0]["env"]
    for r in runs[1:]:
        if r["env"] != first:
            diff = {k for k in first if first[k] != r["env"].get(k)}
            sys.exit(f"records differ in settings {sorted(diff)}: "
                     "refusing to combine them")
    return first


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(runs, trace):
    out = {}
    for r in runs:
        if r["args"]["trace"] == trace:
            out.setdefault(r["args"]["workload"], []).append(r)
    return out


def op_spans(run):
    """Spans of each traced op of a run, as lists of Span, with times
    scaled to reference speed by the op's speed factor."""
    factor = {o["op"]: o.get("speed_factor", 1.0) for o in run["ops"]}
    ops = {}
    for name, start, end, parent, op, attrs in run["spans"]:
        f = factor[op]
        ops.setdefault(op, []).append(Span(name, start * f, end * f, parent,
                                           op, attrs))
    return list(ops.values())


def end_to_end_table(runs):
    for workload, group in sorted(by_workload(runs, 0).items()):
        seeds = sorted(r["args"]["seed"] for r in group)
        failed = sum(r["result"]["failed"] for r in group)
        attempted = sum(r["result"]["attempted"] for r in group)
        print(f"\n{workload}: {len(group)} untraced runs, seeds {seeds}, "
              f"{failed}/{attempted} operations failed")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s}  unit")
        names = group[0]["result"]["metrics"]
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in group
                      if name in r["result"]["metrics"]]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.1%}  {names[name]['unit']}")
        # Not gated: stage times that are not end-to-end metrics, wall
        # times before the speed correction, and the accuracy numbers of
        # acceptance criterion 7.
        extra = {}
        for r in group:
            ops = [o for o in r["ops"] if o["failure"] is None]
            for key in ops[0]["times"] if ops else ():
                if key not in names:
                    extra.setdefault(key, []).append(statistics.median(
                        o["times"][key] for o in ops))
                extra.setdefault(f"raw {key}", []).append(statistics.median(
                    o["raw_times"][key] for o in ops))
            if ops:
                extra.setdefault("speed factor", []).append(statistics.median(
                    o["speed_factor"] for o in ops))
            for key in ("mean_error", "frac_below_0.05"):
                if r.get("accuracy"):
                    extra.setdefault(key, []).append(r["accuracy"][key])
        for name, values in extra.items():
            q1, med, q3 = quartiles(values)
            print(f"  {name:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{(q3 - q1) / med:8.1%}  (not gated)")


def trace_table(runs):
    for workload, group in sorted(by_workload(runs, 1).items()):
        incl, selfs = {}, {}
        for r in group:
            for spans in op_spans(r):
                for name, t in inclusive_by_name(spans).items():
                    incl.setdefault(name, []).append(t)
                for name, t in self_by_name(spans).items():
                    selfs.setdefault(name, []).append(t)
        med_incl = {k: statistics.median(v) for k, v in incl.items()}
        med_self = {k: statistics.median(v) for k, v in selfs.items()}
        n_ops = max((len(v) for v in incl.values()), default=0)
        print(f"\n{workload}: {len(group)} traced runs, {n_ops} traced "
              "matches; median per match")
        print(f"  {'span':28s} {'self s':>10s} {'incl s':>10s}")
        for name in sorted(med_self, key=med_self.get, reverse=True)[:TOP_SPANS]:
            print(f"  {name:28s} {med_self[name]:10.4f} "
                  f"{med_incl[name]:10.4f}")
        for parent, children in SHARES:
            if not med_incl.get(parent):
                continue
            within = {}
            for r in group:
                for spans in op_spans(r):
                    for name, t in inclusive_within(spans, parent).items():
                        within.setdefault(name, []).append(t)
            parts = ", ".join(
                f"{c} {statistics.median(within[c]) / med_incl[parent]:.0%}"
                for c in children if c in within)
            print(f"  share of {parent} ({med_incl[parent]:.3f} s): {parts}")
        overhead = [r["result"]["metrics"]["trace.overhead_s"]["value"]
                    for r in group
                    if "trace.overhead_s" in r["result"]["metrics"]]
        if overhead:
            print(f"  tracing overhead (traced minus untraced match_s, "
                  f"median of {len(overhead)} runs): "
                  f"{statistics.median(overhead):+.4f} s")


def compare(base_dir, new_dir):
    base, new = load(base_dir), load(new_dir)
    a, b = settings(base), settings(new)
    if a != b:
        diff = sorted(k for k in a if a[k] != b.get(k))
        print(f"refusing to compare: settings differ in {diff}")
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    worse = 0
    base_w, new_w = by_workload(base, 0), by_workload(new, 0)
    for workload in sorted(set(base_w) & set(new_w)):
        print(f"\n{workload}: {len(base_w[workload])} base runs, "
              f"{len(new_w[workload])} new runs")
        for name, m in spec.items():
            def med(group):
                return statistics.median(
                    r["result"]["metrics"][name]["value"] for r in group)
            old, cur = med(base_w[workload]), med(new_w[workload])
            change = (cur - old) / old
            regress = change if m["better"] == "lower" else -change
            flag = "WORSE" if regress > m["bound"] else ""
            worse += bool(flag)
            print(f"  {name:18s} {old:12.6g} -> {cur:12.6g} {change:+8.1%} "
                  f"(bound {m['bound']:.0%}) {flag}")
    return 1 if worse else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("records", nargs="?", default=DEFAULT_DIR)
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    runs = load(args.records)
    print("settings:", json.dumps(settings(runs), sort_keys=True))
    end_to_end_table(runs)
    trace_table(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
