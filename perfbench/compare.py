#!/usr/bin/env python3
"""Run sets of benchmark runs and compare them.

    python3 perfbench/compare.py sweep OUT [--seeds 1-10]
        Run the benchmark once per workload of BENCHMARK.json and seed, at
        its run_seconds, saving each run's output as
        OUT/<workload>-seed<N>.txt, then print the spread.

    python3 perfbench/compare.py spread DIR
        For each workload and end-to-end metric of one set of runs: the
        median, the quartiles, and the interquartile range as a share of
        the median against a third of the metric's bound.

    python3 perfbench/compare.py diff BASE NEW
        For each workload and metric: each side's median and quartiles,
        and whether NEW is within BENCHMARK.json's bound of BASE (a
        metric may only get worse by its bound, as a share of BASE's
        median). Workload-specific figures, which have no bound, are
        listed with their medians only. Exits 1 when a bounded metric got
        worse by more than its bound or the failed share differs.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_run(path):
    """(workload, result JSON, {figure: value}) of one saved run."""
    workload, figures, result = None, {}, None
    with open(path) as f:
        lines = [l.rstrip("\n") for l in f if l.strip()]
    for line in lines:
        if line.startswith("# perfbench "):
            fields = dict(kv.split("=", 1) for kv in line.split()[2:])
            workload = fields["workload"]
        elif line.startswith("figure "):
            parts = line.split()
            figures[parts[1]] = float(parts[2])
    if lines:
        result = json.loads(lines[-1])
    return workload, result, figures


def load_set(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".txt"):
            workload, result, figures = parse_run(os.path.join(directory, name))
            if workload and result:
                runs.setdefault(workload, []).append((result, figures))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for r, _ in runs if name in r["metrics"]]


def failed_share(runs):
    attempted = sum(r["attempted"] for r, _ in runs)
    failed = sum(r["failed"] for r, _ in runs)
    return failed, attempted


def cmd_spread(directory):
    bench = spec()
    worst = 0.0
    for workload, runs in sorted(load_set(directory).items()):
        failed, attempted = failed_share(runs)
        correct = all(r["correct"] for r, _ in runs)
        print("%s: %d runs, failed %d of %d, correct %s" % (workload, len(runs), failed, attempted, correct))
        for m in bench["end_to_end"]:
            values = metric_values(runs, m["name"])
            if not values:
                print("  %-28s missing" % m["name"])
                continue
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / med if med else float("inf")
            target = m["bound"] / 3
            flag = "ok" if share <= target or m["name"] == "setup_s" else "WIDE"
            if m["name"] != "setup_s":
                worst = max(worst, share / target)
            print("  %-28s median %14.4f %-8s IQR/median %6.3f  bound/3 %6.3f  %s"
                  % (m["name"], med, m["unit"], share, target, flag))
    return 0 if worst <= 1 else 1


def cmd_diff(base_dir, new_dir):
    bench = spec()
    base, new = load_set(base_dir), load_set(new_dir)
    status = 0
    for workload in sorted(set(base) | set(new)):
        b, n = base.get(workload, []), new.get(workload, [])
        print("%s: %d base runs, %d new runs" % (workload, len(b), len(n)))
        if not b or not n:
            print("  missing on one side")
            status = 1
            continue
        fb, ab = failed_share(b)
        fn, an = failed_share(n)
        same_share = fb * an == fn * ab
        print("  failed: base %d of %d, new %d of %d%s" % (fb, ab, fn, an, "" if same_share else "  DIFFERENT SHARE"))
        if not same_share:
            status = 1
        for m in bench["end_to_end"]:
            vb, vn = metric_values(b, m["name"]), metric_values(n, m["name"])
            if not vb or not vn:
                print("  %-28s missing" % m["name"])
                status = 1
                continue
            b1, bm, b3 = quartiles(vb)
            n1, nm, n3 = quartiles(vn)
            change = (nm - bm) / bm if bm else 0.0
            worse = -change if m["better"] == "higher" else change
            verdict = "within bound" if worse <= m["bound"] else "WORSE than bound"
            if worse > m["bound"]:
                status = 1
            print("  %-28s base %12.4f [%12.4f, %12.4f]  new %12.4f [%12.4f, %12.4f]  %+6.1f%%  bound %4.0f%%  %s"
                  % (m["name"], bm, b1, b3, nm, n1, n3, 100 * change, 100 * m["bound"], verdict))
        figures = sorted(set(k for _, f in b for k in f) | set(k for _, f in n for k in f))
        for name in figures:
            vb = [f[name] for _, f in b if name in f]
            vn = [f[name] for _, f in n if name in f]
            if vb and vn:
                print("  %-28s base %12.4f  new %12.4f  (no bound)" % (name, statistics.median(vb), statistics.median(vn)))
    return status


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def cmd_sweep(out, args):
    bench = spec()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    if args and (len(args) != 2 or args[0] != "--seeds"):
        sys.exit(__doc__)
    seeds = seeds_of(args[1] if args else "1-10")
    os.makedirs(out, exist_ok=True)
    for workload in workloads:
        for seed in seeds:
            path = os.path.join(out, "%s-seed%d.txt" % (workload, seed))
            with open(path, "w") as f:
                run = subprocess.run(
                    [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    stdout=f)
            if run.returncode != 0:
                sys.exit("run %s seed %d exited %d" % (workload, seed, run.returncode))
            sys.stderr.write("done %s seed %d\n" % (workload, seed))
    return cmd_spread(out)


def main(argv):
    if len(argv) >= 2 and argv[0] == "sweep":
        return cmd_sweep(argv[1], argv[2:])
    if len(argv) == 2 and argv[0] == "spread":
        return cmd_spread(argv[1])
    if len(argv) == 3 and argv[0] == "diff":
        return cmd_diff(argv[1], argv[2])
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
