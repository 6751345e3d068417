#!/usr/bin/env python3
"""Measure the benchmark's baseline and run-to-run spread.

Runs every workload untraced once per seed, and traced once, through
perfbench/run.sh from the repository root, and records one set of runs:
medians, quartiles and spreads (interquartile range over median, the
statistic BENCHMARK.json bounds) with the stamp of the first run. With
--append the set is added to the sets already in the file, and the
last two sets are checked against each other the way the bounds are
meant: every spread but setup_s's within its bound, and no median worse
than the previous set's by more than its bound. Every such check is
kept in the file's list of agreements.

    python3 perfbench/baseline.py --runs 10 --first-seed 101
    python3 perfbench/baseline.py --runs 10 --first-seed 201 --append
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["xmark-cold", "xmark-warm", "xmark-churn", "rbench-recursive"]

NOTE = ("First accepted numbers of this benchmark; no performance gain is claimed. "
        "The three BENCH_*.json files and their xqbench generators stay for now: "
        "retiring them is a later change, as this one touches nothing outside the benchmark.")


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    stamp = next(json.loads(l[len("stamp "):]) for l in lines if l.startswith("stamp "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)}: incorrect verdicts:\n{out.stderr}")
    return stamp, result, wall


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values), "values": values}


def measure_set(args):
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    out = {"measured": time.strftime("%Y-%m-%d %H:%M"), "seeds": seeds, "workloads": {}}
    for w in args.workloads.split(","):
        runs, walls, stamp = [], [], None
        for seed in seeds:
            st, res, wall = run(w, seed, args.seconds, 0)
            stamp = stamp or st
            runs.append(res["metrics"])
            walls.append(wall)
            print(w, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()}, file=sys.stderr)
        _, traced, twall = run(w, seeds[0], args.seconds, 1)
        out["workloads"][w] = {
            "stamp": stamp,
            "run_wall_s": spread(walls),
            "end_to_end": {k: dict(spread([r[k]["value"] for r in runs]), unit=runs[0][k]["unit"])
                           for k in runs[0]},
            "traced_seed": seeds[0],
            "traced_run_wall_s": twall,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    return out


def agreement(first, second, bench):
    """Checks the second set against the first with BENCHMARK.json's bounds."""
    result, ok = {}, True
    for m in bench["end_to_end"]:
        for w, ws in second["workloads"].items():
            a = first["workloads"][w]["end_to_end"][m["name"]]
            b = ws["end_to_end"][m["name"]]
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            spreads_ok = m["name"] == "setup_s" or max(a["iqr_over_median"], b["iqr_over_median"]) <= m["bound"]
            good = worse <= m["bound"] and spreads_ok
            ok = ok and good
            result.setdefault(w, {})[m["name"]] = {
                "bound": m["bound"], "median_worse_by": worse,
                "spreads": [a["iqr_over_median"], b["iqr_over_median"]], "ok": good}
    return ok, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", default="perfbench/baseline.json")
    ap.add_argument("--append", action="store_true", help="add a set to the file and check it against the last one")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    report = {"note": NOTE, "seconds": args.seconds, "sets": [], "agreements": []}
    if args.append and os.path.exists(args.out):
        with open(args.out) as f:
            report = json.load(f)
    report["sets"].append(measure_set(args))
    if len(report["sets"]) >= 2:
        ok, detail = agreement(report["sets"][-2], report["sets"][-1], bench)
        n = len(report["sets"])
        report["agreements"].append({"sets": [n - 2, n - 1], "ok": ok, "metrics": detail})
        print("agreement:", "ok" if ok else "FAILED", file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
