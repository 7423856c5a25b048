#!/usr/bin/env python3
"""Run the benchmark as the driver does and report how steady it is.

For every workload this runs the untraced pass once per seed, takes each
end-to-end metric's median over the seeds and its spread (the distance
between the first and third quartile as a share of the median), and prints
both next to the metric's bound. With --sets 2 it does that twice and also
prints how far the two medians are apart, which is the check a later change
is held to. README.md's baseline tables are this script's output.

    python3 benchmark/spread.py [--sets 2] [--seeds 10] [--workload NAME] [--json FILE]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(decl, workload, seed):
    cmd = decl["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(decl["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("%s seed %d failed:\n%s%s" % (workload, seed, proc.stdout, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: %d of %d checks failed" % (workload, seed, result["failed"], result["attempted"]))
    return {name: cell["value"] for name, cell in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json", help="also write every value measured to this file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        decl = json.load(f)
    workloads = args.workload or [w["name"] for w in decl["workloads"]]
    raw = {}
    worst = 0.0
    print("| workload | metric | bound | " + " | ".join(
        "median %d | spread %d" % (s + 1, s + 1) for s in range(args.sets)) + (" | medians apart |" if args.sets > 1 else " |"))
    print("|---|---|---|" + "---|---|" * args.sets + ("---|" if args.sets > 1 else ""))
    for w in workloads:
        sets = []
        for s in range(args.sets):
            runs = [run_once(decl, w, 1 + s * args.seeds + i) for i in range(args.seeds)]
            sets.append(runs)
        raw[w] = sets
        for m in decl["end_to_end"]:
            cells, medians = [], []
            for runs in sets:
                values = [r[m["name"]] for r in runs]
                med, spr = statistics.median(values), spread(values)
                medians.append(med)
                if m["name"] != "setup_s":
                    worst = max(worst, spr / m["bound"])
                cells += ["%.4g %s" % (med, m["unit"]), "%.1f%%" % (100 * spr)]
            if args.sets > 1:
                apart = medians[1] / medians[0] - 1
                if m["better"] == "higher":
                    apart = -apart
                worst = max(worst, apart / m["bound"])
                cells.append("%+.1f%%" % (100 * apart))
            print("| %s | %s | %g%% | %s |" % (w, m["name"], 100 * m["bound"], " | ".join(cells)))
        sys.stdout.flush()
    print("\nworst spread or worsening, as a share of its bound: %.2f" % worst)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f)


if __name__ == "__main__":
    main()
