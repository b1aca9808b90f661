#!/usr/bin/env python3
"""Steadiness check for the perfbench workloads.

Runs one workload N times, with seeds 1 to N and the run length
run_seconds of BENCHMARK.json, and prints for every end-to-end metric
the median, the quartiles and the spread (the distance between the
quartiles as a share of the median, as statistics.quantiles(values,
n=4) gives them), and whether the spread fits the metric's bound in
BENCHMARK.json. It also reports the share of failed operations, which
must be the same in every run.

Run it from the root of the checkout:

    python3 perfbench/steady.py --workload wire_cycle --runs 10
    python3 perfbench/steady.py --workload serve_whatif --runs 10 --save a.json
    python3 perfbench/steady.py --workload serve_whatif --runs 10 --against a.json

--save writes the per-run results; --against compares this set's
medians with a saved set's and flags any metric whose median got worse
by more than its bound. The exit status is 1 when a spread or a
comparison is out of bounds, a run fails, or a run is incorrect.
"""
import argparse
import json
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--save", help="write the runs to this JSON file")
    ap.add_argument("--against", help="compare medians with runs saved by --save")
    args = ap.parse_args()

    bench = load_bench()
    runs = []
    for seed in range(1, args.runs + 1):
        res = run_once(bench, args.workload, seed)
        runs.append({"seed": seed, **res})
        vals = " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items()))
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {vals}", flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "runs": runs}, f, indent=1)

    bad = False
    if not all(r["correct"] for r in runs):
        print("NOT CORRECT: some run failed its reference checks")
        bad = True
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)}" + ("" if len(shares) == 1 else "  DIFFERS between runs"))
    bad |= len(shares) != 1

    prior = None
    if args.against:
        with open(args.against) as f:
            prior = json.load(f)["runs"]
    print(f"{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  fits"
          + ("   vs prior" if prior else ""))
    for m in bench["end_to_end"]:
        name = m["name"]
        vals = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = summarize(vals)
        fits = spread <= m["bound"]
        line = f"{name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {m['bound']:6.3f}  {'yes' if fits else 'NO'}"
        bad |= not fits
        if prior:
            pmed = statistics.median(r["metrics"][name]["value"] for r in prior)
            change = (med - pmed) / pmed if pmed else 0.0
            worse = change if m["better"] == "lower" else -change
            ok = worse <= m["bound"]
            bad |= not ok
            line += f"   {change:+.4f} {'ok' if ok else 'WORSE'}"
        print(line)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
