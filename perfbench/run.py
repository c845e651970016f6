#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/NOTES.md).

One run, as BENCHMARK.json's command:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
Repeat mode: run each named workload on seeds 1..N, taking the
workloads in turn for each seed so that a change in the host's speed
falls on all of them alike, then print each metric's median, quartiles
and spread (q3 - q1) / median per workload:
    python3 perfbench/run.py --repeat N --workload W [--workload W2 ...]
        [--seconds S] [--trace 0|1]
Self-test of the generator and the metric helpers, and of
BENCHMARK.json against the metrics the program reports:
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to _build with dune's
shared cache off, and build output goes to stderr, so the last line of
standard output is the result line.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "hfadbench.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/hfadbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit("benchmark build failed")


def run_once(args):
    """One run; returns its parsed result line."""
    out = subprocess.run(
        [EXE] + args, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def self_test():
    ok = subprocess.run([EXE, "selftest"]).returncode == 0
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    listed = subprocess.run([EXE, "metrics"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.split("\n")
    for kind in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in spec[kind]]
        have = [tuple(line.split()[1:]) for line in listed
                if line.startswith(kind + " ")]
        same = want == have
        ok = ok and same
        print(f"{'BENCHMARK.json ' + kind + ' matches the program':60} "
              f"{'ok' if same else 'FAILED'}")
    return ok


def repeat(opts):
    results = {w: ({}, [0, 0, True]) for w in opts.workload}
    for seed in range(1, opts.repeat + 1):
        for w in opts.workload:
            r = run_once(["--workload", w, "--seed", str(seed),
                          "--seconds", str(opts.seconds), "--trace", opts.trace])
            values, totals = results[w]
            totals[0] += r["attempted"]
            totals[1] += r["failed"]
            totals[2] = totals[2] and r["correct"]
            for name, m in r["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in r["metrics"].items()),
                file=sys.stderr, flush=True)
    for w, (values, (attempted, failed, correct)) in results.items():
        print(f"{w}: {opts.repeat} runs, seeds 1..{opts.repeat}, "
              f"attempted {attempted}, failed {failed}, correct {correct}")
        print(f"{'metric':40} {'unit':>8} {'q1':>12} {'median':>12} "
              f"{'q3':>12} {'spread':>8}")
        for name, (unit, vs) in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:40} {unit:>8} {q1:12.6g} {med:12.6g} {q3:12.6g} "
                  f"{spread:8.3f}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--repeat", type=int)
    p.add_argument("--self-test", action="store_true")
    opts = p.parse_args()
    build()
    if opts.self_test:
        sys.exit(0 if self_test() else 1)
    if opts.workload is None:
        p.error("--workload is required")
    if opts.repeat:
        repeat(opts)
        return
    if opts.seed is None or len(opts.workload) > 1:
        p.error("one run takes one --workload and a --seed")
    sys.stdout.flush()
    os.execv(EXE, [EXE, "--workload", opts.workload[0], "--seed",
                   str(opts.seed), "--seconds", str(opts.seconds),
                   "--trace", opts.trace])


if __name__ == "__main__":
    main()
