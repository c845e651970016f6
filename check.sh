#!/bin/sh
# Repo gate: build everything and run the full test suite from a clean
# tree, exactly as CI would. Usage: ./check.sh
set -eu
cd "$(dirname "$0")"

dune clean
dune build

# Every suite runs once, and alcotest names any failing case. Among
# them: the exhaustive crash-point sweeps (failures), group-commit
# semantics (pipeline), the disabled-probe overhead bound (trace),
# resolution-cache invalidation (pathcache), the shards=1 byte-identity
# property (shard), atomicity and serializability (txn), and the front
# door's no-lost-acks and no-torn-reads cases (server).
dune runtest

# Example gate: each example executable runs once (about 2 s in all);
# an exception or a non-zero exit fails the gate.
for ex in quickstart photo_library email_search provenance_tags crash_recovery
do
  dune exec "examples/$ex.exe"
done

# Repository benchmark self-test (0.3 s): the generator and metric
# helpers, and BENCHMARK.json against the metrics the program reports.
# It writes nothing under perfbench/.
python3 perfbench/run.py --self-test

# Benchmark output gate: one short run of each workload, untraced and
# traced (about 5 to 8 s each), must check every output it produced and
# fail no operation. The result line is the last line of standard
# output; its "correct" must be true and its "failed" 0.
for w in naming wire-write
do
  for trace in 0 1
  do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 \
        --trace "$trace" |
      tail -n 1 |
      python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
if r["correct"] is not True or r["failed"] != 0:
    sys.exit("check.sh: %s --trace %s reported correct=%s failed=%s"
             % (sys.argv[1], sys.argv[2], r["correct"], r["failed"]))
' "$w" "$trace"
  done
done

# Bench bit-rot gate: every experiment once at tiny N; numbers printed
# under --smoke are not measurements. W2, R1, S1, T2, O1, O2 and C6
# assert their acceptance shape on every run. --json writes BENCH_<id>.json
# for the JSON-capable experiments, which CI uploads.
dune exec bench/main.exe -- --smoke --json

# Baseline gate: the fresh BENCH_<id>.json against bench/baselines/.
# Deterministic metrics (descent counts, device traffic, modeled commit
# time) and acceptance booleans, each with a per-metric tolerance;
# wall-clock numbers are never gated. Re-seed a baseline deliberately
# when a change legitimately moves a gated metric.
dune exec bench/compare.exe -- bench/baselines

# Documentation gate: every .mli doc comment must keep compiling to
# HTML. Skipped (with a warning) where odoc isn't installed; CI
# installs it, so the gate is always enforced before merge.
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "check.sh: WARNING odoc not installed, skipping dune build @doc" >&2
fi

echo "check.sh: OK"
