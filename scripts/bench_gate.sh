#!/bin/sh
# CI perf-regression gate: regenerate the three bench artifacts and hold
# them against the committed baselines (scripts/bench_baselines.json).
#
#   ./scripts/bench_gate.sh
#
# Exits non-zero when
#   - the specializer's speedup over the reference semantics
#     (Semantics.exec) drops below committed * speedup_tolerance on any
#     gated workload, or
#   - the cost-model accuracy report is missing, or its rank correlation
#     collapses below the committed floors, or
#   - the mdhd serving bench misses its throughput floor, sheds more than
#     the committed ceiling, or sees error replies at any concurrency
#     level.
#
# Deliberately not part of check.sh (tier-1 stays fast and timing-free);
# CI runs it as its own step after the test suite.
set -eu

cd "$(dirname "$0")/.."

dune build bench/main.exe
dune exec bench/main.exe -- plan-exec
dune exec bench/main.exe -- model-acc
dune exec bench/main.exe -- serve
dune exec bench/main.exe -- gate scripts/bench_baselines.json
