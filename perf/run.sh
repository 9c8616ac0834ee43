#!/bin/sh
# Build the benchmark and the mdhd daemon from source, then run the
# benchmark's e2e mode with the given arguments. Run from the repository
# root:
#
#   sh perf/run.sh --workload exec-fp32 --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the JSON
# result. The shared dune cache is off: the build stays inside _build.
set -eu
DUNE_CACHE=disabled dune build --root . ./bin/mdhd.exe ./perf/main.exe 1>&2
exec ./_build/default/perf/main.exe e2e "$@"
