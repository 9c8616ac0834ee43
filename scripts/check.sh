#!/bin/sh
# Tier-1 verification entry point: build, run the full test suite, and
# guard the repository hygiene invariants.
#
#   ./scripts/check.sh
#
# Fails if:
#   - the build or any test fails,
#   - build artifacts under _build/ (or *.install files) are ever tracked
#     by git again (they were purged in the tuning-engine PR and are
#     covered by .gitignore),
#   - observability run artifacts (BENCH_obs.json, BENCH_plan_exec.json,
#     BENCH_model_acc.json, *.trace.json, *.folded flamegraph stacks) are
#     tracked: they are per-run outputs, not sources,
#   - tuning run artifacts (checkpoints, quarantined databases, tuning.db)
#     are tracked,
#   - compiled-backend temp artifacts (mdh_cc_* sources/binaries, *.bin,
#     *.o, a.out) are tracked: they belong in $TMPDIR, never in git,
#   - the chaos stage fails: tuning under fault injection must degrade
#     gracefully (same schedule, exit 0) and a deadline-suspended tune
#     must resume bit-identically,
#   - the plan-consistency stage fails: every Plan consumer must go through
#     the Plan IR (no Schedule internals in the executor / cost model /
#     kernel codegen / plan specializer, each of which must exist) and the
#     catalogue's default-schedule plan digests must match
#     scripts/plan_digests.golden,
#   - the plan-build pin fails: a file under lib/, bin/, bench/ or
#     examples/ other than lib/lowering/plan_cache.ml(i) names Plan_cache —
#     every consumer builds its plan with Plan.build, because the cache's
#     key costs more than the plan it saves,
#   - the compile-per-call pin fails: a module under lib/runtime/ creates
#     a Memo table, or an OCaml file other than perf/* and
#     lib/runtime/specializer.ml(i) names Specializer.clear (a no-op kept
#     only for the perf/ harness) — the Specializer compiles on every
#     call, because the compile costs less than a key would,
#   - the operation-table pin fails: lib/serve/server.ml decodes no
#     workload/device/input/strategy itself and bin/mdhc.ml carries no
#     second printer for daemon replies (both go through Mdh_serve.Op),
#   - the cache-accounting pin fails: hit/miss counters under lib/ are
#     registered only by Mdh_support.Memo (and the persistent tuning db),
#   - the directive-rules pin fails: the codes MDH001-MDH015 are spelled
#     out under lib/ only by Validate (the rules) and Diagnostic (the code
#     table), so the rules cannot grow a second copy,
#   - the expression-toolkit pin fails: generated C is patched as text
#     (replace_word / Str_replace under lib/), or a lib/ module other than
#     Expr, the four backends that give each constructor its own meaning
#     (Eval, Typecheck, C_like, Specializer) and the two record-building
#     workloads (PRL, KMeans) matches on MkRecord — every other structural
#     recursion goes through Expr.children / Expr.map_children,
#   - the unboxed-storage pin fails: a file under lib/runtime or
#     lib/codegen converts a Dense.t element by element
#     (`Scalar.to_float (Dense.get_linear ...` or
#     `Dense.set_linear ... (Scalar.f32 ...`) — the fast backends read and
#     write the fp32 store from Dense.floats in place, so the per-call
#     copies it replaced cannot creep back,
#   - the diagnostics golden fails: `mdhc check` output over the catalogue,
#     the test fixtures and the example pragmas must match
#     scripts/check_diagnostics.golden,
#   - the differential stage fails: the plan-compiled specializer and (when
#     gcc is on PATH) the compiled OpenMP C must reproduce the reference
#     interpreter's results; without gcc the C half prints an explicit SKIP
#     line — it is never silently skipped. The specializer half covers all
#     14 catalogue workloads, prl's and kmeans's custom operators and
#     records included, and runs prl and kmeans again with --parallel, so
#     both ways a custom operator folds (lane by lane along a pw row, and
#     across the distributed cells) run end to end; the C half keeps its
#     four workloads, since cc refuses MCC,
#   - the profiler stage fails: `mdhc profile` must render for matmul, for
#     jacobi_3d (whose row is driven by a Distribute level) and for
#     ccsd(t) (driven by a Tree_reduce level) on the specializer, and for
#     prl on the walker.
set -eu

cd "$(dirname "$0")/.."

tracked_artifacts=$(git ls-files -- '_build' '*.install' || true)
if [ -n "$tracked_artifacts" ]; then
    echo "error: build artifacts are tracked by git:" >&2
    echo "$tracked_artifacts" | head -10 >&2
    echo "(run: git rm -r --cached _build '*.install')" >&2
    exit 1
fi

tracked_obs=$(git ls-files -- 'BENCH_obs.json' '**/BENCH_obs.json' '*.trace.json' \
    'BENCH_plan_exec.json' '**/BENCH_plan_exec.json' \
    'BENCH_model_acc.json' '**/BENCH_model_acc.json' '*.folded' \
    'BENCH_serve.json' '**/BENCH_serve.json' '*.sock' || true)
if [ -n "$tracked_obs" ]; then
    echo "error: observability artifacts are tracked by git:" >&2
    echo "$tracked_obs" | head -10 >&2
    echo "(run: git rm --cached <file>; they are covered by .gitignore)" >&2
    exit 1
fi

tracked_tuning=$(git ls-files -- '*.ckpt' '*.corrupt' 'tuning.db' '**/tuning.db' || true)
if [ -n "$tracked_tuning" ]; then
    echo "error: tuning run artifacts (checkpoints/quarantines/dbs) are tracked by git:" >&2
    echo "$tracked_tuning" | head -10 >&2
    echo "(run: git rm --cached <file>; they are covered by .gitignore)" >&2
    exit 1
fi

tracked_cc=$(git ls-files -- 'mdh_cc_*' '**/mdh_cc_*' '*.bin' '*.o' 'a.out' '**/a.out' || true)
if [ -n "$tracked_cc" ]; then
    echo "error: compiled-backend temp artifacts are tracked by git:" >&2
    echo "$tracked_cc" | head -10 >&2
    echo "(the cc backend writes to \$TMPDIR and cleans up; run: git rm --cached <file>)" >&2
    exit 1
fi

dune build
dune runtest

# static analysis gate: the catalogue and the example pragmas must stay free
# of error- and warning-severity diagnostics (hints are allowed)
dune exec bin/mdhc.exe -- check --strict > /dev/null
dune exec bin/mdhc.exe -- check --strict --file examples/matvec.mdh \
    -P I=16 -P K=16 > /dev/null
dune exec bin/mdhc.exe -- check --strict --file examples/mbbs.mdh \
    -P I=16 -P J=16 > /dev/null
dune exec bin/mdhc.exe -- check --strict --file examples/mcc.mdh \
    -P N=1 -P P=112 -P Q=112 -P K=64 -P R=7 -P S=7 -P C=3 > /dev/null

# docs drift guard: the code index in docs/DIAGNOSTICS.md is generated from
# Diagnostic.code_table (regenerate with: dune exec scripts/gen_diagnostics.exe)
dune exec scripts/gen_diagnostics.exe -- --check

# plan-consistency stage, part 1: Plan.t is the single executable IR.
# The four consumers must not reach back into Schedule internals — a
# match on Schedule fields in any of them means the refactor regressed.
# A consumer that is renamed or deleted must be taken off the list here,
# not silently dropped from the pin.
plan_consumers="lib/runtime/exec.ml lib/runtime/specializer.ml lib/lowering/cost.ml lib/codegen/kernel.ml"
for f in $plan_consumers; do
    [ -f "$f" ] || {
        echo "error: plan consumer $f is missing (update plan_consumers)" >&2
        exit 1; }
done
schedule_leaks=$(grep -nE \
    'Schedule\.(clamp|legal|tile_sizes|parallel_dims|used_layers|innermost_parallel_dim|parallel_iterations)' \
    $plan_consumers || true)
if [ -n "$schedule_leaks" ]; then
    echo "error: Plan consumers reach into Schedule internals:" >&2
    echo "$schedule_leaks" | head -10 >&2
    echo "(consume Plan.t instead)" >&2
    exit 1
fi

# plan-build pin: Plan.build is the one place a plan is made, with no
# cache between it and its consumers. Plan_cache survives only for the
# benchmark harness under perf/, which is outside the pinned directories.
plan_cache_leaks=$(grep -rn 'Plan_cache' lib bin bench examples \
    | grep -vE '^lib/lowering/plan_cache\.mli?:' || true)
if [ -n "$plan_cache_leaks" ]; then
    echo "error: a plan is built through Plan_cache:" >&2
    echo "$plan_cache_leaks" | head -10 >&2
    echo "(call Plan.build directly: its cost is below the cache key's)" >&2
    exit 1
fi

# compile-per-call pin: the Specializer keeps no compiled plans, since a
# compile costs less than a key that tells plans apart (and a key that
# missed part of the operator made verdicts depend on call history). Its
# clear is a no-op that only the benchmark harness under perf/ still calls.
runtime_cache_leaks=$( { grep -rn 'Memo\.create' lib/runtime
    grep -rn --include='*.ml' --include='*.mli' 'Specializer\.clear' \
        lib bin bench test examples scripts \
        | grep -vE '^lib/runtime/specializer\.mli?:'; } || true)
if [ -n "$runtime_cache_leaks" ]; then
    echo "error: the Specializer's compiles are cached or cleared again:" >&2
    echo "$runtime_cache_leaks" | head -10 >&2
    echo "(compile on every call; Specializer.clear does nothing)" >&2
    exit 1
fi

# operation-table pin: tune/plan/check/optimize/exec are defined once, in
# lib/serve/op.ml. The daemon must not grow its own argument decoding and
# mdhc must not grow its own reply printers again.
op_leaks=$( { grep -nE 'device_of|params_of|strategy_of|find_workload' lib/serve/server.ml
    grep -nE 'remote_(tune|plan|check|optimize|run)|\<r(str|num|int)\>' bin/mdhc.ml; } || true)
if [ -n "$op_leaks" ]; then
    echo "error: an op is decoded or printed outside Mdh_serve.Op:" >&2
    echo "$op_leaks" | head -10 >&2
    exit 1
fi

# cache-accounting pin: every in-memory cache is a named Mdh_support.Memo
# table, which binds its own <name>.hits/.misses counters. No other module
# under lib/ registers hit/miss counters; the persistent tuning database
# (lib/atf/tuning_db.ml) is not a memo and keeps its own.
cache_leaks=$(grep -rnE 'Metrics\.counter "[^"]*\.(hits|misses)"' lib \
    | grep -vE '^lib/(support/memo|atf/tuning_db)\.ml:' || true)
if [ -n "$cache_leaks" ]; then
    echo "error: hit/miss counters registered outside Mdh_support.Memo:" >&2
    echo "$cache_leaks" | head -10 >&2
    echo "(create the cache with Memo.create \"<layer>.<name>\" instead)" >&2
    exit 1
fi

# directive-rules pin: Validate is the one implementation of MDH001-MDH015.
# The analyzer turns its errors into diagnostics; it must not re-check the
# rules itself, so no other module under lib/ names those codes.
rule_leaks=$(grep -rnE --include='*.ml' '"MDH0(0[1-9]|1[0-5])"' lib \
    | grep -vE '^lib/(directive/validate|analysis/diagnostic)\.ml:' || true)
if [ -n "$rule_leaks" ]; then
    echo "error: directive-rule codes MDH001-MDH015 outside Validate:" >&2
    echo "$rule_leaks" | head -10 >&2
    echo "(report the violation from Mdh_directive.Validate.elaborate instead)" >&2
    exit 1
fi

# expression-toolkit pin: Expr.children / Expr.map_children are the one
# child traversal and the rewriter's tier-1 rules the one simplifier, which
# the C emitters call instead of editing their output as text. A new
# MkRecord match outside the allow-list is a hand-written recursion that
# restates which children a node has.
expr_leaks=$( { grep -rnE 'replace_word|Str_replace' lib
    grep -rlE --include='*.ml' 'MkRecord' lib \
        | grep -vE '^lib/(expr/(expr|eval|typecheck)|codegen/c_like|runtime/specializer|workloads/(prl|kmeans))\.ml$'
    } || true)
if [ -n "$expr_leaks" ]; then
    echo "error: expression code bypasses the Expr traversal or patches C as text:" >&2
    echo "$expr_leaks" | head -10 >&2
    echo "(recurse with Expr.children / Expr.map_children; render indices through emit_expr's ~index_of)" >&2
    exit 1
fi

# unboxed-storage pin: fp32/fp64 tensors keep their elements in a flat
# float store, which Fastpath, the Specializer and Cc read and write in
# place through Dense.floats. An element-by-element conversion in
# lib/runtime or lib/codegen is the per-call copy that store replaced.
copy_leaks=$(grep -rnE \
    'Scalar\.to_float \(Dense\.get_linear|Dense\.set_linear .*\(Scalar\.f32' \
    lib/runtime lib/codegen || true)
if [ -n "$copy_leaks" ]; then
    echo "error: a fast backend converts a Dense.t element by element:" >&2
    echo "$copy_leaks" | head -10 >&2
    echo "(read or write the float store from Dense.floats in place)" >&2
    exit 1
fi

chaos_dir=$(mktemp -d)
mdhd_pid=
# a failing stage exits with its daemon still up: stop it with the rest
trap 'if [ -n "$mdhd_pid" ]; then kill -TERM "$mdhd_pid" 2> /dev/null || true; fi
    rm -rf "$chaos_dir"' EXIT

# plan-consistency stage, part 2: `mdhc plan` must succeed over the whole
# catalogue and the structural digests must match the committed golden file
# (regenerate deliberately with: dune exec bin/mdhc.exe -- plan --digest)
dune exec bin/mdhc.exe -- plan --digest > "$chaos_dir/plan_digests.txt"
diff -u scripts/plan_digests.golden "$chaos_dir/plan_digests.txt" || {
    echo "error: plan digests diverge from scripts/plan_digests.golden" >&2
    echo "(an intentional plan/schedule change must update the golden file)" >&2
    exit 1; }

# diagnostics golden: the diagnostics `mdhc check` prints (codes, spans,
# messages, exit status) must match the committed file (regenerate
# deliberately with: sh scripts/check_diagnostics.sh > scripts/check_diagnostics.golden)
sh scripts/check_diagnostics.sh > "$chaos_dir/diagnostics.txt"
diff -u scripts/check_diagnostics.golden "$chaos_dir/diagnostics.txt" || {
    echo "error: mdhc check output diverges from scripts/check_diagnostics.golden" >&2
    echo "(an intentional diagnostics change must update the golden file)" >&2
    exit 1; }

# differential stage: execute what we generate. The specializer backend
# must reproduce the reference interpreter on every catalogue workload
# (reductions, scan, stencils, high-rank and batched contractions,
# convolutions, and the custom-operator record workloads prl and kmeans);
# with gcc matmul, mbbs, jacobi1d and ccsd(t) round-trip through the
# generated OpenMP C. `mdhc run` exits non-zero on any oracle mismatch, so
# success is the assertion. The sequential plan has no Distribute level,
# so prl's and kmeans's operators fold lane by lane along their pw rows;
# --parallel gives them Distribute + Tree_reduce, where the row runs
# across the distributed cells, one run of the operator's body per strip.
for wl in dot matvec matmul 'matmul^t' bmatmul gaussian_2d jacobi1d jacobi_3d \
    mbbs 'ccsd(t)' mcc mcc_caps prl kmeans; do
    dune exec bin/mdhc.exe -- run "$wl" --backend special > /dev/null || {
        echo "error: specializer differential failed on $wl" >&2; exit 1; }
done
for wl in prl kmeans; do
    dune exec bin/mdhc.exe -- run "$wl" --parallel --backend special > /dev/null || {
        echo "error: specializer differential failed on $wl --parallel" >&2; exit 1; }
done
if command -v gcc > /dev/null 2>&1; then
    for wl in matmul mbbs jacobi1d 'ccsd(t)'; do
        dune exec bin/mdhc.exe -- run "$wl" --backend cc > /dev/null || {
            echo "error: compiled-C differential failed on $wl" >&2; exit 1; }
    done
else
    echo "check.sh: SKIP compiled-C differential stage (gcc not on PATH)"
fi

# profiler stage: `mdhc profile` must render a per-plan-level breakdown on
# both backends and honour its JSON/flame contracts (bit-identity of
# unprofiled runs and the 5% sum bound are pinned by the test suite)
for wl in matmul jacobi_3d 'ccsd(t)'; do
    dune exec bin/mdhc.exe -- profile "$wl" > /dev/null || {
        echo "error: mdhc profile $wl (specializer) failed" >&2; exit 1; }
done
dune exec bin/mdhc.exe -- profile prl --backend interp \
    --flame "$chaos_dir/prl.folded" > /dev/null 2> /dev/null || {
    echo "error: mdhc profile prl (walker) failed" >&2; exit 1; }
test -s "$chaos_dir/prl.folded" || {
    echo "error: mdhc profile wrote no flamegraph stacks" >&2; exit 1; }

# chaos stage: tuning under deterministic fault injection on each site
# must degrade gracefully — exit 0 and the fault-free schedule

dune exec bin/mdhc.exe -- tune matvec --no-cache --budget 40 \
    --strategy random > "$chaos_dir/plain.txt" 2> /dev/null
grep -v 'wall)\|^cost model:' "$chaos_dir/plain.txt" > "$chaos_dir/plain.cmp"
for spec in 'cost.eval:raise@10' 'pool.job:raise@1' 'db.read:raise@1'; do
    MDH_FAULTS="$spec" dune exec bin/mdhc.exe -- tune matvec --no-cache \
        --budget 40 --strategy random --parallel \
        > "$chaos_dir/chaos.txt" 2> /dev/null || {
        echo "error: tune under MDH_FAULTS=$spec failed" >&2; exit 1; }
    grep -v 'wall)\|^cost model:' "$chaos_dir/chaos.txt" > "$chaos_dir/chaos.cmp"
    diff -u "$chaos_dir/plain.cmp" "$chaos_dir/chaos.cmp" > /dev/null || {
        echo "error: MDH_FAULTS=$spec changed the tuned schedule" >&2; exit 1; }
done

# crash/resume stage: a deadline-suspended anneal (exit 3) resumed to
# completion must be bit-identical to the uninterrupted run
dune exec bin/mdhc.exe -- tune matvec --strategy anneal --budget 60 --seed 9 \
    --tuning-db "$chaos_dir/ref.db" > "$chaos_dir/ref.txt" 2> /dev/null
rc=0
dune exec bin/mdhc.exe -- tune matvec --strategy anneal --budget 60 --seed 9 \
    --tuning-db "$chaos_dir/resume.db" --checkpoint "$chaos_dir/tune.ckpt" \
    --deadline 0.0000001 > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "error: deadline suspension exited $rc, expected 3" >&2; exit 1
fi
dune exec bin/mdhc.exe -- tune matvec --strategy anneal --budget 60 --seed 9 \
    --tuning-db "$chaos_dir/resume.db" --checkpoint "$chaos_dir/tune.ckpt" \
    --resume > "$chaos_dir/resumed.txt" 2> /dev/null
grep -v 'wall)\|^cost model:' "$chaos_dir/ref.txt" > "$chaos_dir/ref.cmp"
grep -v 'wall)\|^cost model:' "$chaos_dir/resumed.txt" > "$chaos_dir/resumed.cmp"
diff -u "$chaos_dir/ref.cmp" "$chaos_dir/resumed.cmp" > /dev/null || {
    echo "error: resumed tune differs from the uninterrupted run" >&2; exit 1; }

# serve stage: the mdhd daemon must keep serving under injected
# transport faults, drain gracefully on SIGTERM (suspending an in-flight
# tune to a checkpoint), resume that tune bit-identically after a
# restart, and leak neither socket nor checkpoint files.

MDHD=./_build/default/bin/mdhd.exe
MDHC_BIN=./_build/default/bin/mdhc.exe
serve_sock="$chaos_dir/mdhd.sock"
serve_state="$chaos_dir/mdhd-state"

wait_for_daemon() { # pid
    i=0
    while [ ! -S "$serve_sock" ]; do
        i=$((i + 1))
        [ "$i" -le 100 ] || { echo "error: mdhd never bound $serve_sock" >&2; exit 1; }
        kill -0 "$1" 2> /dev/null || { echo "error: mdhd died during startup" >&2; exit 1; }
        sleep 0.1
    done
}

# part 1: chaos — every 3rd connection's read raises in the daemon; the
# transport error is absorbed (one failed client, a served successor)
# and after a burst of concurrent clients the daemon still answers.
MDH_FAULTS='serve.read:raise@3' "$MDHD" --socket "$serve_sock" \
    --state-dir "$serve_state" --tuning-db "$chaos_dir/serve.db" \
    > "$chaos_dir/mdhd1.log" 2>&1 &
mdhd_pid=$!
wait_for_daemon "$mdhd_pid"
client_pids=
for i in 1 2 3 4 5 6; do
    "$MDHC_BIN" plan matvec --device cpu --remote "$serve_sock" \
        > "$chaos_dir/serve_plan.$i" 2>&1 &
    client_pids="$client_pids $!"
done
for pid in $client_pids; do wait "$pid" || true; done
served=$(grep -l 'digest' "$chaos_dir"/serve_plan.* | wc -l)
[ "$served" -ge 4 ] || {
    echo "error: only $served/6 clients served under serve.read chaos" >&2; exit 1; }
"$MDHC_BIN" plan matvec --device cpu --remote "$serve_sock" > /dev/null || {
    echo "error: mdhd stopped serving after injected read faults" >&2; exit 1; }
kill -TERM "$mdhd_pid"
wait "$mdhd_pid" || {
    echo "error: mdhd (chaos) did not exit 0 on SIGTERM" >&2; exit 1; }
mdhd_pid=
[ ! -e "$serve_sock" ] || {
    echo "error: mdhd (chaos) leaked its socket file" >&2; exit 1; }

# part 2: SIGTERM mid-tune. Slow the daemon's cost model with injected
# delays (500 ms every 5th evaluation — delays never change schedules),
# land SIGTERM while a remote anneal is in flight: the client must see a suspension (exit 3), the
# daemon must drain to exit 0, and a restarted daemon must resume the
# checkpoint to a result bit-identical to an uninterrupted local tune.
"$MDHC_BIN" tune matvec --strategy anneal --budget 2000 --seed 9 \
    --no-cache > "$chaos_dir/serve_ref.txt" 2> /dev/null
MDH_FAULTS='cost.eval:delay=500/5' "$MDHD" --socket "$serve_sock" \
    --state-dir "$serve_state" --tuning-db "$chaos_dir/serve.db" \
    > "$chaos_dir/mdhd2.log" 2>&1 &
mdhd_pid=$!
wait_for_daemon "$mdhd_pid"
rc_file="$chaos_dir/tune_rc"
( rc=0
  "$MDHC_BIN" tune matvec --strategy anneal --budget 2000 --seed 9 \
    --no-cache --remote "$serve_sock" > /dev/null 2> "$chaos_dir/suspend.err" ||
    rc=$?
  echo "$rc" > "$rc_file" ) &
client_pid=$!
sleep 1
kill -TERM "$mdhd_pid"
wait "$mdhd_pid" || {
    echo "error: mdhd did not drain to exit 0 on SIGTERM mid-tune" >&2; exit 1; }
mdhd_pid=
wait "$client_pid" || true
rc=$(cat "$rc_file")
if [ "$rc" -ne 3 ]; then
    echo "error: remote tune under SIGTERM exited $rc, expected 3 (suspended)" >&2
    cat "$chaos_dir/suspend.err" >&2
    exit 1
fi
[ ! -e "$serve_sock" ] || {
    echo "error: mdhd leaked its socket file after drain" >&2; exit 1; }
ls "$serve_state"/*.ckpt > /dev/null 2>&1 || {
    echo "error: suspended tune left no checkpoint in $serve_state" >&2; exit 1; }

"$MDHD" --socket "$serve_sock" --state-dir "$serve_state" \
    --tuning-db "$chaos_dir/serve.db" > "$chaos_dir/mdhd3.log" 2>&1 &
mdhd_pid=$!
wait_for_daemon "$mdhd_pid"
"$MDHC_BIN" tune matvec --strategy anneal --budget 2000 --seed 9 \
    --no-cache --remote "$serve_sock" --resume \
    > "$chaos_dir/serve_resumed.txt" 2> /dev/null || {
    echo "error: remote --resume after daemon restart failed" >&2; exit 1; }
grep '^best schedule:\|^estimated time:' "$chaos_dir/serve_ref.txt" \
    > "$chaos_dir/serve_ref.cmp"
grep '^best schedule:\|^estimated time:' "$chaos_dir/serve_resumed.txt" \
    > "$chaos_dir/serve_resumed.cmp"
diff -u "$chaos_dir/serve_ref.cmp" "$chaos_dir/serve_resumed.cmp" || {
    echo "error: resumed remote tune differs from the uninterrupted local run" >&2
    exit 1; }
if ls "$serve_state"/*.ckpt > /dev/null 2>&1; then
    echo "error: completed remote tune leaked checkpoint files:" >&2
    ls "$serve_state" >&2
    exit 1
fi
kill -TERM "$mdhd_pid"
wait "$mdhd_pid" || {
    echo "error: mdhd (resume) did not exit 0 on SIGTERM" >&2; exit 1; }
mdhd_pid=
[ ! -e "$serve_sock" ] || {
    echo "error: mdhd (resume) leaked its socket file" >&2; exit 1; }

# part 3: local = remote. Every op prints through one printer, so each
# command's stdout and exit status must be the same in-process and with
# --remote, once wall-clock times are masked. The daemon runs without a
# tuning database so a remote tune searches exactly like a local
# --no-cache one. (run --backend cc is local-only and not compared.)
"$MDHD" --socket "$serve_sock" --state-dir "$serve_state" --no-cache \
    > "$chaos_dir/mdhd4.log" 2>&1 &
mdhd_pid=$!
wait_for_daemon "$mdhd_pid"
same_remote() { # mdhc arguments
    rc_local=0
    rc_remote=0
    "$MDHC_BIN" "$@" > "$chaos_dir/local.txt" 2> /dev/null || rc_local=$?
    "$MDHC_BIN" "$@" --remote "$serve_sock" > "$chaos_dir/remote.txt" 2> /dev/null ||
        rc_remote=$?
    for side in local remote; do
        sed -E 's/ in [0-9.e+-]+s/ in Ts/; s/\([0-9.e+-]+s wall\)/(Ts wall)/' \
            "$chaos_dir/$side.txt" > "$chaos_dir/$side.cmp"
    done
    if [ "$rc_local" -ne "$rc_remote" ] ||
        ! diff -u "$chaos_dir/local.cmp" "$chaos_dir/remote.cmp" >&2; then
        echo "error: mdhc $* differs with --remote (exit $rc_local vs $rc_remote)" >&2
        exit 1
    fi
}
same_remote plan --digest
same_remote plan matvec --device cpu --schedule 'tiles=7x9 parallel=[0] layers=[0]'
same_remote check
same_remote check --strict --file test/fixtures/warn.mdh
[ "$rc_remote" -eq 1 ] || {
    echo "error: check --strict on a warning exited $rc_remote, expected 1" >&2; exit 1; }
same_remote optimize prl
same_remote optimize prl --json
same_remote tune matmul --budget 40 --no-cache
same_remote run dot --parallel
same_remote run prl
kill -TERM "$mdhd_pid"
wait "$mdhd_pid" || {
    echo "error: mdhd (local = remote) did not exit 0 on SIGTERM" >&2; exit 1; }
mdhd_pid=

echo "check.sh: OK"
