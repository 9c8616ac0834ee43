#!/bin/sh
# CLI contract tests for mdhc: --version, non-zero exit codes on bad
# input, observability flags, and schedule bit-identity under --trace.
# Usage: cli_test.sh path/to/mdhc.exe
set -eu

MDHC=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# --version exits 0 and prints a dotted version number
"$MDHC" --version >"$tmp/version.txt" 2>&1 || fail "--version exited non-zero"
grep -Eq '^[0-9]+\.[0-9]+' "$tmp/version.txt" || fail "--version printed no version"

# bad invocations must exit non-zero (and not crash)
if "$MDHC" frobnicate >/dev/null 2>&1; then
  fail "unknown subcommand exited 0"
fi
if "$MDHC" tune no-such-workload --no-cache >/dev/null 2>&1; then
  fail "unknown workload exited 0"
fi
if "$MDHC" tune matmul --no-cache --device quantum >/dev/null 2>&1; then
  fail "unknown device exited 0"
fi
if "$MDHC" tune matmul --no-cache --input 99 >/dev/null 2>&1; then
  fail "unknown input set exited 0"
fi
if "$MDHC" tune >/dev/null 2>&1; then
  fail "missing positional workload exited 0"
fi

# tune with observability on: exit 0, metrics summary on stderr (stdout
# must stay machine-readable), trace file is Chrome trace_event JSON
"$MDHC" tune matmul --no-cache --budget 40 \
  --trace "$tmp/trace.json" --metrics >"$tmp/traced.txt" 2>"$tmp/traced.err" ||
  fail "tune --trace --metrics exited non-zero"
grep -q '"traceEvents"' "$tmp/trace.json" || fail "trace file has no traceEvents"
grep -q '"ph"' "$tmp/trace.json" || fail "trace file has no events"
grep -q '\[metrics\]' "$tmp/traced.err" || fail "no [metrics] summary on stderr"
if grep -q '\[metrics\]' "$tmp/traced.txt"; then
  fail "[metrics] summary leaked onto stdout"
fi
grep -q 'trace written to' "$tmp/traced.err" || fail "no trace notice on stderr"

# --metrics-out routes the report to a file; stderr stays quiet about it
"$MDHC" run dot --metrics --metrics-out "$tmp/metrics.txt" \
  >"$tmp/run_mout.txt" 2>"$tmp/run_mout.err" ||
  fail "run --metrics-out exited non-zero"
grep -q '\[metrics\]' "$tmp/metrics.txt" || fail "--metrics-out wrote no summary"
if grep -q '\[metrics\]' "$tmp/run_mout.txt" "$tmp/run_mout.err"; then
  fail "--metrics-out still printed the summary to a stream"
fi

# bit-identity: the tuned schedule (and every other deterministic line)
# is unchanged by tracing and metrics; only wall-clock timings may differ
"$MDHC" tune matmul --no-cache --budget 40 >"$tmp/plain.txt" 2>/dev/null ||
  fail "plain tune exited non-zero"
grep -v 'wall)' "$tmp/plain.txt" >"$tmp/plain.cmp"
grep -v 'wall)' "$tmp/traced.txt" >"$tmp/traced.cmp"
diff -u "$tmp/plain.cmp" "$tmp/traced.cmp" >&2 ||
  fail "tracing changed deterministic output"
grep -q '^best schedule:' "$tmp/plain.cmp" || fail "no schedule line to compare"

# run with --metrics also works end to end
"$MDHC" run dot --metrics >"$tmp/run.txt" 2>&1 || fail "run --metrics exited non-zero"
grep -q 'result check: OK' "$tmp/run.txt" || fail "run result check failed"

# --- run backends: specializer and compiled C ---

# the plan-compiled specializer executes and reports its compile and run
# times
"$MDHC" run matmul --backend special --metrics >"$tmp/run_special.txt" 2>&1 ||
  fail "run --backend special exited non-zero"
grep -q 'result check: OK' "$tmp/run_special.txt" ||
  fail "specializer result check failed"
grep -q 'runtime\.specializer\.' "$tmp/run_special.txt" ||
  fail "no specializer counters under --metrics"

# interp runs the reference, whatever --parallel says
"$MDHC" run matmul --backend interp --parallel >"$tmp/run_interp.txt" 2>&1 ||
  fail "run --backend interp exited non-zero"
grep -q 'result check: OK' "$tmp/run_interp.txt" || fail "interp check failed"
grep -q '(reference)' "$tmp/run_interp.txt" || fail "interp run not labelled reference"

# the record-typed workloads with a custom combine operator run on the
# specializer too, and match their hand-written oracles
for wl in prl kmeans; do
  "$MDHC" run "$wl" --backend special >"$tmp/run_special_$wl.txt" 2>&1 ||
    fail "run $wl --backend special exited non-zero"
  grep -q 'result check: OK' "$tmp/run_special_$wl.txt" ||
    fail "specializer result check failed on $wl"
done

# compiled OpenMP C, when a C compiler is present (skip, never silently)
if command -v gcc >/dev/null 2>&1; then
  "$MDHC" run matmul --backend cc >"$tmp/run_cc.txt" 2>&1 ||
    fail "run --backend cc exited non-zero"
  grep -q 'result check: OK' "$tmp/run_cc.txt" || fail "compiled-C check failed"
else
  echo "cli_test: SKIP compiled-C backend check (gcc not on PATH)"
fi

# --- mdhc check: the static diagnostics engine ---

# the release version (Mdh_serve.Op.version)
grep -q '^1\.9\.0' "$tmp/version.txt" || fail "--version is not 1.9.0"

# --- mdhc plan: the executable IR, printed and fingerprinted ---

# a single workload/device plan names its distribute level and a digest
"$MDHC" plan matvec --device cpu >"$tmp/plan.txt" 2>&1 ||
  fail "plan matvec exited non-zero"
grep -q 'distribute dims' "$tmp/plan.txt" || fail "plan printed no distribute level"
grep -Eq 'digest [0-9a-f]{8}' "$tmp/plan.txt" || fail "plan printed no digest"

# --digest emits one `workload device digest` line per catalogue entry x device
"$MDHC" plan --digest >"$tmp/digests.txt" 2>&1 || fail "plan --digest exited non-zero"
grep -Eq '^matvec +cpu +[0-9a-f]{8}$' "$tmp/digests.txt" ||
  fail "plan --digest has no matvec cpu line"
n_lines=$(wc -l <"$tmp/digests.txt")
n_workloads=$("$MDHC" list | wc -l)
[ "$n_lines" -eq $((2 * n_workloads)) ] ||
  fail "plan --digest line count is not 2 x catalogue size"

# digests are deterministic across invocations
"$MDHC" plan --digest >"$tmp/digests2.txt" 2>&1 || fail "second plan --digest failed"
diff -u "$tmp/digests.txt" "$tmp/digests2.txt" >&2 || fail "plan digests not stable"

# an explicit legal schedule is honoured; an illegal one is rejected
"$MDHC" plan matvec --device cpu \
  --schedule 'tiles=7x9 parallel=[0] layers=[0]' >"$tmp/plan_sched.txt" 2>&1 ||
  fail "plan with explicit schedule exited non-zero"
if "$MDHC" plan matvec --device cpu \
  --schedule 'tiles=7x9 parallel=[99] layers=[0]' >/dev/null 2>&1; then
  fail "plan accepted an illegal schedule"
fi

# plan construction is counted under --metrics
"$MDHC" plan matmul --metrics >"$tmp/plan_metrics.txt" 2>&1 ||
  fail "plan --metrics exited non-zero"
grep -q 'lowering\.plan\.builds' "$tmp/plan_metrics.txt" ||
  fail "no plan-build counter under --metrics"

# --- fault injection and checkpoint/resume contracts ---

# a bad --inject spec is rejected with a non-zero exit
if "$MDHC" tune matmul --no-cache --budget 10 --inject 'bogus.site:raise' \
  >/dev/null 2>&1; then
  fail "bad --inject spec exited 0"
fi
# ... and so is a bad MDH_FAULTS spec, for any command
if MDH_FAULTS='cost.eval:explode' "$MDHC" list >/dev/null 2>&1; then
  fail "bad MDH_FAULTS spec exited 0"
fi

# trigger-syntax edge cases each die with their *named* diagnostic, so a
# typo'd chaos spec is debuggable from the error alone
inject_diag() { # spec expected-fragment
  if "$MDHC" tune matmul --no-cache --budget 5 --inject "$1" \
    >/dev/null 2>"$tmp/inject.err"; then
    fail "--inject '$1' exited 0"
  fi
  grep -q "$2" "$tmp/inject.err" ||
    fail "--inject '$1' did not mention '$2' (got: $(cat "$tmp/inject.err"))"
}
inject_diag 'cost.eval:raise@0' 'bad hit index'
inject_diag 'cost.eval:raise@-1' 'bad hit index'
inject_diag 'cost.eval:raise/0' 'bad repeat count'
inject_diag 'serve.reed:raise' 'unknown site'
inject_diag 'SERVE.READ:raise' 'unknown site'
# the unknown-site diagnostic enumerates the valid sites, serve.* included
inject_diag 'nope:raise' 'serve.handle'

# --remote to a socket nobody serves is a clean, named failure
if "$MDHC" tune matmul --remote "$tmp/no-such.sock" >/dev/null 2>"$tmp/remote.err"; then
  fail "--remote to a dead socket exited 0"
fi
grep -q 'is the daemon running?' "$tmp/remote.err" ||
  fail "--remote failure does not point at the daemon"

# a one-shot injected cost fault in a parallel fan-out degrades
# gracefully: same schedule as the fault-free run, exit 0 (sequential
# searches have no fallback — an injected raise there is the crash case,
# covered by the checkpoint/resume contract below)
"$MDHC" tune matmul --no-cache --budget 40 --strategy random \
  >"$tmp/rand_ref.txt" 2>/dev/null || fail "random-strategy reference failed"
"$MDHC" tune matmul --no-cache --budget 40 --strategy random --parallel \
  --inject 'cost.eval:raise@10' >"$tmp/chaos.txt" 2>/dev/null ||
  fail "tune under one-shot injection failed"
# the cost-model line is process-local accounting (a degraded retry
# re-evaluates configs), so exclude it like the wall-clock timings
grep -v 'wall)\|^cost model:' "$tmp/rand_ref.txt" >"$tmp/rand_ref.cmp"
grep -v 'wall)\|^cost model:' "$tmp/chaos.txt" >"$tmp/chaos.cmp"
diff -u "$tmp/rand_ref.cmp" "$tmp/chaos.cmp" >&2 ||
  fail "one-shot injection changed the tuned schedule"

# an immediate deadline suspends annealing to a checkpoint with exit 3,
# and --resume completes bit-identically to an uninterrupted run
"$MDHC" tune matmul --strategy anneal --budget 60 --seed 9 \
  --tuning-db "$tmp/ref.db" >"$tmp/anneal_ref.txt" 2>/dev/null ||
  fail "reference anneal tune failed"
rc=0
"$MDHC" tune matmul --strategy anneal --budget 60 --seed 9 \
  --tuning-db "$tmp/resume.db" --checkpoint "$tmp/tune.ckpt" \
  --deadline 0.0000001 >/dev/null 2>"$tmp/suspend.err" || rc=$?
[ "$rc" -eq 3 ] || fail "deadline suspension did not exit 3 (got $rc)"
[ -f "$tmp/tune.ckpt" ] || fail "suspension left no checkpoint"
grep -q 'rerun with --resume' "$tmp/suspend.err" || fail "no resume hint on stderr"
"$MDHC" tune matmul --strategy anneal --budget 60 --seed 9 \
  --tuning-db "$tmp/resume.db" --checkpoint "$tmp/tune.ckpt" --resume \
  >"$tmp/anneal_resumed.txt" 2>/dev/null || fail "resume after suspension failed"
grep -v 'wall)\|^cost model:' "$tmp/anneal_ref.txt" >"$tmp/anneal_ref.cmp"
grep -v 'wall)\|^cost model:' "$tmp/anneal_resumed.txt" >"$tmp/anneal_resumed.cmp"
diff -u "$tmp/anneal_ref.cmp" "$tmp/anneal_resumed.cmp" >&2 ||
  fail "resumed tune differs from uninterrupted run"
[ ! -f "$tmp/tune.ckpt" ] || fail "checkpoint not deleted after completion"

# a clean catalogue workload checks out with exit 0
"$MDHC" check matmul >"$tmp/check_ok.txt" 2>&1 || fail "check matmul exited non-zero"
grep -q 'checked 1 target' "$tmp/check_ok.txt" || fail "check printed no summary"

# a broken pragma yields exit 1 and at least two distinct diagnostic codes,
# each anchored to a source position, in a single invocation
if "$MDHC" check --file fixtures/broken.mdh >"$tmp/check_bad.txt" 2>&1; then
  fail "check on broken.mdh exited 0"
fi
codes=$(grep -oE 'MDH[0-9]+' "$tmp/check_bad.txt" | sort -u | wc -l)
[ "$codes" -ge 2 ] || fail "check on broken.mdh reported fewer than 2 distinct codes"
grep -Eq ':[0-9]+:[0-9]+: error\[MDH' "$tmp/check_bad.txt" ||
  fail "check diagnostics carry no source positions"

# warnings gate the exit code only under --strict; hints never do
"$MDHC" check --file fixtures/warn.mdh >"$tmp/check_warn.txt" 2>&1 ||
  fail "warning-only check exited non-zero without --strict"
grep -q 'warning\[MDH101\]' "$tmp/check_warn.txt" || fail "unused-input warning missing"
if "$MDHC" check --strict --file fixtures/warn.mdh >/dev/null 2>&1; then
  fail "check --strict ignored a warning"
fi

# --json emits SARIF with rule identifiers
"$MDHC" check --json --file fixtures/broken.mdh >"$tmp/check.sarif" 2>&1 || true
grep -q '"ruleId"' "$tmp/check.sarif" || fail "check --json emitted no ruleId"
grep -q '"version":"2.1.0"' "$tmp/check.sarif" || fail "check --json is not SARIF 2.1.0"

# --- mdhc optimize: the verified equality-saturation pass ---

# a workload with redundancy reports applied rules, their justification,
# and a cost-model delta
"$MDHC" optimize prl >"$tmp/opt_prl.txt" 2>&1 || fail "optimize prl exited non-zero"
grep -q 'raw plan:' "$tmp/opt_prl.txt" || fail "optimize printed no raw plan line"
grep -q 'justification:' "$tmp/opt_prl.txt" || fail "optimize printed no justification"
grep -q 'cost-model delta:' "$tmp/opt_prl.txt" || fail "optimize printed no delta"

# unknown workloads and devices are clean non-zero exits
if "$MDHC" optimize no-such-workload >/dev/null 2>&1; then
  fail "optimize of unknown workload exited 0"
fi
if "$MDHC" optimize prl --device quantum >/dev/null 2>&1; then
  fail "optimize on unknown device exited 0"
fi

# --json is a single mdh-optimize/1 document on stdout (deep
# well-formedness is pinned in test_rewrite.ml through Json_in, which
# parses this same emitter's output)
"$MDHC" optimize prl --json --metrics >"$tmp/opt.json" 2>/dev/null ||
  fail "optimize --json exited non-zero"
head -c 1 "$tmp/opt.json" | grep -q '{' || fail "optimize --json stdout is not JSON"
grep -q '"schema":"mdh-optimize/1"' "$tmp/opt.json" ||
  fail "optimize --json has no schema"
grep -q '"justification"' "$tmp/opt.json" || fail "optimize --json has no justification"
if grep -q '\[metrics\]' "$tmp/opt.json"; then
  fail "--metrics leaked into optimize --json stdout"
fi

# --no-rewrite reports the raw plan unchanged: same digest on both lines,
# zero applied rules, and its raw line is bit-identical to the default
# run's raw line (the pass only ever adds a rewritten alternative)
"$MDHC" optimize prl --no-rewrite >"$tmp/opt_raw.txt" 2>&1 ||
  fail "optimize --no-rewrite exited non-zero"
grep -q 'no rewrites applied' "$tmp/opt_raw.txt" ||
  fail "--no-rewrite still applied rewrites"
raw_digest=$(grep -oE 'digest [0-9a-f]{8}' "$tmp/opt_raw.txt" | sort -u | wc -l)
[ "$raw_digest" -eq 1 ] || fail "--no-rewrite changed the plan digest"
grep '^raw plan:' "$tmp/opt_prl.txt" >"$tmp/opt_rawline_default.txt"
grep '^raw plan:' "$tmp/opt_raw.txt" >"$tmp/opt_rawline_norw.txt"
diff -u "$tmp/opt_rawline_default.txt" "$tmp/opt_rawline_norw.txt" >&2 ||
  fail "--no-rewrite changed the raw plan line"

# tune honours --no-rewrite as a first-class escape hatch
"$MDHC" tune matmul --no-cache --budget 10 --no-rewrite >/dev/null 2>&1 ||
  fail "tune --no-rewrite exited non-zero"

# --- mdhc profile: the plan-level profiler ---

# the tree view names plan-level paths, the enclosing exec row, and the
# backend phases
"$MDHC" profile matmul >"$tmp/profile.txt" 2>&1 || fail "profile matmul exited non-zero"
grep -Eq '^  L0 ' "$tmp/profile.txt" || fail "profile printed no L0 row"
grep -Eq '^  leaf ' "$tmp/profile.txt" || fail "profile printed no leaf row"
grep -Eq '^  exec ' "$tmp/profile.txt" || fail "profile printed no exec row"
grep -q 'specializer.run' "$tmp/profile.txt" || fail "profile printed no phases"
grep -Eq 'digest [0-9a-f]{8}' "$tmp/profile.txt" || fail "profile printed no digest"

# --json replaces the tree with the mdh-profile/1 document, and --metrics
# must not pollute it
"$MDHC" profile matmul --json --metrics >"$tmp/profile.json" 2>/dev/null ||
  fail "profile --json exited non-zero"
head -c 1 "$tmp/profile.json" | grep -q '{' || fail "profile --json stdout is not JSON"
grep -q '"schema": "mdh-profile/1"' "$tmp/profile.json" ||
  fail "profile --json has no schema"
grep -q '"model_fraction"' "$tmp/profile.json" ||
  fail "profile --json has no model attribution"
if grep -q '\[metrics\]' "$tmp/profile.json"; then
  fail "--metrics leaked into profile --json stdout"
fi

# --flame writes collapsed stacks: workload;digest;level-chain self_us
"$MDHC" profile matmul --flame "$tmp/matmul.folded" >/dev/null 2>&1 ||
  fail "profile --flame exited non-zero"
grep -Eq '^matmul;[0-9a-f]{8};L0 .* [0-9]+$' "$tmp/matmul.folded" ||
  fail "flame file has no collapsed stacks"

# the specializer profiles prl, records and custom operator included
"$MDHC" profile prl >"$tmp/profile_prl.txt" 2>&1 ||
  fail "profile prl exited non-zero"
grep -Eq '^  exec ' "$tmp/profile_prl.txt" || fail "prl profile has no exec row"
grep -q 'specializer.run' "$tmp/profile_prl.txt" ||
  fail "specializer profile of prl printed no phases"
# each profiled run compiles the plan once, so the compile phase counts
# --repeat
"$MDHC" profile dot --json --repeat 2 2>/dev/null |
  grep -q '"path": "phase:specializer.compile", "count": 2,' ||
  fail "profile did not compile once per run"
# a job's loop control is charged to the level the run splits into jobs:
# ccsd(t)'s Distribute level (L0, over its Tree_reduce level) counts them
"$MDHC" profile 'ccsd(t)' --json 2>/dev/null |
  grep -Eq '"path": "L0", "label": "distribute [^"]*", "count": [1-9]' ||
  fail "profile charged no job to ccsd(t)'s Distribute level"
# the profiler has one backend, so --backend is not an option
if "$MDHC" profile prl --backend interp >/dev/null 2>&1; then
  fail "profile accepted --backend"
fi
if "$MDHC" profile no-such-workload >/dev/null 2>&1; then
  fail "profile of unknown workload exited 0"
fi

echo "cli_test: all checks passed"
