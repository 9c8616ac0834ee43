#!/bin/sh
# Print `mdhc check` output and exit status for every diagnostics target the
# CI gates exercise: the whole catalogue, each test/fixtures/*.mdh pragma,
# and the three examples/*.mdh pragmas at CI's parameters. scripts/check.sh
# diffs this against scripts/check_diagnostics.golden; regenerate it
# deliberately with
#
#   sh scripts/check_diagnostics.sh > scripts/check_diagnostics.golden
set -eu

cd "$(dirname "$0")/.."

dune build bin/mdhc.exe

check() { # mdhc check arguments
    rc=0
    out=$(./_build/default/bin/mdhc.exe check "$@" 2> /dev/null) || rc=$?
    printf '$ mdhc check%s\n%s\n[exit %d]\n\n' "${*:+ $*}" "$out" "$rc"
}

check
for f in test/fixtures/*.mdh; do
    check --file "$f"
done
check --file examples/matvec.mdh -P I=16 -P K=16
check --file examples/mbbs.mdh -P I=16 -P J=16
check --file examples/mcc.mdh -P N=1 -P P=112 -P Q=112 -P K=64 -P R=7 -P S=7 -P C=3
