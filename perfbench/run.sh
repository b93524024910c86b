#!/usr/bin/env bash
# Builds the EDM benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
# Every build artefact, Go cache and output file stays under $OUT
# (CARGO_TARGET_DIR when set, else .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOPATH=$out/gopath \
	GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/edmperf" .) >&2
exec "$out/edmperf" -out "$out" "$@"
