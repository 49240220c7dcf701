#!/usr/bin/env bash
# Builds axmemod and the benchmark from source, then runs the benchmark.
# Run from the repository root, e.g.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache, the go command's configuration
# directory (telemetry switched off) and per-run scratch data stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin # the Go installer's default
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config/go/telemetry"
# Telemetry off: otherwise the go command forks a detached, setsid'd
# upload sidecar that can outlive this script.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off \
	XDG_CONFIG_HOME=$out/config
go build -o "$out/bin/axmemod" ./cmd/axmemod >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -axmemod "$out/bin/axmemod" -scratch "$out" "$@"
