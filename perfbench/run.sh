#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper_scale --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the span files stay inside
# .bench_build/ under the current directory (CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

workload="" seed=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case ${args[i]} in
	--workload) workload=${args[i + 1]:-} ;;
	--seed) seed=${args[i + 1]:-} ;;
	esac
done
exec "$out/perfbench" "$@" --spans "$out/spans-$workload-$seed.json"
