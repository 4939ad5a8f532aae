#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ under the current directory (the
# root of a checkout) and runs it with the given arguments. Everything the
# build writes — the Go build cache included — stays inside the checkout.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$out/radar-benchmark" .
# The root module's tests do not reach this module, so the check that
# BENCHMARK.json still says what spec.go says is made on every run.
if ! "$out/radar-benchmark" -print-benchmark-json | cmp -s - "$root/BENCHMARK.json"; then
	echo "benchmark: BENCHMARK.json differs from benchmark/spec.go; regenerate it with .bench_build/radar-benchmark -print-benchmark-json > BENCHMARK.json" >&2
	exit 2
fi
exec "$out/radar-benchmark" -out "$out" "$@"
