#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh compare <base.json> <new.json>
# The Go build cache and temporary files, the binary (.bench_build/) and the
# reports (.bench_out/) all stay inside the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
