#!/usr/bin/env bash
# Builds the benchmark from this checkout's source into .bench_build and
# runs it with the given flags, e.g.
#   bash recdbench/run.sh --workload local-cold --seed 1 --seconds 10 --trace 0
# The Go build cache and temporary files stay inside .bench_build, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/recdbench" && go build -o "$out/recdbench" .) >&2
cd "$root"
exec "$out/recdbench" "$@"
