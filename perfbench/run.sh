#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Usage, from the root of
# the repository:
#
#   bash perfbench/run.sh --workload fig4-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root: the Go build cache, the binary, the daemon's
# temporary artifact caches and the span files of traced runs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off

# Stamp the commit when the tree is a git checkout; elsewhere the
# manifest says "unknown".
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --workdir "$build" --commit "$commit" "$@"
