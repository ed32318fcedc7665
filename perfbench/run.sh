#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build writes (Go build
# cache, temporary files, the binary) stays under the build directory,
# $CARGO_TARGET_DIR when set, else .bench_build. Without the program's
# sources next to perfbench/ the build fails and nothing is printed.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomodcache"
export GOFLAGS="-mod=readonly -buildvcs=false"
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local
export GOENV=off

# The commit the results belong to, when this directory is a git
# checkout of its own ("+dirty" with uncommitted changes).
commit=unknown
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit="$(git rev-parse HEAD)"
	if [ -n "$(git status --porcelain)" ]; then
		commit="$commit+dirty"
	fi
fi
export PERFBENCH_COMMIT="$commit"

go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
