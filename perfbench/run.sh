#!/usr/bin/env bash
# Builds the perfbench command from this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload edge-burst --seed 1 --seconds 30 --trace 0
#
# Build cache, binary, result records and span files all go under
# .bench_build/ in the current directory. Without the repository around
# perfbench/ the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off

bin="$out/perfbench-bin"
if ! (cd "$here" && go build -o "$bin" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 3
fi
exec "$bin" --out "$out/perfbench" "$@"
