#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root. Everything it writes — Go build cache, binary, WAL
# directories, span dumps — stays under .bench_build/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="${GOCACHE:-$out/gocache}" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/badbench" .)
cd "$root"
exec "$out/badbench" "$@"
