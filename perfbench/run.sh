#!/usr/bin/env bash
# Builds perfbench from source into .bench_build and runs it from the
# repository root with the given arguments. The Go build cache, temporary
# files and tool state stay inside the checkout; no module is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local \
	GOTELEMETRY=off TMPDIR="$build/tmp"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
