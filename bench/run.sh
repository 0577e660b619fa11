#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the Go
# toolchain writes (build cache, module cache, temporary files, its own
# configuration) is kept under .bench_build/ too, so a run touches
# nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
# Build messages go to standard error: the last line of standard output
# belongs to the benchmark's result.
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/bench" .) >&2

exec "$build/bench" "$@"
