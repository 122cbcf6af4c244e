#!/usr/bin/env bash
# Builds rentbench from source and runs it with the given flags. Run it
# from the repository root: every build output (the Go build cache, the
# binary, span files) stays in .bench_build there, and nothing is fetched
# from the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$root/cmd/rentbench" && go build -o "$build/rentbench" .)
exec "$build/rentbench" -spans-dir "$build/spans" "$@"
