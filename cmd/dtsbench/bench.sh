#!/usr/bin/env bash
# Builds dtsbench from this checkout's source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/dtsbench/bench.sh -workload all -seed 1
#
# Everything the build and the benchmark write (Go build cache, binary,
# inputs, archives, journals, profiles) stays under cmd/dtsbench/.bench_build/.
set -eu
out="$PWD/cmd/dtsbench/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C cmd/dtsbench -o "$out/dtsbench" .
exec "$out/dtsbench" "$@"
