#!/usr/bin/env bash
# Builds cmd/benchrun from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash cmd/benchrun/bench.sh --workload market-policy-100k --seed 3 --seconds 20 --trace 0
#   bash cmd/benchrun/bench.sh            # every workload, one child process each
#
# The build is offline and every file it writes (binary, build cache,
# toolchain config) stays under .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$root/cmd/benchrun" && go build -o "$out/benchrun" .)
cd "$root"
exec "$out/benchrun" "$@"
