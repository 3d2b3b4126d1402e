#!/usr/bin/env bash
# Builds the end-to-end benchmark and the programs it drives from this
# checkout, then runs it. Arguments pass through, for example:
#
#   bash e2ebench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOFLAGS=
cd "$root"
go build -o "$out/bin/" ./cmd/simrank ./cmd/simrankd ./cmd/simrank-gateway ./cmd/simrank-ingestd >&2
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" -bin "$out/bin" -work "$out/work" -out "$out/results" "$@"
