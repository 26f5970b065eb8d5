#!/usr/bin/env bash
# Builds certbench from source and runs it with the given flags:
#
#   bash cmd/certbench/run.sh --workload prove-large --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# results files all stay under the build directory ($CARGO_TARGET_DIR when
# set, else .bench_build), so a run writes nothing outside the checkout.
# Without the program's sources beside it the build fails and the script
# exits non-zero before printing any result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/cmd/certbench" && go build -o "$build/certbench" .)
exec "$build/certbench" -out "$build/results" "$@"
