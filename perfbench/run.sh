#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload corpus --seed 2016 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build at the checkout root):
# the Go build and module caches, the binary, per-run scratch inputs and
# trace files. Without the repository's own module beside perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: $root/go.mod not found: the benchmark needs the repository source beside it" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/bin"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --work "$build" "$@"
