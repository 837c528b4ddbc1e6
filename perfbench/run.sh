#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the repository
# root and runs it; all arguments pass through. --workload all runs
# orbit, composite and dashboard in turn. See perfbench/README.md.
#
#   bash perfbench/run.sh --workload orbit --seed 1 --seconds 30 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/perfbench" .) >&2

rest=()
all=0
while [ $# -gt 0 ]; do
	if [ "$1" = --workload ] && [ "${2:-}" = all ]; then
		all=1
		shift 2
	else
		rest+=("$1")
		shift
	fi
done
if [ "$all" = 0 ]; then
	exec "$build/perfbench" ${rest[@]+"${rest[@]}"}
fi
for w in orbit composite dashboard; do
	"$build/perfbench" --workload "$w" ${rest[@]+"${rest[@]}"}
done
