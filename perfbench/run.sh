#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through:
#
#   bash perfbench/run.sh --workload dispatch-tenants --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. The build cache, temporary files and
# the binary stay in .bench_build/ under the root, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
if [[ -z "${PERFBENCH_COMMIT:-}" && -e "$root/.git" ]] && command -v git >/dev/null 2>&1; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
	export PERFBENCH_COMMIT
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
