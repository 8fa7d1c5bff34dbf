#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (compiler cache included, so nothing is written outside the
# checkout) and runs it from that root:
#
#   bash bench/run.sh -workload sim-grid-short -seed 1 -seconds 14 -trace 0
#   bash bench/run.sh -compare a.jsonl b.jsonl
#   bash bench/run.sh -set a.jsonl [runs] [seconds]
#
# -set runs every workload `runs` times (default 10), each time with
# another seed (1..runs), untraced, for `seconds` (default: the binary's,
# which is BENCHMARK.json's run_seconds), and writes one line per run to
# the file: the input of -compare and of the A/A check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/bench"

# The go command keeps its caches, scratch files and counters under the
# build directory too; the benchmark binary itself writes only bench/out.
mkdir -p "$build/tmp"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
	export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
	go build -buildvcs=false -o "$bin" .
)

BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
cd "$root"

if [[ "${1:-}" == "-set" || "${1:-}" == "--set" ]]; then
	out="${2:?usage: run.sh -set FILE [runs] [seconds]}"
	runs="${3:-10}"
	seconds=(${4:+-seconds "$4"})
	: >"$out"
	for workload in $("$bin" -list); do
		for seed in $(seq 1 "$runs"); do
			line="$("$bin" -workload "$workload" -seed "$seed" ${seconds[@]+"${seconds[@]}"} -trace 0 | tail -n 1)"
			printf '{"workload":"%s","seed":%d,"result":%s}\n' "$workload" "$seed" "$line" >>"$out"
			echo "$workload seed $seed: $line" >&2
		done
	done
	exit 0
fi

exec "$bin" "$@"
