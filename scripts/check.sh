#!/usr/bin/env bash
# check.sh — the repository's single pre-merge gate. Everything CI runs
# is here, so `./scripts/check.sh` locally reproduces CI exactly:
#
#   1. gofmt           every .go file is formatted
#   2. go vet          toolchain static checks
#   3. altolint        domain-specific determinism and concurrency-
#                      contract checks (internal/lint), then the
#                      -escapes compiler-diagnostics hotpath gate —
#                      hard-gating for repro/internal/live (the zero-
#                      alloc data plane), warn-only elsewhere
#                      (compiler-version dependent)
#   4. go build        everything compiles, then the repro/bench module
#                      (the repository benchmark, a module of its own
#                      that imports this one through a replace) is
#                      vetted and its smoke tests run: nothing else
#                      builds it against program changes, so a change
#                      that breaks its build or trips one of its run-time
#                      checks would otherwise surface only in the
#                      benchmark pipeline
#   5. 386 build       the internal packages' tests and every command
#                      built for GOARCH=386: int is 32 bits there, so an
#                      index computed through int overflow fails, and the
#                      goldens passing there shows a 32-bit build
#                      reproduces the 64-bit results byte for byte
#   6. go test -race   full suite under the race detector, then two
#                      extra bounded -race passes over internal/live and
#                      the rack-tier smoke: the rack experiment at quick
#                      scale (checker on) plus two bounded altorack
#                      loopback soaks under -race
#   7. coverage ratchet the invariant-bearing packages (internal/sim,
#                      internal/sched, internal/check) must stay above
#                      their recorded coverage floors
#   8. fuzz smoke      40s total of FuzzEngine (event wheel vs
#                      container/heap oracle), FuzzTraceRoundTrip
#                      (CSV/JSONL codec round trip), FuzzPhaseRoundTrip
#                      (phase-boundary sidecar codec), and FuzzStore (the
#                      MICA store vs its map oracle on a log of a few
#                      entries) over the committed corpora plus fresh
#                      mutations
#   9. bigtopo smoke   the 1024-core big-topology grids at quick scale
#                      with the checker on, timed so the wall cost of
#                      the timer-wheel engine at scale stays visible
#  10. altobench smoke every registered experiment regenerates at quick
#                      scale with the online invariant checker attached
#                      to every run (runs through the cross-run fleet at
#                      GOMAXPROCS width, so this is fast on CI runners),
#                      and the output must match the committed
#                      internal/experiments/testdata/quick_seed1.txt
#  11. alloc guard     a quick run of the zero-alloc benchmarks compared
#                      against the committed BENCH_sim.json; any hot
#                      path that regresses from 0 allocs/op, and any
#                      whole-run benchmark (BigTopoQuick, Fig10Serial,
#                      RequestLifecycle) past 2x its committed ns/op,
#                      prints a WARNING (non-gating: timing noise never
#                      blocks a merge, but new steady-state allocation
#                      or a multiple of the run time is loud)
#
# Fails fast on the first broken step.
#
# CHECK_FULL_PARITY=1 additionally runs the serial-vs-parallel parity
# test over the FULL experiment registry (the default `go test` run
# covers a fast subset) — every quick experiment rendered at -par 1 and
# -par 8 must be byte-identical. Budget ~2x a full quick regeneration.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== altolint"
go run ./cmd/altolint ./...

echo "== altolint -escapes (gating for internal/live)"
# Compiler-diagnostics gate: heap escapes / bounds checks inside
# //altolint:hotpath functions must be in the checked-in allowlist
# (internal/lint/testdata/escapes/allow.txt). Findings in
# repro/internal/live hard-fail — the live data plane's zero-alloc
# contract is enforced, a new escape there is a real per-RPC allocation
# — while the sim-side hotpaths stay warn-only (the diagnostics depend
# on the compiler version, and a toolchain bump must not hard-fail the
# gate before the allowlist is regenerated).
if ! go run ./cmd/altolint -escapes -escapes-gate repro/internal/live; then
    echo "FAIL: new hotpath escape/bounds-check diagnostics in internal/live (see above);" >&2
    echo "      fix them or regenerate via: go run ./cmd/altolint -escapes -escapes-write" >&2
    exit 1
fi

echo "== go build"
go build ./...

echo "== bench module (vet + smoke tests against this tree)"
(cd bench && go vet ./... && go test ./...)

echo "== 386 build (internal tests + commands, 32-bit int)"
# CGO_ENABLED=0: a cross build has no C toolchain, and the lint tests'
# package loader would otherwise ask for one.
CGO_ENABLED=0 GOARCH=386 go test ./internal/... && CGO_ENABLED=0 GOARCH=386 go build ./cmd/...

echo "== go test -race"
go test -race ./...

echo "== live runtime soak (race, bounded)"
# The goroutine runtime's interleavings vary run to run; two extra
# bounded -race passes over internal/live shake out schedules the single
# suite run above may not hit. -count=2 defeats test caching, and
# halt_on_error stops at the first race report — one complete trace
# beats a log of cascading corruption.
GORACE=halt_on_error=1 go test -race -count=2 -timeout 300s ./internal/live/...

echo "== rack tier smoke (sim quick scale + altorack loopback soak, race, bounded)"
# Sim side: the rack experiment regenerated at quick scale with the
# rack checker attached (rack-of-1 byte-identity and staleness audits
# run inside it). Live side: the full two-tier data plane — spawned
# backends behind a relay — under the race detector, once with sampled
# power-of-2 dispatch and once with a fresh-view JSQ pass. altorack
# exits non-zero on any conservation, balance, ledger, or arena-leak
# violation, so both runs gate on the invariants, not the throughput.
go run ./cmd/altobench -exp rack -scale quick -check >/dev/null
GORACE=halt_on_error=1 go run -race ./cmd/altorack -spawn 3 -policy pow2 -n 20000 -conns 4 >/dev/null
GORACE=halt_on_error=1 go run -race ./cmd/altorack -spawn 2 -policy jsq -sample 0 -n 10000 -conns 2 >/dev/null

echo "== coverage ratchet"
# Floors sit a few points below measured coverage; raise them when
# coverage rises, never lower them to admit a regression.
check_cover() {
    local pkg=$1 floor=$2
    local line pct
    line=$(go test -cover "$pkg" | tail -1)
    pct=$(echo "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [[ -z "$pct" ]]; then
        echo "no coverage reported for $pkg: $line" >&2
        exit 1
    fi
    if ! awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p >= f) }'; then
        echo "coverage ratchet: $pkg at ${pct}%, floor ${floor}%" >&2
        exit 1
    fi
    echo "   $pkg ${pct}% (floor ${floor}%)"
}
check_cover ./internal/sim 90
check_cover ./internal/sched 82
check_cover ./internal/check 86

echo "== fuzz smoke (40s)"
go test ./internal/sim -run '^$' -fuzz '^FuzzEngine$' -fuzztime 10s >/dev/null
go test ./internal/trace -run '^$' -fuzz '^FuzzTraceRoundTrip$' -fuzztime 10s >/dev/null
go test ./internal/trace -run '^$' -fuzz '^FuzzPhaseRoundTrip$' -fuzztime 10s >/dev/null
go test ./internal/mica -run '^$' -fuzz '^FuzzStore$' -fuzztime 10s >/dev/null

echo "== big-topology smoke (1024-core grids, quick scale, invariant checker on)"
# The bigtopo experiment is the heaviest registered run (9 grid points,
# ~15M invariant checks); an explicit timed step keeps its wall time
# visible in every check log. The printed seconds are informational —
# the committed wall-time record is bigtopo_quick_ms in BENCH_sim.json.
bigtopo_start=$SECONDS
go run ./cmd/altobench -exp bigtopo -scale quick -check >/dev/null
echo "   bigtopo quick: $((SECONDS - bigtopo_start))s wall"

echo "== multi-phase smoke (hetero groups + phase forwarding, quick scale, invariant checker on)"
# Phase-order, per-phase conservation, and migrate-once-per-phase
# invariants run live inside this; any violation fails the run.
go run ./cmd/altobench -exp multiphase -scale quick -check >/dev/null

echo "== altobench smoke (all experiments, quick scale, invariant checker on, diffed against the committed output)"
# The whole quick suite at seed 1 must reproduce
# internal/experiments/testdata/quick_seed1.txt byte for byte, minus the
# wall-clock "completed in" lines. A change that moves any table fails
# here with the diff. If the move is intended, regenerate the file with
#   go run ./cmd/altobench -exp all -scale quick -seed 1 -check | grep -v "completed in" > internal/experiments/testdata/quick_seed1.txt
# and review its diff like any other code change.
go run ./cmd/altobench -exp all -scale quick -seed 1 -check | grep -v "completed in" |
    diff -u internal/experiments/testdata/quick_seed1.txt -

echo "== zero-alloc regression guard (non-gating)"
# The sim hotpaths and the MICA GET/SET kernels at high iteration
# counts, plus the live loopbacks at 3 rounds (one op = 20k RPCs; their
# near-zero allocs/op baselines gate through benchjson's near-zero rule
# — the hard per-RPC gates are TestLiveLoopbackZeroAlloc and
# TestLiveKVZeroAlloc in the race run above).
if [[ -f BENCH_sim.json ]]; then
    allocraw=$(mktemp)
    go test -run '^$' -bench 'BenchmarkEngineEvents$|BenchmarkEngineEventsDeep|BenchmarkBigTopoTick|BenchmarkQueueLens|BenchmarkPolicyTick$|BenchmarkRackDispatch|BenchmarkPhaseForward$|BenchmarkMigrateBatch$|BenchmarkMICAGet$|BenchmarkMICASet$' \
        -benchmem -benchtime 10000x . >"$allocraw" 2>&1 || true
    # The whole-run benchmarks ride along for benchjson's 2x time gate
    # (one iteration is a complete simulation, so three are a sample).
    go test -run '^$' -bench 'BenchmarkLiveLoopback$|BenchmarkLiveKVLoopback$|BenchmarkBigTopoQuick$|BenchmarkFig10Serial$|BenchmarkRequestLifecycle$' \
        -benchmem -benchtime 3x . >>"$allocraw" 2>&1 || true
    if ! go run ./cmd/benchjson -regress BENCH_sim.json <"$allocraw"; then
        echo "WARNING: steady-state alloc or whole-run time regression (see above); refresh BENCH_sim.json via scripts/bench.sh if intended" >&2
    fi
    rm -f "$allocraw"
else
    echo "   BENCH_sim.json missing; skipping"
fi

if [[ "${CHECK_FULL_PARITY:-0}" == "1" ]]; then
    echo "== full-registry serial/parallel parity"
    ALTOBENCH_PARITY=all go test ./internal/experiments/ \
        -run TestParallelSerialParity -timeout 60m
fi

echo "== all checks passed"
