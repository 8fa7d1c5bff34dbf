#!/usr/bin/env bash
# bench.sh — regenerate BENCH_sim.json, the committed performance record.
#
# Runs the benchmarks that gate the two perf-critical paths:
#
#   EngineEvents      bare event-loop push/pop cost; allocs/op must be 0
#                     (the slab + free-list recycles every event slot) and
#                     ns/op is gated by benchjson -regress (<=1.5x the
#                     committed record)
#   EngineEventsDeep/* the same loop with a 10k/100k/1M pending backlog
#                     parked in the far heap; the timer wheel's near-band
#                     cost must stay flat while a binary heap would pay
#                     O(log pending) — allocs/op must be 0
#   BigTopoTick/*     one manager tick (8 sparse RankTracker updates +
#                     threshold + DecideRanked) on 1024- and 4096-core
#                     group views; the O(active) contract in microcosm,
#                     allocs/op must be 0
#   BigTopoQuick      one 1024-core AC grid, load 0.5, 200 us simulated:
#                     the run ends at its last completion and only
#                     changed UPDATEs land, so wall time is the workload's
#                     ~13k manager ticks x 63 charged messages, not an
#                     idle tail; ns/op is gated by benchjson -regress
#                     (<=2x the committed record) and also derives the
#                     informational bigtopo_quick_ms
#   RequestLifecycle  the steady-state per-request path end to end on a
#                     warm Scratch; ns/req and the (per-run, amortized)
#                     allocs/op record the zero-alloc lifecycle; ns/op
#                     gated at <=2x
#   QueueLens/*       scratch-buffer queue snapshots per scheduler;
#                     allocs/op must be 0
#   Fig10Serial       full Fig. 10 quick regeneration at fleet width 1;
#                     ns/op gated at <=2x
#   Fig10Par4         same at fleet width 4; the derived
#                     fig10_par4_speedup ratio records cross-run scaling
#                     (~1.0 on a single core, >=2 expected on 4+ cores)
#   PolicyTick        one manager's full per-tick decision (threshold +
#                     Decide + guard + batch planning) on warm scratch;
#                     allocs/op must be 0 (TestPolicyTickZeroAlloc is
#                     the hard gate)
#   RackDispatch/*    the inter-server tier's per-arrival Pick on a warm
#                     16-server depth view, one sub-benchmark per
#                     dispatch policy (rr, jsq, pow-k, affinity);
#                     allocs/op must be 0 (TestRackDispatchZeroAlloc is
#                     the hard gate)
#   PhaseForward      one 3-phase chain with an accelerator round trip
#                     on the hetero AC machine (two phase-boundary
#                     forwards through NetRX per chain); allocs/op must
#                     be 0 (TestPhaseForwardZeroAlloc is the hard gate)
#   MigrateBatch      one skewed 16-request burst on a warm 4-group AC
#                     machine, rebalanced by ~5 MIGRATE batches through
#                     MR staging, both FIFOs, the NoC and the ACK;
#                     pooled migration records make allocs/op 0
#                     (TestMigrateZeroAlloc in internal/core is the hard
#                     gate)
#   LiveLoopback      the real goroutine runtime end to end over TCP
#                     loopback: 20k RPCs per iteration on a persistent
#                     warmed session. rpc/s is the headline number
#                     (also derived as live_loopback_rpcs), p50/p99/
#                     p99.9 ride along, and the near-zero allocs/op
#                     baseline arms benchjson's -regress gate (the hard
#                     per-RPC gate is TestLiveLoopbackZeroAlloc)
#   MICAGet, MICASet  one GET into a caller's buffer and one same-size
#                     (in-place) SET of a resident key on the live-kv
#                     store shape (100k 16 B keys, 512 B values, 4 x 48 MB
#                     of log): index probe, key compare in the log, one
#                     two-segment copy. allocs/op must be 0, gated by
#                     benchjson -regress
#   LiveKVLoopback    LiveLoopback with that store behind the runtime,
#                     90 % GET / 10 % SET: against the echo figure its
#                     rpc/s prices the service stage; near-zero
#                     allocs/op gate as for LiveLoopback
#
# The text output is converted to JSON by cmd/benchjson. CI runs this as
# a non-gating step: the numbers land in the job log and the committed
# BENCH_sim.json is refreshed locally by whoever touches the hot paths.
#
# BENCHTIME overrides -benchtime (default 1s), e.g. BENCHTIME=3x for a
# quick smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' \
    -bench 'BenchmarkEngineEvents$|BenchmarkEngineEventsDeep|BenchmarkBigTopoTick|BenchmarkBigTopoQuick$|BenchmarkRequestLifecycle$|BenchmarkQueueLens|BenchmarkFig10Serial$|BenchmarkFig10Par4$|BenchmarkPolicyTick$|BenchmarkRackDispatch|BenchmarkPhaseForward$|BenchmarkMigrateBatch$|BenchmarkLiveLoopback$|BenchmarkMICAGet$|BenchmarkMICASet$|BenchmarkLiveKVLoopback$' \
    -benchmem -benchtime "${BENCHTIME:-1s}" . | tee "$raw"

go run ./cmd/benchjson <"$raw" >BENCH_sim.json
echo "wrote BENCH_sim.json"
