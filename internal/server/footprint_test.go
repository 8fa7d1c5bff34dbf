package server

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// bytesPerRequest runs cfg/wl twice on one Scratch and returns the heap
// bytes the second, warm run allocated per request: what a run costs once
// a fleet worker's arena and handle table are warm, which is the O(N)
// term a run's Result holds plus its per-run construction.
func bytesPerRequest(t *testing.T, cfg Config, wl Workload) float64 {
	t.Helper()
	sc := NewScratch()
	if _, err := RunWith(sc, cfg, wl); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunWith(sc, cfg, wl); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(wl.N)
}

// TestRunBytesPerRequest is the tripwire on what a finished request
// leaves behind: its completion record (rpcproto.Record, plus a sidecar
// copy when phased), one latency sample and one Result pointer. A run
// that kept whole Requests again, or started allocating per request,
// would cross the ceilings. Both runs keep the invariant checker on, as
// every golden does.
func TestRunBytesPerRequest(t *testing.T) {
	exp1us := dist.Exponential{M: sim.Microsecond}
	bare := Config{Kind: SchedAltocumulus, AC: core.DefaultParams(4, 15),
		Stack: rpcproto.StackNanoRPC, Steer: nic.SteerConnection, Seed: 1}
	phasedCfg, phasedWl := phasesKV4()
	phasedWl.N = 20000
	for _, tc := range []struct {
		name    string
		cfg     Config
		wl      Workload
		ceiling float64
	}{
		{"ac-4x(1+15)", bare, Workload{Arrivals: poisson(0.8, 60, exp1us), Service: exp1us, N: 20000}, 100},
		{"kv4-phased", phasedCfg, phasedWl, 240},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := bytesPerRequest(t, tc.cfg, tc.wl)
			t.Logf("warm run allocated %.1f B per request", got)
			if got > tc.ceiling {
				t.Fatalf("warm run allocated %.1f B per request, want <= %.0f: a finished request should leave only its rpcproto.Record", got, tc.ceiling)
			}
		})
	}
}
