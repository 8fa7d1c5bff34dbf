package server

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// TestGoldenTraces locks down end-to-end determinism: one small
// fixed-seed run per scheduler, exported with trace.WriteCSV and
// byte-compared against a checked-in golden. Any change to event
// ordering, RNG consumption, steering, or scheduler logic shows up as a
// golden diff — if the change is intended, regenerate with
//
//	go test ./internal/server -run TestGoldenTraces -update
//
// and review the diff like any other code change.
func TestGoldenTraces(t *testing.T) {
	for _, kind := range goldenKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			res, err := Run(goldenConfig(kind), goldenWorkload())
			if err != nil {
				t.Fatal(err)
			}
			if res.Check == nil {
				t.Fatal("golden run executed without the invariant checker")
			}
			goldenFile(t, sanitize(kind.String())+".csv", traceCSV(t, res), *updateGolden)
		})
	}
}

// goldenFile compares got with the checked-in testdata/golden/<name>.
// The test that owns a golden passes *updateGolden and rewrites the file
// instead when run with -update; parity tests pass false and never write.
func goldenFile(t *testing.T, name string, got []byte, update bool) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace deviates from %s (%d vs %d bytes); run with -update if the change is intended",
			path, len(got), len(want))
	}
}

func traceCSV(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, res.Requests); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// compareGolden holds a run that must replay kind's golden to it.
func compareGolden(t *testing.T, kind SchedulerKind, res *Result) {
	t.Helper()
	goldenFile(t, sanitize(kind.String())+".csv", traceCSV(t, res), false)
}

// sanitize maps scheduler display names to filesystem-safe stems
// (RSS++ -> RSS_plus_plus would be overkill; just swap the plus signs).
func sanitize(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		if c := name[i]; c == '+' {
			out = append(out, 'p')
		} else {
			out = append(out, c)
		}
	}
	return string(out)
}

// phasesKV4 is sim-phases-hetero's shape in small: 2000 four-phase KV
// chains (index and data affine to class 1, 40 ns per offload) on 3
// general + 1 accelerator group x 2 workers with pow-2 forwarding, at a
// bursty load that also migrates chains between the general groups.
func phasesKV4() (Config, Workload) {
	cfg := Config{
		Kind: SchedAltocumulus, AC: core.DefaultParams(4, 2),
		Stack: rpcproto.StackNanoRPC, Steer: nic.SteerConnection, Seed: 7,
	}
	cfg.AC.GroupClass = []uint8{0, 0, 0, 1}
	cfg.AC.Forward = core.ForwardPowK
	cfg.AC.ForwardK = 2
	prof := dist.NewPhaseProfile("kv4-accel",
		dist.PhaseSpec{Name: "parse", Dist: dist.Fixed{V: 100 * sim.Nanosecond}},
		dist.PhaseSpec{Name: "index", Dist: dist.Exponential{M: 300 * sim.Nanosecond},
			Class: 1, Speedup: 4, Offload: 40 * sim.Nanosecond},
		dist.PhaseSpec{Name: "data", Dist: dist.Exponential{M: 400 * sim.Nanosecond},
			Class: 1, Speedup: 2, Offload: 40 * sim.Nanosecond},
		dist.PhaseSpec{Name: "respond", Dist: dist.Fixed{V: 100 * sim.Nanosecond}},
	)
	arr := dist.NewCloudMMPP(dist.LoadForRate(0.6, 8, prof))
	arr.Dwell = 20 * sim.Microsecond
	return cfg, Workload{Arrivals: arr, Profile: prof, N: 2000, Conns: 64}
}

// TestGoldenPhases pins what no 1-phase golden can: the per-phase
// records (durations, classes, offload costs, completion stamps) of a
// forwarded, migrated multi-phase run, exported with
// trace.WritePhaseCSV. Regenerate with -update like TestGoldenTraces.
func TestGoldenPhases(t *testing.T) {
	cfg, wl := phasesKV4()
	res, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.ACStats.PhaseForwards == 0 || res.ACStats.MigratedReqs == 0 {
		t.Fatalf("golden run must forward and migrate chains: %+v", res.ACStats)
	}
	var buf bytes.Buffer
	if err := trace.WritePhaseCSV(&buf, res.Requests); err != nil {
		t.Fatal(err)
	}
	goldenFile(t, "phases_kv4.csv", buf.Bytes(), *updateGolden)
}
