package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Example CPU @ 3.00GHz
BenchmarkEngineEvents-8   	 8621462	       135.3 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig10Serial-8    	       2	 700000000 ns/op
BenchmarkFig10Par4-8      	       4	 350000000 ns/op
BenchmarkSimulatorThroughput-8	      12	  95000000 ns/op	   526315 simreq/s
BenchmarkLiveLoopback-8   	      64	  16200000 ns/op	       810.0 ns/rpc	   1234567 rpc/s	  950000 B/op	    2100 allocs/op
BenchmarkBigTopoQuick-8   	       1	3500000000 ns/op	 23000000 B/op	   28000 allocs/op
PASS
ok  	repro	12.345s
`

func TestRunParsesBenchOutput(t *testing.T) {
	rec := run(bufio.NewScanner(strings.NewReader(sample)))
	if rec.Goos != "linux" || rec.Goarch != "amd64" || rec.Package != "repro" {
		t.Errorf("metadata not captured: %+v", rec)
	}
	if len(rec.Benchmarks) != 6 {
		t.Fatalf("want 6 benchmarks, got %d: %+v", len(rec.Benchmarks), rec.Benchmarks)
	}
	eng := rec.Benchmarks[0]
	if eng.Name != "EngineEvents" || eng.Procs != 8 || eng.Iterations != 8621462 {
		t.Errorf("engine line misparsed: %+v", eng)
	}
	if eng.Metrics["ns/op"] != 135.3 || eng.Metrics["allocs/op"] != 0 || eng.Metrics["B/op"] != 0 {
		t.Errorf("engine metrics misparsed: %+v", eng.Metrics)
	}
	if got := rec.Benchmarks[3].Metrics["simreq/s"]; got != 526315 {
		t.Errorf("custom metric simreq/s misparsed: %v", got)
	}
	if got := rec.Derived["fig10_par4_speedup"]; got != 2 {
		t.Errorf("fig10_par4_speedup: want 2, got %v", got)
	}
	if got := rec.Derived["live_loopback_rpcs"]; got != 1234567 {
		t.Errorf("live_loopback_rpcs: want 1234567, got %v", got)
	}
	if got := rec.Derived["bigtopo_quick_ms"]; got != 3500 {
		t.Errorf("bigtopo_quick_ms: want 3500, got %v", got)
	}
}

// TestTimeRegressions pins the ns/op gate: only timeGated benchmarks
// are compared, and only growth past the allowed factor trips it.
func TestTimeRegressions(t *testing.T) {
	committed := record{Benchmarks: []benchmark{
		{Name: "EngineEvents", Metrics: map[string]float64{"ns/op": 40}},
		{Name: "BigTopoQuick", Metrics: map[string]float64{"ns/op": 1.5e8}},
		{Name: "Fig10Serial", Metrics: map[string]float64{"ns/op": 4e8}},
		{Name: "RequestLifecycle", Metrics: map[string]float64{"ns/op": 3e6}},
		{Name: "LiveLoopback", Metrics: map[string]float64{"ns/op": 2e7}},
	}}
	clean := record{Benchmarks: []benchmark{
		{Name: "EngineEvents", Iterations: 5e7, Metrics: map[string]float64{"ns/op": 55}},      // < 1.5x: noise band
		{Name: "BigTopoQuick", Iterations: 8, Metrics: map[string]float64{"ns/op": 2.9e8}},     // < 2x: a slow box
		{Name: "Fig10Serial", Iterations: 3, Metrics: map[string]float64{"ns/op": 7.9e8}},      // < 2x
		{Name: "RequestLifecycle", Iterations: 400, Metrics: map[string]float64{"ns/op": 5e6}}, // < 2x
		{Name: "LiveLoopback", Iterations: 64, Metrics: map[string]float64{"ns/op": 9e7}},      // not gated
	}}
	if regs := timeRegressions(committed, clean); len(regs) != 0 {
		t.Fatalf("clean run flagged: %v", regs)
	}
	// Each gate fires on its own factor: 1.6x trips the event loop but
	// none of the whole-run benchmarks.
	mixed := record{Benchmarks: []benchmark{
		{Name: "EngineEvents", Iterations: 5e7, Metrics: map[string]float64{"ns/op": 64}},
		{Name: "BigTopoQuick", Iterations: 8, Metrics: map[string]float64{"ns/op": 2.4e8}},
		{Name: "Fig10Serial", Iterations: 3, Metrics: map[string]float64{"ns/op": 6.4e8}},
		{Name: "RequestLifecycle", Iterations: 400, Metrics: map[string]float64{"ns/op": 4.8e6}},
	}}
	regs := timeRegressions(committed, mixed)
	if len(regs) != 1 || !strings.Contains(regs[0], "EngineEvents") || !strings.Contains(regs[0], "1.5x") {
		t.Fatalf("want only the EngineEvents time regression at 1.6x, got %v", regs)
	}
	// The PR 9-10 slip: whole-run numbers several times the record, the
	// event loop unchanged. One iteration is a whole run, so it counts.
	slow := record{Benchmarks: []benchmark{
		{Name: "EngineEvents", Iterations: 5e7, Metrics: map[string]float64{"ns/op": 41}},
		{Name: "BigTopoQuick", Iterations: 1, Metrics: map[string]float64{"ns/op": 3.3e9}},
		{Name: "Fig10Serial", Iterations: 2, Metrics: map[string]float64{"ns/op": 8.1e8}},
		{Name: "RequestLifecycle", Iterations: 300, Metrics: map[string]float64{"ns/op": 6.1e6}},
	}}
	regs = timeRegressions(committed, slow)
	if len(regs) != 3 {
		t.Fatalf("want three whole-run time regressions, got %v", regs)
	}
	for i, name := range []string{"BigTopoQuick", "Fig10Serial", "RequestLifecycle"} {
		if !strings.Contains(regs[i], name) || !strings.Contains(regs[i], "(> 2x)") {
			t.Fatalf("regression %d = %q, want %s past 2x", i, regs[i], name)
		}
	}
	// A gated benchmark with no committed baseline is skipped.
	if regs := timeRegressions(record{}, slow); len(regs) != 0 {
		t.Fatalf("baseline-free benchmark gated: %v", regs)
	}
	// A short -benchtime Nx smoke of the nanosecond loop is warm-up, not
	// steady state: skipped.
	short := record{Benchmarks: []benchmark{
		{Name: "EngineEvents", Iterations: 10000, Metrics: map[string]float64{"ns/op": 200}},
	}}
	if regs := timeRegressions(committed, short); len(regs) != 0 {
		t.Fatalf("short run gated: %v", regs)
	}
}

func TestAllocRegressions(t *testing.T) {
	committed := record{Benchmarks: []benchmark{
		{Name: "EngineEvents", Metrics: map[string]float64{"allocs/op": 0}},
		{Name: "QueueLens/DFCFS", Metrics: map[string]float64{"allocs/op": 0}},
		{Name: "Fig10Serial", Metrics: map[string]float64{"allocs/op": 35000}},
		{Name: "Retired", Metrics: map[string]float64{"allocs/op": 0}},
		{Name: "LiveLoopback", Metrics: map[string]float64{"allocs/op": 2100}},
		{Name: "LiveDrift", Metrics: map[string]float64{"allocs/op": 2100}},
	}}
	fresh := record{Benchmarks: []benchmark{
		{Name: "EngineEvents", Metrics: map[string]float64{"allocs/op": 2}},    // 0 -> 2: regression
		{Name: "QueueLens/DFCFS", Metrics: map[string]float64{"allocs/op": 0}}, // still clean
		{Name: "Fig10Serial", Metrics: map[string]float64{"allocs/op": 40000}}, // large nonzero baseline: not gated
		{Name: "Brand/New", Metrics: map[string]float64{"allocs/op": 7}},       // no baseline: skipped
		// Near-zero baseline blown past 2x+slack: a per-request path
		// started allocating.
		{Name: "LiveLoopback", Metrics: map[string]float64{"allocs/op": 25000}},
		// Near-zero baseline with residue drift inside the band: clean.
		{Name: "LiveDrift", Metrics: map[string]float64{"allocs/op": 4000}},
	}}
	regs := allocRegressions(committed, fresh)
	if len(regs) != 2 {
		t.Fatalf("want the EngineEvents and LiveLoopback regressions, got %v", regs)
	}
	if !strings.Contains(regs[0], "EngineEvents") || !strings.Contains(regs[1], "LiveLoopback") {
		t.Fatalf("wrong regressions flagged: %v", regs)
	}
	if regs := allocRegressions(committed, committed); len(regs) != 0 {
		t.Fatalf("self-comparison must be clean, got %v", regs)
	}
}

// TestDerivedNotesNonGating pins the fallback contract for the
// environment-bound derived metrics: -regress surfaces them as named
// note lines (so a sub-1.0 fig10_par4_speedup on a one-core box is
// visible in the log) while the regression verdict — allocRegressions —
// never sees them at all.
func TestDerivedNotesNonGating(t *testing.T) {
	committed := record{Derived: map[string]float64{
		"fig10_par4_speedup": 2.0,
		"live_loopback_rpcs": 1000000,
	}}
	fresh := record{Derived: map[string]float64{
		"fig10_par4_speedup": 0.97, // 1-core box: no parallelism to win
		"live_loopback_rpcs": 900000,
	}}
	notes := derivedNotes(committed, fresh)
	if len(notes) != 2 {
		t.Fatalf("want 2 notes, got %v", notes)
	}
	if !strings.Contains(notes[0], "note: fig10_par4_speedup = 0.97") ||
		!strings.Contains(notes[0], "committed 2") ||
		!strings.Contains(notes[0], "non-gating") {
		t.Errorf("speedup note misrendered: %q", notes[0])
	}
	if !strings.Contains(notes[1], "live_loopback_rpcs") {
		t.Errorf("throughput note misrendered: %q", notes[1])
	}
	// A collapsed speedup is a note, never a gate: the alloc-regression
	// pass that decides the exit code ignores Derived entirely.
	if regs := allocRegressions(committed, fresh); len(regs) != 0 {
		t.Fatalf("derived drift leaked into the gating verdict: %v", regs)
	}

	// No baseline (first run after adding the benchmark): still a note.
	notes = derivedNotes(record{}, fresh)
	if len(notes) != 2 || !strings.Contains(notes[0], "no committed baseline") {
		t.Errorf("baseline-free notes misrendered: %v", notes)
	}
	// Metric absent from the fresh run: silence, not a zero.
	if notes := derivedNotes(committed, record{}); len(notes) != 0 {
		t.Errorf("absent metrics must not produce notes: %v", notes)
	}
}

func TestParseLineRejectsProse(t *testing.T) {
	for _, line := range []string{"PASS", "ok  \trepro\t12.3s", "Benchmarks are fun"} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine accepted non-benchmark line %q", line)
		}
	}
}
