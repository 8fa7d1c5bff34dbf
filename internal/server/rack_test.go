package server

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/rack"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestRackOfOneGolden is the rack tier's differential anchor: a rack
// of one server, under every scheduler kind, must reproduce the
// single-server golden traces byte for byte. The dispatcher makes a
// degenerate decision per arrival but consumes no randomness, so any
// divergence means the rack layer perturbed the path it wraps. Every
// way of drawing a request goes through it — the bare distribution, its
// one-phase neutral profile (both locked to the checked-in goldens) and
// a two-phase chain, which has no golden and is held to the
// single-server run instead. The rack books exactly one arrival event
// per request more than a single server, which delivers each request
// without one. An App workload, whose requests differ in wire size,
// keeps the arrival event on a single server too, so there the two run
// the same events.
func TestRackOfOneGolden(t *testing.T) {
	twoPhase := goldenWorkload()
	half := dist.Exponential{M: sim.Microsecond / 2}
	twoPhase.Profile = dist.NewPhaseProfile("", dist.PhaseSpec{Dist: half}, dist.PhaseSpec{Dist: half})
	twoPhase.Service = nil
	workloads := []struct {
		name   string
		wl     Workload
		golden bool
	}{
		{"bare", goldenWorkload(), true},
		{"one-phase", onePhaseWorkload(), true},
		{"two-phase", twoPhase, false},
	}
	for _, kind := range goldenKinds() {
		for _, w := range workloads {
			t.Run(kind.String()+"/"+w.name, func(t *testing.T) {
				rr, err := RunRack(
					RackConfig{Servers: 1, Policy: rack.PowerOfK},
					goldenConfig(kind), w.wl)
				if err != nil {
					t.Fatal(err)
				}
				if rr.RackCheck == nil || len(rr.ServerChecks) != 1 || rr.ServerChecks[0] == nil {
					t.Fatal("rack run executed without its invariant checkers")
				}
				single, err := Run(goldenConfig(kind), w.wl)
				if err != nil {
					t.Fatal(err)
				}
				var got, want bytes.Buffer
				if err := trace.WriteCSV(&got, rr.Requests); err != nil {
					t.Fatal(err)
				}
				if err := trace.WriteCSV(&want, single.Requests); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("rack-of-1 trace deviates from the single-server run (%d vs %d bytes)",
						got.Len(), want.Len())
				}
				if rr.Events != single.Events+uint64(w.wl.N) {
					t.Fatalf("rack-of-1 ran %d events, single server %d; want exactly %d more",
						rr.Events, single.Events, w.wl.N)
				}
				if w.golden {
					compareGolden(t, kind, rr.Result)
				}
				for id, srv := range rr.ServerOf {
					if srv != 0 {
						t.Fatalf("request %d dispatched to server %d in a rack of one", id, srv)
					}
				}
			})
		}
	}
	t.Run("Altocumulus/mica-getset", func(t *testing.T) {
		cfg, wl := micaGetSet(t)
		rr, err := RunRack(RackConfig{Servers: 1, Policy: rack.PowerOfK}, cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		cfg, wl = micaGetSet(t)
		single, err := Run(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Events != single.Events {
			t.Fatalf("rack-of-1 ran %d events, single server %d; want equal on an App run", rr.Events, single.Events)
		}
		goldenFile(t, "mica_getset.csv", traceCSV(t, rr.Result), false)
	})
}

// rackGoldenPolicies enumerates the per-policy rack golden traces.
func rackGoldenPolicies() []rack.Kind {
	return []rack.Kind{rack.RoundRobin, rack.JSQ, rack.PowerOfK, rack.Affinity}
}

func rackGoldenConfig() (RackConfig, Config, Workload) {
	rc := RackConfig{
		Servers: 3, Policy: rack.PowerOfK, K: 2,
		SampleEvery: 5 * sim.Microsecond, TraceViews: true,
	}
	cfg := goldenConfig(SchedAltocumulus)
	svc := dist.Exponential{M: sim.Microsecond}
	wl := Workload{
		// Offered load scales with the rack: 0.7 per-server load across
		// 3 servers x 4 cores.
		Arrivals: dist.Poisson{Rate: dist.LoadForRate(0.7, 12, svc)},
		Service:  svc,
		N:        300, Warmup: 0, Conns: 24,
	}
	return rc, cfg, wl
}

// rackTraceBytes renders the full behavioural fingerprint of a rack
// run: the per-request trace plus the dispatch-decision trace.
func rackTraceBytes(t *testing.T, rr *RackResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, rr.Requests); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("# rack dispatch\n")
	if err := WriteRackDispatchCSV(&buf, rr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRackGoldenTraces locks down one golden trace per dispatch
// policy: request outcomes AND every dispatch decision (destination,
// view age, sampled depths). Regenerate with -update and review like
// any code change.
func TestRackGoldenTraces(t *testing.T) {
	for _, pol := range rackGoldenPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			rc, cfg, wl := rackGoldenConfig()
			rc.Policy = pol
			rr, err := RunRack(rc, cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			goldenFile(t, fmt.Sprintf("rack_%s.csv", pol), rackTraceBytes(t, rr), *updateGolden)
		})
	}
}

// TestRackRunInvariants exercises the rack accounting the checker
// reports: full conservation per server, bounded staleness, and real
// load spreading.
func TestRackRunInvariants(t *testing.T) {
	rc, cfg, wl := rackGoldenConfig()
	rr, err := RunRack(rc, cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for s := 0; s < rc.Servers; s++ {
		if rr.Dispatched[s] != rr.Completed[s] {
			t.Fatalf("server %d: dispatched %d completed %d", s, rr.Dispatched[s], rr.Completed[s])
		}
		if rr.Dispatched[s] == 0 {
			t.Fatalf("server %d received no traffic under %s", s, rc.Policy)
		}
		total += rr.Dispatched[s]
	}
	if total != uint64(wl.N) {
		t.Fatalf("dispatched %d, want %d", total, wl.N)
	}
	if rr.MaxSampleAge > rc.SampleEvery {
		t.Fatalf("max sample age %v exceeds the sampling period %v", rr.MaxSampleAge, rc.SampleEvery)
	}
	if rr.RackCheck.Delivered != uint64(wl.N) || rr.RackCheck.Completed != uint64(wl.N) {
		t.Fatalf("rack check counts: %+v", rr.RackCheck)
	}
	// Fresh-view dispatch pins every age to zero.
	rc.SampleEvery = 0
	fresh, err := RunRack(rc, cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.MaxSampleAge != 0 {
		t.Fatalf("fresh-view run reported age %v", fresh.MaxSampleAge)
	}
}

// TestRackDeterminism: identical configurations replay identical
// dispatch sequences, and the Scratch-reuse path (what each fleet
// worker does) does not perturb them.
func TestRackDeterminism(t *testing.T) {
	rc, cfg, wl := rackGoldenConfig()
	a, err := RunRack(rc, cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for round := 0; round < 2; round++ {
		b, err := RunRackWith(sc, rc, cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		for id := range a.ServerOf {
			if a.ServerOf[id] != b.ServerOf[id] || a.Ages[id] != b.Ages[id] {
				t.Fatalf("round %d: dispatch of request %d diverged: %d@%v vs %d@%v",
					round, id, a.ServerOf[id], a.Ages[id], b.ServerOf[id], b.Ages[id])
			}
		}
	}
}

func TestRackConfigValidate(t *testing.T) {
	_, cfg, wl := rackGoldenConfig()
	if _, err := RunRack(RackConfig{Servers: 0}, cfg, wl); err == nil {
		t.Fatal("zero-width rack accepted")
	}
	if _, err := RunRack(RackConfig{Servers: 2, SampleEvery: -sim.Microsecond}, cfg, wl); err == nil {
		t.Fatal("negative sampling period accepted")
	}
	bad := wl
	bad.N = 0
	if _, err := RunRack(RackConfig{Servers: 2}, cfg, bad); err == nil {
		t.Fatal("empty workload accepted")
	}
	cfg.SnapshotEvery = sim.Microsecond
	if _, err := RunRack(RackConfig{Servers: 2}, cfg, wl); err == nil {
		t.Fatal("SnapshotEvery accepted on a rack of 2")
	}
}
