package server

import (
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/nic"
	"repro/internal/rack"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// acMachine is the paper's AC layout with 15 workers per manager on a
// 1 us period (the bigtopo setting).
func acMachine(groups int) Config {
	p := core.DefaultParams(groups, 15)
	p.Period = sim.Microsecond
	return Config{Kind: SchedAltocumulus, AC: p, Stack: rpcproto.StackNanoRPC,
		Steer: nic.SteerConnection, Seed: 1}
}

func smallWorkload(cores, n int) Workload {
	svc := dist.Exponential{M: sim.Microsecond}
	return Workload{Arrivals: poisson(0.5, cores, svc), Service: svc, N: n}
}

// tickBound is the most manager ticks a run of the given length can
// hold: every manager, once per period, plus the one in progress.
func tickBound(cfg Config, res *Result) uint64 {
	return uint64(cfg.AC.Groups) * uint64(res.Duration/cfg.AC.Period+1)
}

// TestRunEndsAtLastCompletion pins the run's length to the workload's:
// the managers stop ticking when the last request completes, through
// RunWith and through a rack of one.
func TestRunEndsAtLastCompletion(t *testing.T) {
	for _, groups := range []int{4, 64} {
		cfg := acMachine(groups)
		wl := smallWorkload(groups*15, 200)
		res, err := Run(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.N != wl.N {
			t.Fatalf("G=%d: %d of %d requests in the sample", groups, res.Summary.N, wl.N)
		}
		bound := tickBound(cfg, res)
		if res.ACStats.Ticks == 0 || res.ACStats.Ticks > bound {
			t.Fatalf("G=%d: %d ticks over %v, want 1..%d", groups, res.ACStats.Ticks, res.Duration, bound)
		}
		// UPDATEs are charged in full: G-1 per tick.
		if want := res.ACStats.Ticks * uint64(groups-1); res.ACStats.UpdatesSent != want {
			t.Fatalf("G=%d: %d UPDATEs over %d ticks, want %d", groups, res.ACStats.UpdatesSent, res.ACStats.Ticks, want)
		}

		rr, err := RunRack(RackConfig{Servers: 1, Policy: rack.PowerOfK}, cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		// The rack keeps one arrival event per request, which a single
		// server folds into the request's delivery.
		if rr.Duration != res.Duration || rr.ACStats != res.ACStats || rr.Events != res.Events+uint64(wl.N) {
			t.Fatalf("G=%d: rack-of-1 ran %v / %d events / %+v, single server %v / %d events / %+v",
				groups, rr.Duration, rr.Events, rr.ACStats, res.Duration, res.Events, res.ACStats)
		}
	}
}

// TestSingleRequestRunIsCheap is the empty-run case PR 11 measured at
// 3.2 s of host time on the 1024-core machine: one request must cost a
// handful of ticks and events, not 5 ms of idle simulation.
func TestSingleRequestRunIsCheap(t *testing.T) {
	cfg := acMachine(64)
	wl := smallWorkload(64*15, 1)
	run := func(name string, f func() (*Result, error)) {
		start := time.Now()
		res, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if host := time.Since(start); host > time.Second {
			t.Errorf("%s: one request took %v of host time", name, host)
		}
		if bound := tickBound(cfg, res); res.ACStats.Ticks > bound {
			t.Errorf("%s: %d ticks over %v, want <= %d", name, res.ACStats.Ticks, res.Duration, bound)
		}
		// Arrival, delivery, dispatch, completion; the ticks; at most one
		// landing per UPDATE.
		if bound := 8 + res.ACStats.Ticks + res.ACStats.UpdatesSent; res.Events > bound {
			t.Errorf("%s: %d events for one request, want <= %d", name, res.Events, bound)
		}
	}
	run("RunWith", func() (*Result, error) { return Run(cfg, wl) })
	run("RunRack", func() (*Result, error) {
		rr, err := RunRack(RackConfig{Servers: 1, Policy: rack.PowerOfK}, cfg, wl)
		if err != nil {
			return nil, err
		}
		return rr.Result, nil
	})
}

// TestPeriodicTimersEndWithWorkload covers the baselines' own periodic
// machinery: RSS++'s 20 us rebalance timer and the checker's 20 us
// checkpoint no longer run on past the last completion.
func TestPeriodicTimersEndWithWorkload(t *testing.T) {
	cfg := Config{Kind: SchedRSSPlus, Cores: 16, Stack: rpcproto.StackNanoRPC, Seed: 1}
	wl := smallWorkload(16, 1)
	res, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	// One request: arrival, delivery, completion, and whatever fits in
	// its few microseconds of either 20 us timer.
	periods := uint64(res.Duration/(20*sim.Microsecond)) + 1
	if bound := 4 + 2*periods; res.Events > bound {
		t.Fatalf("RSS++ ran %d events over %v for one request, want <= %d", res.Events, res.Duration, bound)
	}
	if res.Check.Checkpoints > periods {
		t.Fatalf("checker took %d checkpoints over %v", res.Check.Checkpoints, res.Duration)
	}

	// A longer run keeps its timers: they are cut at the end of the
	// workload, not before it.
	wl = smallWorkload(16, 2000)
	res, err = Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration < 100*sim.Microsecond {
		t.Fatalf("2000 requests finished in %v", res.Duration)
	}
	if want := uint64(res.Duration / (20 * sim.Microsecond)); res.Check.Checkpoints != want {
		t.Fatalf("checker took %d checkpoints over %v, want %d", res.Check.Checkpoints, res.Duration, want)
	}
}

// TestRunToLastDoneOutcomes drives the run loop's three endings
// directly: stopped by the last completion, queue drained with requests
// outstanding (reported at once, not after 100 s of empty simulation),
// and still ticking at the hard cap.
func TestRunToLastDoneOutcomes(t *testing.T) {
	t.Run("completed", func(t *testing.T) {
		eng := sim.NewEngine()
		nDone := 0
		eng.Every(sim.Microsecond, func() bool { return true })
		eng.At(3*sim.Microsecond+sim.Nanosecond, func() { nDone = 2; eng.Stop() })
		if err := check.RunToLastDone(eng, "test", 2, &nDone); err != nil {
			t.Fatal(err)
		}
		if eng.Now() != 3*sim.Microsecond+sim.Nanosecond {
			t.Fatalf("engine ran on to %v after the last completion", eng.Now())
		}
	})
	t.Run("stalled", func(t *testing.T) {
		eng := sim.NewEngine()
		nDone := 0
		eng.At(sim.Microsecond, func() { nDone++ })
		err := check.RunToLastDone(eng, "test", 3, &nDone)
		if err == nil || !strings.Contains(err.Error(), "stalled: queue empty with 2 requests outstanding") {
			t.Fatalf("drained queue with 2 of 3 outstanding: err = %v", err)
		}
	})
	t.Run("hard cap", func(t *testing.T) {
		eng := sim.NewEngine()
		nDone := 0
		eng.Every(sim.Second, func() bool { return true })
		err := check.RunToLastDone(eng, "test", 1, &nDone)
		if err == nil || !strings.Contains(err.Error(), "did not finish 1 requests within") {
			t.Fatalf("ticking engine with nothing done: err = %v", err)
		}
	})
}
