package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/fleet"
	"repro/internal/rpcproto"
	"repro/internal/server"
	"repro/internal/sim"
)

// simRun is the state of one simulator workload run: the points, the
// warm Scratch they share, and the reference rep every later rep must
// reproduce bit for bit.
type simRun struct {
	spec simSpec
	opt  options
	out  *outcome
	pts  []simPoint
	sc   *server.Scratch
	ref  *repOutcome
	last *server.Result // the final run of the latest rep: what heap_live_mb weighs beside the Scratch

	rawWalls []float64 // every timed rep's wall as the clock read it, for the notes
}

// setUp builds the inputs and runs the warm-up rep on a cold Scratch;
// the rep is discarded as a timing but kept as the reference outcome.
func (s *simRun) setUp() (time.Duration, error) {
	s.pts, s.sc, s.ref = nil, nil, nil
	debug.FreeOSMemory() // so peak_rss_mb holds one set of inputs, however many set-ups ran
	var sw stopwatch
	sw.start()
	pts, err := s.spec.points(s.opt.seed, s.opt.smoke)
	if err != nil {
		return 0, err
	}
	s.pts, s.sc = pts, server.NewScratch()
	s.ref = runRep(s.pts, s.sc, false, nil, nil, 0)
	s.ref.last = nil // the reference outlives every rep; its result must not
	raw, toRef := sw.stop()
	s.verify(s.ref)
	return inRef(raw, toRef), nil
}

// verify counts a rep into attempted/failed and holds it to the
// reference: every request completed, no run erred (the checker's
// violations and arena leaks surface as run errors), same digest.
func (s *simRun) verify(rep *repOutcome) {
	failed := rep.requests - rep.completed
	var err error
	switch {
	case rep.firstErr != nil:
		err = rep.firstErr
	case failed > 0:
		err = fmt.Errorf("%d of %d requests did not complete", failed, rep.requests)
	case rep.digest != s.ref.digest:
		failed = rep.requests
		err = fmt.Errorf("rep digest %#x differs from the first rep's %#x: the simulator did not repeat itself", rep.digest, s.ref.digest)
	}
	s.out.tally(rep.requests, failed, err)
}

// reps runs timed reps until the budget is spent and returns each
// rep's wall time in seconds and the heap allocations they made.
func (s *simRun) reps(b *budget, noCheck bool, w *wrappers, tr *tracer, name string) (walls []float64, allocs allocated) {
	for b.more() {
		id := tr.begin(name, "", 0)
		s.last = nil // a rep runs beside no earlier rep's result
		a0 := allocations()
		rep := runRep(s.pts, s.sc, noCheck, w, tr, id)
		s.last = rep.last
		allocs.add(allocations().since(a0))
		tr.end(id)
		s.verify(rep)
		walls = append(walls, rep.wall.Seconds())
		s.rawWalls = append(s.rawWalls, rep.rawWall.Seconds())
		if w != nil {
			s.ref.latencies, s.ref.latencySLO = rep.latencies, rep.latencySLO
		}
	}
	return walls, allocs
}

// setupCount is how many times a run sets up: the workload's own count,
// fixed so that every run of a workload has the same shape, or once
// when the run is not about setup_s.
func setupCount(n int, opt options) int {
	if opt.trace || opt.smoke {
		return 1
	}
	return n
}

// runSim measures one simulator workload.
func runSim(spec simSpec, opt options) (*outcome, error) {
	s := &simRun{spec: spec, opt: opt, out: newOutcome()}
	var setups []float64
	for len(setups) < setupCount(spec.setups, opt) {
		d, err := s.setUp()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	ref := s.ref
	requests := float64(ref.requests)
	s.out.notef("%d simulation(s) of %d requests per rep; open-loop arrivals in simulated time; fleet width 1; invariant checker on",
		ref.runsPerRep, ref.requests)

	if !opt.trace {
		walls, allocs := s.reps(newBudget(opt.seconds, 3), false, nil, nil, "")
		wall, raw := spreadOf(walls), spreadOf(s.rawWalls)
		s.out.notef("rep wall median %.4f s [q1 %.4f, q3 %.4f] in reference time, %.4f s [q1 %.4f, q3 %.4f] as the clock read it; %d reps after 1 warm-up rep",
			wall.Median, wall.Q1, wall.Q3, raw.Median, raw.Q1, raw.Q3, wall.N)
		s.out.notef("p50_us and p99_us are simulated time, the mean over %d designated point(s)", ref.designated)
		s.out.e2e = values{
			"setup_s":             median(setups),
			"req_per_s":           requests / wall.Median,
			"allocs_per_req":      float64(allocs.objects) / (requests * float64(wall.N)),
			"alloc_bytes_per_req": float64(allocs.bytes) / (requests * float64(wall.N)),
			"heap_live_mb":        liveHeapMB(),
			"p50_us":              ref.p50,
			"p99_us":              ref.p99,
		}
		return s.out, nil
	}

	// Traced run: plain reps for the baseline wall, reps with the
	// wrappers on, the checker-off twin, then the isolated drives.
	tr := newTracer()
	w := &wrappers{clock: clockCost()}
	// Checked and unchecked reps alternate, so drift in the box's speed
	// lands on both sides of their difference.
	var plain, unchecked []float64
	for b := newBudget(opt.seconds*0.5, 1); b.more(); {
		p, _ := s.reps(once(), false, nil, nil, "")
		u, _ := s.reps(once(), true, nil, tr, "rep-nocheck")
		plain, unchecked = append(plain, p...), append(unchecked, u...)
	}
	traced, _ := s.reps(newBudget(opt.seconds*0.2, 1), false, w, tr, "rep")
	wall := median(plain)
	repNS := wall * 1e9
	perReq := func(d time.Duration) float64 {
		return float64(d.Nanoseconds()) / float64(len(traced)) / requests
	}

	v := s.out.layers
	v["sim.rep_ms"] = wall * 1e3
	v["trace.overhead_pct"] = 100 * (median(traced) - wall) / wall
	v["dist.gen_ns_per_req"] = perReq(w.sumArrival + w.sumService)
	v["mica.prepare_ns_per_req"] = perReq(w.sumPrepare)
	v["mica.execute_ns_per_req"] = perReq(w.sumExecute)
	v["check.ns_per_req"] = (wall - median(unchecked)) * 1e9 / requests
	v["check.checks_per_req"] = float64(ref.checks) / requests

	dr := newDrives(tr, v, opt.smoke)
	setupUS, setupAllocs, setupTicks, err := dr.serverSetup(s.pts, s.sc)
	if err != nil {
		return nil, err
	}
	v["server.setup_us_per_run"] = setupUS
	v["server.setup_allocs_per_run"] = setupAllocs
	dr.engine()
	dr.policy()
	if err := dr.rack(); err != nil {
		return nil, err
	}
	dr.arena()
	summarize := dr.summarize(ref.latencies, ref.latencySLO)
	v["stats.summarize_ms"] = float64(summarize.Nanoseconds()) / 1e6
	if n, allocs := micaAllocs(s.pts, opt.seed); n > 0 {
		v["mica.allocs_per_req"] = float64(allocs) / float64(n)
	}

	tickNS := v["policy.tick_ns_g4"]
	if spec.groups > 8 {
		tickNS = v["policy.tick_ns_g64"]
	}
	ticks := float64(ref.stats.Ticks)
	v["policy.tick_share_pct"] = 100 * tickNS * ticks / repNS

	// The budget: everything attributed from outside, per request of the
	// rep, and the lump that is left. The manager ticks a one-request run
	// makes are charged to set-up only. Building the checker is in both
	// the set-up drive and the checker twin; it is microseconds per run.
	attributed := v["dist.gen_ns_per_req"] + v["mica.prepare_ns_per_req"] + v["mica.execute_ns_per_req"] +
		v["check.ns_per_req"] +
		setupUS*1e3*float64(ref.runsPerRep)/requests +
		tickNS*math.Max(0, ticks-setupTicks)/requests +
		v["rack.pick_ns"]*float64(ref.stats.PhaseForwards)/requests +
		v["arena.acquire_release_ns"] +
		float64(summarize.Nanoseconds())/requests
	v["sim.requests_per_rep"] = requests
	v["sim.attributed_ns_per_req"] = attributed
	v["sim.remainder_ns_per_req"] = repNS/requests - attributed

	// Counts and simulated-time results, exact for a seed.
	st := ref.stats
	v["core.ticks"] = ticks
	v["core.updates_sent"] = float64(st.UpdatesSent)
	v["core.migrated_reqs"] = float64(st.MigratedReqs)
	v["core.predicted_reqs"] = float64(st.PredictedReqs)
	v["core.guard_skips"] = float64(st.GuardSkips)
	v["core.phase_forwards"] = float64(st.PhaseForwards)
	v["core.phase_stays"] = float64(st.PhaseStays)
	if st.MigratedReqs > 0 {
		v["core.migrate_useful_pct"] = 100 * float64(ref.migratedOK) / float64(st.MigratedReqs)
	}
	if st.Migrations > 0 {
		v["hwmsg.nack_pct"] = 100 * float64(st.NackedBatches) / float64(st.Migrations)
	}
	v["hwmsg.fifo_full"] = float64(st.FIFOFull)
	v["hwmsg.mr_full_aborts"] = float64(st.MRFullAborts)
	v["exec.worker_util_pct"] = 100 * ref.util
	v["sim.queue_wait_us_mean"] = ref.queueWait
	v["sched.steal_frac"] = ref.stealFrac
	if ref.sloN > 0 {
		v["sim.slo_viol_pct"] = 100 * float64(ref.sloViol) / float64(ref.sloN)
	}
	v["sim.tput_at_slo_mrps"] = server.ThroughputAtSLO(ref.ladder, ref.ladderSLO) / 1e6

	if spec.fleetTwin {
		x, err := s.fleetSpeedup(tr)
		if err != nil {
			return nil, err
		}
		v["fleet.speedup_x"] = x
	}
	if spec.modelErr {
		pct, err := dr.modelError(opt.seed)
		if err != nil {
			return nil, err
		}
		v["sim.model_err_pct"] = pct
	}
	s.out.notef("traced run: %d plain, %d traced, %d checker-off reps; rep wall %.4f s; attributed %.1f + remainder %.1f = %.1f ns per request",
		len(plain), len(traced), len(unchecked), wall, attributed, v["sim.remainder_ns_per_req"], repNS/requests)
	return s.out, s.out.finishTrace(tr, opt, spec.name)
}

// fleetSpeedup runs the grid through the cross-run pool at width 1 and
// at the core count and returns the ratio of the wall times.
func (s *simRun) fleetSpeedup(tr *tracer) (float64, error) {
	defer fleet.SetParallelism(0)
	grid := func(width int) (float64, error) {
		fleet.SetParallelism(width)
		var sw stopwatch
		var best float64
		for i := 0; i < 3; i++ {
			id := tr.begin("fleet.grid", fmt.Sprintf("width-%d", width), 0)
			sw.start()
			_, err := fleet.MapWith(len(s.pts), server.NewScratch,
				func(i int, sc *server.Scratch) (*server.Result, error) {
					return server.RunWith(sc, s.pts[i].cfg, s.pts[i].workload(nil))
				})
			raw, toRef := sw.stop()
			d := inRef(raw, toRef).Seconds()
			tr.end(id)
			if err != nil {
				return 0, err
			}
			if best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	serial, err := grid(1)
	if err != nil {
		return 0, err
	}
	wide, err := grid(runtime.NumCPU())
	if err != nil {
		return 0, err
	}
	return serial / wide, nil
}

// micaAllocs drives the application hooks of the workload's MICA
// points alone — Prepare, then the OnExecute it installs — and returns
// the requests driven and the heap allocations they made.
func micaAllocs(pts []simPoint, seed uint64) (n int, allocs uint64) {
	rng := sim.NewRNG(seed)
	for _, p := range pts {
		wl := p.workload(nil)
		if wl.App == nil {
			continue
		}
		m0 := mallocs()
		for i := 0; i < 20000; i++ {
			var r rpcproto.Request
			wl.App.Prepare(&r, rng)
			if r.OnExecute != nil {
				r.OnExecute(&r)
			}
		}
		allocs += mallocs() - m0
		n += 20000
	}
	return n, allocs
}
