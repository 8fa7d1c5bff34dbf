package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fabric"
	"repro/internal/mica"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/server"
	"repro/internal/sim"
)

// simPoint is one simulation of a rep: a machine, and a function that
// builds its offered load afresh (arrival processes carry state, so a
// workload value is never run twice).
type simPoint struct {
	name     string
	cfg      server.Config
	workload func(w *wrappers) server.Workload

	ac         bool // an ALTOCUMULUS machine: pooled into sim.slo_viol_pct
	designated bool // p50_us, p99_us and the queueing explainers average over these points
	ladder     bool // a rung of the throughput-at-SLO ladder
}

// simSpec is one simulator workload. points is its set-up: it builds
// whatever the points share (MICA stores) from the seed.
type simSpec struct {
	name      string
	setups    int  // set-ups per run; setup_s is their median (about 2.5 s in all)
	groups    int  // manager groups of the designated machine: picks the policy.tick_ns shape
	fleetTwin bool // measure fleet.speedup_x on this grid
	modelErr  bool // measure sim.model_err_pct beside this grid
	points    func(seed uint64, smoke bool) ([]simPoint, error)
}

// thinned keeps the first and last entries of a load list for the
// -smoke scale: an AC run costs tens of milliseconds however few
// requests it carries, so the smoke scale also runs fewer points.
func thinned(loads []float64, smoke bool) []float64 {
	if !smoke {
		return loads
	}
	return []float64{loads[0], loads[len(loads)-1]}
}

// scaled shrinks a request count for the -smoke scale tests run at.
func scaled(n int, smoke bool) int {
	if !smoke {
		return n
	}
	if n /= 50; n < 300 {
		n = 300
	}
	return n
}

// altocumulus returns the paper's machine: groups x (1 manager + workers).
func altocumulus(groups, workers int, seed uint64) server.Config {
	return server.Config{
		Kind: server.SchedAltocumulus, AC: core.DefaultParams(groups, workers),
		Stack: rpcproto.StackNanoRPC, Steer: nic.SteerConnection, Seed: seed,
	}
}

// synthetic is an open-loop stream of n requests with a bare service
// distribution, the first tenth excluded from the latency sample.
func synthetic(arrivals func() dist.ArrivalProcess, svc dist.ServiceDist, n, conns int) func(*wrappers) server.Workload {
	return func(w *wrappers) server.Workload {
		return server.Workload{
			Arrivals: w.arrivals(arrivals()), Service: w.dist(svc),
			N: n, Warmup: n / 10, Conns: conns,
		}
	}
}

var exp1us = dist.Exponential{M: sim.Microsecond}

// acLadder is the paper's headline machine, AC 4 x (1+15) under
// exp(1 us) with the default SLO of 10x the mean: three Poisson loads,
// which carry the latency metrics, then a bursty MMPP ladder that
// straddles the SLO knee and carries throughput-at-SLO.
//
// The ladder uses NewCloudMMPP's rate multipliers with a 20 us dwell in
// place of its 200 us: 100k requests on 60 workers last about 2 ms of
// simulated time, which is ten 200 us phases, so at the stock dwell a
// run's tail, migrations and host time are decided by which few phases
// it drew (p99 at load 0.70 ranged 37-322 us over eight seeds). At
// 20 us a run averages over a hundred phases and seeds agree.
func acLadder(seed uint64, smoke bool) ([]simPoint, error) {
	n := scaled(100000, smoke)
	var pts []simPoint
	for _, load := range thinned([]float64{0.5, 0.8, 0.95}, smoke) {
		rate := dist.LoadForRate(load, 60, exp1us)
		pts = append(pts, simPoint{
			name: fmt.Sprintf("poisson-%.2f", load), cfg: altocumulus(4, 15, seed),
			workload:   synthetic(func() dist.ArrivalProcess { return dist.Poisson{Rate: rate} }, exp1us, n, 0),
			ac:         true,
			designated: true,
		})
	}
	for _, load := range thinned([]float64{0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70}, smoke) {
		rate := dist.LoadForRate(load, 60, exp1us)
		bursty := func() dist.ArrivalProcess {
			m := dist.NewCloudMMPP(rate)
			m.Dwell = 20 * sim.Microsecond
			return m
		}
		pts = append(pts, simPoint{
			name: fmt.Sprintf("mmpp-%.2f", load), cfg: altocumulus(4, 15, seed),
			workload: synthetic(bursty, exp1us, n, 0),
			ac:       true,
			ladder:   true,
		})
	}
	return pts, nil
}

// gridShort is the figure-regeneration shape: many short runs, so
// per-run construction dominates. Nine scheduler kinds x four loads on
// 16 cores, then fig14's two MICA machines.
func gridShort(seed uint64, smoke bool) ([]simPoint, error) {
	n := scaled(5000, smoke)
	kinds := []server.SchedulerKind{
		server.SchedRSS, server.SchedIX, server.SchedZygOS, server.SchedShinjuku,
		server.SchedRPCValet, server.SchedNebula, server.SchedNanoPU,
		server.SchedAltocumulus, server.SchedRSSPlus,
	}
	var pts []simPoint
	for _, kind := range kinds {
		for _, load := range thinned([]float64{0.3, 0.5, 0.7, 0.9}, smoke) {
			cfg := server.Config{Kind: kind, Cores: 16, Stack: rpcproto.StackNanoRPC,
				Steer: nic.SteerConnection, Seed: seed}
			workers := 16
			isAC := kind == server.SchedAltocumulus
			if isAC {
				cfg = altocumulus(2, 7, seed)
				workers = 14
			}
			rate := dist.LoadForRate(load, workers, exp1us)
			pts = append(pts, simPoint{
				name: fmt.Sprintf("%s-%.1f", kind, load), cfg: cfg,
				workload:   synthetic(func() dist.ArrivalProcess { return dist.Poisson{Rate: rate} }, exp1us, n, 64),
				ac:         isAC,
				designated: isAC,
			})
		}
	}

	// Fig. 14's end-to-end points: 64 cores of MICA GET/SET with 0.1 %
	// SCANs under mildly bursty arrivals, SLO 1 us, load 0.6. The stores
	// are built here, once; every rep replays against them.
	slo := sim.Microsecond
	acApp, err := micaApp(4, scaled(100000, smoke))
	if err != nil {
		return nil, err
	}
	nebulaApp, err := micaApp(64, scaled(100000, smoke))
	if err != nil {
		return nil, err
	}
	acParams := core.DefaultParams(4, 15)
	acParams.Period = 100 * sim.Nanosecond
	acParams.Bulk, acParams.Concurrency = 48, 3
	acParams.MRCapacity, acParams.FIFOCapacity = 128, 48
	micaPoint := func(name string, cfg server.Config, app *server.MICAApp, workers int) simPoint {
		rate := 0.6 * float64(workers) / app.MeanService().Seconds()
		return simPoint{
			name: name, cfg: cfg, ac: cfg.Kind == server.SchedAltocumulus,
			workload: func(w *wrappers) server.Workload {
				return server.Workload{Arrivals: w.arrivals(fig14MMPP(rate)), App: w.app(app), N: n, Warmup: n / 4}
			},
		}
	}
	pts = append(pts,
		micaPoint("mica-AC-ISA", server.Config{Kind: server.SchedAltocumulus, AC: acParams,
			Stack: rpcproto.StackNanoRPC, Steer: nic.SteerDirect, Seed: seed, SLO: slo}, acApp, 60),
		micaPoint("mica-Nebula", server.Config{Kind: server.SchedNebula, Cores: 64,
			Stack: rpcproto.StackNanoRPC, Seed: seed, SLO: slo}, nebulaApp, 64))
	return pts, nil
}

// micaApp is fig14's store: 16 B keys (100k of them) with 512 B values,
// 64 MB of log and 256k buckets split over the partitions, 0.1 % SCANs.
func micaApp(partitions, keys int) (*server.MICAApp, error) {
	store, err := mica.NewStore(mica.Config{
		Partitions: partitions, BucketsPerPart: 262144 / partitions,
		EntriesPerBucket: 8, LogBytesPerPart: int64(64<<20) / int64(partitions),
	})
	if err != nil {
		return nil, err
	}
	app, err := server.NewMICAApp(store, mica.DefaultOpCost(fabric.Default()), keys, 16, 512)
	if err != nil {
		return nil, err
	}
	app.ScanFrac = 0.001
	return app, nil
}

// fig14MMPP is the fig14 experiment's mildly bursty arrival process.
func fig14MMPP(rate float64) *dist.MMPP {
	mult := []float64{0.7, 0.9, 1.0, 1.1, 1.25, 1.5}
	var avg float64
	for _, m := range mult {
		avg += m
	}
	avg /= float64(len(mult))
	return &dist.MMPP{BaseRate: rate / avg, Mult: mult, Dwell: 50 * sim.Microsecond, PJump: 0.3}
}

// phasesHetero is the multiphase experiment's accelerated 4-phase KV
// chain on 3 general + 1 accelerator group x 2 workers with pow-2
// forwarding: the same core/exec/check layers, used through phase
// chains and rack.Dispatcher instead of migration. The bursty point is
// the experiment's; its p99 sits in a handful of 3x-rate episodes and
// ranged 18-39 us over ten seeds, so a Poisson point on the same
// machine carries the latency metrics.
func phasesHetero(seed uint64, smoke bool) ([]simPoint, error) {
	n := scaled(100000, smoke)
	cfg := altocumulus(4, 2, seed)
	cfg.AC.GroupClass = []uint8{0, 0, 0, 1}
	cfg.AC.Forward = core.ForwardPowK
	cfg.AC.ForwardK = 2
	cfg.SLO = 50 * sim.Microsecond
	prof := kv4Accel()
	point := func(name string, arrivals func() dist.ArrivalProcess, designated bool) simPoint {
		return simPoint{
			name: name, cfg: cfg, ac: true, designated: designated,
			workload: func(w *wrappers) server.Workload {
				return server.Workload{Arrivals: w.arrivals(arrivals()), Profile: w.profile(prof), N: n, Warmup: n / 10}
			},
		}
	}
	bursty, steady := dist.LoadForRate(0.4, 8, prof), dist.LoadForRate(0.5, 8, prof)
	return []simPoint{
		point("kv4-accel-mmpp-0.40", func() dist.ArrivalProcess { return dist.NewCloudMMPP(bursty) }, false),
		point("kv4-accel-poisson-0.50", func() dist.ArrivalProcess { return dist.Poisson{Rate: steady} }, true),
	}, nil
}

// kv4Accel is parse 100 ns / index exp 300 ns (4x on class 1) / data
// exp 400 ns (2x on class 1) / respond 100 ns, 40 ns per offload.
func kv4Accel() *dist.PhaseProfile {
	return dist.NewPhaseProfile("kv4-accel",
		dist.PhaseSpec{Name: "parse", Dist: dist.Fixed{V: 100 * sim.Nanosecond}},
		dist.PhaseSpec{Name: "index", Dist: dist.Exponential{M: 300 * sim.Nanosecond},
			Class: 1, Speedup: 4, Offload: 40 * sim.Nanosecond},
		dist.PhaseSpec{Name: "data", Dist: dist.Exponential{M: 400 * sim.Nanosecond},
			Class: 1, Speedup: 2, Offload: 40 * sim.Nanosecond},
		dist.PhaseSpec{Name: "respond", Dist: dist.Fixed{V: 100 * sim.Nanosecond}},
	)
}

// bigTopo is BenchmarkBigTopoQuick's grid: AC 64 x (1+15) = 1024 cores
// on a 1 us period at Poisson load 0.5 for 200 us of simulated time.
// Manager ticks and UPDATE fan-out do nearly all the host work.
func bigTopo(seed uint64, smoke bool) ([]simPoint, error) {
	groups, span := 64, 200*sim.Microsecond
	if smoke {
		// Even an empty run on 64 groups costs seconds of host time.
		groups, span = 4, 20*sim.Microsecond
	}
	cfg := altocumulus(groups, 15, seed)
	cfg.AC.Period = sim.Microsecond
	cfg.SLO = 50 * sim.Microsecond
	rate := dist.LoadForRate(0.5, groups*15, exp1us)
	n := int(rate * span.Seconds())
	return []simPoint{{
		name: "ac1024-poisson-0.50", cfg: cfg, ac: true, designated: true,
		workload: synthetic(func() dist.ArrivalProcess { return dist.Poisson{Rate: rate} }, exp1us, n, 0),
	}}, nil
}

var simSpecs = []simSpec{
	{name: "sim-ac-ladder", setups: 2, groups: 4, points: acLadder},
	{name: "sim-grid-short", setups: 3, groups: 2, points: gridShort, fleetTwin: true, modelErr: true},
	{name: "sim-phases-hetero", setups: 4, groups: 4, points: phasesHetero},
	{name: "sim-bigtopo", setups: 1, groups: 64, points: bigTopo},
}

// repOutcome is what one rep — every point run once — produced.
type repOutcome struct {
	wall      time.Duration // summed over the RunWith calls only, in reference time
	rawWall   time.Duration // the same, as the clock read it
	requests  int64
	completed int64
	erred     int64 // requests of runs that returned an error
	digest    uint64

	// Means over the designated points.
	designated int
	p50, p99   float64 // us of simulated time
	util       float64
	queueWait  float64 // mean Finish - Arrival - Service, us

	sloN, sloViol int64 // pooled over the AC points
	ladder        []server.LoadPoint
	ladderSLO     sim.Time

	stats      core.Stats
	checks     uint64
	migratedOK int64 // migrated requests that met their run's SLO
	stealFrac  float64
	latencies  [][]sim.Time // per point, post-warm-up, in ID order (traced reps only)
	latencySLO []sim.Time
	firstErr   error
	runsPerRep int
	last       *server.Result // the final point's, so heap_live_mb can weigh a run with its result
}

// runRep runs every point once on sc. Only the RunWith calls are timed;
// the accounting between them is the harness's own work.
func runRep(pts []simPoint, sc *server.Scratch, noCheck bool, w *wrappers, tr *tracer, parent int) *repOutcome {
	out := &repOutcome{digest: 14695981039346656037, runsPerRep: len(pts)}
	var sw stopwatch
	for i, p := range pts {
		cfg := p.cfg
		cfg.NoCheck = noCheck
		wl := p.workload(w)
		w.reset()
		// Every run starts from a collected heap, so neither its time nor
		// the process's peak memory depends on what the run before it left.
		runtime.GC()
		id := tr.begin("server.run", p.name, parent)
		sw.start()
		res, err := server.RunWith(sc, cfg, wl)
		raw, toRef := sw.stop()
		tr.end(id)
		out.rawWall += raw
		out.wall += inRef(raw, toRef)
		w.record(tr, id, toRef)
		out.requests += int64(wl.N)
		if err != nil {
			out.erred += int64(wl.N)
			if out.firstErr == nil {
				out.firstErr = fmt.Errorf("%s: %w", p.name, err)
			}
			continue
		}
		out.account(p, wl, res, w != nil)
		if i == len(pts)-1 {
			out.last = res
		}
	}
	return out
}

func (o *repOutcome) account(p simPoint, wl server.Workload, res *server.Result, keepLatencies bool) {
	var waitSum float64
	var lats []sim.Time
	for i, r := range res.Requests {
		if r == nil || r.Finish == 0 {
			continue
		}
		o.completed++
		o.mix(r.ID)
		o.mix(uint64(r.Finish))
		if r.Migrated {
			o.mix(1)
			if r.Latency() <= res.SLO {
				o.migratedOK++
			}
		}
		for ph := 0; ph < int(r.NumPhases); ph++ {
			o.mix(uint64(r.PhaseEnd[ph]))
		}
		if p.designated {
			waitSum += (r.Finish - r.Arrival - r.Service).Microseconds()
		}
		if keepLatencies && i >= wl.Warmup {
			lats = append(lats, r.Latency())
		}
	}
	if keepLatencies {
		o.latencies = append(o.latencies, lats)
		o.latencySLO = append(o.latencySLO, res.SLO)
	}
	if p.designated {
		// Running means, so the values are ready whenever the rep ends.
		k := float64(o.designated)
		mean := func(old, x float64) float64 { return (old*k + x) / (k + 1) }
		o.p50 = mean(o.p50, res.Summary.P50.Microseconds())
		o.p99 = mean(o.p99, res.Summary.P99.Microseconds())
		o.util = mean(o.util, res.WorkerUtilization)
		o.queueWait = mean(o.queueWait, waitSum/float64(len(res.Requests)))
		o.designated++
	}
	if p.ac {
		// Requests that never finished are not in the sample; count them
		// as violations, as a user would.
		unfinished := int64(wl.N - wl.Warmup - res.Summary.N)
		o.sloN += int64(res.Summary.N) + unfinished
		o.sloViol += int64(res.Summary.Violations) + unfinished
	}
	if p.ladder {
		o.ladder = append(o.ladder, server.LoadPoint{OfferedRPS: res.OfferedRPS, P99: res.Summary.P99})
		o.ladderSLO = res.SLO
	}
	if res.StealFrac > o.stealFrac {
		o.stealFrac = res.StealFrac
	}
	if res.Check != nil {
		o.checks += res.Check.Checks
	}
	s, a := &o.stats, res.ACStats
	s.Ticks += a.Ticks
	s.UpdatesSent += a.UpdatesSent
	s.Migrations += a.Migrations
	s.MigratedReqs += a.MigratedReqs
	s.NackedBatches += a.NackedBatches
	s.MRFullAborts += a.MRFullAborts
	s.FIFOFull += a.FIFOFull
	s.GuardSkips += a.GuardSkips
	s.PredictedReqs += a.PredictedReqs
	s.PhaseForwards += a.PhaseForwards
	s.PhaseStays += a.PhaseStays
}

// mix folds one word into the rep digest (FNV-1a over 64-bit words).
func (o *repOutcome) mix(x uint64) {
	o.digest = (o.digest ^ x) * 1099511628211
}
