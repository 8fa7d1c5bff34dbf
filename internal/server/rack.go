package server

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/arena"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/nic"
	"repro/internal/policy"
	"repro/internal/rack"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RackConfig describes the inter-server tier of a simulated rack: how
// many identical servers it holds and how arrivals are dispatched
// across them. The per-server tier is a plain Config — each server
// runs the existing group-scheduling core completely unchanged.
type RackConfig struct {
	// Servers is the rack width (>= 1).
	Servers int
	// Policy is the inter-server dispatch rule.
	Policy rack.Kind
	// K is the PowerOfK sample size (0 = 2).
	K int
	// SampleEvery is the queue-depth sampling period: the dispatcher's
	// view of per-server depth refreshes this often, going stale in
	// between exactly as RackSched's sampled lens vectors do. 0 means a
	// fresh view before every dispatch (an idealised instant-visibility
	// rack interconnect).
	SampleEvery sim.Time
	// NoCheck opts the rack run out of both the per-server invariant
	// checkers and the rack-level checker. On by default, like Config.
	NoCheck bool
	// TraceViews records each dispatch decision's sampled view as a
	// string (RackResult.Views) for golden traces. Costs an allocation
	// per request; leave off outside tests.
	TraceViews bool
}

// Validate reports unusable rack configurations.
func (rc RackConfig) Validate() error {
	if rc.Servers < 1 {
		return fmt.Errorf("server: rack Servers = %d, want >= 1", rc.Servers)
	}
	if rc.SampleEvery < 0 {
		return fmt.Errorf("server: rack SampleEvery = %v, want >= 0", rc.SampleEvery)
	}
	return nil
}

// RackResult extends a Result (aggregate latency, SLO accounting,
// per-request records — exactly what a single-server run reports) with
// the rack tier's accounting.
type RackResult struct {
	*Result
	Servers int
	Policy  rack.Kind
	// Dispatched and Completed are per-server request counts; the rack
	// checker proves they match at drain.
	Dispatched []uint64
	Completed  []uint64
	// MaxSampleAge is the oldest depth view any dispatch consulted.
	MaxSampleAge sim.Time
	// ServerOf[id] is the server request id was dispatched to; Ages[id]
	// is the view age its decision consulted.
	ServerOf []int32
	Ages     []sim.Time
	// Views[id] is the decision's sampled (server:depth) view, recorded
	// only under RackConfig.TraceViews.
	Views []string
	// RackCheck is the rack-level checker report; ServerChecks are the
	// per-server reports (nil when opted out).
	RackCheck    *check.Report
	ServerChecks []*check.Report
}

// rackGen drives the shared arrival chain of a rack run. It mirrors
// gen (same draw order: Conn, then Service, then gap; same event
// creation order) with one addition: the arrival callback asks the
// rack dispatcher which server's NIC receives the request. With one
// server the dispatcher short-circuits without consuming randomness,
// which is why a rack-of-1 trace is byte-identical to the
// single-server path.
type rackGen struct {
	eng    *sim.Engine
	wl     *Workload
	arrRNG *sim.RNG
	svcRNG *sim.RNG
	res    *Result
	rr     *RackResult

	scheds []sched.Scheduler
	rxs    []nic.RXModel
	disp   *rack.Dispatcher
	rngRk  *sim.RNG
	rchk   *check.RackChecker

	// outstanding is the ground-truth per-server in-flight count
	// (dispatched minus completed) the sampler reads.
	outstanding []int
	sampleEvery sim.Time

	ar      *arena.Arena
	handles []arena.RequestID
	records []rpcproto.Request

	meanSvcSum float64
	arriveFn   func(arg any, n int64)
	deliverFn  func(arg any, n int64)
	sampleFn   func(arg any, n int64)
}

// schedule generates request i exactly as gen.schedule does.
//
//altolint:hotpath
func (g *rackGen) schedule(i int, at sim.Time) {
	if i >= g.wl.N {
		return
	}
	var r *rpcproto.Request
	if g.ar != nil {
		r, g.handles[i] = g.ar.Acquire()
		g.res.Requests[i] = &g.records[i]
	} else {
		r = &rpcproto.Request{} //altolint:allow hotalloc the NoArena escape hatch heap-allocates by design
		g.res.Requests[i] = r
	}
	r.ID = uint64(i)
	r.Conn = uint32(g.arrRNG.Intn(g.wl.Conns))
	r.Size = 300
	if g.wl.App != nil {
		g.wl.App.Prepare(r, g.svcRNG)
	} else {
		r.Service = g.wl.Service.Sample(g.svcRNG)
	}
	g.meanSvcSum += r.Service.Seconds()
	r.Service += g.rxs[0].CoreStackCost(r.Size)
	gap := g.wl.Arrivals.NextGap(g.arrRNG)
	g.eng.AtArg(at, g.arriveFn, r, int64(gap))
}

// arrive stamps the arrival, makes the rack dispatch decision, books
// the chosen server's NIC delivery, and generates the next request.
//
//altolint:hotpath
func (g *rackGen) arrive(arg any, gapN int64) {
	r := arg.(*rpcproto.Request)
	now := g.eng.Now()
	r.Arrival = now
	if g.sampleEvery == 0 {
		g.disp.ObserveAll(g.outstanding, policy.Duration(now))
	}
	dec := g.disp.Pick(r.Conn, policy.Duration(now), g.rngRk)
	srv := dec.Server
	g.outstanding[srv]++
	g.rr.ServerOf[r.ID] = int32(srv)
	g.rr.Ages[r.ID] = sim.Time(dec.Age)
	if g.rr.Views != nil {
		g.recordView(r.ID, dec)
	}
	if g.rchk != nil {
		g.rchk.OnDispatch(r.ID, srv, sim.Time(dec.Age), now)
	}
	g.eng.AfterArg(g.rxs[srv].Delay(r.Size), g.deliverFn, r, int64(srv))
	g.schedule(int(r.ID)+1, now+sim.Time(gapN))
}

//altolint:hotpath
func (g *rackGen) deliver(arg any, srv int64) {
	g.scheds[srv].Deliver(arg.(*rpcproto.Request))
}

// recordView formats one decision's sampled (server:depth) pairs.
func (g *rackGen) recordView(id uint64, dec rack.Decision) {
	var b []byte
	for i, s := range dec.Sampled {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(dec.Depths[i]), 10)
	}
	g.rr.Views[id] = string(b)
}

// RunRack executes the workload against a rack of identical servers
// with a private Scratch.
func RunRack(rc RackConfig, cfg Config, wl Workload) (*RackResult, error) {
	return RunRackWith(nil, rc, cfg, wl)
}

// RunRackWith is RunRack with a reusable Scratch (see RunWith). One
// engine drives all servers: a shared arrival process feeds the rack
// dispatcher, which routes each request to one server's NIC receive
// path; each server runs its own scheduler, cores, and (by default)
// invariant checker, with a rack-level checker proving inter-server
// conservation and bounded staleness on top.
func RunRackWith(sc *Scratch, rc RackConfig, cfg Config, wl Workload) (*RackResult, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	if wl.N <= 0 {
		return nil, fmt.Errorf("server: workload N = %d", wl.N)
	}
	if wl.Conns <= 0 {
		wl.Conns = 1024
	}
	if cfg.SLOMult == 0 {
		cfg.SLOMult = 10
	}
	if cfg.Cost.ClockHz == 0 {
		cfg.Cost = fabric.Default()
	}

	eng := newEngine(cfg)
	root := sim.NewRNG(cfg.Seed)
	arrRNG := root.Fork(1)
	svcRNG := root.Fork(2)
	// Per-server forks continue the single-server tag sequence: server
	// 0 gets tags 3 and 4, exactly the forks (and parent-state draws) a
	// single-server run makes, so rack-of-1 replays it stream for
	// stream. The rack's own RNG forks last: with one server the
	// dispatcher never draws from it.
	steerRNGs := make([]*sim.RNG, rc.Servers)
	schedRNGs := make([]*sim.RNG, rc.Servers)
	for s := 0; s < rc.Servers; s++ {
		steerRNGs[s] = root.Fork(uint64(3 + 2*s))
		schedRNGs[s] = root.Fork(uint64(4 + 2*s))
	}
	rackRNG := root.Fork(uint64(3 + 2*rc.Servers))

	res := &Result{
		Lat:      stats.NewSample(wl.N),
		Requests: make([]*rpcproto.Request, wl.N),
	}
	rr := &RackResult{
		Result:     res,
		Servers:    rc.Servers,
		Policy:     rc.Policy,
		Dispatched: make([]uint64, rc.Servers),
		Completed:  make([]uint64, rc.Servers),
		ServerOf:   make([]int32, wl.N),
		Ages:       make([]sim.Time, wl.N),
	}
	if rc.TraceViews {
		rr.Views = make([]string, wl.N)
	}

	disp, err := rack.NewDispatcher(rack.Config{
		Servers: rc.Servers, Policy: rc.Policy, K: rc.K,
		StalenessBound: policy.Duration(rc.SampleEvery),
	})
	if err != nil {
		return nil, err
	}

	g := &rackGen{
		eng: eng, wl: &wl, arrRNG: arrRNG, svcRNG: svcRNG, res: res, rr: rr,
		disp: disp, rngRk: rackRNG,
		outstanding: make([]int, rc.Servers),
		sampleEvery: rc.SampleEvery,
	}
	liveBefore := 0
	if !cfg.NoArena && ArenaEnabled() {
		if sc == nil {
			sc = NewScratch()
		}
		g.ar = sc.arena
		liveBefore = g.ar.Live()
		if cap(sc.handles) < wl.N {
			sc.handles = make([]arena.RequestID, wl.N)
		}
		g.handles = sc.handles[:wl.N]
		g.records = make([]rpcproto.Request, wl.N)
	}

	checkOn := !rc.NoCheck && !cfg.NoCheck && check.Enabled()
	if checkOn {
		// The staleness bound: with periodic sampling no decision may
		// consult a view older than one period; with fresh-view dispatch
		// any nonzero age is a harness bug.
		bound := rc.SampleEvery
		if bound == 0 {
			bound = sim.Picosecond
		}
		g.rchk = check.NewRackChecker(check.RackOptions{
			Servers: rc.Servers, Expected: wl.N, StalenessBound: bound,
		})
	}

	nDone := 0
	var arenaErr error
	complete := func(srv int, r *rpcproto.Request) {
		if nDone++; nDone == wl.N {
			eng.Stop() // as in RunWith: the last completion ends the run
		}
		g.outstanding[srv]--
		rr.Completed[srv]++
		if g.rchk != nil {
			g.rchk.OnComplete(r.ID, srv, eng.Now())
		}
		if int(r.ID) >= wl.Warmup {
			res.Lat.Add(r.Latency())
		}
		if r.Finish > res.Duration {
			res.Duration = r.Finish
		}
		if g.ar != nil {
			g.records[r.ID] = *r
			if !g.ar.Release(g.handles[r.ID]) && arenaErr == nil {
				arenaErr = fmt.Errorf("server: request %d released with stale arena handle", r.ID)
			}
		}
	}

	// Build each server — scheduler, NIC receive model, and its own
	// passive invariant checker — in index order, matching the
	// single-server setup sequence per server.
	g.scheds = make([]sched.Scheduler, rc.Servers)
	g.rxs = make([]nic.RXModel, rc.Servers)
	checkers := make([]*check.Checker, rc.Servers)
	for s := 0; s < rc.Servers; s++ {
		srv := s
		done := sched.Done(func(r *rpcproto.Request) { complete(srv, r) })
		var chk *check.Checker
		if checkOn {
			chk = check.New(check.Options{
				AllowRemigration: cfg.Kind == SchedAltocumulus && cfg.AC.AllowRemigration,
				WorkConserving:   cfg.Kind == SchedZygOS,
			})
			done = chk.WrapDone(done)
		}
		sched_, rx, err := build(cfg, eng, steerRNGs[s], schedRNGs[s], done)
		if err != nil {
			return nil, err
		}
		if chk != nil {
			sched_.(interface{ SetObserver(sched.Observer) }).SetObserver(chk)
			chk.Attach(eng, checkSpecs(cfg), sched_.QueueLensInto)
		}
		g.scheds[s], g.rxs[s], checkers[s] = sched_, rx, chk
	}
	res.Name = g.scheds[0].Name()
	if cfg.Kind == SchedAltocumulus {
		res.Name = "Altocumulus"
	}
	res.Name = fmt.Sprintf("rack-of-%d[%s] %s", rc.Servers, rc.Policy, res.Name)

	g.arriveFn = g.arrive
	g.deliverFn = g.deliver
	if rc.SampleEvery > 0 {
		g.sampleFn = func(any, int64) {
			g.disp.ObserveAll(g.outstanding, policy.Duration(eng.Now()))
			eng.AfterArg(rc.SampleEvery, g.sampleFn, nil, 0)
		}
		eng.AfterArg(rc.SampleEvery, g.sampleFn, nil, 0)
	}
	g.schedule(0, 0)

	if err := runToLastDone(eng, res.Name, wl.N, &nDone); err != nil {
		return nil, err
	}
	res.Events = eng.Processed()
	if arenaErr != nil {
		return nil, arenaErr
	}
	if g.ar != nil && g.ar.Live() != liveBefore {
		return nil, fmt.Errorf("server: %s leaked %d arena requests",
			res.Name, g.ar.Live()-liveBefore)
	}

	var busy float64
	var nCores int
	for s, sch := range g.scheds {
		if ac, ok := sch.(*core.Scheduler); ok && s == 0 {
			res.ACStats = ac.Stats
		}
		if cs, ok := sch.(interface{ Cores() []*exec.Core }); ok {
			for _, c := range cs.Cores() {
				busy += c.BusyTime().Seconds()
			}
			nCores += len(cs.Cores())
		}
	}
	if res.Duration > 0 && nCores > 0 {
		res.WorkerUtilization = busy / (res.Duration.Seconds() * float64(nCores))
	}

	if checkOn {
		rr.ServerChecks = make([]*check.Report, rc.Servers)
		for s, chk := range checkers {
			rr.ServerChecks[s] = chk.Finalize()
			if err := rr.ServerChecks[s].Err(); err != nil {
				return nil, fmt.Errorf("server: %s server %d: %w", res.Name, s, err)
			}
		}
		rr.RackCheck = g.rchk.Finalize(eng.Now())
		rr.MaxSampleAge = g.rchk.MaxSampleAge()
		disp_, _ := g.rchk.PerServer()
		copy(rr.Dispatched, disp_)
		if err := rr.RackCheck.Err(); err != nil {
			return nil, fmt.Errorf("server: %s: %w", res.Name, err)
		}
		res.Check = rr.RackCheck
	} else {
		// Without the checker, dispatch counts come from the recorded
		// assignments.
		for _, s := range rr.ServerOf {
			rr.Dispatched[s]++
		}
	}

	res.SLO = cfg.SLO
	if res.SLO == 0 {
		meanSvc := sim.FromSeconds(g.meanSvcSum / float64(wl.N))
		res.SLO = sim.Time(cfg.SLOMult * float64(meanSvc))
	}
	res.Summary = res.Lat.Summarize(res.SLO)
	res.OfferedRPS = wl.Arrivals.MeanRate()
	if res.Duration > 0 {
		res.DoneRPS = float64(wl.N) / res.Duration.Seconds()
	}
	return rr, nil
}

// WriteRackDispatchCSV exports the rack tier's decision trace: one row
// per request with its destination server, the age of the depth view
// the decision consulted, and (when the run recorded them) the sampled
// (server:depth) pairs. Together with trace.WriteCSV this pins a rack
// run's behaviour byte-for-byte.
func WriteRackDispatchCSV(w io.Writer, rr *RackResult) error {
	if _, err := fmt.Fprintln(w, "id,server,age_ns,view"); err != nil {
		return err
	}
	for id, srv := range rr.ServerOf {
		view := ""
		if rr.Views != nil {
			view = rr.Views[id]
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%.3f,%s\n",
			id, srv, rr.Ages[id].Nanoseconds(), view); err != nil {
			return err
		}
	}
	return nil
}
