// Package server assembles a complete simulated RPC server — NIC receive
// path, scheduler, worker cores, and optionally an application (MICA) —
// and runs workloads against it, producing latency samples, SLO
// accounting, and per-request records for the replay-based analyses
// (migration effectiveness, prediction accuracy).
package server

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SchedulerKind selects which system the server models.
type SchedulerKind int

const (
	// SchedRSS: commodity NIC RSS with per-core d-FCFS queues and no
	// rebalancing (the "Emulated Commodity RSS NIC" baseline).
	SchedRSS SchedulerKind = iota
	// SchedIX: RSS d-FCFS over a kernel-bypass dataplane (IX).
	SchedIX
	// SchedZygOS: d-FCFS plus work stealing.
	SchedZygOS
	// SchedShinjuku: centralized software dispatcher with preemption.
	SchedShinjuku
	// SchedRPCValet / SchedNebula / SchedNanoPU: hardware JBSQ designs.
	SchedRPCValet
	SchedNebula
	SchedNanoPU
	// SchedAltocumulus: the paper's system (configured via Config.AC).
	SchedAltocumulus
	// SchedRSSPlus: d-FCFS with RSS++-style periodic indirection-table
	// rebalancing (every 20 us, per the paper's §IX-E citation).
	SchedRSSPlus
)

func (k SchedulerKind) String() string {
	switch k {
	case SchedIX:
		return "IX"
	case SchedZygOS:
		return "ZygOS"
	case SchedShinjuku:
		return "Shinjuku"
	case SchedRPCValet:
		return "RPCValet"
	case SchedNebula:
		return "Nebula"
	case SchedNanoPU:
		return "nanoPU"
	case SchedAltocumulus:
		return "Altocumulus"
	case SchedRSSPlus:
		return "RSS++"
	default:
		return "RSS"
	}
}

// Config describes one server under test.
type Config struct {
	Kind  SchedulerKind
	Cores int         // total cores (baselines use all as workers; Shinjuku reserves one dispatcher)
	AC    core.Params // Altocumulus configuration (Kind == SchedAltocumulus)

	Stack rpcproto.StackKind
	Cost  fabric.CostModel
	Steer nic.SteerPolicy // steering for d-FCFS and AC group selection

	Seed uint64

	// SLO: explicit target; when 0, SLOMult x the workload's mean
	// service time is used (the paper's default L = 10).
	SLO     sim.Time
	SLOMult float64

	// MaxQueueSnapshot enables periodic queue-length snapshots.
	SnapshotEvery sim.Time

	// NoCheck opts this run out of the online invariant checker
	// (internal/check). The checker is on by default — it is passive and
	// deterministic, so results are identical either way; opt out only
	// for micro-benchmarks where its bookkeeping overhead matters.
	NoCheck bool
}

// Scratch holds per-worker reusable state for a sequence of runs: the
// request arena (slabs stay warm across runs) and the handle table.
// A Scratch must not be shared between concurrent runs — internal/fleet
// gives each pool worker its own via fleet.MapWith.
type Scratch struct {
	arena   *arena.Arena
	handles []arena.RequestID
}

// NewScratch returns an empty Scratch; slabs grow on first use.
func NewScratch() *Scratch { return &Scratch{arena: arena.New()} }

// App lets an application bind real work to requests.
type App interface {
	// Prepare assigns the operation, payload and base service time of a
	// freshly generated request (called at trace-generation time so that
	// all schedulers replay the identical workload). r arrives bare, with
	// no phase sidecar, and must leave NumPhases at 0: phase chains come
	// only from a Workload.Profile.
	Prepare(r *rpcproto.Request, rng *sim.RNG)
}

// Workload is the offered load.
type Workload struct {
	Arrivals dist.ArrivalProcess
	Service  dist.ServiceDist // ignored when App or Profile != nil
	App      App
	// Profile draws each request as a multi-phase chain (DESIGN.md §15)
	// instead of one Service sample. Precedence: App > Profile >
	// Service. A 1-phase neutral profile consumes the identical RNG
	// stream as its bare distribution, so runs are byte-identical.
	Profile *dist.PhaseProfile
	N       int // total requests
	Warmup  int // initial completions excluded from the latency sample
	Conns   int // distinct connections (flows); default 1024
}

// Result is one run's measurements.
type Result struct {
	Name    string
	Lat     *stats.Sample
	SLO     sim.Time
	Summary stats.Summary
	// Requests holds one completion record per request, indexed by
	// request ID: the fields the replay analyses, tenant digests and
	// trace writers read. A finished request's in-flight state (payload,
	// queue, preemption and forwarding fields) is not kept.
	Requests   []*rpcproto.Record
	Duration   sim.Time // last completion time
	OfferedRPS float64
	DoneRPS    float64 // completed / duration
	// ACStats covers the workload interval: the run ends at the last
	// completion, so Ticks and UpdatesSent count no idle tail.
	ACStats   core.Stats
	StealFrac float64
	// Events is the number of simulated events the run executed.
	Events uint64
	// WorkerUtilization is the mean busy fraction of the worker cores
	// over the run (management/dispatcher cores excluded).
	WorkerUtilization float64
	Snapshots         []Snapshot
	// Check is the invariant checker's report (nil when opted out).
	Check *check.Report
}

// Snapshot is a periodic queue-length observation.
type Snapshot struct {
	At   sim.Time
	Lens []int
}

// server is one machine of a run: its scheduler, its NIC receive model
// and, unless opted out, its passive invariant checker.
type server struct {
	sched sched.Scheduler
	rx    nic.RXModel
	chk   *check.Checker

	// A one-entry memo of rx's prices: the NIC delay and core stack cost
	// of a request of pricedSize bytes. Most runs send one size.
	pricedSize       int
	delay, stackCost sim.Time
}

// price returns the NIC receive delay and the core stack cost of a
// request of the given wire size, repricing only when the size differs
// from the previous request's.
//
//altolint:hotpath
func (s *server) price(size int) (delay, stackCost sim.Time) {
	if size != s.pricedSize {
		s.pricedSize, s.delay, s.stackCost = size, s.rx.Delay(size), s.rx.CoreStackCost(size)
	}
	return s.delay, s.stackCost
}

// gen drives the lazily-generated arrival chain of a run over one or
// more servers. All callbacks are bound once at run start and requests
// ride through the engine as AtArg/AfterArg payloads, so steady-state
// generation, arrival, and delivery allocate nothing: requests live in
// the arena's slots while in flight, and at completion, when every field
// is final, what the run keeps of one is filled into its element of the
// records slab (which backs res.Requests): a 56 B rpcproto.Record, not
// the in-flight Request. A phased request's sidecar is copied into
// phaseRecords, because the arena's goes to the slot's next request.
type gen struct {
	eng    *sim.Engine
	wl     *Workload
	arrRNG *sim.RNG
	svcRNG *sim.RNG
	res    *Result

	servers []server
	// tier is the rack dispatch layer over the servers; nil for a
	// single-server run, whose arrivals all go to servers[0].
	tier *rackTier
	// fused runs have no arrival event: with one server and no App every
	// request has the same wire size, so each is delivered one constant
	// NIC delay after it arrives, in arrival order, and a request's
	// delivery can book the next one directly. A rack keeps the arrival
	// event because its dispatcher picks the server at arrival time; an
	// App keeps it because its requests' sizes, and so their NIC delays,
	// differ.
	fused bool

	ar           *arena.Arena
	handles      []arena.RequestID
	records      []rpcproto.Record
	phaseRecords []rpcproto.PhaseVec // made at the run's first phased completion

	nDone      int
	arenaErr   error
	meanSvcSum float64
	arriveFn   func(arg any, n int64)
	deliverFn  func(arg any, n int64)
}

// schedule generates request i arriving at at (drawing Conn, then
// Service, then the arrival gap — the RNG order the golden traces lock
// down) and books its next event: on a fused run its delivery, stamped
// with the arrival; otherwise its arrival. Request i+1 is generated when
// that event fires, so at most one undelivered request exists at a time.
//
//altolint:hotpath
func (g *gen) schedule(i int, at sim.Time) {
	if i >= g.wl.N {
		return
	}
	// Only a Profile makes a phase chain (App takes precedence over it),
	// so only its requests are handed a sidecar to fill.
	phased := g.wl.App == nil && g.wl.Profile != nil
	var r *rpcproto.Request
	if phased {
		r, g.handles[i] = g.ar.AcquirePhased()
	} else {
		r, g.handles[i] = g.ar.Acquire()
	}
	g.res.Requests[i] = &g.records[i]
	r.ID = uint64(i)
	r.Conn = uint32(g.arrRNG.Intn(g.wl.Conns))
	r.Size = 300
	switch {
	case g.wl.App != nil:
		g.wl.App.Prepare(r, g.svcRNG)
	case phased:
		g.wl.Profile.Apply(r, g.svcRNG)
	default:
		r.Service = g.wl.Service.Sample(g.svcRNG)
	}
	g.meanSvcSum += r.Service.Seconds()
	// Software stacks charge per-request processing on the core. For a
	// phased request the stack cost lands on the first phase so the
	// per-phase durations keep summing to Service; its accelerated
	// duration is derived from PhaseSvc, so it takes the surcharge too
	// (DESIGN.md §15). The servers of a rack are identical, so
	// servers[0]'s receive model prices all of them.
	delay, stackCost := g.servers[0].price(r.Size)
	r.Service += stackCost
	if phased {
		r.PhaseSvc[0] += stackCost
	}
	gap := g.wl.Arrivals.NextGap(g.arrRNG)
	if g.fused {
		r.Arrival = at
		g.eng.AtArg(at+delay, g.deliverFn, r, int64(gap))
		return
	}
	g.eng.AtArg(at, g.arriveFn, r, int64(gap))
}

// arrive is the bound arrival callback of a run that is not fused:
// stamp the arrival, let the rack tier (if any) pick the server, book
// that server's NIC delivery, and generate the next request.
//
//altolint:hotpath
func (g *gen) arrive(arg any, gapN int64) {
	r := arg.(*rpcproto.Request)
	now := g.eng.Now()
	r.Arrival = now
	srv := 0
	if g.tier != nil {
		srv = g.tier.dispatch(r, now)
	}
	delay, _ := g.servers[srv].price(r.Size)
	g.eng.AfterArg(delay, g.deliverFn, r, int64(srv))
	g.schedule(int(r.ID)+1, now+sim.Time(gapN))
}

// deliver is the bound delivery callback: it hands the request to its
// server's scheduler. On a fused run n is the gap to the next arrival,
// and the next request is generated first, as the arrival callback
// would have done; otherwise n is the server arrive picked.
//
//altolint:hotpath
func (g *gen) deliver(arg any, n int64) {
	r := arg.(*rpcproto.Request)
	if g.fused {
		g.schedule(int(r.ID)+1, r.Arrival+sim.Time(n))
		n = 0
	}
	g.servers[n].sched.Deliver(r)
}

// complete is every server's done callback: the last completion stops
// the engine (nothing after it can change a result), the latency sample
// and the completion record are taken while every field is final, and
// the arena slot is recycled.
func (g *gen) complete(srv int, r *rpcproto.Request) {
	if g.nDone++; g.nDone == g.wl.N {
		g.eng.Stop()
	}
	if g.tier != nil {
		g.tier.complete(srv, r.ID, g.eng.Now())
	}
	if int(r.ID) >= g.wl.Warmup {
		g.res.Lat.Add(r.Latency())
	}
	if r.Finish > g.res.Duration {
		g.res.Duration = r.Finish
	}
	var side *rpcproto.PhaseVec
	if r.PhaseVec != nil {
		// The record must not alias the arena's sidecar: the slot released
		// below hands it to the next request.
		if g.phaseRecords == nil {
			g.phaseRecords = make([]rpcproto.PhaseVec, g.wl.N)
		}
		side = &g.phaseRecords[r.ID]
	}
	g.records[r.ID].Fill(r, side)
	// A stale handle here means a request completed twice — remember the
	// first occurrence and fail the run after the loop (the checker
	// reports it too).
	if !g.ar.Release(g.handles[r.ID]) && g.arenaErr == nil {
		g.arenaErr = fmt.Errorf("server: request %d released with stale arena handle", r.ID)
	}
}

// Run executes the workload against the configured server with a
// private, throwaway Scratch.
func Run(cfg Config, wl Workload) (*Result, error) {
	return RunWith(nil, cfg, wl)
}

// RunWith executes the workload reusing sc's arena and buffers across
// runs (sc == nil allocates a fresh Scratch; pass one only from a
// single goroutine at a time). Results are independent of sc.
func RunWith(sc *Scratch, cfg Config, wl Workload) (*Result, error) {
	rr, err := run(sc, nil, cfg, wl)
	if err != nil {
		return nil, err
	}
	return rr.Result, nil
}

// run is the one run loop. One engine drives every server: a shared
// arrival process feeds each request to one server's NIC receive path,
// and each server runs its own scheduler, cores, and (by default)
// invariant checker. With rc == nil that is all there is — one server,
// every arrival delivered to it. A non-nil rc adds the rack tier over
// the unchanged servers: a dispatcher picks the server per arrival and a
// rack-level checker proves inter-server conservation and bounded
// staleness on top. The returned RackResult carries rack accounting only
// in that case.
func run(sc *Scratch, rc *RackConfig, cfg Config, wl Workload) (*RackResult, error) {
	nServers := 1
	if rc != nil {
		if err := rc.Validate(); err != nil {
			return nil, err
		}
		nServers = rc.Servers
	}
	if wl.N <= 0 {
		return nil, fmt.Errorf("server: workload N = %d", wl.N)
	}
	if cfg.SnapshotEvery > 0 && nServers > 1 {
		return nil, fmt.Errorf("server: SnapshotEvery is per server; a rack of %d has no snapshot format", nServers)
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
	if sc == nil {
		sc = NewScratch()
	}
	if cap(sc.handles) < wl.N {
		sc.handles = make([]arena.RequestID, wl.N)
	}

	eng := sim.NewEngine()
	root := sim.NewRNG(cfg.Seed)
	res := &Result{
		Lat:      stats.NewSample(wl.N),
		Requests: make([]*rpcproto.Record, wl.N),
	}
	rr := &RackResult{Result: res}
	g := &gen{
		eng: eng, wl: &wl, res: res,
		arrRNG:  root.Fork(1),
		svcRNG:  root.Fork(2),
		servers: make([]server, nServers),
		ar:      sc.arena,
		handles: sc.handles[:wl.N],
		// The records slab is retained by the Result, so it cannot live
		// in the Scratch: one allocation per run, not per request.
		records: make([]rpcproto.Record, wl.N),
	}
	liveBefore := g.ar.Live()

	// Build each server — scheduler, NIC receive model, and its own
	// passive invariant checker — in index order. The forks continue the
	// tag sequence server by server (3 and 4 for server 0, 5 and 6 for
	// server 1, ...) and the rack's own RNG forks last, so a rack of one
	// replays the single-server streams draw for draw: its dispatcher
	// never consumes randomness.
	checkOn := !cfg.NoCheck && (rc == nil || !rc.NoCheck) && check.Enabled()
	for s := range g.servers {
		steerRNG := root.Fork(uint64(3 + 2*s))
		schedRNG := root.Fork(uint64(4 + 2*s))
		done := sched.Done(func(r *rpcproto.Request) { g.complete(s, r) })
		var chk *check.Checker
		if checkOn {
			opts := check.Options{
				AllowRemigration: cfg.Kind == SchedAltocumulus && cfg.AC.AllowRemigration,
				WorkConserving:   cfg.Kind == SchedZygOS,
			}
			if nServers == 1 {
				opts.Expected = wl.N // a lone server receives every request
			}
			chk = check.New(opts)
			done = chk.WrapDone(done)
		}
		sch, rx, err := build(cfg, eng, steerRNG, schedRNG, done)
		if err != nil {
			return nil, err
		}
		if chk != nil {
			sch.SetProbe(chk)
			chk.Attach(eng, checkSpecs(cfg), sch.QueueLensInto)
		}
		g.servers[s] = server{sched: sch, rx: rx, chk: chk, pricedSize: -1}
	}
	first := g.servers[0].sched
	res.Name = first.Name()
	if cfg.Kind == SchedAltocumulus {
		res.Name = "Altocumulus"
	}
	if rc != nil {
		tier, err := newRackTier(*rc, rr, wl.N, root.Fork(uint64(3+2*nServers)), checkOn)
		if err != nil {
			return nil, err
		}
		g.tier = tier
		tier.startSampler(eng)
		res.Name = fmt.Sprintf("rack-of-%d[%s] %s", rc.Servers, rc.Policy, res.Name)
	}

	// Lazily-generated arrival chain: one event in flight at a time,
	// driven by the pre-bound gen callbacks.
	g.fused = g.tier == nil && wl.App == nil
	g.arriveFn = g.arrive
	g.deliverFn = g.deliver
	g.schedule(0, 0)

	if cfg.SnapshotEvery > 0 {
		eng.Every(cfg.SnapshotEvery, func() bool {
			res.Snapshots = append(res.Snapshots, Snapshot{At: eng.Now(), Lens: first.QueueLensInto(nil)})
			return true
		})
	}

	if err := runToLastDone(eng, res.Name, wl.N, &g.nDone); err != nil {
		return nil, err
	}
	res.Events = eng.Processed()
	if g.arenaErr != nil {
		return nil, g.arenaErr
	}
	if g.ar.Live() != liveBefore {
		return nil, fmt.Errorf("server: %s leaked %d arena requests",
			res.Name, g.ar.Live()-liveBefore)
	}

	if ac, ok := first.(*core.Scheduler); ok {
		res.ACStats = ac.Stats
	}
	if z, ok := first.(*sched.Steal); ok {
		res.StealFrac = z.StealFraction()
	}
	var busy float64
	var nCores int
	for _, srv := range g.servers {
		if cs, ok := srv.sched.(interface{ Cores() []*exec.Core }); ok {
			cores := cs.Cores()
			for _, c := range cores {
				busy += c.BusyTime().Seconds()
			}
			nCores += len(cores)
		}
	}
	if res.Duration > 0 && nCores > 0 {
		res.WorkerUtilization = busy / (res.Duration.Seconds() * float64(nCores))
	}

	if checkOn {
		for s, srv := range g.servers {
			rep := srv.chk.Finalize()
			if err := rep.Err(); err != nil {
				return nil, fmt.Errorf("server: %s server %d: %w", res.Name, s, err)
			}
			rr.ServerChecks = append(rr.ServerChecks, rep)
		}
		res.Check = rr.ServerChecks[0]
		if g.tier != nil {
			// A rack run's headline report is the rack checker's.
			if err := g.tier.finalize(eng.Now()); err != nil {
				return nil, fmt.Errorf("server: %s: %w", res.Name, err)
			}
			res.Check = rr.RackCheck
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

// hardCap bounds a run's simulated time: a scheduler that is still
// making events but not progress by then is reported, not waited on.
const hardCap = 100 * sim.Second

// runToLastDone runs the engine until the done callback of the n-th
// completion stops it. The periodic machinery (manager ticks, rebalance
// timers, checker checkpoints) never lets the queue drain on its own, so
// the run ends at the last completion instead: no event after it can
// change a request record. A queue that empties first means requests
// were lost; a clock that reaches hardCap means they are stuck behind
// machinery that still ticks.
func runToLastDone(eng *sim.Engine, name string, n int, nDone *int) error {
	eng.Run(hardCap)
	switch {
	case *nDone >= n:
		return nil
	case eng.Pending() == 0:
		return fmt.Errorf("server: %s stalled: queue empty with %d requests outstanding (done %d of %d)",
			name, n-*nDone, *nDone, n)
	default:
		return fmt.Errorf("server: %s did not finish %d requests within %v (done %d)",
			name, n, hardCap, *nDone)
	}
}

// checkSpecs maps a config's scheduler onto the checker's queue
// topology, following the probe id conventions documented on
// sched.Probe.
func checkSpecs(cfg Config) []check.QueueSpec {
	var specs []check.QueueSpec
	switch cfg.Kind {
	case SchedRSS, SchedIX, SchedZygOS, SchedRSSPlus:
		for i := 0; i < cfg.Cores; i++ {
			specs = append(specs, check.QueueSpec{ID: i, Core: i, Lens: i})
		}
	case SchedShinjuku:
		// The central queue has no owning core: a non-empty queue with
		// idle workers is legal while dispatches are in flight.
		specs = []check.QueueSpec{{ID: 0, Core: -1, Lens: 0}}
	case SchedRPCValet, SchedNebula, SchedNanoPU:
		// QueueLensInto exposes per-core outstanding counts (not local
		// queue lengths) after the central length, so only index 0
		// cross-checks.
		specs = append(specs, check.QueueSpec{ID: 0, Core: -1, Lens: 0})
		for i := 0; i < cfg.Cores; i++ {
			specs = append(specs, check.QueueSpec{ID: 1 + i, Core: i, Lens: -1})
		}
	case SchedAltocumulus:
		g, w := cfg.AC.Groups, cfg.AC.WorkersPerGroup
		for gid := 0; gid < g; gid++ {
			specs = append(specs, check.QueueSpec{ID: gid, Core: -1, Lens: gid})
		}
		for gid := 0; gid < g; gid++ {
			for wi := 0; wi < w; wi++ {
				specs = append(specs, check.QueueSpec{ID: g + gid*w + wi, Core: gid*w + wi, Lens: -1})
			}
		}
	}
	return specs
}

// build constructs the scheduler and NIC receive model for a config.
func build(cfg Config, eng *sim.Engine, steerRNG, schedRNG *sim.RNG, done sched.Done) (sched.Scheduler, nic.RXModel, error) {
	cost := cfg.Cost
	stack := rpcproto.NewStack(cfg.Stack)

	pcie := nic.RXModel{Cost: cost, Attach: fabric.AttachPCIe, Stack: stack}
	integ := nic.RXModel{Cost: cost, Attach: fabric.AttachIntegrated, HWTerminated: true, Stack: stack}

	switch cfg.Kind {
	case SchedRSS, SchedIX:
		st := nic.NewSteerer(cfg.Steer, cfg.Cores, steerRNG)
		s := sched.NewDFCFS(eng, cfg.Cores, st, cost.CacheMiss, done)
		if cfg.Kind == SchedIX {
			s.Label = "IX"
		} else {
			s.Label = "RSS"
		}
		return s, pcie, nil
	case SchedZygOS:
		st := nic.NewSteerer(cfg.Steer, cfg.Cores, steerRNG)
		s := sched.NewSteal(eng, cfg.Cores, st, cost.CacheMiss, cost.StealAttempt, schedRNG, done)
		return s, pcie, nil
	case SchedRSSPlus:
		s := sched.NewRSSPlus(eng, cfg.Cores, 4*cfg.Cores, cost.CacheMiss,
			20*sim.Microsecond, done)
		return s, pcie, nil
	case SchedShinjuku:
		// One core is the dedicated dispatcher; ~200 ns per dispatch caps
		// it at the paper's 5 MRPS. 5 us preemption quantum.
		workers := cfg.Cores - 1
		if workers < 1 {
			workers = 1
		}
		s := sched.NewCentral(eng, workers, 200*sim.Nanosecond, cost.CoherenceMsg,
			5*sim.Microsecond, cost.PreemptCost, done)
		return s, pcie, nil
	case SchedRPCValet:
		s := sched.NewJBSQ(eng, cfg.Cores, sched.VariantRPCValet, 2, cost.CacheMiss,
			6*sim.Nanosecond, 0, 0, done)
		return s, integ, nil
	case SchedNebula:
		s := sched.NewJBSQ(eng, cfg.Cores, sched.VariantNebula, 2, cost.LLCAccess,
			4*sim.Nanosecond, 0, 0, done)
		return s, integ, nil
	case SchedNanoPU:
		s := sched.NewJBSQ(eng, cfg.Cores, sched.VariantNanoPU, 2, cost.RegisterXfer,
			1500*sim.Picosecond, 5*sim.Microsecond, 200*sim.Nanosecond, done)
		return s, integ, nil
	case SchedAltocumulus:
		// The phase-forward pow-k sampler gets its own stream, derived
		// from the run seed unless the caller pinned one. cfg is a copy,
		// so the caller's Params are untouched.
		if cfg.AC.ForwardSeed == 0 {
			cfg.AC.ForwardSeed = cfg.Seed
		}
		st := nic.NewSteerer(cfg.Steer, cfg.AC.Groups, steerRNG)
		s, err := core.New(eng, cfg.AC, cost, st, done)
		if err != nil {
			return nil, nic.RXModel{}, err
		}
		if cfg.AC.Local == core.DispatchSoftware {
			// ACrss: commodity PCIe NIC, but the manager core runs the
			// networking threads (§VII "handles traditional networking
			// threads and request dispatch, similar to Shinjuku"), so
			// stack processing is pipelined off the workers: it adds
			// receive-path latency, not worker occupancy.
			return s, nic.RXModel{Cost: cost, Attach: fabric.AttachPCIe,
				HWTerminated: true, Stack: stack}, nil
		}
		return s, integ, nil
	default:
		return nil, nic.RXModel{}, fmt.Errorf("server: unknown scheduler kind %d", cfg.Kind)
	}
}
