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

	// NoArena opts this run out of the request arena: every request is
	// heap-allocated for its whole lifetime, as in the original
	// implementation. Results are byte-identical either way (the arena
	// only changes where request records live); the escape hatch exists
	// so allocation-sensitive regressions can be bisected against the
	// plain-heap path (altobench -noarena).
	NoArena bool

	// HeapSched runs this simulation on the slab binary-heap event
	// scheduler instead of the default timer wheel. Results are
	// byte-identical either way (both backends fire in (at, seq) order);
	// the reference backend exists so scheduler bugs can be bisected
	// differentially (altobench -heapsched), mirroring NoArena.
	HeapSched bool
}

// arenaEnabled is the process-wide default, written once at startup
// (the altobench -noarena flag) before any run begins — the same
// contract as check.SetEnabled.
var arenaEnabled = true

// SetArenaEnabled flips the process-wide arena default. Call it only
// before runs start (flag parsing); per-run opt-out is Config.NoArena.
func SetArenaEnabled(on bool) { arenaEnabled = on }

// ArenaEnabled reports the process-wide default.
func ArenaEnabled() bool { return arenaEnabled }

// heapSched is the process-wide event-scheduler default, written once
// at startup (the altobench -heapsched flag) before any run begins —
// the same contract as SetArenaEnabled.
var heapSched = false

// SetHeapSched flips the process-wide scheduler default to the slab
// binary heap. Call it only before runs start (flag parsing); per-run
// opt-in is Config.HeapSched.
func SetHeapSched(on bool) { heapSched = on }

// HeapSchedEnabled reports the process-wide default.
func HeapSchedEnabled() bool { return heapSched }

// newEngine builds the run's event engine per the config and the
// process-wide default.
func newEngine(cfg Config) *sim.Engine {
	if cfg.HeapSched || heapSched {
		return sim.NewEngineHeap()
	}
	return sim.NewEngine()
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
	// all schedulers replay the identical workload).
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
	Name       string
	Lat        *stats.Sample
	SLO        sim.Time
	Summary    stats.Summary
	Requests   []*rpcproto.Request // indexed by request ID
	Duration   sim.Time            // last completion time
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

// gen drives the lazily-generated arrival chain. All callbacks are
// bound once at run start and requests ride through the engine as
// AtArg/AfterArg payloads, so steady-state generation, arrival, and
// delivery allocate nothing beyond the request records themselves —
// and with the arena enabled, not even those.
type gen struct {
	eng    *sim.Engine
	s      sched.Scheduler
	rx     nic.RXModel
	wl     *Workload
	arrRNG *sim.RNG
	svcRNG *sim.RNG
	res    *Result

	// Arena mode: requests live in ar's slots while in flight and are
	// copied into the records value slab (which backs res.Requests) at
	// completion, when every field is final. Heap mode: ar is nil and
	// each request is a plain allocation kept forever.
	ar      *arena.Arena
	handles []arena.RequestID
	records []rpcproto.Request

	meanSvcSum float64
	arriveFn   func(arg any, n int64)
	deliverFn  func(arg any, n int64)
}

// schedule generates request i (drawing Conn, then Service, then the
// arrival gap — the RNG order the golden traces lock down) and books
// its arrival event. Request i+1 is generated inside i's arrival
// callback, so at most one undelivered request exists at a time.
//
//altolint:hotpath
func (g *gen) schedule(i int, at sim.Time) {
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
	} else if g.wl.Profile != nil {
		g.wl.Profile.Apply(r, g.svcRNG)
	} else {
		r.Service = g.wl.Service.Sample(g.svcRNG)
	}
	g.meanSvcSum += r.Service.Seconds()
	// Software stacks charge per-request processing on the core. For a
	// phased request the stack cost lands on the first phase so the
	// per-phase durations keep summing to Service.
	stackCost := g.rx.CoreStackCost(r.Size)
	r.Service += stackCost
	if r.NumPhases > 0 && stackCost > 0 {
		r.PhaseSvc[0] += stackCost
		r.PhaseAcc[0] += stackCost
	}
	gap := g.wl.Arrivals.NextGap(g.arrRNG)
	g.eng.AtArg(at, g.arriveFn, r, int64(gap))
}

// arrive is the bound arrival callback: stamp the arrival, book the
// NIC delivery, and generate the next request. The event creation
// order (delivery before next arrival) matches the original closure
// chain exactly.
//
//altolint:hotpath
func (g *gen) arrive(arg any, gapN int64) {
	r := arg.(*rpcproto.Request)
	now := g.eng.Now()
	r.Arrival = now
	g.eng.AfterArg(g.rx.Delay(r.Size), g.deliverFn, r, 0)
	g.schedule(int(r.ID)+1, now+sim.Time(gapN))
}

//altolint:hotpath
func (g *gen) deliver(arg any, _ int64) {
	g.s.Deliver(arg.(*rpcproto.Request))
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
	steerRNG := root.Fork(3)
	schedRNG := root.Fork(4)

	res := &Result{
		Name:     cfg.Kind.String(),
		Lat:      stats.NewSample(wl.N),
		Requests: make([]*rpcproto.Request, wl.N),
	}

	g := &gen{eng: eng, wl: &wl, arrRNG: arrRNG, svcRNG: svcRNG, res: res}
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
		// The records slab is retained by the Result, so it cannot live
		// in the Scratch: one allocation per run, not per request.
		g.records = make([]rpcproto.Request, wl.N)
	}

	nDone := 0
	var arenaErr error
	done := func(r *rpcproto.Request) {
		if nDone++; nDone == wl.N {
			eng.Stop() // nothing after the last completion can change a result
		}
		if int(r.ID) >= wl.Warmup {
			res.Lat.Add(r.Latency())
		}
		if r.Finish > res.Duration {
			res.Duration = r.Finish
		}
		if g.ar != nil {
			// Every field is final at completion; snapshot the record,
			// then recycle the slot. A stale handle here means a request
			// completed twice — remember the first occurrence and fail
			// the run after the loop (the checker reports it too).
			g.records[r.ID] = *r
			if !g.ar.Release(g.handles[r.ID]) && arenaErr == nil {
				arenaErr = fmt.Errorf("server: request %d released with stale arena handle", r.ID)
			}
		}
	}

	var chk *check.Checker
	if !cfg.NoCheck && check.Enabled() {
		chk = check.New(check.Options{
			Expected:         wl.N,
			AllowRemigration: cfg.Kind == SchedAltocumulus && cfg.AC.AllowRemigration,
			WorkConserving:   cfg.Kind == SchedZygOS,
		})
		done = chk.WrapDone(done)
	}

	s, rx, err := build(cfg, eng, steerRNG, schedRNG, done)
	if err != nil {
		return nil, err
	}
	if chk != nil {
		s.(interface{ SetObserver(sched.Observer) }).SetObserver(chk)
		chk.Attach(eng, checkSpecs(cfg), s.QueueLensInto)
	}
	res.Name = s.Name()
	if cfg.Kind == SchedAltocumulus {
		res.Name = "Altocumulus"
	}

	// Lazily-generated arrival chain: one event in flight at a time,
	// driven by the pre-bound gen callbacks.
	g.s, g.rx = s, rx
	g.arriveFn = g.arrive
	g.deliverFn = g.deliver
	g.schedule(0, 0)

	if cfg.SnapshotEvery > 0 {
		var snap func()
		snap = func() {
			res.Snapshots = append(res.Snapshots, Snapshot{At: eng.Now(), Lens: s.QueueLens()})
			eng.After(cfg.SnapshotEvery, snap)
		}
		eng.After(cfg.SnapshotEvery, snap)
	}

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
	if ac, ok := s.(*core.Scheduler); ok {
		res.ACStats = ac.Stats
	}
	if z, ok := s.(*sched.Steal); ok {
		res.StealFrac = z.StealFraction()
	}
	if cs, ok := s.(interface{ Cores() []*exec.Core }); ok && res.Duration > 0 {
		var busy float64
		cores := cs.Cores()
		for _, c := range cores {
			busy += c.BusyTime().Seconds()
		}
		res.WorkerUtilization = busy / (res.Duration.Seconds() * float64(len(cores)))
	}

	if chk != nil {
		res.Check = chk.Finalize()
		if err := res.Check.Err(); err != nil {
			return nil, fmt.Errorf("server: %s: %w", res.Name, err)
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
	return res, nil
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
		// QueueLens exposes per-core outstanding counts (not local queue
		// lengths) after the central length, so only index 0 cross-checks.
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
