// Package live is the second consumer of the engine-agnostic policy
// core (internal/policy): a real goroutine runtime that schedules RPCs
// the way the simulated ALTOCUMULUS runtime does, but on the host OS
// instead of a discrete-event engine. Each group runs one manager
// goroutine plus W worker goroutines; requests land in a per-group
// MPSC run queue (the NetRX stand-in), workers receive work over
// bounded channels (the JBSQ(depth) dispatch bound), and managers run
// Algorithm 1 on a Period-paced tick driven by a monotonic clock behind
// the policy.Clock seam. Descriptor migration travels over bounded
// channels standing in for the send/receive FIFOs of §V: a full
// destination channel is a NACK and the batch returns to the source
// tail, exactly as the hardware model drops without replay.
//
// The policy decisions — threshold, patterns, batch sizing, the
// q[src]-S >= q[dst]+S guard, migrate-at-most-once — are the same
// policy calls the simulator makes, so the two runtimes cannot drift.
// Conservation and migrate-once are asserted per run by check.Ledger.
//
// Concurrency here is real, not simulated: this package is the
// sanctioned live boundary of the determinism lint (see
// internal/lint/simsync.go), the one place goroutines and channels may
// coexist with sim-typed data.
//
//altolint:live-boundary real scheduling runtime; OS concurrency is the subject under test, not a simulation hazard
package live

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/policy"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// Handler executes one request on a worker goroutine and returns the
// response payload and status. Implementations must be safe for
// concurrent calls from all worker goroutines.
type Handler interface {
	Serve(r *rpcproto.Request) ([]byte, rpcproto.Status)
}

// AppendHandler is the optional allocation-free form of a Handler:
// AppendServe appends the response payload to dst and returns the
// extended slice (dst itself when the response is empty). When the
// handler given to New implements it, each worker serves through it
// into a scratch buffer it owns and reuses, so a response built from
// the handler's own state (a KV value) costs one copy and no allocation.
type AppendHandler interface {
	Handler
	AppendServe(dst []byte, r *rpcproto.Request) ([]byte, rpcproto.Status)
}

// DoneFunc is the completion callback of one delivered request. It runs
// on the worker goroutine that executed the request, after the handler
// returns; keep it short (typically: enqueue the response frame). The
// payload is valid only until the callback returns: it may alias the
// request's own payload (EchoHandler) or the worker's response scratch
// (an AppendHandler), both of which are reused afterwards.
type DoneFunc func(r *rpcproto.Request, payload []byte, st rpcproto.Status)

// Config sizes a Runtime. The zero value is unusable; fields left zero
// take the documented defaults.
type Config struct {
	Groups          int // manager groups (default 2)
	WorkersPerGroup int // workers per group (default 4)

	// WorkerDepth bounds outstanding requests per worker (JBSQ-style,
	// default 2). The manager never sends to a worker at its bound, so
	// worker channel sends never block.
	WorkerDepth int

	// Period is the manager tick; default 200µs. The effective period
	// self-clamps to twice the measured tick cost (policy.EffectivePeriod),
	// the live analogue of the Algorithm 1 runtime-cost constraint.
	Period time.Duration

	Bulk        int     // migration bulk B (default 16)
	Concurrency int     // migration concurrency; batch S = B/Concurrency
	SLOMult     float64 // L, the SLO multiplier of the threshold model (default 10)

	DisablePatterns  bool // threshold-only triggering (ablation)
	DisableGuard     bool // drop the q[src]-S >= q[dst]+S guard (ablation)
	AllowRemigration bool // lift migrate-at-most-once (ablation)

	// MigrateFIFO is the per-group inbound migration channel capacity in
	// batches (default 4); a full channel NACKs the batch.
	MigrateFIFO int

	// Expected pre-sizes the conservation ledger (requests per run).
	Expected int

	// Steer maps an arriving request to a group; nil uses connection
	// hashing (Conn mod Groups), the RSS stand-in.
	Steer func(r *rpcproto.Request) int

	// Clock overrides the monotonic wall clock (tests use synthetic
	// clocks; the default is the only wall-clock source in the package).
	Clock policy.Clock
}

func (c *Config) applyDefaults() {
	if c.Groups <= 0 {
		c.Groups = 2
	}
	if c.WorkersPerGroup <= 0 {
		c.WorkersPerGroup = 4
	}
	if c.WorkerDepth <= 0 {
		c.WorkerDepth = 2
	}
	if c.Period <= 0 {
		c.Period = 200 * time.Microsecond
	}
	if c.Bulk <= 0 {
		c.Bulk = 16
	}
	if c.Concurrency <= 0 {
		c.Concurrency = c.Groups - 1
		if c.Concurrency < 1 {
			c.Concurrency = 1
		}
	}
	if c.SLOMult <= 0 {
		c.SLOMult = 10
	}
	if c.MigrateFIFO <= 0 {
		c.MigrateFIFO = 4
	}
}

// Stats are the runtime counters after a run, the live analogue of the
// simulator's core.Stats.
type Stats struct {
	Delivered, Completed uint64

	Ticks        uint64
	Migrations   uint64 // MIGRATE batches accepted by a destination
	MigratedReqs uint64 // requests inside accepted batches
	NackedReqs   uint64 // requests returned to source (destination FIFO full)
	GuardSkips   uint64 // migrations suppressed by the guard

	HillEvents, ValleyEvents, PairingEvents, ThresholdEvts uint64
}

// Report is the outcome of one live run: counters, the end-to-end
// latency profile (delivery to completion, as sim.Time picoseconds),
// and the conservation verdict.
type Report struct {
	Stats   Stats
	Check   *check.Report
	P50     sim.Time
	P99     sim.Time
	P999    sim.Time
	Mean    sim.Time
	Max     sim.Time
	Samples int
}

func (r *Report) String() string {
	return fmt.Sprintf("n=%d p50=%v p99=%v p99.9=%v max=%v; ticks=%d migrations=%d migrated=%d nacked=%d guard-skips=%d",
		r.Samples, r.P50, r.P99, r.P999, r.Max, r.Stats.Ticks,
		r.Stats.Migrations, r.Stats.MigratedReqs, r.Stats.NackedReqs, r.Stats.GuardSkips)
}

// task is one in-flight request plus its delivery metadata.
type task struct {
	req     *rpcproto.Request
	arrival policy.Duration // clock stamp at Deliver
	done    DoneFunc
}

// Runtime is a live ALTOCUMULUS scheduler instance. Construct with New,
// start with Start, feed with Deliver, then Drain, Close, Report.
type Runtime struct {
	cfg     Config
	handler Handler
	// appender is handler's AppendHandler form, or nil: resolved once
	// here so the per-request path branches on a nil check, not a type
	// assertion.
	appender AppendHandler
	clock    policy.Clock

	groups []*lgroup
	// qlens is the shared queue-length board, the stand-in for the UPDATE
	// broadcast of Table II: each manager publishes its NetRX length and
	// reads the others' at tick time. Entries are cache-line padded: the
	// board is written by every producer on every Deliver and by every
	// manager on every dispatch, so bare atomic.Int64 entries would
	// false-share one line between up to eight groups (see padalign).
	qlens []paddedInt64

	ledgerMu sync.Mutex
	ledger   *check.Ledger

	// taskPool recycles task boxes between Deliver and serve, so the
	// steady-state per-request path allocates nothing: Put/Get of a live
	// pointer is alloc-free, and only the cold start (and post-GC refill)
	// mints new boxes.
	taskPool sync.Pool

	// inflight is bumped by every Deliver (producer goroutines) and
	// dropped by every completion (worker goroutines): the single most
	// contended word in the runtime, padded so neighbouring fields'
	// readers do not share its line.
	inflight paddedInt64
	stop     chan struct{}
	wg       sync.WaitGroup
	started  bool
	closed   bool
}

// New builds a runtime; Start launches its goroutines.
func New(cfg Config, h Handler) (*Runtime, error) {
	if h == nil {
		return nil, errors.New("live: nil handler")
	}
	cfg.applyDefaults()
	if cfg.Concurrency >= cfg.Groups && cfg.Groups > 1 {
		cfg.Concurrency = cfg.Groups - 1
	}
	rt := &Runtime{
		cfg:     cfg,
		handler: h,
		clock:   cfg.Clock,
		qlens:   make([]paddedInt64, cfg.Groups),
		ledger:  check.NewLedger(cfg.Expected, cfg.AllowRemigration),
		stop:    make(chan struct{}),
	}
	rt.appender, _ = h.(AppendHandler)
	if rt.clock == nil {
		rt.clock = newWallClock()
	}
	// Cold-start task boxes; the steady state recycles them through the
	// pool, so Deliver's Get is allocation-free.
	rt.taskPool.New = func() any { return new(task) }
	for g := 0; g < cfg.Groups; g++ {
		rt.groups = append(rt.groups, newLGroup(rt, g))
	}
	return rt, nil
}

// Start launches the manager and worker goroutines. Call once.
func (rt *Runtime) Start() {
	if rt.started {
		panic("live: Start called twice")
	}
	rt.started = true
	for _, g := range rt.groups {
		for _, w := range g.workers {
			rt.wg.Add(1)
			go w.run()
		}
		rt.wg.Add(1)
		go g.run()
	}
}

// steer maps a request to its home group.
func (rt *Runtime) steer(r *rpcproto.Request) int {
	if rt.cfg.Steer != nil {
		if g := rt.cfg.Steer(r); g >= 0 && g < len(rt.groups) {
			return g
		}
	}
	return int(r.Conn) % len(rt.groups)
}

// Deliver hands one request to the runtime. Safe for concurrent use
// (the network goroutines are the producers of the MPSC run queues).
// done fires exactly once, on a worker goroutine.
//
//altolint:hotpath
func (rt *Runtime) Deliver(r *rpcproto.Request, done DoneFunc) {
	gid := rt.steer(r)
	r.GroupHint = gid
	t := rt.taskPool.Get().(*task)
	t.req, t.arrival, t.done = r, rt.clock.Now(), done
	rt.inflight.Add(1)
	rt.ledgerMu.Lock()
	rt.ledger.Delivered(r.ID)
	rt.ledgerMu.Unlock()
	g := rt.groups[gid]
	g.mu.Lock()
	g.q.pushTail(t)
	n := g.q.len()
	g.mu.Unlock()
	rt.qlens[gid].Store(int64(n))
	g.arrivals.Add(1)
	g.poke()
}

// Drain blocks until every delivered request has completed, or the
// timeout elapses.
func (rt *Runtime) Drain(timeout time.Duration) error {
	deadline := rt.clock.Now() + policy.Duration(timeout.Nanoseconds())*policy.Nanosecond
	for rt.inflight.Load() > 0 {
		if rt.clock.Now() > deadline {
			return fmt.Errorf("live: drain timeout with %d request(s) in flight", rt.inflight.Load())
		}
		sleepBriefly()
	}
	return nil
}

// Close stops the manager and worker goroutines and waits for them.
// Drain first; queued work is abandoned at Close (and will fail the
// conservation check).
func (rt *Runtime) Close() {
	if rt.closed {
		return
	}
	rt.closed = true
	close(rt.stop)
	rt.wg.Wait()
}

// Report aggregates counters, the latency profile and the conservation
// verdict. Call after Close: the per-group counters are goroutine-owned
// until then.
func (rt *Runtime) Report() *Report {
	if !rt.closed {
		panic("live: Report before Close")
	}
	rep := &Report{}
	var h latHist
	for _, g := range rt.groups {
		rep.Stats.Ticks += g.ticks
		rep.Stats.Migrations += g.migrations
		rep.Stats.MigratedReqs += g.migratedReqs
		rep.Stats.NackedReqs += g.nackedReqs
		rep.Stats.GuardSkips += g.guardSkips
		rep.Stats.HillEvents += g.hill
		rep.Stats.ValleyEvents += g.valley
		rep.Stats.PairingEvents += g.pairing
		rep.Stats.ThresholdEvts += g.thresholdEvts
		for _, w := range g.workers {
			h.merge(&w.lats)
		}
	}
	rt.ledgerMu.Lock()
	rep.Check = rt.ledger.Verify()
	rt.ledgerMu.Unlock()
	rep.Stats.Delivered = rep.Check.Delivered
	rep.Stats.Completed = rep.Check.Completed
	rep.Samples = int(h.count)
	if rep.Samples > 0 {
		rep.P50 = sim.Time(h.quantile(0.50))
		rep.P99 = sim.Time(h.quantile(0.99))
		rep.P999 = sim.Time(h.quantile(0.999))
		rep.Mean = sim.Time(h.mean())
		rep.Max = sim.Time(h.max)
	}
	return rep
}
