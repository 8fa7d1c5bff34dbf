package core

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/hwmsg"
	"repro/internal/nic"
	"repro/internal/policy"
	"repro/internal/rack"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
)

// group is one manager core plus its worker cores (Fig. 5/6: a manager
// tile with MRs, PRs, FIFOs, migrator and controller, owning one NetRX
// queue).
type group struct {
	id      int
	tile    int // manager tile on the mesh
	workers []*exec.Core
	local   []exec.Deque
	netrx   exec.Deque

	// out[w] is worker w's outstanding count: running + local queue +
	// dispatches in flight. levels files every worker below WorkerDepth
	// under its count, so freeWorker reads the least-loaded one without
	// a scan.
	out    []int
	levels depthSets

	// Heterogeneity (DESIGN.md §15): the group's hardware class, the
	// ascending ids of the groups sharing it (its migration peers), and
	// this group's index within that peer list. Migration state — the
	// synchronized view, rank permutation, UPDATE broadcast, decide() —
	// is all expressed in peer-index space. Homogeneous configurations
	// have peers == all groups and peerIdx == id, so every packed value
	// and event order is bit-identical to the pre-class runtime.
	class   uint8
	peers   []int
	peerIdx int

	// view is the synchronized queue-length vector q (via UPDATE),
	// indexed by peer. It aliases rank's live vector: every write goes
	// through rank.Set so the descending-rank permutation repairs
	// incrementally — a tick over G peers pays for the entries that
	// changed since the last tick, not for re-sorting all G (O(active),
	// not O(cores)).
	view []int
	rank *policy.RankTracker

	// sent is the NetRX length this manager last broadcast, i.e. what
	// every peer's view entry for it holds or is about to (views start at
	// 0, as sent does). A tick whose length equals it has nothing to land
	// (see tick).
	sent int

	mr   *hwmsg.MRFile
	send *hwmsg.FIFO
	recv *hwmsg.FIFO
	pr   hwmsg.ParamRegs

	mgrFree sim.Time // manager-core busy-until (runtime ops + software dispatch)

	// every is the tick's re-arm interval: the group's period stretched
	// by the runtime cost (policy.EffectivePeriod), fixed at construction.
	every sim.Time

	// Callbacks bound once at construction so the per-request and
	// per-tick paths never allocate closures: tickFn is this manager's
	// Algorithm 1 iteration, landFns[w] the dispatch-landing arg-event
	// trampoline for worker w, doneFns[w] worker w's completion
	// callback, phaseLandFn the arg-event trampoline for a forwarded
	// phase landing on this group's NetRX.
	tickFn      func()
	landFns     []func(any, int64)
	doneFns     []func(*rpcproto.Request)
	phaseLandFn func(any, int64)
}

// updateLand applies one UPDATE message landing at a manager: the
// destination group's synchronized view of the sender refreshes. It is a
// package-level arg-event trampoline (arg = destination group,
// n = sender peer index in the high 32 bits, observed queue length in
// the low 32), so the per-tick broadcast allocates nothing. The write
// goes through the rank tracker: an unchanged length is dropped, a
// changed one joins the dirty set the next decide() repairs.
func updateLand(arg any, n int64) {
	arg.(*group).rank.Set(int(n>>32), int(int32(n)))
}

// Scheduler is the ALTOCUMULUS runtime: Algorithm 1 running on every
// manager core, on top of the hardware messaging mechanism.
type Scheduler struct {
	P     Params
	Cost  fabric.CostModel
	Model *policy.ThresholdModel
	Meter *LoadMeter

	eng    *sim.Engine
	noc    *topo.NoC
	steer  *nic.Steerer
	groups []*group
	done   sched.Done
	probe  sched.Probe

	Stats   Stats
	ticking bool
	stopped bool

	// tickCost is one Algorithm 1 iteration's software/hardware interface
	// cost on the manager core (policy.TickCost), fixed at construction.
	tickCost sim.Time

	// Tick-time scratch (pre-sized to Groups so it never grows): the
	// destination set for the §VI pattern classification. The rank
	// permutation lives in each group's RankTracker.
	destScratch []int

	// freeMigs recycles MIGRATE records (migration.go); it grows to the
	// high-water mark of batches in flight.
	freeMigs []*migration

	// Heterogeneous-group state (DESIGN.md §15), nil/1 when every group
	// is class 0 so homogeneous runs never touch it: the per-class group
	// lists, per-class load meters and planning table (threshold model +
	// period per class), and the phase-forwarding machinery — one rack
	// dispatcher per class (JSQ / pow-k over the class's NetRX depths)
	// with a per-class depth scratch and a dedicated sampling RNG.
	classes     int
	classGroups [][]int
	classMeters []*LoadMeter
	plan        *policy.ClassPlan
	classDisp   []*rack.Dispatcher
	classDepths [][]int
	fwdRNG      *rack.SplitMix
}

// New builds an ALTOCUMULUS scheduler. steer distributes arrivals across
// the groups' NetRX queues (global d-FCFS); done fires at each request
// completion.
func New(eng *sim.Engine, p Params, cost fabric.CostModel, steer *nic.Steerer, done sched.Done) (*Scheduler, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if steer.N != p.Groups {
		return nil, fmt.Errorf("core: steerer covers %d queues, want %d groups", steer.N, p.Groups)
	}
	mesh := topo.NewMesh(p.TotalCores())
	s := &Scheduler{
		P:     p,
		Cost:  cost,
		Model: policy.NewThresholdModel(p.WorkersPerGroup, p.SLOMultiplier),
		Meter: NewLoadMeter(),
		eng:   eng,
		noc:   topo.NewNoC(mesh),
		steer: steer,
		done:  done,

		destScratch: make([]int, 0, p.Groups),
		tickCost:    sim.Time(policy.TickCost(p.Groups, cost.Policy(), p.Iface)),
	}

	// Class layout. Homogeneous configurations get classes == 1 and one
	// peer list covering every group; the per-class planning/forwarding
	// state stays nil so no heterogeneous path is reachable.
	s.classes = p.NumClasses()
	s.classGroups = make([][]int, s.classes)
	for gid := 0; gid < p.Groups; gid++ {
		c := p.ClassOf(gid)
		s.classGroups[c] = append(s.classGroups[c], gid)
	}
	if s.classes > 1 {
		s.plan = policy.NewClassPlan(s.classes)
		s.classMeters = make([]*LoadMeter, s.classes)
		s.classDisp = make([]*rack.Dispatcher, s.classes)
		s.classDepths = make([][]int, s.classes)
		s.fwdRNG = rack.NewSplitMix(p.ForwardSeed)
		kind := rack.JSQ
		if p.Forward == ForwardPowK {
			kind = rack.PowerOfK
		}
		for c := 0; c < s.classes; c++ {
			per := p.Period
			if p.ClassPeriods != nil {
				per = p.ClassPeriods[c]
			}
			s.plan.SetClass(c, policy.NewThresholdModel(p.WorkersPerGroup, p.SLOMultiplier), policy.Duration(per))
			s.classMeters[c] = NewLoadMeter()
			d, err := rack.NewDispatcher(rack.Config{Servers: len(s.classGroups[c]), Policy: kind, K: p.ForwardK})
			if err != nil {
				return nil, fmt.Errorf("core: class %d forward dispatcher: %w", c, err)
			}
			s.classDisp[c] = d
			s.classDepths[c] = make([]int, len(s.classGroups[c]))
		}
	}

	tilesPerGroup := p.WorkersPerGroup + 1
	peerCursor := make([]int, s.classes)
	levelWords := depthSetWords(p.WorkersPerGroup, p.WorkerDepth)
	levelSlab := make([]uint64, p.Groups*levelWords) // every group's depth levels, one allocation
	for gid := 0; gid < p.Groups; gid++ {
		cls := p.ClassOf(gid)
		peers := s.classGroups[cls]
		g := &group{
			id:      gid,
			tile:    gid * tilesPerGroup, // manager occupies the group's first tile
			workers: make([]*exec.Core, p.WorkersPerGroup),
			local:   make([]exec.Deque, p.WorkersPerGroup),
			out:     make([]int, p.WorkersPerGroup),
			levels:  newDepthSets(levelSlab[gid*levelWords:(gid+1)*levelWords:(gid+1)*levelWords], p.WorkersPerGroup),
			class:   cls,
			peers:   peers,
			peerIdx: peerCursor[cls],
			rank:    policy.NewRankTracker(len(peers)),
			mr:      hwmsg.NewMRFile(p.MRCapacity),
			send:    hwmsg.NewFIFO(p.FIFOCapacity),
			recv:    hwmsg.NewFIFO(p.FIFOCapacity),
		}
		peerCursor[cls]++
		g.view = g.rank.View()
		period := p.Period
		if s.plan != nil {
			period = sim.Time(s.plan.Period(int(cls)))
		}
		g.pr.Configure(period, p.Bulk, p.Concurrency)
		g.every = sim.Time(policy.EffectivePeriod(policy.Duration(period), policy.Duration(s.tickCost)))
		g.tickFn = func() { s.tick(g) }
		g.phaseLandFn = func(arg any, _ int64) { s.phaseLand(g, arg.(*rpcproto.Request)) }
		g.landFns = make([]func(any, int64), p.WorkersPerGroup)
		g.doneFns = make([]func(*rpcproto.Request), p.WorkersPerGroup)
		for w := 0; w < p.WorkersPerGroup; w++ {
			tile := g.tile + 1 + w
			g.workers[w] = exec.NewCore(eng, gid*p.WorkersPerGroup+w, tile)
			g.workers[w].Class = cls
			w := w
			g.workers[w].OnPhase = func(r *rpcproto.Request) bool { return s.phaseAdvance(g, w, r) }
			g.landFns[w] = func(arg any, _ int64) { s.dispatchLand(g, w, arg.(*rpcproto.Request)) }
			g.doneFns[w] = func(r *rpcproto.Request) {
				g.release(w)
				if s.probe != nil {
					s.probe.OnComplete(r, g.workers[w].ID)
				}
				s.done(r)
				s.tryStart(g, w)
				s.dispatch(g)
			}
		}
		s.groups = append(s.groups, g)
	}
	return s, nil
}

// SetProbe implements sched.Scheduler.
func (s *Scheduler) SetProbe(p sched.Probe) { s.probe = p }

// localQueueID is the probe id of worker (gid, w)'s local queue: the
// NetRX queues occupy ids 0..Groups-1, local queues follow in worker
// order (matching the worker's global core id plus the Groups offset).
func (s *Scheduler) localQueueID(gid, w int) int {
	return s.P.Groups + gid*s.P.WorkersPerGroup + w
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string {
	return fmt.Sprintf("altocumulus-%s-%s", s.P.Local, s.P.Iface)
}

// Deliver implements sched.Scheduler.
//
//altolint:hotpath
func (s *Scheduler) Deliver(r *rpcproto.Request) {
	s.startTicks()
	g := s.groups[s.steer.Steer(r)]
	if s.classes > 1 {
		// Heterogeneous groups: the NIC steers by class-oblivious hash,
		// so remap onto the groups serving the first phase's class
		// (deterministically, preserving the steerer's spread).
		cls := 0 // a bare request has no sidecar and runs on the general class
		if r.NumPhases > 0 {
			cls = int(r.Plan.Class[0])
		}
		if cls < s.classes && int(g.class) != cls {
			lst := s.classGroups[cls]
			g = s.groups[lst[g.id%len(lst)]]
		}
		d := r.Service
		if r.Phased() {
			d = r.PhaseDur(g.class)
		}
		s.classMeters[g.class].ArrivalDur(d)
	}
	r.GroupHint = g.id
	s.Meter.Arrival(r)
	if s.probe != nil {
		s.probe.OnEnqueue(r, g.id, g.netrx.Len())
	}
	r.Enq = s.eng.Now()
	g.netrx.PushTail(r)
	s.dispatch(g)
}

// Stop halts the periodic runtime (used by harnesses once the workload
// has drained, so the event queue can empty).
func (s *Scheduler) Stop() { s.stopped = true }

// QueueLensInto implements sched.Scheduler: the per-group NetRX lengths.
//
//altolint:hotpath
func (s *Scheduler) QueueLensInto(buf []int) []int {
	buf = buf[:0]
	for _, g := range s.groups {
		buf = append(buf, g.netrx.Len()) //altolint:allow hotalloc scratch reuse: buf grows to Groups once, then steady-state zero-alloc
	}
	return buf
}

// Cores returns every worker core (managers excluded: they do not serve
// RPCs) for utilisation reporting.
func (s *Scheduler) Cores() []*exec.Core {
	out := make([]*exec.Core, 0, s.P.Groups*s.P.WorkersPerGroup)
	for _, g := range s.groups {
		out = append(out, g.workers...)
	}
	return out
}

// GroupView returns group gid's synchronized queue-length vector
// (instrumentation for the Fig. 9 snapshot analysis).
func (s *Scheduler) GroupView(gid int) []int {
	out := make([]int, len(s.groups[gid].view))
	copy(out, s.groups[gid].view)
	return out
}

// dispatch hands NetRX heads to workers below their depth bound. ACint
// pushes in hardware at LLC speed; ACrss serializes each handoff on the
// manager core through the coherence protocol.
//
//altolint:hotpath
func (s *Scheduler) dispatch(g *group) {
	for g.netrx.Len() > 0 {
		w := g.freeWorker()
		if w < 0 {
			return
		}
		r := g.netrx.PopHead()
		g.hold(w)
		if s.probe != nil {
			s.probe.OnDequeue(r, g.id, false)
			s.probe.OnOutstanding(r, g.workers[w].ID, g.out[w], s.P.WorkerDepth)
		}
		var delay sim.Time
		switch s.P.Local {
		case DispatchSoftware:
			now := s.eng.Now()
			start := now
			if g.mgrFree > start {
				start = g.mgrFree
			}
			g.mgrFree = start + s.Cost.CoherenceMsg
			delay = (start - now) + s.Cost.CoherenceMsg
		default:
			// ACint: the integrated hardware pushes descriptors at
			// register speed (§X: ALTOCUMULUS inherits nanoPU's direct
			// register messaging for message transfer).
			delay = s.Cost.RegisterXfer
		}
		s.eng.AfterArg(delay, g.landFns[w], r, 0)
	}
}

// dispatchLand completes a manager-to-worker handoff: the request joins
// worker w's local queue (its outstanding count already holds it).
//
//altolint:hotpath
func (s *Scheduler) dispatchLand(g *group, w int, r *rpcproto.Request) {
	if s.probe != nil {
		s.probe.OnRequeue(r, s.localQueueID(g.id, w), sched.RequeueTransfer, g.local[w].Len())
	}
	g.local[w].PushTail(r)
	s.tryStart(g, w)
}

// freeWorker returns the least-loaded worker with outstanding count
// (running + local queue + in-flight dispatches) below WorkerDepth, the
// lowest-numbered one on a tie, or -1 when every worker is at the bound.
func (g *group) freeWorker() int { return g.levels.first() }

// hold counts one more request outstanding on worker w (a dispatch).
func (g *group) hold(w int) {
	n := g.out[w]
	g.out[w] = n + 1
	g.levels.move(w, n, n+1)
}

// release counts one request fewer outstanding on worker w: it finished,
// or its phase was forwarded off the worker.
func (g *group) release(w int) {
	n := g.out[w]
	g.out[w] = n - 1
	g.levels.move(w, n, n-1)
}

//altolint:hotpath
func (s *Scheduler) tryStart(g *group, w int) {
	if g.workers[w].Busy() || g.local[w].Len() == 0 {
		return
	}
	r := g.local[w].PopHead()
	if s.probe != nil {
		s.probe.OnDequeue(r, s.localQueueID(g.id, w), false)
		s.probe.OnRun(r, g.workers[w].ID)
	}
	g.workers[w].Start(r, 0, g.doneFns[w], nil)
}

// msgSend computes the injection-complete and arrival delays of one
// runtime message. With the hardware mechanism, messages ride the NoC at
// 3 ns/hop with link serialization; under the SoftwareMessaging ablation
// (case study 1's runtime-only configuration) every message is a
// shared-cache exchange — two to three cache-line transfers — and also
// occupies the sending manager core.
func (s *Scheduler) msgSend(g *group, dstTile, size int) (injectDone, arrive sim.Time) {
	injectDone = s.book(g, 1, size).Injected(0)
	return injectDone, injectDone + s.transit(g, dstTile)
}

// book charges n runtime messages of size bytes sent back to back by g's
// manager now, in closed form: the source link (NoC) or, under
// SoftwareMessaging, the manager core is occupied as n single sends
// would occupy it, and message k has left the sender Injected(k) after
// now. n must be at least 1.
func (s *Scheduler) book(g *group, n, size int) topo.Burst {
	now := s.eng.Now()
	if !s.P.SoftwareMessaging {
		return s.noc.Broadcast(now, g.tile, n, size)
	}
	if g.mgrFree < now {
		g.mgrFree = now
	}
	b := topo.Burst{Base: g.mgrFree - now, Step: s.Cost.CacheMiss}
	g.mgrFree += sim.Time(n) * s.Cost.CacheMiss
	return b
}

// transit is a runtime message's delay from leaving g's manager until it
// is fully received at dstTile: the mesh hops at 3 ns each, or under
// SoftwareMessaging three cache-line transfers.
func (s *Scheduler) transit(g *group, dstTile int) sim.Time {
	if s.P.SoftwareMessaging {
		return 3 * s.Cost.CacheMiss
	}
	return s.noc.Transit(g.tile, dstTile)
}

// startTicks begins the periodic runtime on every manager core on first
// delivery.
func (s *Scheduler) startTicks() {
	if s.ticking || s.stopped {
		return
	}
	s.ticking = true
	for _, g := range s.groups {
		// g.pr.Period is the class period (== Params.Period when
		// homogeneous or ClassPeriods is nil).
		s.eng.After(g.pr.Period, g.tickFn)
	}
}

// tick is one iteration of Algorithm 1 on manager g.
func (s *Scheduler) tick(g *group) {
	if s.stopped {
		return
	}
	s.Stats.Ticks++

	// Close the measurement window once per period (first manager only).
	if g.id == 0 {
		s.Meter.Tick(s.eng.Now())
	}
	// With heterogeneous groups each class has its own meter, ticked by
	// the class's first group (class periods may differ).
	if s.plan != nil && g.id == s.classGroups[g.class][0] {
		s.classMeters[g.class].Tick(s.eng.Now())
	}

	// Charge the runtime's software/hardware interface cost on the
	// manager core: one register read per remote queue length, a status
	// read, a config write, plus the threshold computation. The cost
	// arithmetic lives in policy so the live runtime charges identically.
	now := s.eng.Now()
	if g.mgrFree < now {
		g.mgrFree = now
	}
	g.mgrFree += s.tickCost

	// Schedule the next iteration. A software runtime cannot iterate
	// faster than its own execution; when the configured period is
	// shorter than the runtime cost (e.g. MSR ops at a 100 ns period) the
	// effective period stretches (g.every), capping the runtime's
	// manager-core duty cycle at 50% so request dispatch is never
	// starved. Rearm rides the engine's periodic fast path: the tick
	// keeps its slab slot and bucket bookkeeping instead of a
	// delete+insert each period.
	s.eng.Rearm(g.every)

	// Refresh own view entry and broadcast UPDATE to the managers of
	// this group's class peers (all managers when homogeneous), one
	// message per peer in peer order. Each UPDATE rides an arg-event
	// (destination group + packed sender peer index/qlen) so the
	// broadcast allocates nothing.
	//
	// Every message is charged (link or manager occupancy, UpdatesSent),
	// in closed form, so a tick with nothing to land costs O(1). A
	// landing is an event only when it can change the peer's view: when
	// qlen differs from the length last broadcast. That is exact because
	// a peer's entry for g is written by g's landings alone, g's landings
	// at one peer arrive in send order (source-link and manager-core
	// occupancy only move forward, ties fire in schedule order), and
	// rank.Set drops an equal write anyway (DESIGN.md §14).
	qlen := g.netrx.Len()
	g.rank.Set(g.peerIdx, qlen)
	lands := qlen != g.sent
	g.sent = qlen
	if n := len(g.peers) - 1; n > 0 {
		s.Stats.UpdatesSent += uint64(n)
		b := s.book(g, n, hwmsg.UpdateWireSize)
		if lands {
			k := 0
			for _, pid := range g.peers {
				if pid == g.id {
					continue
				}
				h := s.groups[pid]
				s.eng.AtArg(now+b.Injected(k)+s.transit(g, h.tile), updateLand, h, int64(g.peerIdx)<<32|int64(qlen))
				k++
			}
		}
	}

	// Threshold from the analytical model under the measured load (or
	// the naive k*L+1 bound under the NaiveThreshold ablation). With
	// heterogeneous groups the threshold is per class: the class's own
	// meter and group count feed the class's model.
	var t int
	if s.plan != nil {
		cls := int(g.class)
		t = s.plan.Threshold(cls, s.classMeters[cls].OfferedPerGroup(len(s.classGroups[cls])))
	} else {
		t = s.Model.Threshold(s.Meter.OfferedPerGroup(s.P.Groups))
	}
	if s.P.NaiveThreshold {
		t = s.Model.UpperBound()
	}
	g.pr.Threshold = t

	// Mark predicted SLO violators: every request queued beyond T.
	if qlen > t {
		for i := t; i < qlen; i++ {
			r := g.netrx.At(i)
			if !r.Predicted {
				r.Predicted = true
				s.Stats.PredictedReqs++
			}
		}
	}

	if s.P.DisableMigration || len(g.peers) < 2 {
		return
	}
	// decide works in peer-index space; map destinations back to group
	// ids and hand each its synchronized view entry.
	dests := s.decide(g, t, qlen)
	for _, d := range dests {
		s.sendMigrate(g, s.groups[g.peers[d]], g.view[d], g.pr.BatchSize())
	}
}

// decide implements predict() by delegating to policy.DecideRanked: the
// migration destination queue ids per the threshold condition and the
// Hill/Valley/Pairing pattern classification of §VI. core's only job is
// feeding the synchronized view — with the rank permutation repaired
// incrementally from the tick's dirty set — and folding the outcome
// into Stats.
func (s *Scheduler) decide(g *group, t, qlen int) []int {
	g.rank.Set(g.peerIdx, qlen)
	trigger, pattern, dests := policy.DecideRanked(g.view, g.rank.Order(), g.peerIdx, t, g.pr.Bulk, g.pr.Concurrency,
		!s.P.DisablePatterns, s.destScratch)
	switch trigger {
	case policy.TriggerPattern:
		switch pattern {
		case policy.PatternHill:
			s.Stats.HillEvents++
		case policy.PatternValley:
			s.Stats.ValleyEvents++
		case policy.PatternPairing:
			s.Stats.PairingEvents++
		}
	case policy.TriggerThreshold:
		s.Stats.ThresholdEvts++
	}
	return dests
}

// sendMigrate builds and injects one MIGRATE of up to batch requests from
// g's NetRX tail toward dst (§V-A message walk-through). dstView is g's
// synchronized view of dst's queue length (peer-indexed, supplied by the
// caller). The batch rides a pooled migration record through its
// protocol events, so the steady-state path allocates nothing.
//
//altolint:hotpath
func (s *Scheduler) sendMigrate(g, dst *group, dstView, batch int) {
	if dst.id == g.id {
		return
	}
	// Algorithm 1 line 8: forbid migrations that would leave the
	// destination no better off.
	srcLen := g.netrx.Len()
	if !s.P.DisableGuard && !policy.GuardAllows(srcLen, dstView, batch) {
		s.Stats.GuardSkips++
		return
	}
	if s.probe != nil {
		s.probe.OnMigrate(g.id, dst.id, srcLen, dstView, batch, !s.P.DisableGuard)
	}
	// Collect migratable requests. The paper's policy takes them from
	// the tail (deepest-queued: the predicted violators); SelectHead is
	// the ablation counterpoint. policy.MigratableCount applies the
	// migrate-once restriction: collection stops at the first
	// already-migrated candidate.
	fromTail := s.P.Select != SelectHead
	//altolint:allow hotalloc the predicate does not outlive MigratableCount, so it stays on the stack (TestMigrateZeroAlloc)
	count := policy.MigratableCount(srcLen, batch, func(i int) bool {
		var r *rpcproto.Request
		if fromTail {
			r = g.netrx.At(srcLen - 1 - i)
		} else {
			r = g.netrx.At(i)
		}
		// Migrate-once is scoped per phase: the executor clears the
		// latch at every phase boundary (policy.CanMigrate).
		return !policy.CanMigrate(r.Migrated, s.P.AllowRemigration)
	})
	if count == 0 {
		return
	}
	m := s.newMigration(g, dst, batch)
	defer m.release() // the builder's hold; the FIFO and the events take their own
	for i := 0; i < count; i++ {
		var r *rpcproto.Request
		if fromTail {
			r = g.netrx.PopTail()
		} else {
			r = g.netrx.PopHead()
		}
		m.reqs[i] = r
		m.descs[i] = rpcproto.DescriptorFor(r)
		if s.probe != nil {
			s.probe.OnDequeue(r, g.id, fromTail)
		}
	}
	m.Reqs, m.Descs = m.reqs[:count], m.descs[:count]
	if err := g.mr.Stage(m.Descs); err != nil {
		s.Stats.MRFullAborts++
		m.putBack()
		return
	}
	if err := g.send.Push(m); err != nil {
		s.Stats.FIFOFull++
		g.mr.Invalidate(len(m.Descs))
		m.putBack()
		return
	}
	m.holds++ // send-FIFO residency
	s.Stats.Migrations++
	now := s.eng.Now()
	injectDone, arrive := s.msgSend(g, dst.tile, m.WireSize())
	// The send-FIFO entry frees once the migrator has injected the batch
	// into the NoC.
	m.at(now+injectDone, migInjected)
	m.at(now+arrive, migArrived)
}

// receiveMigrate is the destination controller's path: validate, admit
// into the receive FIFO or NACK, drain into the NetRX tail, ACK.
//
//altolint:hotpath
func (s *Scheduler) receiveMigrate(m *migration) {
	src, dst := m.src, m.dst
	now := s.eng.Now()
	if err := dst.recv.Push(m); err != nil {
		// Destination full: NACK. The source does not replay; the
		// requests return to the source NetRX tail when the NACK lands
		// (they logically never left the source MRs).
		s.Stats.NackedBatches++
		s.Stats.NackedReqs += uint64(len(m.Reqs))
		_, backAt := s.msgSend(dst, src.tile, hwmsg.AckWireSize)
		m.at(now+backAt, migNacked)
		return
	}
	m.holds++ // receive-FIFO residency
	// Migrator drains the receive FIFO into the NetRX: one register move
	// per descriptor.
	m.at(now+sim.Time(len(m.Descs))*sim.Nanosecond, migDrained)
	// ACK back to the source, which then invalidates its MR entries.
	_, ackAt := s.msgSend(dst, src.tile, hwmsg.AckWireSize)
	m.at(now+ackAt, migAcked)
}

// phaseAdvance is the executor's OnPhase seam (DESIGN.md §15), called
// at every non-final phase boundary of a phased request running on
// worker w of group g (r.Phase already advanced). Returning false keeps
// the next phase on the same worker, back to back; returning true means
// the request was taken off the worker and its next phase enqueued —
// after an offload delay when crossing groups — onto the NetRX of the
// group the forwarding policy picked for the phase's class.
//
//altolint:hotpath
func (s *Scheduler) phaseAdvance(g *group, w int, r *rpcproto.Request) bool {
	if s.P.Forward == ForwardStayLocal || s.classes <= 1 {
		s.Stats.PhaseStays++
		return false
	}
	cls := int(r.Plan.Class[r.Phase])
	if cls >= s.classes {
		// No group serves this class (profile broader than the machine):
		// documented fallback is to stay local.
		s.Stats.PhaseStays++
		return false
	}
	dst := s.forwardDest(g, cls)
	if s.probe != nil {
		s.probe.OnPhaseDone(r, g.workers[w].ID)
	}
	s.Stats.PhaseForwards++
	g.release(w)
	var delay sim.Time
	if dst != g {
		// Offload (transfer) cost is charged only when the phase
		// actually crosses groups.
		delay = r.Plan.Offload[r.Phase]
	}
	s.eng.AfterArg(delay, dst.phaseLandFn, r, 0)
	// The worker freed up the instant the phase completed: pull its next
	// local request, then let the group keep dispatching from NetRX.
	s.tryStart(g, w)
	s.dispatch(g)
	return true
}

// forwardDest picks the group to run a phase of class cls on, via the
// class's rack dispatcher: fresh NetRX depths are observed, then the
// configured policy (JSQ-in-class or pow-k-in-class) picks. The
// dispatcher's anti-herding correction covers back-to-back boundaries
// between observations.
//
//altolint:hotpath
func (s *Scheduler) forwardDest(g *group, cls int) *group {
	lst := s.classGroups[cls]
	if len(lst) == 1 {
		return s.groups[lst[0]]
	}
	now := policy.Duration(s.eng.Now())
	depths := s.classDepths[cls]
	for i, gid := range lst {
		depths[i] = s.groups[gid].netrx.Len()
	}
	d := s.classDisp[cls]
	d.ObserveAll(depths, now)
	dec := d.Pick(0, now, s.fwdRNG)
	return s.groups[lst[dec.Server]]
}

// phaseLand lands a forwarded phase on group g's NetRX: the request
// re-queues (RequeueForward) and the group's dispatch pulls it to a
// worker of the phase's class like any other arrival.
//
//altolint:hotpath
func (s *Scheduler) phaseLand(g *group, r *rpcproto.Request) {
	if s.probe != nil {
		s.probe.OnRequeue(r, g.id, sched.RequeueForward, g.netrx.Len())
	}
	r.Enq = s.eng.Now()
	if s.classMeters != nil {
		s.classMeters[g.class].ArrivalDur(r.PhaseDur(g.class))
	}
	g.netrx.PushTail(r)
	s.dispatch(g)
}

var _ sched.Scheduler = (*Scheduler)(nil)
