package sched

import (
	"repro/internal/exec"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// JBSQVariant selects which hardware scheduler a JBSQ instance models.
type JBSQVariant int

const (
	// VariantRPCValet: NI-driven balancing through shared caches.
	VariantRPCValet JBSQVariant = iota
	// VariantNebula: NIC integrated at LLC speed, no preemption.
	VariantNebula
	// VariantNanoPU: register-file delivery plus a per-core preemption
	// mechanism piggybacked on the local queue.
	VariantNanoPU
)

func (v JBSQVariant) String() string {
	switch v {
	case VariantNebula:
		return "nebula"
	case VariantNanoPU:
		return "nanopu"
	default:
		return "rpcvalet"
	}
}

// JBSQ models the hardware Join-Bounded-Shortest-Queue schedulers
// (Fig. 4(c), RPCValet / Nebula / nanoPU): the NIC holds a central queue
// and pushes its head to the core with the fewest outstanding requests
// whenever that count is below Bound (the paper's JBSQ(2)). Pushes are
// performed by hardware, so they do not serialize on any core, but each
// transfer takes XferCost to land. Once pushed, a request is committed to
// its core — the scheme's key weakness: a short request committed behind
// a long one blocks (no migration), which preemption (nanoPU) mitigates
// but SLO-blind balancing does not.
type JBSQ struct {
	Variant  JBSQVariant
	Bound    int      // max outstanding per core (running + queued + in-flight)
	XferCost sim.Time // NIC-to-core push latency
	// EngineCost serializes the central scheduler: one dispatch decision
	// occupies the NIC engine for this long. This is the scalability
	// ceiling Table I attributes to the centralized hardware schedulers
	// (coherence-domain queue operations for RPCValet/Nebula, register
	// file for nanoPU): a ~4 ns decision caps the whole server at
	// ~250 MRPS regardless of core count.
	EngineCost sim.Time

	eng        *sim.Engine
	cores      []*exec.Core
	local      []exec.Deque // per-core bounded queues
	pending    []int        // per-core outstanding count incl. in-flight pushes
	central    exec.Deque
	done       Done
	probe      Probe
	rr         int      // round-robin scan pointer over cores
	engineFree sim.Time // central engine busy-until
	resuming   bool     // a drain retry is scheduled for engineFree

	// Callbacks bound once at construction so the per-request path never
	// allocates a closure: landFns[i] is the NIC-push arg-event trampoline
	// landing a request in core i's local queue, doneFns/preemptFns are
	// core i's completion callbacks.
	landFns    []func(any, int64)
	doneFns    []func(*rpcproto.Request)
	preemptFns []func(*rpcproto.Request)
}

// NewJBSQ builds a JBSQ(bound) hardware scheduler over n cores. quantum
// is zero for run-to-completion variants; nanoPU passes a small quantum.
// engine is the per-decision occupancy of the central scheduler.
func NewJBSQ(eng *sim.Engine, n int, variant JBSQVariant, bound int, xfer, engine, quantum, preemptCost sim.Time, done Done) *JBSQ {
	if bound < 1 {
		bound = 1
	}
	s := &JBSQ{
		Variant:    variant,
		Bound:      bound,
		XferCost:   overheadOrZero(xfer),
		EngineCost: overheadOrZero(engine),
		eng:        eng,
		cores:      make([]*exec.Core, n),
		local:      make([]exec.Deque, n),
		pending:    make([]int, n),
		done:       done,
	}
	s.landFns = make([]func(any, int64), n)
	s.doneFns = make([]func(*rpcproto.Request), n)
	s.preemptFns = make([]func(*rpcproto.Request), n)
	for i := range s.cores {
		s.cores[i] = exec.NewCore(eng, i, i)
		s.cores[i].Quantum = quantum
		s.cores[i].PreemptCost = preemptCost
		i := i
		s.landFns[i] = func(arg any, _ int64) { s.land(arg.(*rpcproto.Request), i) }
		s.doneFns[i] = func(r *rpcproto.Request) {
			s.pending[i]--
			if s.probe != nil {
				s.probe.OnComplete(r, i)
			}
			s.done(r)
			s.tryStart(i)
			s.drain()
		}
		s.preemptFns[i] = func(r *rpcproto.Request) {
			// Preemption (nanoPU): the remainder re-joins this core's
			// local queue tail so queued shorts run next.
			if s.probe != nil {
				s.probe.OnPreempt(r, i)
				s.probe.OnRequeue(r, 1+i, RequeuePreempt, s.local[i].Len())
			}
			s.local[i].PushTail(r)
			s.tryStart(i)
		}
	}
	return s
}

// jbsqResume re-runs a JBSQ's drain once its central engine frees. It
// is package-level, with the scheduler riding in the event's arg, so
// scheduling the retry allocates nothing.
func jbsqResume(arg any, _ int64) {
	s := arg.(*JBSQ)
	s.resuming = false
	s.drain()
}

// SetProbe implements Scheduler.
func (s *JBSQ) SetProbe(p Probe) { s.probe = p }

// Name implements Scheduler.
func (s *JBSQ) Name() string { return "jbsq-" + s.Variant.String() }

// Deliver implements Scheduler.
//
//altolint:hotpath
func (s *JBSQ) Deliver(r *rpcproto.Request) {
	if s.probe != nil {
		s.probe.OnEnqueue(r, 0, s.central.Len())
	}
	r.Enq = s.eng.Now()
	s.central.PushTail(r)
	s.drain()
}

// drain pushes central-queue heads to cores below their bound. The
// selection is the hardware's: among eligible cores, prefer the smallest
// outstanding count, breaking ties round-robin. Crucially this is an
// eager top-up — the engine pushes whenever any core has a free slot and
// the central queue is non-empty, committing requests to cores with no
// view of what those cores are running. A short topped up behind a
// long-running request is stuck there (the paper's head-of-line critique
// of SLO-blind JBSQ).
//
//altolint:hotpath
func (s *JBSQ) drain() {
	for s.central.Len() > 0 {
		c := s.pickCore()
		if c < 0 {
			return
		}
		// Serialize on the central engine: if it is still occupied by a
		// previous decision, retry when it frees.
		now := s.eng.Now()
		if s.engineFree > now {
			if !s.resuming {
				s.resuming = true
				s.eng.AtArg(s.engineFree, jbsqResume, s, 0)
			}
			return
		}
		s.engineFree = now + s.EngineCost
		r := s.central.PopHead()
		s.pending[c]++
		if s.probe != nil {
			s.probe.OnDequeue(r, 0, false)
			s.probe.OnOutstanding(r, c, s.pending[c], s.Bound)
		}
		s.eng.AfterArg(s.EngineCost+s.XferCost, s.landFns[c], r, 0)
	}
}

// land completes a NIC push: the request joins core i's local queue.
//
//altolint:hotpath
func (s *JBSQ) land(r *rpcproto.Request, i int) {
	if s.probe != nil {
		s.probe.OnRequeue(r, 1+i, RequeueTransfer, s.local[i].Len())
	}
	s.local[i].PushTail(r)
	s.tryStart(i)
}

// pickCore returns the next eligible core (outstanding < bound) with the
// lowest count, rotating the scan start so ties spread round-robin.
// Returns -1 when every core is at its bound.
func (s *JBSQ) pickCore() int {
	n := len(s.pending)
	best, bestN := -1, s.Bound
	for k := 0; k < n; k++ {
		i := (s.rr + k) % n
		if s.pending[i] < bestN {
			best, bestN = i, s.pending[i]
			if bestN == 0 {
				break
			}
		}
	}
	if best >= 0 {
		s.rr = (best + 1) % n
	}
	return best
}

//altolint:hotpath
func (s *JBSQ) tryStart(i int) {
	if s.cores[i].Busy() || s.local[i].Len() == 0 {
		return
	}
	r := s.local[i].PopHead()
	if s.probe != nil {
		s.probe.OnDequeue(r, 1+i, false)
		s.probe.OnRun(r, i)
	}
	s.cores[i].Start(r, 0, s.doneFns[i], s.preemptFns[i])
}

// QueueLensInto implements Scheduler: the central queue length followed
// by per-core outstanding counts.
//
//altolint:hotpath
func (s *JBSQ) QueueLensInto(buf []int) []int {
	buf = append(buf[:0], s.central.Len()) //altolint:allow hotalloc scratch reuse: buf grows to 1+cores once, then steady-state zero-alloc
	return append(buf, s.pending...)       //altolint:allow hotalloc scratch reuse: buf grows to 1+cores once, then steady-state zero-alloc
}

// Cores exposes the core array for utilisation reporting.
func (s *JBSQ) Cores() []*exec.Core { return s.cores }

var _ Scheduler = (*JBSQ)(nil)
