package sched

import (
	"repro/internal/exec"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// Central is a centralized software dispatcher modelling Shinjuku
// (§II-D, Fig. 4(a)): one dedicated core runs the dispatch loop over a
// single FCFS queue and hands requests to worker cores through the cache
// coherence protocol. Dispatch operations serialize on the dispatcher
// (DispatchCost each — Shinjuku's dispatcher tops out around 5 M
// requests/s), and workers preempt long requests at a quantum,
// re-enqueueing the remainder centrally, which removes head-of-line
// blocking at the cost of preemption overhead.
type Central struct {
	DispatchCost sim.Time // dispatcher occupancy per dispatched request
	HandoffCost  sim.Time // dispatcher->worker transfer (coherence, 70 cyc)

	eng      *sim.Engine
	workers  []*exec.Core
	claimed  []bool // dispatch in flight toward this worker
	queue    exec.Deque
	done     Done
	probe    Probe
	dispFree sim.Time // dispatcher busy-until

	// Per-worker callbacks, bound once at construction so the dispatch
	// path allocates no closures. landFns[w] is the arg-event trampoline
	// for a dispatch landing on worker w (the request rides in the event's
	// arg slot); doneFns/preemptFns are the core completion callbacks.
	landFns    []func(any, int64)
	doneFns    []func(*rpcproto.Request)
	preemptFns []func(*rpcproto.Request)
}

// NewCentral builds a Shinjuku-style scheduler with n worker cores (the
// dispatcher core is additional and implicit, matching the paper's
// accounting that one core is sacrificed). quantum > 0 enables
// preemption.
func NewCentral(eng *sim.Engine, n int, dispatch, handoff, quantum, preemptCost sim.Time, done Done) *Central {
	s := &Central{
		DispatchCost: overheadOrZero(dispatch),
		HandoffCost:  overheadOrZero(handoff),
		eng:          eng,
		workers:      make([]*exec.Core, n),
		claimed:      make([]bool, n),
		done:         done,
	}
	s.landFns = make([]func(any, int64), n)
	s.doneFns = make([]func(*rpcproto.Request), n)
	s.preemptFns = make([]func(*rpcproto.Request), n)
	for i := range s.workers {
		s.workers[i] = exec.NewCore(eng, i, i)
		s.workers[i].Quantum = quantum
		s.workers[i].PreemptCost = preemptCost
		i := i
		s.landFns[i] = func(arg any, _ int64) { s.land(arg.(*rpcproto.Request), i) }
		s.doneFns[i] = func(r *rpcproto.Request) {
			if s.probe != nil {
				s.probe.OnComplete(r, i)
			}
			s.onDone(r)
		}
		s.preemptFns[i] = func(r *rpcproto.Request) {
			if s.probe != nil {
				s.probe.OnPreempt(r, i)
			}
			s.onPreempt(r)
		}
	}
	return s
}

// SetProbe implements Scheduler.
func (s *Central) SetProbe(p Probe) { s.probe = p }

// Name implements Scheduler.
func (s *Central) Name() string { return "shinjuku-central" }

// Deliver implements Scheduler.
//
//altolint:hotpath
func (s *Central) Deliver(r *rpcproto.Request) {
	if s.probe != nil {
		s.probe.OnEnqueue(r, 0, s.queue.Len())
	}
	r.Enq = s.eng.Now()
	s.queue.PushTail(r)
	s.pump()
}

// pump dispatches the queue head to an idle worker, serializing on the
// dispatcher core.
//
//altolint:hotpath
func (s *Central) pump() {
	for s.queue.Len() > 0 {
		w := s.idleWorker()
		if w < 0 {
			return
		}
		r := s.queue.PopHead()
		if s.probe != nil {
			s.probe.OnDequeue(r, 0, false)
		}
		now := s.eng.Now()
		start := now
		if s.dispFree > start {
			start = s.dispFree
		}
		s.dispFree = start + s.DispatchCost
		wait := (start - now) + s.DispatchCost
		s.claimed[w] = true
		s.eng.AfterArg(wait, s.landFns[w], r, 0)
	}
}

// land completes a dispatch on worker w: the request leaves the
// dispatcher and begins executing (after the handoff cost).
//
//altolint:hotpath
func (s *Central) land(r *rpcproto.Request, w int) {
	s.claimed[w] = false
	if s.probe != nil {
		s.probe.OnRun(r, w)
	}
	s.workers[w].Start(r, s.HandoffCost, s.doneFns[w], s.preemptFns[w])
}

func (s *Central) onDone(r *rpcproto.Request) {
	s.done(r)
	s.pump()
}

func (s *Central) onPreempt(r *rpcproto.Request) {
	// The remainder returns to the tail of the central queue (processor
	// sharing across long requests, Shinjuku-style).
	if s.probe != nil {
		s.probe.OnRequeue(r, 0, RequeuePreempt, s.queue.Len())
	}
	s.queue.PushTail(r)
	s.pump()
}

func (s *Central) idleWorker() int {
	for i, w := range s.workers {
		if !w.Busy() && !s.claimed[i] {
			return i
		}
	}
	return -1
}

// QueueLensInto implements Scheduler.
//
//altolint:hotpath
func (s *Central) QueueLensInto(buf []int) []int {
	return append(buf[:0], s.queue.Len()) //altolint:allow hotalloc scratch reuse: buf grows to one element once, then steady-state zero-alloc
}

// Cores exposes the worker array for utilisation reporting (the
// dispatcher core is additional and always busy polling).
func (s *Central) Cores() []*exec.Core { return s.workers }

var _ Scheduler = (*Central)(nil)
