package sched

import (
	"repro/internal/exec"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// DFCFS is distributed FCFS: the NIC steers each request to one per-core
// queue and each core drains only its own queue, run-to-completion. With
// connection steering this is IX / plain RSS (§II-D, Fig. 4(b) without
// stealing). It scales perfectly but ignores load, so bursts and long
// requests produce head-of-line blocking and unpredictable tails.
type DFCFS struct {
	Label      string
	PickupCost sim.Time // cost of a core fetching from its private queue

	eng     *sim.Engine
	cores   []*exec.Core
	queues  []exec.Deque
	steerer *nic.Steerer
	done    Done
	probe   Probe
	// doneFns[i] is core i's completion callback, bound once here so the
	// per-request path never allocates a closure.
	doneFns []func(*rpcproto.Request)
}

// NewDFCFS builds a d-FCFS scheduler over n cores.
func NewDFCFS(eng *sim.Engine, n int, steerer *nic.Steerer, pickup sim.Time, done Done) *DFCFS {
	s := &DFCFS{
		Label:      "d-FCFS",
		PickupCost: overheadOrZero(pickup),
		eng:        eng,
		cores:      make([]*exec.Core, n),
		queues:     make([]exec.Deque, n),
		steerer:    steerer,
		done:       done,
	}
	s.doneFns = make([]func(*rpcproto.Request), n)
	for i := range s.cores {
		s.cores[i] = exec.NewCore(eng, i, i)
		i := i
		s.doneFns[i] = func(r *rpcproto.Request) {
			if s.probe != nil {
				s.probe.OnComplete(r, i)
			}
			s.done(r)
			s.tryStart(i)
		}
	}
	return s
}

// SetProbe implements Scheduler.
func (s *DFCFS) SetProbe(p Probe) { s.probe = p }

// Name implements Scheduler.
func (s *DFCFS) Name() string { return s.Label }

// Deliver implements Scheduler.
//
//altolint:hotpath
func (s *DFCFS) Deliver(r *rpcproto.Request) {
	q := s.steerer.Steer(r)
	r.GroupHint = q
	if s.probe != nil {
		s.probe.OnEnqueue(r, q, s.queues[q].Len())
	}
	r.Enq = s.eng.Now()
	s.queues[q].PushTail(r)
	s.tryStart(q)
}

//altolint:hotpath
func (s *DFCFS) tryStart(i int) {
	if s.cores[i].Busy() || s.queues[i].Len() == 0 {
		return
	}
	r := s.queues[i].PopHead()
	if s.probe != nil {
		s.probe.OnDequeue(r, i, false)
		s.probe.OnRun(r, i)
	}
	s.cores[i].Start(r, s.PickupCost, s.doneFns[i], nil)
}

// QueueLensInto implements Scheduler.
//
//altolint:hotpath
func (s *DFCFS) QueueLensInto(buf []int) []int {
	buf = buf[:0]
	for i := range s.queues {
		buf = append(buf, s.queues[i].Len()) //altolint:allow hotalloc scratch reuse: buf grows to core count once, then steady-state zero-alloc
	}
	return buf
}

// Cores exposes the core array for utilisation reporting.
func (s *DFCFS) Cores() []*exec.Core { return s.cores }

var _ Scheduler = (*DFCFS)(nil)
