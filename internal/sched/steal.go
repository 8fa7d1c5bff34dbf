package sched

import (
	"repro/internal/exec"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// Steal is d-FCFS with work stealing, modelling ZygOS (§II-D): idle cores
// with empty private queues pull requests from other cores' queues. Each
// steal costs 2-3 cache misses of inter-thread communication (the paper
// quotes 200-400 ns; fabric.Default uses 300 ns), charged to the thief
// before it can execute the stolen request. Victims are chosen at random,
// as ZygOS does, which is SLO-unaware and moves a large fraction of
// requests across cores at load.
type Steal struct {
	PickupCost sim.Time // local-queue fetch cost
	StealCost  sim.Time // remote probe+fetch cost

	eng     *sim.Engine
	cores   []*exec.Core
	queues  []exec.Deque
	steerer *nic.Steerer
	rng     *sim.RNG
	done    Done
	probe   Probe

	// doneFns[i] is core i's completion callback, bound once at
	// construction so the per-request path never allocates a closure.
	doneFns []func(*rpcproto.Request)

	// Stats.
	Stolen    uint64 // requests moved across cores
	Delivered uint64
}

// NewSteal builds a ZygOS-style scheduler over n cores.
func NewSteal(eng *sim.Engine, n int, steerer *nic.Steerer, pickup, steal sim.Time, rng *sim.RNG, done Done) *Steal {
	s := &Steal{
		PickupCost: overheadOrZero(pickup),
		StealCost:  overheadOrZero(steal),
		eng:        eng,
		cores:      make([]*exec.Core, n),
		queues:     make([]exec.Deque, n),
		steerer:    steerer,
		rng:        rng,
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
func (s *Steal) SetProbe(p Probe) { s.probe = p }

// Name implements Scheduler.
func (s *Steal) Name() string { return "zygos-steal" }

// Deliver implements Scheduler.
//
//altolint:hotpath
func (s *Steal) Deliver(r *rpcproto.Request) {
	s.Delivered++
	q := s.steerer.Steer(r)
	r.GroupHint = q
	if s.probe != nil {
		s.probe.OnEnqueue(r, q, s.queues[q].Len())
	}
	r.Enq = s.eng.Now()
	s.queues[q].PushTail(r)
	if !s.cores[q].Busy() {
		s.tryStart(q)
		return
	}
	// The home core is busy: any idle core may steal it immediately
	// (ZygOS cores spin-poll for steal opportunities when idle).
	for i := range s.cores {
		if !s.cores[i].Busy() {
			s.tryStart(i)
			return
		}
	}
}

// tryStart makes core i pull work: first from its own queue, then by
// stealing from a random victim.
//
//altolint:hotpath
func (s *Steal) tryStart(i int) {
	if s.cores[i].Busy() {
		return
	}
	if s.queues[i].Len() > 0 {
		r := s.queues[i].PopHead()
		if s.probe != nil {
			s.probe.OnDequeue(r, i, false)
		}
		s.run(i, r, s.PickupCost)
		return
	}
	// Steal: random victim probing, up to a full sweep. ZygOS probes
	// random queues; we charge one steal cost for the successful fetch
	// (failed probes are cheap spins on cached lines).
	off := s.rng.Intn(len(s.queues))
	for k := 0; k < len(s.queues); k++ {
		v := (off + k) % len(s.queues)
		if v == i {
			continue
		}
		if s.queues[v].Len() > 0 {
			r := s.queues[v].PopHead()
			s.Stolen++
			if s.probe != nil {
				s.probe.OnDequeue(r, v, false)
				s.probe.OnSteal(r, i, v)
			}
			s.run(i, r, s.StealCost)
			return
		}
	}
}

//altolint:hotpath
func (s *Steal) run(i int, r *rpcproto.Request, overhead sim.Time) {
	if s.probe != nil {
		s.probe.OnRun(r, i)
	}
	s.cores[i].Start(r, overhead, s.doneFns[i], nil)
}

// QueueLensInto implements Scheduler.
//
//altolint:hotpath
func (s *Steal) QueueLensInto(buf []int) []int {
	buf = buf[:0]
	for i := range s.queues {
		buf = append(buf, s.queues[i].Len()) //altolint:allow hotalloc scratch reuse: buf grows to core count once, then steady-state zero-alloc
	}
	return buf
}

// QueueSpecs implements Scheduler: queue i is core i's private queue.
func (s *Steal) QueueSpecs() []QueueSpec { return perCoreSpecs(len(s.queues)) }

// Cores exposes the core array for utilisation reporting.
func (s *Steal) Cores() []*exec.Core { return s.cores }

// StealFraction reports the fraction of delivered requests that were
// moved across cores (the paper quotes ~60 % for ZygOS at load).
func (s *Steal) StealFraction() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.Stolen) / float64(s.Delivered)
}

var _ Scheduler = (*Steal)(nil)
