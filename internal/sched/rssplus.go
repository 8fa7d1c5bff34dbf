package sched

import (
	"repro/internal/exec"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// RSSPlus is d-FCFS with periodic indirection-table rebalancing,
// modelling RSS++ (Barbette et al. [7], cited in §IX-E): the NIC hashes
// flows into buckets, buckets map to cores through an indirection table,
// and every rebalance interval (the paper quotes 20 µs) the table is
// rewritten to move buckets from the most- to the least-loaded cores.
// Between rebalances it is exactly RSS — load-blind and imbalance-prone;
// the rebalancer bounds how long a skewed mapping persists.
type RSSPlus struct {
	PickupCost sim.Time
	Interval   sim.Time // table rebalance period

	eng     *sim.Engine
	cores   []*exec.Core
	queues  []exec.Deque
	table   []int // bucket -> core
	buckets int
	load    []int // per-bucket requests since last rebalance
	done    Done
	probe   Probe
	stopped bool
	// doneFns[i] is core i's completion callback, bound once at
	// construction so the per-request path never allocates a closure;
	// coreLoad is the rebalancer's per-core accumulator, reused across
	// ticks for the same reason.
	doneFns  []func(*rpcproto.Request)
	coreLoad []int

	Rebalances uint64
	MovedBkts  uint64
}

// NewRSSPlus builds the scheduler over n cores with buckets hash buckets
// (RSS NICs typically expose 128 or 512).
func NewRSSPlus(eng *sim.Engine, n, buckets int, pickup, interval sim.Time, done Done) *RSSPlus {
	if buckets < n {
		buckets = 4 * n
	}
	s := &RSSPlus{
		PickupCost: overheadOrZero(pickup),
		Interval:   interval,
		eng:        eng,
		cores:      make([]*exec.Core, n),
		queues:     make([]exec.Deque, n),
		table:      make([]int, buckets),
		buckets:    buckets,
		load:       make([]int, buckets),
		done:       done,
	}
	s.doneFns = make([]func(*rpcproto.Request), n)
	s.coreLoad = make([]int, n)
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
	for b := range s.table {
		s.table[b] = b % n
	}
	if interval > 0 {
		eng.Every(interval, func() bool {
			if s.stopped {
				return false
			}
			s.rebalance()
			return true
		})
	}
	return s
}

// SetProbe implements Scheduler.
func (s *RSSPlus) SetProbe(p Probe) { s.probe = p }

// Name implements Scheduler.
func (s *RSSPlus) Name() string { return "rss++" }

// Stop halts the periodic rebalancer so the event queue can drain.
func (s *RSSPlus) Stop() { s.stopped = true }

// Deliver implements Scheduler.
//
//altolint:hotpath
func (s *RSSPlus) Deliver(r *rpcproto.Request) {
	b := int(nic.FlowHash(r.Conn) % uint32(s.buckets))
	s.load[b]++
	q := s.table[b]
	r.GroupHint = q
	if s.probe != nil {
		s.probe.OnEnqueue(r, q, s.queues[q].Len())
	}
	r.Enq = s.eng.Now()
	s.queues[q].PushTail(r)
	s.tryStart(q)
}

//altolint:hotpath
func (s *RSSPlus) tryStart(i int) {
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

// rebalance rewrites the indirection table: buckets are reassigned from
// the most-loaded core (by queued work) to the least-loaded, one bucket
// per pass, mirroring RSS++'s incremental migration of table entries.
func (s *RSSPlus) rebalance() {
	s.Rebalances++
	defer func() {
		for b := range s.load {
			s.load[b] = 0
		}
	}()

	// Measured per-core load over the last interval (RSS++ balances on
	// load estimates, not instantaneous queue depth, which is noisy and
	// drifts buckets under churn). The accumulator is scheduler-owned
	// scratch so the every-20µs rebalance tick allocates nothing.
	coreLoad := s.coreLoad
	for i := range coreLoad {
		coreLoad[i] = 0
	}
	total := 0
	for b, c := range s.table {
		coreLoad[c] += s.load[b]
		total += s.load[b]
	}
	if total == 0 {
		return
	}
	max, min := 0, 0
	for i, l := range coreLoad {
		if l > coreLoad[max] {
			max = i
		}
		if l < coreLoad[min] {
			min = i
		}
	}
	avg := total / len(s.cores)
	diff := coreLoad[max] - coreLoad[min]
	// Only act on meaningful imbalance (>25% of a fair share).
	if diff*4 <= avg {
		return
	}
	// Move the bucket on the max core that minimises the residual
	// imbalance |diff - 2L|, requiring strict improvement (0 < L < diff)
	// so a move can never oscillate a hot bucket back and forth.
	best, bestResidual := -1, diff
	for b, c := range s.table {
		l := s.load[b]
		if c != max || l <= 0 || l >= diff {
			continue
		}
		residual := diff - 2*l
		if residual < 0 {
			residual = -residual
		}
		if residual < bestResidual {
			best, bestResidual = b, residual
		}
	}
	if best >= 0 {
		s.table[best] = min
		s.MovedBkts++
	}
}

// QueueLensInto implements Scheduler.
//
//altolint:hotpath
func (s *RSSPlus) QueueLensInto(buf []int) []int {
	buf = buf[:0]
	for i := range s.queues {
		buf = append(buf, s.queues[i].Len()) //altolint:allow hotalloc scratch reuse: buf grows to core count once, then steady-state zero-alloc
	}
	return buf
}

// QueueSpecs implements Scheduler: queue i is core i's private queue.
func (s *RSSPlus) QueueSpecs() []QueueSpec { return perCoreSpecs(len(s.queues)) }

// Cores exposes the core array for utilisation reporting.
func (s *RSSPlus) Cores() []*exec.Core { return s.cores }

var _ Scheduler = (*RSSPlus)(nil)
