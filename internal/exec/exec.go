// Package exec models the CPU worker cores that execute RPC handlers, and
// the request queues schedulers manage. A Core runs one request at a time,
// run-to-completion by default, with optional preemption (quantum +
// preemption cost) for schedulers that support it (Shinjuku, nanoPU).
package exec

import (
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// Core is one simulated worker core.
type Core struct {
	ID   int
	Tile int // position on the NoC mesh (for distance-based costs)

	// Quantum enables preemptive scheduling when > 0: a request runs for
	// at most Quantum before being handed back to the scheduler.
	Quantum sim.Time
	// PreemptCost is charged (on this core) at every preemption.
	PreemptCost sim.Time

	// Class is the core's hardware class (0 = general-purpose). Phased
	// requests whose current phase is affine to this class run the
	// accelerated duration (Request.PhaseDur) instead of the base one.
	Class uint8
	// OnPhase, when set, is consulted at every non-final phase boundary
	// of a phased request. Returning true means the scheduler took
	// ownership of the request (e.g. forwarded the next phase to another
	// group); returning false continues the next phase on this core
	// back to back. Nil OnPhase always continues locally, so schedulers
	// without a forwarding seam run phase chains run-to-completion.
	OnPhase func(*rpcproto.Request) bool

	eng      *sim.Engine
	busy     bool
	busyTime sim.Time // accumulated busy time, for utilisation reporting
	cur      *rpcproto.Request

	// In-flight execution state for the pending fire event. Keeping it in
	// the core (instead of a per-Start closure) makes Start allocation-free:
	// the completion event is scheduled through sim.AfterArg against the
	// package-level coreFire trampoline.
	done      func(*rpcproto.Request)
	preempted func(*rpcproto.Request)
	slice     sim.Time
	preempt   bool
}

// coreFire is the completion trampoline for Core.Start's scheduled event.
// It is a package-level func value so scheduling it never allocates.
func coreFire(arg any, _ int64) { arg.(*Core).fire() }

// NewCore returns an idle, run-to-completion core bound to the engine.
func NewCore(eng *sim.Engine, id, tile int) *Core {
	return &Core{ID: id, Tile: tile, eng: eng}
}

// Busy reports whether the core is currently executing a request.
func (c *Core) Busy() bool { return c.busy }

// BusyTime returns the accumulated execution time (including overheads
// charged through Start), for utilisation accounting.
func (c *Core) BusyTime() sim.Time { return c.busyTime }

// Start begins (or resumes) executing r after the given pickup overhead
// (the scheduling cost of handing this request to this core). When the
// request completes, done(r) runs with r.Finish set; if the core's
// quantum expires first, preempted(r) runs instead with r.Remaining
// updated and the preemption cost charged. Either way the core is idle
// again when the callback fires, so callbacks typically dispatch the next
// request. Start panics if the core is already busy — double-dispatch is
// a scheduler bug, not a runtime condition.
//
// Start itself never allocates: pass callbacks that are bound once per
// core at scheduler construction, not fresh closures per request.
//
//altolint:hotpath
func (c *Core) Start(r *rpcproto.Request, overhead sim.Time, done, preempted func(*rpcproto.Request)) {
	if c.busy {
		panic("exec: Start on busy core")
	}
	if r.Remaining == 0 {
		// OnExecute fires once per request, when phase 0 first starts —
		// not at later phase boundaries.
		if r.Phase == 0 {
			if r.OnExecute != nil {
				r.OnExecute(r)
			}
		}
		if r.NumPhases > 1 {
			r.Remaining = r.PhaseDur(c.Class)
		} else {
			r.Remaining = r.Service
		}
	}
	c.busy = true
	c.cur = r
	r.Start = c.eng.Now()

	slice := r.Remaining
	preempt := false
	if c.Quantum > 0 && slice > c.Quantum {
		slice = c.Quantum
		preempt = true
	}
	total := overhead + slice
	if preempt {
		total += c.PreemptCost
	}
	c.busyTime += total
	c.done = done
	c.preempted = preempted
	c.slice = slice
	c.preempt = preempt
	c.eng.AfterArg(total, coreFire, c, 0)
}

// fire completes or preempts the in-flight request. The core is idle and
// its in-flight state cleared before either callback runs, so callbacks
// may immediately Start the next request.
//
//altolint:hotpath
func (c *Core) fire() {
	r := c.cur
	done, preempted := c.done, c.preempted
	slice, preempt := c.slice, c.preempt
	c.busy = false
	c.cur = nil
	c.done = nil
	c.preempted = nil
	if preempt {
		r.Remaining -= slice
		preempted(r)
		return
	}
	r.Remaining = 0
	now := c.eng.Now()
	if r.NumPhases > 1 && r.Phase+1 < r.NumPhases {
		// Non-final phase boundary: stamp the phase, advance, and reset
		// the migration latch — migrate-once becomes migrate-once-per-
		// phase (policy.CanMigrate documents the contract). The scheduler
		// may claim the request through OnPhase (forwarding it to a
		// better-suited group); otherwise the next phase runs here,
		// back to back, as its own completion event.
		r.PhaseEnd[r.Phase] = now
		r.Phase++
		r.Migrated = false
		if c.OnPhase != nil && c.OnPhase(r) {
			return
		}
		c.Start(r, 0, done, preempted)
		return
	}
	if r.NumPhases > 0 {
		// A bare request has no phase sidecar to stamp.
		r.PhaseEnd[r.Phase] = now
	}
	r.Finish = now
	done(r)
}

// Deque is a slice-backed double-ended request queue. Schedulers enqueue
// at the tail; workers consume from the head; ALTOCUMULUS migrates from
// the tail (§VI: "dequeue the tail of NetRX").
type Deque struct {
	buf  []*rpcproto.Request
	head int
}

// Len returns the number of queued requests.
func (q *Deque) Len() int { return len(q.buf) - q.head }

// PushTail appends r at the tail.
func (q *Deque) PushTail(r *rpcproto.Request) {
	q.buf = append(q.buf, r)
}

// PopHead removes and returns the head request, or nil if empty.
func (q *Deque) PopHead() *rpcproto.Request {
	if q.Len() == 0 {
		return nil
	}
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		// Drained: start over at the front, so a queue that keeps emptying
		// (a worker's local queue) never outgrows its deepest backlog.
		q.buf = q.buf[:0]
		q.head = 0
		return r
	}
	// Compact once the dead prefix dominates, to bound memory.
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	return r
}

// PopTail removes and returns the tail request, or nil if empty.
func (q *Deque) PopTail() *rpcproto.Request {
	if q.Len() == 0 {
		return nil
	}
	r := q.buf[len(q.buf)-1]
	q.buf[len(q.buf)-1] = nil
	q.buf = q.buf[:len(q.buf)-1]
	return r
}

// At returns the i-th request from the head (0-based) without removal.
// It panics when out of range.
func (q *Deque) At(i int) *rpcproto.Request {
	if i < 0 || i >= q.Len() {
		panic("exec: Deque.At out of range")
	}
	return q.buf[q.head+i]
}
