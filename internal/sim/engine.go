package sim

import "math"

// event is a scheduled callback. Events fire in (time, sequence) order;
// the sequence number breaks ties FIFO so that same-instant events run in
// the order they were scheduled, keeping runs deterministic.
//
// Events live in the engine's slab (Engine.events) and are addressed by
// index, not pointer: scheduling recycles slots through a free list, so
// the steady-state event loop allocates nothing.
//
// Every event is an argument-taking callback with its payload (arg,
// argN). Hot paths schedule work against a callback allocated once at
// construction time instead of closing over per-request state: a
// `func(){ use(r) }` literal heap-allocates a closure every call, while
// AtArg(t, boundFn, r, 0) writes the request pointer into the recycled
// event slot and allocates nothing. A plain thunk rides the same form
// through callThunk.
type event struct {
	at   Time
	seq  uint64
	act  func(arg any, n int64)
	arg  any
	argN int64
}

// callThunk runs a plain func() carried in an event's arg. A func value
// is pointer-shaped, so storing it in arg does not box.
func callThunk(arg any, _ int64) { arg.(func())() }

// Engine is a discrete-event simulator. It is not safe for concurrent use;
// an entire simulation runs on one goroutine (the simulated hardware is
// parallel, the simulator is not — same as ZSim's bound-phase model
// collapsed to a strict event order).
//
// Events are queued on a timer wheel (wheel.go) and fire in (at, seq)
// order; the fuzz oracle checks that order against container/heap.
type Engine struct {
	now     Time
	seq     uint64
	events  []event // slot slab; queue entries index it
	free    []int32 // recycled slab slots
	wheel   *timerWheel
	nEvent  uint64 // total events executed, for reporting
	stop    bool
	firing  int32 // slab index of the callback currently executing, -1 otherwise
	rearmed bool  // the executing callback called Rearm
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return newEngineWheel(wheelGBits, wheelSlotBits)
}

// newEngineWheel builds an engine with explicit wheel geometry.
// Tests use tiny wheels to force bucket-boundary, wrap and overflow
// paths with small timestamps.
func newEngineWheel(gBits, slotBits uint) *Engine {
	const slabCap = 1024
	return &Engine{
		events: make([]event, 0, slabCap),
		free:   make([]int32, 0, slabCap),
		wheel:  newWheel(gBits, slotBits, slabCap),
		firing: -1,
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.nEvent }

// takeSlot pops a slot from the free list (or grows the slab, and the
// wheel's parallel link array with it) without filling it.
func (e *Engine) takeSlot() int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		return i
	}
	e.events = append(e.events, event{})
	e.wheel.link = append(e.wheel.link, -1)
	return int32(len(e.events) - 1)
}

// At schedules f to run at absolute time t. Scheduling in the past is
// clamped to "now" (fires next, after already-queued events at now).
func (e *Engine) At(t Time, f func()) { e.AtArg(t, callThunk, f, 0) }

// After schedules f to run d after the current time.
func (e *Engine) After(d Time, f func()) { e.AtArg(e.now+d, callThunk, f, 0) }

// AtArg schedules f(arg, n) at absolute time t, clamped to now like At.
// The callback and its payload travel in the event slot itself, so a
// callback bound once at construction time can be scheduled repeatedly
// with per-call state and no closure allocation. Pass pointers through
// arg — storing a pointer in an interface does not allocate, while
// non-pointer values (including ints ≥ 256) would box. Small integers
// ride in n.
func (e *Engine) AtArg(t Time, f func(arg any, n int64), arg any, n int64) {
	if t < e.now {
		t = e.now
	}
	// Fill the slot field by field: assigning a composite literal copies
	// a whole temporary event through the write-barrier path on every
	// schedule.
	i := e.takeSlot()
	ev := &e.events[i]
	ev.at = t
	ev.seq = e.seq
	ev.act = f
	ev.arg = arg
	ev.argN = n
	e.seq++
	e.wpush(i)
}

// AfterArg schedules f(arg, n) to run d after the current time.
func (e *Engine) AfterArg(d Time, f func(arg any, n int64), arg any, n int64) {
	e.AtArg(e.now+d, f, arg, n)
}

// Rearm reschedules the currently executing callback's own event d
// after now, reusing its slab slot with no free-list round trip — the
// O(1) fast path for periodic events
// (manager Period ticks, rebalance timers). The callback and payload
// are retained as-is. Ordering is identical to calling After(d, self)
// at the same program point: the event takes the next sequence number.
// Panics outside a callback or on a second Rearm in one callback.
//
//altolint:hotpath
func (e *Engine) Rearm(d Time) {
	i := e.firing
	if i < 0 {
		panic("sim: Rearm outside an event callback")
	}
	if e.rearmed {
		panic("sim: Rearm called twice in one callback")
	}
	if d < 0 {
		d = 0
	}
	ev := &e.events[i]
	ev.at = e.now + d
	ev.seq = e.seq
	e.seq++
	e.rearmed = true
	e.wpush(i)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stop = true }

// fire executes the popped entry i. The slot returns to the free list
// after the callback unless the callback rearmed it.
//
//altolint:hotpath
func (e *Engine) fire(i int32) {
	ev := &e.events[i]
	e.now = ev.at
	act, arg, argN := ev.act, ev.arg, ev.argN
	e.firing = i
	e.rearmed = false
	act(arg, argN)
	e.firing = -1
	e.nEvent++
	if e.rearmed {
		return
	}
	// The callback may have grown the slab; re-take the pointer. Dropping
	// the payload reference lets the GC reclaim it.
	ev = &e.events[i]
	ev.act = nil
	ev.arg = nil
	e.free = append(e.free, i) //altolint:allow hotalloc amortized free-list growth into a retained backing array
}

// Run executes events until the queue is empty or the clock passes until.
// Events scheduled exactly at until still run. Returns the number of
// events executed by this call. A drained queue leaves the clock at
// until; Stop leaves it at the stopping event.
func (e *Engine) Run(until Time) uint64 {
	n := e.runDue(until)
	if !e.stop && e.now < until && e.wlen() == 0 {
		e.now = until
	}
	return n
}

// RunAll executes events until the queue drains. Unlike Run, it leaves the
// clock at the time of the last executed event.
func (e *Engine) RunAll() uint64 { return e.runDue(math.MaxInt64) }

// runDue fires every entry due by until, in (at, seq) order, until the
// queue runs dry or a callback calls Stop.
func (e *Engine) runDue(until Time) uint64 {
	e.stop = false
	start := e.nEvent
	for !e.stop {
		i, ok := e.wnext(until)
		if !ok {
			break
		}
		e.fire(i)
	}
	return e.nEvent - start
}

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return e.wlen() }

// Every runs f at now+d, now+2d, ... until f returns false. The
// callback runs as an ordinary event, so it observes the simulation
// between event callbacks, never mid-callback. Rescheduling rides the
// Rearm fast path: the periodic event keeps its slab slot for its whole
// lifetime, and takes the sequence number a re-After at the end of f
// would have taken. Used for periodic instrumentation such as
// invariant checkpoints, snapshots, samplers and rebalance ticks.
func (e *Engine) Every(d Time, f func() bool) {
	if d <= 0 {
		panic("sim: Every with non-positive period")
	}
	tick := func() {
		if f() {
			e.Rearm(d)
		}
	}
	e.After(d, tick)
}
