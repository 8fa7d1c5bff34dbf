package sim

// event is a scheduled callback. Events fire in (time, sequence) order;
// the sequence number breaks ties FIFO so that same-instant events run in
// the order they were scheduled, keeping runs deterministic.
//
// Events live in the engine's slab (Engine.events) and are addressed by
// index, not pointer: scheduling recycles slots through a free list, so
// the steady-state event loop allocates nothing. The generation counter
// guards recycled slots against stale EventIDs.
//
// An event carries either a plain thunk (act) or an argument-taking
// callback (actArg) with its payload (arg, argN). The second form exists
// so hot paths can schedule work against a callback allocated once at
// construction time instead of closing over per-request state: a
// `func(){ use(r) }` literal heap-allocates a closure every call, while
// AtArg(t, boundFn, r, 0) writes the request pointer into the recycled
// event slot and allocates nothing.
type event struct {
	at     Time
	seq    uint64
	act    func()
	actArg func(arg any, n int64)
	arg    any
	argN   int64
	gen    uint32
	dead   bool
	timer  bool // slot owned by a Timer: never returned to the free list
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// EventID is never issued.
type EventID struct {
	eng *Engine
	gen uint32
	idx int32
}

// Cancel marks the event dead; it will be dropped when popped or when
// the scheduler compacts. Cancelling an already-fired or already-cancelled
// event is a no-op: the slot's generation advances when it is recycled,
// so a stale id no longer matches.
func (id EventID) Cancel() {
	if id.eng == nil {
		return
	}
	e := id.eng
	ev := &e.events[id.idx]
	if ev.gen != id.gen || ev.dead {
		return
	}
	ev.dead = true
	ev.act = nil
	ev.actArg = nil
	ev.arg = nil
	e.pending--
	e.maybeCompact()
}

// Valid reports whether the id refers to a scheduled event.
func (id EventID) Valid() bool { return id.eng != nil }

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
	events  []event // slot slab; EventID.idx and queue entries index it
	free    []int32 // recycled slab slots
	wheel   *timerWheel
	pending int    // live (scheduled, not cancelled) events
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
	return &Engine{
		events: make([]event, 0, 1024),
		free:   make([]int32, 0, 1024),
		wheel:  newWheel(gBits, slotBits),
		firing: -1,
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.nEvent }

// maybeCompact compacts once dead entries dominate, so
// cancellation-heavy schedulers (JBSQ re-arms, manager period timers)
// cannot grow the queue without bound.
func (e *Engine) maybeCompact() {
	if n := e.wlen(); n > 1 && n-e.pending > n/2 {
		e.wcompact()
	}
}

// takeSlot pops a slot from the free list (or grows the slab) without
// filling it.
func (e *Engine) takeSlot() int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		return i
	}
	e.events = append(e.events, event{})
	return int32(len(e.events) - 1)
}

// alloc takes a slot from the free list (or grows the slab) and fills it.
func (e *Engine) alloc(t Time, f func()) int32 {
	i := e.takeSlot()
	ev := &e.events[i]
	ev.at = t
	ev.seq = e.seq
	ev.act = f
	ev.dead = false
	e.seq++
	return i
}

// allocArg is alloc for argument-carrying events.
func (e *Engine) allocArg(t Time, f func(any, int64), arg any, n int64) int32 {
	i := e.takeSlot()
	ev := &e.events[i]
	ev.at = t
	ev.seq = e.seq
	ev.actArg = f
	ev.arg = arg
	ev.argN = n
	ev.dead = false
	e.seq++
	return i
}

// release recycles a slab slot after its event fired, was cancelled, or
// was dropped by compaction. The generation bump invalidates outstanding
// EventIDs for the slot.
func (e *Engine) release(i int32) {
	ev := &e.events[i]
	ev.gen++
	ev.act = nil
	ev.actArg = nil
	ev.arg = nil // drop the payload reference so the GC can reclaim it
	ev.dead = false
	e.free = append(e.free, i)
}

// dropDead disposes of a dead entry removed from the queue. Ordinary
// slots recycle through the free list; Timer-owned slots stay put (the
// generation bump alone invalidates them) so a re-Arm reuses the slot
// without touching the free list.
func (e *Engine) dropDead(i int32) {
	ev := &e.events[i]
	if ev.timer {
		ev.gen++
		ev.dead = false
		return
	}
	e.release(i)
}

// At schedules f to run at absolute time t. Scheduling in the past is
// clamped to "now" (fires next, after already-queued events at now).
func (e *Engine) At(t Time, f func()) EventID {
	if t < e.now {
		t = e.now
	}
	i := e.alloc(t, f)
	gen := e.events[i].gen
	e.wpush(i)
	e.pending++
	return EventID{eng: e, gen: gen, idx: i}
}

// After schedules f to run d after the current time.
func (e *Engine) After(d Time, f func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, f)
}

// AtArg schedules f(arg, n) at absolute time t. Unlike At, the callback
// and its payload travel in the event slot itself, so a callback bound
// once at construction time can be scheduled repeatedly with per-call
// state and no closure allocation. Pass pointers through arg — storing a
// pointer in an interface does not allocate, while non-pointer values
// (including ints ≥ 256) would box. Small integers ride in n.
func (e *Engine) AtArg(t Time, f func(arg any, n int64), arg any, n int64) EventID {
	if t < e.now {
		t = e.now
	}
	i := e.allocArg(t, f, arg, n)
	gen := e.events[i].gen
	e.wpush(i)
	e.pending++
	return EventID{eng: e, gen: gen, idx: i}
}

// AfterArg schedules f(arg, n) to run d after the current time.
func (e *Engine) AfterArg(d Time, f func(arg any, n int64), arg any, n int64) EventID {
	if d < 0 {
		d = 0
	}
	return e.AtArg(e.now+d, f, arg, n)
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
func (e *Engine) Rearm(d Time) EventID {
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
	e.pending++
	return EventID{eng: e, gen: ev.gen, idx: i}
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stop = true }

// fire executes the live entry i. The generation bump happens before
// the callback (stale EventIDs are invalid from the callback's point of
// view, exactly as with the old release-before-run ordering); the slot
// returns to the free list after the callback unless it was rearmed or
// is Timer-owned.
//
//altolint:hotpath
func (e *Engine) fire(i int32) {
	ev := &e.events[i]
	ev.gen++
	act, actArg, arg, argN := ev.act, ev.actArg, ev.arg, ev.argN
	e.firing = i
	e.rearmed = false
	if act != nil {
		act()
	} else {
		actArg(arg, argN)
	}
	e.firing = -1
	if e.rearmed {
		return
	}
	// The callback may have grown the slab; re-take the pointer.
	ev = &e.events[i]
	if ev.timer {
		return
	}
	ev.act = nil
	ev.actArg = nil
	ev.arg = nil
	e.free = append(e.free, i) //altolint:allow hotalloc amortized free-list growth into a retained backing array
}

// Run executes events until the queue is empty or the clock passes until.
// Events scheduled exactly at until still run. Returns the number of
// events executed by this call. A drained queue leaves the clock at
// until; Stop leaves it at the stopping event.
func (e *Engine) Run(until Time) uint64 {
	e.stop = false
	var n uint64
	for !e.stop {
		at, ok := e.wpeekAt()
		if !ok || at > until {
			break
		}
		i := e.wpop()
		ev := &e.events[i]
		if ev.dead {
			e.dropDead(i)
			continue
		}
		e.pending--
		e.now = ev.at
		e.fire(i)
		n++
		e.nEvent++
	}
	if !e.stop && e.now < until && e.wlen() == 0 {
		e.now = until
	}
	return n
}

// RunAll executes events until the queue drains. Unlike Run, it leaves the
// clock at the time of the last executed event.
func (e *Engine) RunAll() uint64 {
	e.stop = false
	var n uint64
	for !e.stop && e.wlen() > 0 {
		i := e.wpop()
		ev := &e.events[i]
		if ev.dead {
			e.dropDead(i)
			continue
		}
		e.pending--
		e.now = ev.at
		e.fire(i)
		n++
		e.nEvent++
	}
	return n
}

// Pending returns the number of live events still queued. It is a live
// counter (O(1)), maintained across At/Cancel/pop.
func (e *Engine) Pending() int { return e.pending }

// Every runs f at now+d, now+2d, ... until f returns false. The
// callback runs as an ordinary event, so it observes the simulation
// between event callbacks, never mid-callback. Rescheduling rides the
// Rearm fast path: the periodic event keeps its slab slot for its whole
// lifetime. Used for periodic instrumentation such as invariant
// checkpoints.
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

// Timer is a reusable one-shot timer owning a dedicated slab slot.
// Arm/Disarm/fire cycles touch neither the free list nor the slot's
// callback, making re-arm-heavy schedulers (JBSQ's drain retry)
// allocation-free and O(1) per cycle. A Timer is not armed after
// NewTimer; it fires at most once per Arm.
type Timer struct {
	eng *Engine
	f   func()
	idx int32
	gen uint32
}

// NewTimer returns a timer that runs f when it fires.
func (e *Engine) NewTimer(f func()) *Timer {
	i := e.takeSlot()
	ev := &e.events[i]
	ev.timer = true
	ev.act = f
	ev.dead = false
	// gen-1 can never match the slot's current generation, so the
	// fresh timer reports unarmed.
	return &Timer{eng: e, f: f, idx: i, gen: ev.gen - 1}
}

// Armed reports whether the timer is scheduled and not yet fired. It is
// false inside the timer's own callback (the generation advances before
// the callback runs), so a firing timer can re-Arm itself.
func (tm *Timer) Armed() bool {
	ev := &tm.eng.events[tm.idx]
	return ev.timer && ev.gen == tm.gen && !ev.dead
}

// Arm schedules the timer at absolute time t (clamped to now). The
// common cycle — Arm, fire, Arm again — reuses the owned slot. If a
// previous Disarm left a dead entry still queued, the slot is detached
// to drain as ordinary garbage and a fresh slot is taken; the zombie
// never fires. Panics if the timer is already armed.
//
//altolint:hotpath
func (tm *Timer) Arm(t Time) {
	e := tm.eng
	ev := &e.events[tm.idx]
	if ev.timer && ev.gen == tm.gen && !ev.dead {
		panic("sim: Arm on an armed Timer")
	}
	if ev.dead {
		// Zombie from a Disarm still queued: hand the slot over to the
		// normal dead-entry path and take a fresh one.
		ev.timer = false
		tm.idx = e.takeSlot()
		ev = &e.events[tm.idx]
		ev.timer = true
	}
	if t < e.now {
		t = e.now
	}
	ev.at = t
	ev.seq = e.seq
	e.seq++
	ev.act = tm.f
	ev.dead = false
	tm.gen = ev.gen
	e.wpush(tm.idx)
	e.pending++
}

// Disarm cancels a pending Arm; a no-op when not armed. The dead entry
// drains like a cancelled event (pop or compaction) but keeps the slot
// bound to the timer when it does.
func (tm *Timer) Disarm() {
	e := tm.eng
	ev := &e.events[tm.idx]
	if !ev.timer || ev.gen != tm.gen || ev.dead {
		return
	}
	ev.dead = true
	e.pending--
	e.maybeCompact()
}
