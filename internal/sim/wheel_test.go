package sim

import (
	"math/rand"
	"testing"
)

// TestEngineWheelRandomEquivalence is the randomized wheel-vs-oracle
// equivalence property test: the production wheel and a tiny wheel
// replay identical random scripts (near, far, past and chained
// schedules; cancels; bounded runs; drains) and must agree with the
// container/heap oracle of fuzz_test.go on the clock, the pending count
// and the complete firing log.
func TestEngineWheelRandomEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := newOracle()
		rigs := []*rig{
			newRig("wheel", NewEngine()),
			newRig("wheel4x3", newEngineWheel(4, 3)),
		}
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // schedule
				var delta Time
				switch rng.Intn(4) {
				case 0: // inside the production wheel's cursor bucket
					delta = Time(rng.Intn(1 << wheelGBits))
				case 1: // inside the production window, past the tiny one
					delta = Time(rng.Intn(1 << (wheelGBits + wheelSlotBits)))
				case 2: // beyond every window: far heap
					delta = Time(rng.Intn(1<<26)) + Time(1)<<(wheelGBits+wheelSlotBits)
				case 3: // in the past: clamps to now
					delta = -Time(rng.Intn(1 << 16))
				}
				chain := Time(0)
				if rng.Intn(4) == 0 {
					chain = Time(rng.Intn(1<<13)) + 1
				}
				for _, r := range rigs {
					r.schedule(delta, chain)
				}
				ref.schedule(ref.now+delta, chain)
			case k < 7: // cancel a random id, possibly stale
				if ref.nextID > 0 {
					id := rng.Intn(ref.nextID)
					for _, r := range rigs {
						r.ids[id].Cancel()
					}
					ref.cancel(id)
				}
			case k < 9: // bounded run
				d := Time(rng.Intn(1 << 23))
				for _, r := range rigs {
					r.eng.Run(r.eng.Now() + d)
				}
				ref.run(ref.now+d, false)
			default: // drain
				for _, r := range rigs {
					r.eng.RunAll()
				}
				ref.run(0, true)
			}
			for _, r := range rigs {
				if r.eng.Now() != ref.now {
					t.Fatalf("seed %d op %d: [%s] Now() = %v, oracle %v", seed, op, r.name, r.eng.Now(), ref.now)
				}
				if r.eng.Pending() != ref.pending {
					t.Fatalf("seed %d op %d: [%s] Pending() = %d, oracle %d", seed, op, r.name, r.eng.Pending(), ref.pending)
				}
			}
		}
		for _, r := range rigs {
			r.eng.RunAll()
		}
		ref.run(0, true)
		for _, r := range rigs {
			if len(r.log) != len(ref.log) {
				t.Fatalf("seed %d: [%s] fired %d events, oracle fired %d", seed, r.name, len(r.log), len(ref.log))
			}
			for i := range r.log {
				if r.log[i] != ref.log[i] || r.logAt[i] != ref.logAt[i] {
					t.Fatalf("seed %d: [%s] diverges at firing %d: id %d at %v, oracle id %d at %v",
						seed, r.name, i, r.log[i], r.logAt[i], ref.log[i], ref.logAt[i])
				}
			}
		}
	}
}

// TestEngineFastForward pins the empty-wheel fast-forward semantics on
// the production and the tiny wheel: a Run whose horizon stops short of
// the only (far) event fires nothing and leaves the clock alone; a Run
// past it fires it in one jump and parks the clock at the horizon;
// RunAll leaves the clock on the last event.
func TestEngineFastForward(t *testing.T) {
	backends := []struct {
		name string
		eng  *Engine
	}{
		{"wheel", NewEngine()},
		{"wheel4x3", newEngineWheel(4, 3)},
	}
	for _, b := range backends {
		e := b.eng
		fired := 0
		e.After(3*Millisecond, func() { fired++ })
		if n := e.Run(Millisecond); n != 0 {
			t.Fatalf("[%s] Run short of the far event executed %d events", b.name, n)
		}
		if e.Now() != 0 {
			t.Fatalf("[%s] Run with an event still queued moved the clock to %v", b.name, e.Now())
		}
		if n := e.Run(5 * Millisecond); n != 1 || fired != 1 {
			t.Fatalf("[%s] Run past the far event executed %d events (fired %d)", b.name, n, fired)
		}
		if e.Now() != 5*Millisecond {
			t.Fatalf("[%s] Run over a drained queue left the clock at %v, want 5ms", b.name, e.Now())
		}
		// RunAll jumps straight to a far-only event and stops there.
		e.After(2*Millisecond, func() { fired++ })
		if n := e.RunAll(); n != 1 {
			t.Fatalf("[%s] RunAll executed %d events, want 1", b.name, n)
		}
		if want := 7 * Millisecond; e.Now() != want {
			t.Fatalf("[%s] RunAll left the clock at %v, want %v", b.name, e.Now(), want)
		}
		if e.Pending() != 0 {
			t.Fatalf("[%s] Pending() = %d after drain", b.name, e.Pending())
		}
	}
}

// TestEngineWheelCancelCompaction: cancelling the bulk of a queue
// spanning the ring and the far heap must compact dead entries away and
// keep Pending exact.
func TestEngineWheelCancelCompaction(t *testing.T) {
	e := NewEngine()
	const n = 4096
	ids := make([]EventID, n)
	fired := 0
	for i := range ids {
		// 10 ns spacing spreads the population across ring buckets and
		// well past the ~4.2 µs window into the far heap.
		ids[i] = e.After(Time(i)*10*Nanosecond, func() { fired++ })
	}
	live := 0
	for i := range ids {
		if i%8 != 0 {
			ids[i].Cancel()
		} else {
			live++
		}
	}
	if e.Pending() != live {
		t.Fatalf("Pending() = %d, want %d", e.Pending(), live)
	}
	if q := e.wlen(); q > 2*live {
		t.Fatalf("wheel kept %d entries for %d live events: compaction did not run", q, live)
	}
	if got := e.RunAll(); got != uint64(live) || fired != live {
		t.Fatalf("RunAll executed %d events (fired %d), want %d", got, fired, live)
	}
}

// TestEngineWheelBoundary drives a tiny wheel (16-tick buckets, 8
// slots, 128-tick window) through the edge paths: the exact window
// boundary, the dead-entry cursor advance, the partial rewind that
// spills a no-longer-covered ring slot to the far heap, and the
// full-lap rewind after a far fast-forward.
func TestEngineWheelBoundary(t *testing.T) {
	t.Run("window-edge", func(t *testing.T) {
		e := newEngineWheel(4, 3)
		var at []Time
		mk := func() func() {
			return func() { at = append(at, e.Now()) }
		}
		// With base anchored at 0 by the first push, 127 is the last
		// in-window tick and 128 the first far one.
		e.At(0, mk())
		e.At(127, mk())
		e.At(128, mk())
		if len(e.wheel.far) != 1 {
			t.Fatalf("event at window boundary not in far heap (far len %d)", len(e.wheel.far))
		}
		e.RunAll()
		want := []Time{0, 127, 128}
		if len(at) != len(want) {
			t.Fatalf("fired %d events, want %d", len(at), len(want))
		}
		for i := range want {
			if at[i] != want[i] {
				t.Fatalf("firing %d at %v, want %v", i, at[i], want[i])
			}
		}
	})

	t.Run("partial-rewind", func(t *testing.T) {
		e := newEngineWheel(4, 3)
		var at []Time
		mk := func() func() {
			return func() { at = append(at, e.Now()) }
		}
		// The first push rebases the empty wheel to its bucket: base 32,
		// window [32, 160). Run(50) pops only the dead entry, leaving
		// now at 0 — strictly below base (B at 100 keeps the queue
		// non-empty, so the clock does not jump to the horizon).
		e.At(40, mk()).Cancel()
		e.At(100, mk())
		if n := e.Run(50); n != 0 {
			t.Fatalf("Run fired %d events, want 0", n)
		}
		if e.Now() != 0 {
			t.Fatalf("Now() = %v after popping only a dead entry", e.Now())
		}
		if e.wheel.base != 32 {
			t.Fatalf("base = %v, want 32 (rebased to the first push)", e.wheel.base)
		}
		// D at 130 sits in ring slot 0 under base 32; the rewind for C
		// at 10 shrinks the window to [0,128) and must spill D to far.
		e.At(130, mk())
		e.At(10, mk())
		if e.wheel.base != 0 {
			t.Fatalf("base = %v after rewinding push, want 0", e.wheel.base)
		}
		if len(e.wheel.far) != 1 {
			t.Fatalf("rewind did not spill the out-of-window entry (far len %d)", len(e.wheel.far))
		}
		e.RunAll()
		want := []Time{10, 100, 130}
		if len(at) != len(want) {
			t.Fatalf("fired %d events, want %d", len(at), len(want))
		}
		for i := range want {
			if at[i] != want[i] {
				t.Fatalf("firing %d at %v, want %v", i, at[i], want[i])
			}
		}
	})

	t.Run("full-lap-rewind", func(t *testing.T) {
		e := newEngineWheel(4, 3)
		var at []Time
		mk := func() func() {
			return func() { at = append(at, e.Now()) }
		}
		// The first push anchors base at 9984 (bucket of 10000); the
		// push at 5 then rewinds by far more than one lap, so every
		// ring entry must spill to the far heap and migrate back.
		e.At(10000, mk())
		e.At(20000, mk())
		if len(e.wheel.far) != 1 {
			t.Fatalf("far len %d before rewind, want 1", len(e.wheel.far))
		}
		e.At(5, mk())
		if e.wheel.base != 0 {
			t.Fatalf("base = %v after full-lap rewind, want 0", e.wheel.base)
		}
		if len(e.wheel.far) != 2 {
			t.Fatalf("full-lap rewind left far len %d, want 2", len(e.wheel.far))
		}
		e.RunAll()
		want := []Time{5, 10000, 20000}
		if len(at) != len(want) {
			t.Fatalf("fired %d events, want %d", len(at), len(want))
		}
		for i := range want {
			if at[i] != want[i] {
				t.Fatalf("firing %d at %v, want %v", i, at[i], want[i])
			}
		}
	})

	t.Run("dead-far-fast-forward", func(t *testing.T) {
		e := newEngineWheel(4, 3)
		var at []Time
		mk := func() func() {
			return func() { at = append(at, e.Now()) }
		}
		// RunAll over a lone dead entry fast-forwards the cursor but
		// must not move the clock; the empty-scheduler rebase then
		// re-anchors the window for the near pushes that follow.
		e.At(10000, mk()).Cancel()
		e.RunAll()
		if e.Now() != 0 {
			t.Fatalf("RunAll over a dead entry moved the clock to %v", e.Now())
		}
		e.At(5, mk())
		e.At(9000, mk())
		e.RunAll()
		want := []Time{5, 9000}
		if len(at) != len(want) {
			t.Fatalf("fired %d events, want %d", len(at), len(want))
		}
		for i := range want {
			if at[i] != want[i] {
				t.Fatalf("firing %d at %v, want %v", i, at[i], want[i])
			}
		}
	})
}

// TestEngineRearmSemantics pins the Rearm contract: panic outside a
// callback, panic on double-Rearm, and cancellability of the returned
// id.
func TestEngineRearmSemantics(t *testing.T) {
	e := NewEngine()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Rearm outside a callback did not panic")
			}
		}()
		e.Rearm(Nanosecond)
	}()

	calls := 0
	e.After(Nanosecond, func() {
		calls++
		if calls == 1 {
			e.Rearm(Nanosecond)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("second Rearm in one callback did not panic")
					}
				}()
				e.Rearm(Nanosecond)
			}()
		}
	})
	e.RunAll()
	if calls != 2 {
		t.Fatalf("rearmed event fired %d times, want 2", calls)
	}

	// Cancelling the id Rearm returns kills the rescheduled firing.
	calls = 0
	var rid EventID
	e.After(Nanosecond, func() {
		if calls == 0 {
			rid = e.Rearm(5 * Nanosecond)
		}
		calls++
	})
	e.After(2*Nanosecond, func() { rid.Cancel() })
	e.RunAll()
	if calls != 1 {
		t.Fatalf("cancelled rearm fired anyway (calls = %d)", calls)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", e.Pending())
	}
}

// TestEngineTimerSemantics pins the Timer contract: unarmed at birth,
// Arm/fire/Arm slot reuse, Arm-while-armed panic, Disarm, the
// zombie-detach path (Arm after Disarm while the dead entry is still
// queued), and self-re-Arm from the timer's own callback.
func TestEngineTimerSemantics(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	if tm.Armed() {
		t.Fatal("fresh timer reports armed")
	}
	tm.Disarm() // no-op on an unarmed timer
	tm.Arm(10 * Nanosecond)
	if !tm.Armed() {
		t.Fatal("timer not armed after Arm")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Arm on an armed timer did not panic")
			}
		}()
		tm.Arm(20 * Nanosecond)
	}()
	e.RunAll()
	if fired != 1 || e.Now() != 10*Nanosecond {
		t.Fatalf("fired %d at %v, want 1 at 10ns", fired, e.Now())
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}

	// The fire/Arm cycle reuses the owned slot: no slab growth.
	slab := len(e.events)
	tm.Arm(e.Now() + 5*Nanosecond)
	e.RunAll()
	if fired != 2 {
		t.Fatalf("fired %d after re-Arm, want 2", fired)
	}
	if len(e.events) != slab {
		t.Fatalf("re-Arm grew the slab %d -> %d", slab, len(e.events))
	}

	// Zombie detach: Disarm leaves a dead entry queued; the next Arm
	// must take a fresh slot and the zombie must never fire.
	tm.Arm(e.Now() + 7*Nanosecond)
	tm.Disarm()
	if tm.Armed() {
		t.Fatal("timer armed after Disarm")
	}
	tm.Arm(e.Now() + 3*Nanosecond)
	if !tm.Armed() {
		t.Fatal("timer not armed after zombie re-Arm")
	}
	e.RunAll()
	if fired != 3 {
		t.Fatalf("fired %d after zombie re-Arm, want 3", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", e.Pending())
	}

	// Self-re-Arm from the callback (Armed is false there).
	count := 0
	var tm2 *Timer
	tm2 = e.NewTimer(func() {
		count++
		if tm2.Armed() {
			t.Error("timer reports armed inside its own callback")
		}
		if count < 3 {
			tm2.Arm(e.Now() + 2*Nanosecond)
		}
	})
	tm2.Arm(e.Now() + 2*Nanosecond)
	e.RunAll()
	if count != 3 {
		t.Fatalf("self-rearming timer fired %d times, want 3", count)
	}
}

// nopEvent is a package-level no-op so zero-alloc gates measure the
// scheduler, not closure construction.
func nopEvent() {}

// TestEngineWheelZeroAlloc is the hard gate on the wheel's push/pop
// steady state: after warmup has grown every retained backing array
// (ring slots, drain buffer, far heap, slab, free list), a
// schedule/run cycle spanning the bucket, ring and far bands must not
// allocate.
func TestEngineWheelZeroAlloc(t *testing.T) {
	e := NewEngine()
	warm := func() {
		// One event per ring bucket plus a far band, then drain: every
		// slot's backing array, curq and far get first-touched here.
		for s := 0; s < (1<<wheelSlotBits)+1; s++ {
			e.After(Time(s)<<wheelGBits, nopEvent)
		}
		e.After(Time(2)<<(wheelGBits+wheelSlotBits), nopEvent)
		e.RunAll()
	}
	warm()
	warm()
	allocs := testing.AllocsPerRun(200, func() {
		e.After(Nanosecond, nopEvent)        // cursor bucket
		e.After(100*Nanosecond, nopEvent)    // ring slot
		e.After(100*Microsecond, nopEvent)   // far heap
		e.After(100*Microsecond+1, nopEvent) // far heap, migration batch
		e.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("wheel push/pop steady state allocates %.1f per cycle, want 0", allocs)
	}
}

// TestEngineRearmZeroAlloc is the hard gate on the periodic fast path:
// a self-rearming event must run its whole life in one slab slot with
// zero allocations per cycle.
func TestEngineRearmZeroAlloc(t *testing.T) {
	e := NewEngine()
	count := 0
	tick := func() {
		count++
		if count%1024 != 0 {
			e.Rearm(Nanosecond)
		}
	}
	run := func() {
		count = 0
		e.After(Nanosecond, tick)
		e.RunAll()
	}
	run() // warm the slab, free list and wheel buffers
	allocs := testing.AllocsPerRun(20, run)
	if allocs != 0 {
		t.Fatalf("periodic rearm allocates %.1f per 1024-tick run, want 0", allocs)
	}
}

// TestFreshEngineSlotAllocations is the gate on what a short run pays
// for the wheel: every run builds its own engine, so ring slots that
// each grew from nil on first touch cost a thousand allocations per run.
// Three event chains walk a fresh engine through every ring slot ten
// times over, three entries to a bucket; beyond NewEngine's own objects
// that may allocate the drain buffer and little else.
func TestFreshEngineSlotAllocations(t *testing.T) {
	var e *Engine
	var left int
	var step func()
	step = func() {
		if left--; left > 0 {
			e.After(37<<wheelGBits, step) // 37 is odd: the chain visits all 1024 slots
		}
	}
	build := testing.AllocsPerRun(5, func() { e = NewEngine() })
	total := testing.AllocsPerRun(5, func() {
		e = NewEngine()
		left = 10000
		for chain := 0; chain < 3; chain++ {
			e.After(37<<wheelGBits, step)
		}
		if n := e.RunAll(); n != 10002 {
			t.Fatalf("ran %d events, want 10002", n)
		}
	})
	if got := total - build; got > 8 {
		t.Fatalf("10k near-window events on a fresh engine allocate %.0f times (NewEngine itself %.0f), want <= 8", got, build)
	}
}
