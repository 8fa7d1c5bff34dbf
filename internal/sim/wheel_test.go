package sim

import (
	"math/rand"
	"testing"
)

// TestEngineWheelRandomEquivalence is the randomized wheel-vs-oracle
// equivalence property test: the production wheel and a tiny wheel
// replay identical random scripts (near, far, past and chained
// schedules; self-rearming events; bounded runs; drains) and must agree
// with the container/heap oracle of fuzz_test.go on the clock, the
// pending count and the complete firing log, with each wheel's cursor
// never past the clock.
func TestEngineWheelRandomEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := &oracle{}
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
			case k < 7: // self-rearming event, near or far period
				every := Time(rng.Intn(1 << 13))
				if rng.Intn(4) == 0 {
					every += Time(1) << (wheelGBits + wheelSlotBits)
				}
				reps := rng.Intn(5)
				for _, r := range rigs {
					r.scheduleRearm(every, reps)
				}
				ref.scheduleRearm(every, reps)
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
				r.check(t, ref, seed, op)
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

// TestEngineWheelBoundary drives a tiny wheel (16-tick buckets, 8
// slots, 128-tick window) through the exact window boundary and the
// empty-wheel rebase, which anchors the window at now's bucket rather
// than at the first push's.
func TestEngineWheelBoundary(t *testing.T) {
	t.Run("window-edge", func(t *testing.T) {
		e := newEngineWheel(4, 3)
		var at []Time
		mk := func() func() {
			return func() { at = append(at, e.Now()) }
		}
		// With base anchored at now = 0 by the first push, 127 is the
		// last in-window tick and 128 the first far one.
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

	t.Run("push-behind-first-push", func(t *testing.T) {
		e := newEngineWheel(4, 3)
		var at []Time
		mk := func() func() {
			return func() { at = append(at, e.Now()) }
		}
		// An idle Run parks the clock at 1000. The first push, at 1100,
		// rebases the empty wheel to now's bucket (992), not its own
		// (1088), so a second push behind it at 1010 lands in the same
		// window [992, 1120) and nothing spills to the far heap.
		e.Run(1000)
		e.At(1100, mk())
		e.At(1010, mk())
		if e.wheel.base != 992 {
			t.Fatalf("base = %v, want 992 (now's bucket)", e.wheel.base)
		}
		if len(e.wheel.far) != 0 || e.wheel.count != 2 {
			t.Fatalf("ring holds %d and far heap %d entries, want 2 and 0", e.wheel.count, len(e.wheel.far))
		}
		e.RunAll()
		want := []Time{1010, 1100}
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
// callback, panic on double-Rearm, and one more firing per Rearm.
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

	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", e.Pending())
	}
}

// nopEvent is a package-level no-op so zero-alloc gates measure the
// scheduler, not closure construction.
func nopEvent() {}

// TestEngineCrowdedBucketOrder fills one ring bucket with more entries
// than the drain's insertion sort takes, pushed latest first and with
// ties, so the drain has to fall back to the full sort; they must
// still fire in (at, seq) order.
func TestEngineCrowdedBucketOrder(t *testing.T) {
	e := NewEngine()
	base := Time(7) << wheelGBits // a ring slot ahead of the cursor
	var got []int
	const n = 100
	for k := 0; k < n; k++ {
		e.AtArg(base+Time(n-1-k)/2*30, func(any, int64) { got = append(got, k) }, nil, 0)
	}
	if ran := e.RunAll(); ran != n {
		t.Fatalf("ran %d events, want %d", ran, n)
	}
	for i := 1; i < n; i++ {
		a, b := got[i-1], got[i]
		ta, tb := Time(n-1-a)/2, Time(n-1-b)/2
		if ta > tb || (ta == tb && a > b) {
			t.Fatalf("fired %d before %d: not in (at, seq) order", a, b)
		}
	}
}

// TestEngineWheelZeroAlloc is the hard gate on the wheel's push/pop
// steady state: after warmup has grown every retained backing array
// (slab and its slot links, drain buffer, far heap, free list), a
// schedule/run cycle spanning the bucket, ring and far bands must not
// allocate.
func TestEngineWheelZeroAlloc(t *testing.T) {
	e := NewEngine()
	warm := func() {
		// One event per ring bucket plus a far band, then drain: the
		// slab and its links grow, and curq and far get first-touched.
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
// times over, three entries to a bucket. The slot lists live in the
// slab, so beyond NewEngine's own objects the run allocates exactly
// the drain buffer's two growths to its three-entry bucket.
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
	if got := total - build; got != 2 {
		t.Fatalf("10k near-window events on a fresh engine allocate %.0f times (NewEngine itself %.0f), want 2", got, build)
	}
}
