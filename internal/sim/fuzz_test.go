package sim

import (
	"container/heap"
	"encoding/binary"
	"testing"
)

// The fuzzer drives the production timer wheel and a deliberately tiny
// wheel (16-tick buckets, 8 slots, so the fuzz inputs constantly cross
// bucket boundaries and overflow into the far heap) through the same
// schedule/rearm/run script decoded from the fuzz input, then demands
// both match a container/heap oracle on firing order, firing times,
// clock, and pending counts, and that neither wheel's cursor ever passes
// the clock (base ≤ now). Chained schedules (callbacks that schedule
// from inside the event loop) exercise slot reuse; self-rearming events
// exercise Engine.Rearm; far-horizon deltas (raw%7==3 scales the delta
// by 2^14) exercise the wheel's overflow heap and the empty-wheel
// fast-forward.

type oracleEvent struct {
	at    Time
	seq   uint64
	id    int
	chain Time // schedule a child this far after firing; 0 = none
	every Time // period of a self-rearming event
	reps  int  // rearms left
}

type oracleHeap []oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(oracleEvent)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// oracle is the reference semantics of Engine built on container/heap.
type oracle struct {
	h      oracleHeap
	now    Time
	seq    uint64
	nextID int
	log    []int  // firing order
	logAt  []Time // firing times
}

func (o *oracle) push(ev oracleEvent) {
	if ev.at < o.now {
		ev.at = o.now
	}
	ev.seq = o.seq
	o.seq++
	heap.Push(&o.h, ev)
}

func (o *oracle) schedule(at Time, chain Time) {
	o.push(oracleEvent{at: at, id: o.nextID, chain: chain})
	o.nextID++
}

// scheduleRearm mirrors rig.scheduleRearm: first firing at now+every,
// then reps more, each every after the last.
func (o *oracle) scheduleRearm(every Time, reps int) {
	o.push(oracleEvent{at: o.now + every, id: o.nextID, every: every, reps: reps})
	o.nextID++
}

// run pops until the horizon (or fully, when all is true).
func (o *oracle) run(until Time, all bool) {
	for o.h.Len() > 0 {
		top := o.h[0]
		if !all && top.at > until {
			return
		}
		heap.Pop(&o.h)
		o.now = top.at
		o.log = append(o.log, top.id)
		o.logAt = append(o.logAt, top.at)
		if top.chain > 0 {
			o.schedule(o.now+top.chain, 0)
		}
		if top.reps > 0 {
			top.at = o.now + top.every
			top.reps--
			o.push(top)
		}
	}
	// Engine.Run advances the clock to the horizon when it drains the
	// heap entirely.
	if !all && o.now < until {
		o.now = until
	}
}

// rig wraps one Engine under differential test with its own firing log,
// so several wheel geometries can replay the same script independently.
type rig struct {
	name   string
	eng    *Engine
	log    []int
	logAt  []Time
	nextID int
}

func newRig(name string, eng *Engine) *rig {
	return &rig{name: name, eng: eng}
}

func (r *rig) mkAct(id int, chain Time) func() {
	return func() {
		r.log = append(r.log, id)
		r.logAt = append(r.logAt, r.eng.Now())
		if chain > 0 {
			cid := r.nextID
			r.nextID++
			r.eng.After(chain, r.mkAct(cid, 0))
		}
	}
}

func (r *rig) schedule(delta, chain Time) {
	id := r.nextID
	r.nextID++
	r.eng.At(r.eng.Now()+delta, r.mkAct(id, chain))
}

// scheduleRearm schedules an event that fires every after now and then
// Rearms itself reps times at the same period.
func (r *rig) scheduleRearm(every Time, reps int) {
	id := r.nextID
	r.nextID++
	r.eng.After(every, func() {
		r.log = append(r.log, id)
		r.logAt = append(r.logAt, r.eng.Now())
		if reps > 0 {
			reps--
			r.eng.Rearm(every)
		}
	})
}

// check fails t unless the rig's clock and queue length match the
// oracle's and its wheel cursor has not passed the clock.
func (r *rig) check(t *testing.T, o *oracle, seed int64, op int) {
	t.Helper()
	if r.eng.Now() != o.now {
		t.Fatalf("seed %d op %d [%s]: Now() = %v, oracle %v", seed, op, r.name, r.eng.Now(), o.now)
	}
	if r.eng.Pending() != o.h.Len() {
		t.Fatalf("seed %d op %d [%s]: Pending() = %d, oracle %d", seed, op, r.name, r.eng.Pending(), o.h.Len())
	}
	if b := r.eng.wheel.base; b > r.eng.Now() {
		t.Fatalf("seed %d op %d [%s]: wheel base %v past Now() %v", seed, op, r.name, b, r.eng.Now())
	}
}

func FuzzEngine(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 0, 5, 0, 2, 20, 0})
	f.Add([]byte{0, 1, 0, 3, 0, 2, 0, 1, 0, 0, 3})
	f.Add([]byte{0, 0, 128, 0, 0, 1, 1, 0, 3, 1, 0})
	f.Add([]byte{0, 4, 0, 7, 2, 255, 255, 0, 4, 0, 0, 1, 1, 3})
	// Window boundary: a far-horizon event (raw%7==3 scales by 2^14)
	// beyond the tiny wheel's window, then near events, then a bounded
	// run crossing the boundary, then drain.
	f.Add([]byte{0, 255, 0, 0, 6, 1, 0, 0, 16, 2, 255, 255, 3})
	// Far then near: a far event, a zero-period one-shot through the
	// rearm op, a drain (fast-forwarding the wheel to the far event),
	// then a near chaining event.
	f.Add([]byte{0, 24, 0, 1, 0, 0, 3, 0, 100, 0, 3})
	// Rearm chains: a 67-tick and a 2060-tick period with 3 rearms
	// each, bounded runs between, then a far period with 4 rearms.
	f.Add([]byte{1, 0x1f, 0x02, 1, 0x63, 0x40, 2, 0xff, 0x7f, 1, 0x7c, 0x00, 2, 0x00, 0x10, 3})
	// Slot stepping: events spread over many buckets, a bounded run
	// that leaves some behind, then a short event behind the cursor.
	f.Add([]byte{0, 16, 0, 0, 32, 0, 0, 64, 0, 0, 128, 0, 2, 64, 0, 0, 8, 0, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		o := &oracle{}
		rigs := []*rig{
			newRig("wheel", NewEngine()),
			// Tiny wheel: 2^4-tick buckets, 2^3 slots — a 128-tick
			// window that the 16-bit deltas overflow constantly.
			newRig("wheel4x3", newEngineWheel(4, 3)),
		}

		u16 := func(i int) uint16 {
			if i+1 < len(data) {
				return binary.LittleEndian.Uint16(data[i:])
			}
			if i < len(data) {
				return uint16(data[i])
			}
			return 0
		}

		lastNow := Time(0)
		ops := 0
		for i := 0; i < len(data) && ops < 256; ops++ {
			op := data[i] % 4
			i++
			switch op {
			case 0: // schedule, possibly in the past, possibly chaining, possibly far
				raw := u16(i)
				i += 2
				delta := Time(int16(raw)) // negative deltas test past-clamping
				if raw%7 == 3 {
					// Far horizon: push past the production wheel's
					// ~4 µs window so the overflow heap and the
					// empty-wheel fast-forward see real traffic.
					delta = Time(raw) << 14
				}
				chain := Time(0)
				if raw%5 == 0 {
					chain = Time(raw%97) + 1
				}
				for _, r := range rigs {
					r.schedule(delta, chain)
				}
				o.schedule(o.now+delta, chain)
			case 1: // self-rearming event: reps 0..4, period up to 8191 ticks or far
				raw := u16(i)
				i += 2
				reps := int(raw % 5)
				every := Time(raw >> 3)
				if raw%11 == 3 {
					every <<= 14
				}
				for _, r := range rigs {
					r.scheduleRearm(every, reps)
				}
				o.scheduleRearm(every, reps)
			case 2: // bounded run
				d := Time(u16(i))
				i += 2
				for _, r := range rigs {
					r.eng.Run(r.eng.Now() + d)
				}
				o.run(o.now+d, false)
			case 3: // drain
				for _, r := range rigs {
					r.eng.RunAll()
				}
				o.run(0, true)
			}

			for _, r := range rigs {
				if r.eng.Now() < lastNow {
					t.Fatalf("op %d [%s]: clock moved backwards %v -> %v", ops, r.name, lastNow, r.eng.Now())
				}
				r.check(t, o, 0, ops)
			}
			lastNow = o.now
		}
		for _, r := range rigs {
			r.eng.RunAll()
		}
		o.run(0, true)

		for _, r := range rigs {
			if r.eng.Pending() != 0 {
				t.Fatalf("[%s] Pending() = %d after drain", r.name, r.eng.Pending())
			}
			if len(r.log) != len(o.log) {
				t.Fatalf("[%s] fired %d events, oracle fired %d", r.name, len(r.log), len(o.log))
			}
			for i := range r.log {
				if r.log[i] != o.log[i] {
					t.Fatalf("[%s] firing order diverges at %d: engine id %d, oracle id %d", r.name, i, r.log[i], o.log[i])
				}
				if r.logAt[i] != o.logAt[i] {
					t.Fatalf("[%s] event %d fired at %v, oracle at %v", r.name, r.log[i], r.logAt[i], o.logAt[i])
				}
			}
			for i := 1; i < len(r.logAt); i++ {
				if r.logAt[i] < r.logAt[i-1] {
					t.Fatalf("[%s] firing times not monotone at %d: %v after %v", r.name, i, r.logAt[i], r.logAt[i-1])
				}
			}
		}
	})
}
