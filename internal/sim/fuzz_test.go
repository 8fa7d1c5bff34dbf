package sim

import (
	"container/heap"
	"encoding/binary"
	"testing"
)

// The fuzzer drives the production timer wheel and a deliberately tiny
// wheel (16-tick buckets, 8 slots, so the fuzz inputs constantly cross
// bucket boundaries and overflow into the far heap) through the same
// schedule/cancel/run script decoded from the fuzz input, then demands
// both match a container/heap oracle on firing order, firing times,
// clock, and pending counts. Chained
// schedules (callbacks that schedule from inside the event loop)
// exercise the release-before-run slot reuse; cancels of stale ids
// exercise the generation guard; far-horizon deltas (raw%7==3 scales
// the delta by 2^14) exercise the wheel's overflow heap and the
// empty-wheel fast-forward.

type oracleEvent struct {
	at    Time
	seq   uint64
	id    int
	chain Time // schedule a child this far after firing; 0 = none
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
// Cancelled events stay in the heap as dead entries (as in the engine)
// because they are observable: Run only advances the clock to its
// horizon when the heap — dead entries included — is empty, and the
// engine compacts dead entries away only when they outnumber live ones.
type oracle struct {
	h         oracleHeap
	now       Time
	seq       uint64
	nextID    int
	cancelled map[int]bool
	fired     map[int]bool
	pending   int
	log       []int  // firing order
	logAt     []Time // firing times
}

func newOracle() *oracle {
	return &oracle{cancelled: map[int]bool{}, fired: map[int]bool{}}
}

func (o *oracle) schedule(at Time, chain Time) int {
	if at < o.now {
		at = o.now
	}
	id := o.nextID
	o.nextID++
	heap.Push(&o.h, oracleEvent{at: at, seq: o.seq, id: id, chain: chain})
	o.seq++
	o.pending++
	return id
}

func (o *oracle) cancel(id int) {
	if o.fired[id] || o.cancelled[id] {
		return
	}
	o.cancelled[id] = true
	o.pending--
	// Mirror Engine.Cancel's compaction trigger: once dead entries
	// outnumber live ones, they are swept from the heap.
	if n := o.h.Len(); n > 1 && n-o.pending > n/2 {
		kept := o.h[:0]
		for _, ev := range o.h {
			if !o.cancelled[ev.id] {
				kept = append(kept, ev)
			}
		}
		o.h = kept
		heap.Init(&o.h)
	}
}

// run pops until the horizon (or fully, when all is true).
func (o *oracle) run(until Time, all bool) {
	for o.h.Len() > 0 {
		top := o.h[0]
		if !all && top.at > until {
			return
		}
		heap.Pop(&o.h)
		if o.cancelled[top.id] {
			continue
		}
		o.pending--
		o.now = top.at
		o.fired[top.id] = true
		o.log = append(o.log, top.id)
		o.logAt = append(o.logAt, top.at)
		if top.chain > 0 {
			o.schedule(o.now+top.chain, 0)
		}
	}
	// Engine.Run advances the clock to the horizon when it drains the
	// heap entirely (dead entries block this, hence the check above).
	if !all && o.now < until {
		o.now = until
	}
}

// rig wraps one Engine under differential test with its own firing log
// and id table, so several wheel geometries can replay the same script
// independently.
type rig struct {
	name   string
	eng    *Engine
	log    []int
	logAt  []Time
	ids    map[int]EventID
	nextID int
}

func newRig(name string, eng *Engine) *rig {
	return &rig{name: name, eng: eng, ids: map[int]EventID{}}
}

func (r *rig) mkAct(id int, chain Time) func() {
	return func() {
		r.log = append(r.log, id)
		r.logAt = append(r.logAt, r.eng.Now())
		if chain > 0 {
			cid := r.nextID
			r.nextID++
			r.ids[cid] = r.eng.After(chain, r.mkAct(cid, 0))
		}
	}
}

func (r *rig) schedule(delta, chain Time) {
	id := r.nextID
	r.nextID++
	r.ids[id] = r.eng.At(r.eng.Now()+delta, r.mkAct(id, chain))
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
	// Dead-far rewind: schedule a far event, cancel it, drain (pops the
	// dead entry, fast-forwarding the wheel), then schedule near again.
	f.Add([]byte{0, 24, 0, 1, 0, 0, 3, 0, 100, 0, 3})
	// Slot stepping: events spread over many buckets, a bounded run
	// that leaves some behind, then a short event behind the cursor.
	f.Add([]byte{0, 16, 0, 0, 32, 0, 0, 64, 0, 0, 128, 0, 2, 64, 0, 0, 8, 0, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		o := newOracle()
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
			case 1: // cancel an arbitrary id (maybe fired/cancelled already)
				if o.nextID > 0 {
					k := int(u16(i)) % o.nextID
					i += 2
					for _, r := range rigs {
						r.ids[k].Cancel()
					}
					o.cancel(k)
					// Double cancel must be a no-op.
					if k%3 == 0 {
						for _, r := range rigs {
							r.ids[k].Cancel()
						}
						o.cancel(k)
					}
				} else {
					i += 2
				}
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
				if r.eng.Now() != o.now {
					t.Fatalf("op %d [%s]: Now() = %v, oracle %v", ops, r.name, r.eng.Now(), o.now)
				}
				if r.eng.Pending() != o.pending {
					t.Fatalf("op %d [%s]: Pending() = %d, oracle %d", ops, r.name, r.eng.Pending(), o.pending)
				}
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
