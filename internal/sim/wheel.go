package sim

import (
	"cmp"
	"math/bits"
	"slices"
)

// timerWheel is the engine's event queue: a single-level
// calendar queue (timer wheel) for the dense near-horizon band, with a
// binary-heap overflow ("far heap") for long-horizon events.
//
// The workload this is tuned for is the simulator's own event mix:
// almost everything — service completions, NoC hops, manager period
// ticks, UPDATE landings — fires within a few microseconds of now,
// while a thin tail (MMPP phase changes, snapshot timers) sits hundreds
// of microseconds out. The wheel gives the dense band O(1) push and
// O(1) amortised pop; the tail pays heap cost but is rare.
//
// Layout:
//
//   - Buckets cover 2^gBits picoseconds each (wheelGBits = 12 → ~4.1 ns),
//     and the ring has 2^slotBits of them (wheelSlotBits = 10 → 1024
//     buckets ≈ 4.2 µs of horizon). A slot's ring index is the bucket
//     number of the absolute timestamp, masked: (at>>gBits)&slotMask —
//     so entries never need rehashing when the cursor moves.
//   - base is the G-aligned start of the cursor's bucket; every entry in
//     the ring satisfies base ≤ at < base+window, so a ring index is
//     unambiguous. Events at or past base+window go to the far heap and
//     migrate in as the cursor advances.
//   - Each slot is an intrusive singly-linked list threaded through the
//     event slab (the calendar-queue layout; the Linux timer wheel's
//     hlist): slots[s] is the slab index of the slot's most recent
//     push and link[i] the entry pushed before i, so filing an entry
//     is two stores and the ring is one int32 per slot. Order within a
//     slot carries no meaning until the slot is drained.
//   - occ is an occupancy bitmap over slots; advancing the cursor scans
//     it word-wise, so sparse stretches cost O(slots/64) instead of one
//     step per empty bucket. smin tracks each occupied slot's minimum
//     timestamp, which tells whether a slot is due without draining it.
//     A slot's head and smin are valid only while its occ bit is set.
//   - curq is the cursor bucket's drain buffer: the slot's list is
//     walked into it, reversed back to push order and sorted by
//     (at, seq) when the cursor lands on the bucket, restoring the
//     global (at, seq) FIFO tie-break order. In-bucket pushes (d < G)
//     insert in order directly.
//
// Invariant: base ≤ now ≤ at on every push. at ≥ now because scheduling
// clamps to now; base ≤ now because base moves only in wnext, and only
// to the bucket of an entry that is due and so fires next; an empty
// wheel rebases to now's bucket. A Run(until) that stops short of the
// next event therefore cannot strand base past now.
type timerWheel struct {
	gBits    uint     // log2 of bucket width in picoseconds
	slotMask int      // len(slots)-1; len(slots) is a power of two
	gsize    Time     // bucket width: 1<<gBits
	window   Time     // ring horizon: gsize<<slotBits
	base     Time     // G-aligned start of the cursor bucket; ≤ every ring entry
	cur      int      // ring index of base's bucket
	slots    []int32  // per-slot list head (slab index), valid while the occ bit is set
	link     []int32  // per-slab-entry next pointer of its slot's list; parallel to Engine.events
	smin     []Time   // per-slot min at, valid while the occ bit is set
	occ      []uint64 // occupancy bitmap over slots
	curq     []int32  // cursor bucket drained in (at, seq) order
	curHead  int      // next undrained index into curq
	count    int      // entries in slots+curq (far excluded)
	far      []int32  // min-heap of slab indices keyed (at, seq), at ≥ base+window
}

// Default geometry: ~4.1 ns buckets, ~4.2 µs near horizon. Service
// times, NoC hops and manager periods are all well inside the window;
// MMPP dwell (~200 µs) and snapshot cadences overflow to the far heap.
const (
	wheelGBits    = 12
	wheelSlotBits = 10
)

// newWheel builds an empty wheel whose link array starts with room for
// slabCap events.
func newWheel(gBits, slotBits uint, slabCap int) *timerWheel {
	n := 1 << slotBits
	return &timerWheel{
		gBits:    gBits,
		slotMask: n - 1,
		gsize:    Time(1) << gBits,
		window:   Time(1) << (gBits + slotBits),
		slots:    make([]int32, n),
		link:     make([]int32, 0, slabCap),
		smin:     make([]Time, n),
		occ:      make([]uint64, (n+63)/64),
	}
}

func (w *timerWheel) slotOf(at Time) int { return int(at>>w.gBits) & w.slotMask }

// entryLess orders slab entries by (at, seq) — the engine's FIFO
// tie-break. seq is unique, so this is a strict total order.
//
//altolint:hotpath
func (e *Engine) entryLess(a, b int32) bool {
	ea, eb := &e.events[a], &e.events[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// wpush routes a slab entry into the cursor bucket, the ring, or the
// far heap.
//
//altolint:hotpath
func (e *Engine) wpush(i int32) {
	w := e.wheel
	at := e.events[i].at
	if w.count == 0 && len(w.far) == 0 {
		// Empty scheduler: rebase to now so a long event-free stretch
		// (Run past the horizon) cannot strand the window behind now
		// and spill near events into the far heap.
		w.base = e.now &^ (w.gsize - 1)
		w.cur = w.slotOf(e.now)
	}
	d := at - w.base // ≥ 0: base ≤ now ≤ at
	if d >= w.window {
		e.farPush(i)
		return
	}
	e.wplace(i, at, d)
}

// wplace files an in-window entry (0 ≤ d < window) into the cursor
// drain buffer or its ring slot.
//
//altolint:hotpath
func (e *Engine) wplace(i int32, at, d Time) {
	w := e.wheel
	if d < w.gsize {
		e.winsertCur(i)
		w.count++
		return
	}
	s := w.slotOf(at)
	if bit := uint64(1) << uint(s&63); w.occ[s>>6]&bit == 0 {
		w.occ[s>>6] |= bit
		w.smin[s] = at
		w.link[i] = -1
	} else {
		if at < w.smin[s] {
			w.smin[s] = at
		}
		w.link[i] = w.slots[s]
	}
	w.slots[s] = i
	w.count++
}

// winsertCur inserts an entry into the cursor drain buffer, keeping
// curq[curHead:] sorted by (at, seq). The common case — seq rises
// monotonically and same-instant events arrive in FIFO order — is an
// O(1) append after a single tail comparison.
//
//altolint:hotpath
func (e *Engine) winsertCur(i int32) {
	w := e.wheel
	q := w.curq
	if w.curHead == len(q) {
		q = q[:0]
		w.curHead = 0
	}
	if len(q) == w.curHead || !e.entryLess(i, q[len(q)-1]) {
		w.curq = append(q, i) //altolint:allow hotalloc amortized drain-buffer growth into a retained backing array
		return
	}
	lo, hi := w.curHead, len(q)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.entryLess(q[mid], i) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q = append(q, i) //altolint:allow hotalloc amortized drain-buffer growth into a retained backing array
	copy(q[lo+1:], q[lo:])
	q[lo] = i
	w.curq = q
}

// wnext removes and returns the earliest entry if it is due (at ≤
// until); otherwise, or on an empty queue, it reports false and leaves
// the queue as it was. One bitmap scan serves both the due check and the
// pop, and the cursor moves only to the bucket of an entry that is
// returned next.
//
//altolint:hotpath
func (e *Engine) wnext(until Time) (int32, bool) {
	w := e.wheel
	for {
		if w.curHead < len(w.curq) {
			i := w.curq[w.curHead]
			if e.events[i].at > until {
				return -1, false
			}
			w.curHead++
			w.count--
			if w.curHead == len(w.curq) {
				w.curq = w.curq[:0]
				w.curHead = 0
			}
			return i, true
		}
		if w.count == 0 {
			// Only far events remain: jump the cursor to the far top's
			// bucket in one step instead of rotating through empty
			// buckets, then migrate the newly in-window band.
			if len(w.far) == 0 || e.events[w.far[0]].at > until {
				return -1, false
			}
			at := e.events[w.far[0]].at
			w.base = at &^ (w.gsize - 1)
			w.cur = w.slotOf(at)
			e.wmigrate()
			continue
		}
		s, steps := w.nextOccupied()
		if w.smin[s] > until {
			return -1, false
		}
		w.cur = s
		w.base += Time(steps) << w.gBits
		e.wmigrate()
		// The list runs newest first; reversed, it is in push order,
		// which is usually (at, seq) order already.
		q := w.curq[:0]
		for i := w.slots[s]; i >= 0; i = w.link[i] {
			q = append(q, i) //altolint:allow hotalloc amortized drain-buffer growth into a retained backing array
		}
		slices.Reverse(q)
		w.curq = q
		w.occ[s>>6] &^= 1 << uint(s&63)
		w.curHead = 0
		e.wsortCur()
	}
}

// nextOccupied scans the occupancy bitmap for the first occupied slot
// strictly after the cursor (ring order) and returns it with its
// forward distance. The caller guarantees count > 0.
//
//altolint:hotpath
func (w *timerWheel) nextOccupied() (slot, steps int) {
	start := (w.cur + 1) & w.slotMask
	word := start >> 6
	m := w.occ[word] >> uint(start&63) << uint(start&63)
	for {
		if m != 0 {
			s := word<<6 + bits.TrailingZeros64(m)
			return s, (s - w.cur + w.slotMask + 1) & w.slotMask
		}
		word++
		if word == len(w.occ) {
			word = 0
		}
		m = w.occ[word]
	}
}

// wmigrate pulls far-heap entries that the advanced window now covers
// into the ring. Far entries satisfy at ≥ base_prev+window, so after
// any forward base move d = at-base stays non-negative.
//
//altolint:hotpath
func (e *Engine) wmigrate() {
	w := e.wheel
	limit := w.base + w.window
	for len(w.far) > 0 {
		i := w.far[0]
		at := e.events[i].at
		if at >= limit {
			return
		}
		e.farPopTop()
		e.wplace(i, at, at-w.base)
	}
}

// wsortCur sorts the freshly loaded drain buffer by (at, seq). Buckets
// usually fill in FIFO order (seq rises with push time), so an O(n)
// sorted check runs first; small buckets insertion-sort, large ones go
// to the library sort. Keys are unique, so the unstable sort is still
// deterministic.
//
//altolint:hotpath
func (e *Engine) wsortCur() {
	q := e.wheel.curq
	k := 1
	for k < len(q) && !e.entryLess(q[k], q[k-1]) {
		k++
	}
	if k >= len(q) {
		return
	}
	if len(q) > 48 {
		slices.SortFunc(q, func(a, b int32) int { //altolint:allow hotalloc SortFunc only calls the literal, so it does not escape and is stack-allocated
			ea, eb := &e.events[a], &e.events[b]
			if c := cmp.Compare(ea.at, eb.at); c != 0 {
				return c
			}
			return cmp.Compare(ea.seq, eb.seq)
		})
		return
	}
	// q[:k] is sorted; insert the rest.
	for ; k < len(q); k++ {
		v := q[k]
		j := k - 1
		for j >= 0 && e.entryLess(v, q[j]) {
			q[j+1] = q[j]
			j--
		}
		q[j+1] = v
	}
}

// wlen counts queued entries.
func (e *Engine) wlen() int { return e.wheel.count + len(e.wheel.far) }

// Far heap: a classic binary min-heap of slab indices keyed (at, seq),
// holding everything at or beyond base+window.

//altolint:hotpath
func (e *Engine) farPush(i int32) {
	w := e.wheel
	w.far = append(w.far, i) //altolint:allow hotalloc amortized far-heap growth into a retained backing array
	j := len(w.far) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !e.entryLess(w.far[j], w.far[parent]) {
			break
		}
		w.far[j], w.far[parent] = w.far[parent], w.far[j]
		j = parent
	}
}

//altolint:hotpath
func (e *Engine) farPopTop() {
	w := e.wheel
	h := w.far
	last := len(h) - 1
	h[0] = h[last]
	w.far = h[:last]
	e.farSiftDown(0)
}

//altolint:hotpath
func (e *Engine) farSiftDown(i int) {
	h := e.wheel.far
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && e.entryLess(h[l], h[smallest]) {
			smallest = l
		}
		if r < len(h) && e.entryLess(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
