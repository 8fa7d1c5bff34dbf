package sim

import "math/bits"

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
//   - occ is an occupancy bitmap over slots; advancing the cursor scans
//     it word-wise, so sparse stretches cost O(slots/64) instead of one
//     step per empty bucket. smin tracks each occupied slot's minimum
//     timestamp, which makes peek exact without sorting a slot before
//     its bucket is due.
//   - curq is the cursor bucket's drain buffer: the slot's entries are
//     moved there and sorted by (at, seq) when the cursor lands on the
//     bucket, restoring the global (at, seq) FIFO tie-break order.
//     In-bucket pushes (d < G) insert in order directly.
//
// Invariant: base ≤ now ≤ at on every push. at ≥ now because scheduling
// clamps to now; base ≤ now because base moves only in wpop, to the
// bucket of the event about to fire, and an empty wheel rebases to now's
// bucket. Peek never mutates the cursor, so a Run(until) that stops
// short of the next event cannot strand base past now.
type timerWheel struct {
	gBits    uint // log2 of bucket width in picoseconds
	slotMask int  // len(slots)-1; len(slots) is a power of two
	gsize    Time // bucket width: 1<<gBits
	window   Time // ring horizon: gsize<<slotBits
	base     Time // G-aligned start of the cursor bucket; ≤ every ring entry
	cur      int  // ring index of base's bucket
	slots    [][]int32
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

// slotCap is each ring slot's share of the wheel's one backing array. A
// run builds a fresh engine, and slots that each grew from nil on first
// touch were most of a short run's allocations; four entries hold a
// bucket's usual population, and a slot that overflows its window grows
// a backing array of its own (the cap keeps it out of its neighbour's).
const slotCap = 4

func newWheel(gBits, slotBits uint) *timerWheel {
	n := 1 << slotBits
	w := &timerWheel{
		gBits:    gBits,
		slotMask: n - 1,
		gsize:    Time(1) << gBits,
		window:   Time(1) << (gBits + slotBits),
		slots:    make([][]int32, n),
		smin:     make([]Time, n),
		occ:      make([]uint64, (n+63)/64),
	}
	backing := make([]int32, n*slotCap)
	for s := range w.slots {
		w.slots[s] = backing[s*slotCap : s*slotCap : (s+1)*slotCap]
	}
	return w
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
	w.slots[s] = append(w.slots[s], i) //altolint:allow hotalloc a slot past its slotCap share of the ring backing grows an array of its own, retained
	if w.occ[s>>6]&(1<<uint(s&63)) == 0 {
		w.occ[s>>6] |= 1 << uint(s&63)
		w.smin[s] = at
	} else if at < w.smin[s] {
		w.smin[s] = at
	}
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

// wpop removes and returns the earliest entry. The caller guarantees
// the scheduler is non-empty.
//
//altolint:hotpath
func (e *Engine) wpop() int32 {
	w := e.wheel
	for {
		if w.curHead < len(w.curq) {
			i := w.curq[w.curHead]
			w.curHead++
			w.count--
			if w.curHead == len(w.curq) {
				w.curq = w.curq[:0]
				w.curHead = 0
			}
			return i
		}
		if w.count == 0 {
			// Only far events remain: jump the cursor to the far top's
			// bucket in one step instead of rotating through empty
			// buckets, then migrate the newly in-window band.
			at := e.events[w.far[0]].at
			w.base = at &^ (w.gsize - 1)
			w.cur = w.slotOf(at)
			e.wmigrate()
			continue
		}
		s, steps := w.nextOccupied()
		w.cur = s
		w.base += Time(steps) << w.gBits
		e.wmigrate()
		w.curq = append(w.curq[:0], w.slots[s]...) //altolint:allow hotalloc amortized drain-buffer growth into a retained backing array
		w.slots[s] = w.slots[s][:0]
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
// sorted check runs first; small buckets insertion-sort, large ones
// heapsort. Keys are unique, so the unstable heapsort is still
// deterministic.
//
//altolint:hotpath
func (e *Engine) wsortCur() {
	q := e.wheel.curq
	n := len(q)
	if n < 2 {
		return
	}
	sorted := true
	for k := 1; k < n; k++ {
		if e.entryLess(q[k], q[k-1]) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	if n <= 48 {
		for k := 1; k < n; k++ {
			v := q[k]
			j := k - 1
			for j >= 0 && e.entryLess(v, q[j]) {
				q[j+1] = q[j]
				j--
			}
			q[j+1] = v
		}
		return
	}
	// In-place heapsort: build a max-heap, then swap the max to the
	// shrinking tail.
	for k := n/2 - 1; k >= 0; k-- {
		e.maxSiftDown(q, k, n)
	}
	for end := n - 1; end > 0; end-- {
		q[0], q[end] = q[end], q[0]
		e.maxSiftDown(q, 0, end)
	}
}

func (e *Engine) maxSiftDown(q []int32, i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && e.entryLess(q[largest], q[l]) {
			largest = l
		}
		if r < n && e.entryLess(q[largest], q[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		q[i], q[largest] = q[largest], q[i]
		i = largest
	}
}

// wpeekAt returns the earliest queued timestamp without moving the
// cursor.
//
//altolint:hotpath
func (e *Engine) wpeekAt() (Time, bool) {
	w := e.wheel
	if w.curHead < len(w.curq) {
		return e.events[w.curq[w.curHead]].at, true
	}
	if w.count > 0 {
		s, _ := w.nextOccupied()
		return w.smin[s], true
	}
	if len(w.far) > 0 {
		return e.events[w.far[0]].at, true
	}
	return 0, false
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
