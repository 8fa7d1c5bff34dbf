package arena

import (
	"testing"

	"repro/internal/rpcproto"
	"repro/internal/sim"
)

func TestAcquireReleaseRoundTrip(t *testing.T) {
	a := New()
	r, id := a.Acquire()
	if r == nil || !id.Valid() {
		t.Fatalf("Acquire returned nil or invalid id")
	}
	if a.Live() != 1 {
		t.Fatalf("Live = %d, want 1", a.Live())
	}
	r.ID = 42
	if got := a.Get(id); got != r || got.ID != 42 {
		t.Fatalf("Get returned %p (ID %d), want %p (ID 42)", got, got.ID, r)
	}
	if !a.Release(id) {
		t.Fatalf("Release of live handle failed")
	}
	if a.Live() != 0 {
		t.Fatalf("Live = %d after release, want 0", a.Live())
	}
	if a.Get(id) != nil {
		t.Fatalf("Get after release returned non-nil")
	}
	if a.Release(id) {
		t.Fatalf("double Release succeeded")
	}
}

func TestStaleHandleAfterReuse(t *testing.T) {
	a := New()
	_, id1 := a.Acquire()
	if !a.Release(id1) {
		t.Fatalf("Release failed")
	}
	r2, id2 := a.Acquire()
	if id2.idx != id1.idx {
		t.Fatalf("slot not recycled: idx %d then %d", id1.idx, id2.idx)
	}
	if id2.gen == id1.gen {
		t.Fatalf("recycled slot reissued with same generation %d", id2.gen)
	}
	if a.Get(id1) != nil {
		t.Fatalf("stale handle resolved to recycled slot")
	}
	if a.Release(id1) {
		t.Fatalf("stale Release succeeded against recycled slot")
	}
	if a.Get(id2) != r2 {
		t.Fatalf("live handle broken by stale operations")
	}
}

func TestZeroAndForeignIDs(t *testing.T) {
	a := New()
	var zero RequestID
	if zero.Valid() {
		t.Fatalf("zero RequestID reports Valid")
	}
	if a.Get(zero) != nil || a.Release(zero) {
		t.Fatalf("zero RequestID accepted")
	}
	for _, id := range []RequestID{
		{idx: -1, gen: 1},
		{idx: 0, gen: 1},    // no slot issued yet
		{idx: 1000, gen: 1}, // beyond the slab
		{idx: 0, gen: 2},    // even generation never names a live slot
	} {
		if a.Get(id) != nil || a.Release(id) {
			t.Fatalf("out-of-range/forged id %+v accepted", id)
		}
	}
}

// TestAcquireZeroesRecycledSlot guards against state leaking between the
// requests that share a slot across recycling.
func TestAcquireZeroesRecycledSlot(t *testing.T) {
	a := New()
	r1, id1 := a.Acquire()
	r1.ID = 7
	r1.Payload = []byte("key")
	r1.OnExecute = func(*rpcproto.Request) {}
	a.Release(id1)
	r2, _ := a.Acquire()
	if r2.ID != 0 || r2.Payload != nil || r2.OnExecute != nil {
		t.Fatalf("recycled slot not zeroed: %+v", r2)
	}
}

// TestArenaProperty drives a random acquire/release schedule against a
// map-based oracle: every live handle must resolve to its request, every
// released handle must be rejected forever after, and Live() must track
// the oracle's count exactly.
func TestArenaProperty(t *testing.T) {
	rng := sim.NewRNG(0xa17e4a)
	a := New()
	type held struct {
		id  RequestID
		ptr *rpcproto.Request
		tag uint64
	}
	var live []held
	var dead []RequestID
	var nextTag uint64
	for op := 0; op < 20000; op++ {
		switch {
		case len(live) == 0 || rng.Bernoulli(0.55):
			r, id := a.Acquire()
			nextTag++
			r.ID = nextTag
			live = append(live, held{id: id, ptr: r, tag: nextTag})
		default:
			k := rng.Intn(len(live))
			h := live[k]
			if !a.Release(h.id) {
				t.Fatalf("op %d: Release of live handle %+v failed", op, h.id)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			dead = append(dead, h.id)
		}
		if a.Live() != len(live) {
			t.Fatalf("op %d: Live = %d, oracle %d", op, a.Live(), len(live))
		}
		// Spot-check a live and a dead handle each step (full sweeps
		// every step would make the test quadratic).
		if len(live) > 0 {
			h := live[rng.Intn(len(live))]
			if got := a.Get(h.id); got != h.ptr || got.ID != h.tag {
				t.Fatalf("op %d: live handle %+v resolved wrongly", op, h.id)
			}
		}
		if len(dead) > 0 {
			id := dead[rng.Intn(len(dead))]
			if a.Get(id) != nil {
				t.Fatalf("op %d: stale handle %+v resolved", op, id)
			}
			if a.Release(id) {
				t.Fatalf("op %d: stale handle %+v released again", op, id)
			}
		}
	}
	// Final full sweep.
	for _, h := range live {
		if got := a.Get(h.id); got != h.ptr || got.ID != h.tag {
			t.Fatalf("final: live handle %+v resolved wrongly", h.id)
		}
	}
	for _, id := range dead {
		if a.Get(id) != nil || a.Release(id) {
			t.Fatalf("final: stale handle %+v accepted", id)
		}
	}
}

// TestPointerStability verifies issued pointers survive arbitrary arena
// growth — the property the chunked slab exists to provide.
func TestPointerStability(t *testing.T) {
	a := New()
	type held struct {
		id  RequestID
		ptr *rpcproto.Request
	}
	var hs []held
	for i := 0; i < 10*chunkSize; i++ {
		r, id := a.Acquire()
		r.ID = uint64(i)
		hs = append(hs, held{id, r})
	}
	for i, h := range hs {
		if got := a.Get(h.id); got != h.ptr {
			t.Fatalf("slot %d moved: %p -> %p", i, h.ptr, got)
		}
		if h.ptr.ID != uint64(i) {
			t.Fatalf("slot %d corrupted: ID %d", i, h.ptr.ID)
		}
	}
}

func BenchmarkArenaAcquireRelease(b *testing.B) {
	a := New()
	// Warm the slab so steady state is measured, not growth.
	var ids [64]RequestID
	for i := range ids {
		_, ids[i] = a.Acquire()
	}
	for i := range ids {
		a.Release(ids[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, id := a.Acquire()
		r.ID = uint64(i)
		a.Release(id)
	}
}

// TestAcquirePhasedSidecar: a phased slot's sidecar arrives zeroed, is
// the slot's own across reuse, is distinct from every other live slot's,
// and a plain Acquire of the same slot carries none.
func TestAcquirePhasedSidecar(t *testing.T) {
	a := New()
	if r, _ := a.Acquire(); r.PhaseVec != nil {
		t.Fatal("plain Acquire attached a sidecar")
	}
	if len(a.phases) != 0 {
		t.Fatal("an arena without phased requests made sidecar chunks")
	}
	const n = chunkSize + 3 // spills into a second chunk
	seen := make(map[*rpcproto.PhaseVec]bool, n)
	ids := make([]RequestID, n)
	vecs := make([]*rpcproto.PhaseVec, n)
	plan := &rpcproto.PhasePlan{}
	for i := range ids {
		var r *rpcproto.Request
		r, ids[i] = a.AcquirePhased()
		if r.PhaseVec == nil || seen[r.PhaseVec] {
			t.Fatalf("slot %d: sidecar %p nil or shared", i, r.PhaseVec)
		}
		seen[r.PhaseVec] = true
		vecs[i] = r.PhaseVec
		r.NumPhases = 2
		r.PhaseSvc[1], r.PhaseEnd[rpcproto.MaxPhases-1], r.Plan = 7, 9, plan
	}
	for i := range ids {
		if !a.Release(ids[i]) {
			t.Fatalf("release %d failed", i)
		}
	}
	// The free list is LIFO: slots come back in reverse, each with the
	// sidecar it had, scrubbed.
	for i := n - 1; i >= 0; i-- {
		r, id := a.AcquirePhased()
		if id.idx != ids[i].idx || r.PhaseVec != vecs[i] {
			t.Fatalf("slot %d came back as slot %d with sidecar %p, want %p", ids[i].idx, id.idx, r.PhaseVec, vecs[i])
		}
		if *r.PhaseVec != (rpcproto.PhaseVec{}) {
			t.Fatalf("slot %d: recycled sidecar not zeroed: %+v", id.idx, *r.PhaseVec)
		}
		ids[i] = id
	}
	a.Release(ids[0])
	if r, _ := a.Acquire(); r.PhaseVec != nil {
		t.Fatal("plain Acquire of a once-phased slot kept its sidecar attached")
	}
}
