package hwmsg

import (
	"testing"
	"testing/quick"

	"repro/internal/rpcproto"
	"repro/internal/sim"
)

func descs(n int) []rpcproto.Descriptor {
	out := make([]rpcproto.Descriptor, n)
	for i := range out {
		out[i] = rpcproto.Descriptor{Ptr: uint64(i)}
	}
	return out
}

func TestMigrateWireSize(t *testing.T) {
	m := &Migrate{Descs: descs(10)}
	// Header 16B + 10 descriptors x 14B = 156B.
	if got := m.WireSize(); got != 156 {
		t.Fatalf("wire size = %d", got)
	}
}

func TestFIFOCapacityAndOrder(t *testing.T) {
	f := NewFIFO(16)
	if f.Capacity() != 16 || f.Free() != 16 {
		t.Fatal("initial state")
	}
	a := &Migrate{SrcMid: 1, Descs: descs(10)}
	b := &Migrate{SrcMid: 2, Descs: descs(6)}
	if err := f.Push(a); err != nil {
		t.Fatal(err)
	}
	if err := f.Push(b); err != nil {
		t.Fatal(err)
	}
	if f.Free() != 0 || f.Used() != 16 || f.Len() != 2 {
		t.Fatalf("state: free=%d used=%d len=%d", f.Free(), f.Used(), f.Len())
	}
	// Third batch of any size must be rejected.
	if err := f.Push(&Migrate{Descs: descs(1)}); err != ErrFull {
		t.Fatalf("overflow push: %v", err)
	}
	// FIFO order.
	if got := f.Pop(); got != a {
		t.Fatal("pop order")
	}
	if got := f.Pop(); got != b {
		t.Fatal("pop order 2")
	}
	if f.Pop() != nil {
		t.Fatal("empty pop")
	}
	if f.Used() != 0 {
		t.Fatalf("used = %d after drain", f.Used())
	}
}

func TestFIFOAtomicAdmission(t *testing.T) {
	f := NewFIFO(8)
	if err := f.Push(&Migrate{Descs: descs(5)}); err != nil {
		t.Fatal(err)
	}
	// A 4-descriptor batch does not fit (3 free): must not be partially
	// admitted.
	if err := f.Push(&Migrate{Descs: descs(4)}); err != ErrFull {
		t.Fatalf("expected ErrFull, got %v", err)
	}
	if f.Used() != 5 {
		t.Fatalf("partial admission: used=%d", f.Used())
	}
}

func TestFIFOConservation(t *testing.T) {
	// Property: used == sum of queued batch sizes under random push/pop.
	f := func(ops []uint8) bool {
		fifo := NewFIFO(16)
		queued := 0
		for _, op := range ops {
			if op%2 == 0 {
				n := int(op%5) + 1
				err := fifo.Push(&Migrate{Descs: descs(n)})
				if err == nil {
					queued += n
				} else if n <= 16-queued {
					return false // spurious rejection
				}
			} else {
				m := fifo.Pop()
				if m != nil {
					queued -= m.Entries()
				}
			}
			if fifo.Used() != queued || fifo.Free() != 16-queued {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFIFORingWrapAround drives four capacities' worth of batches
// through the fixed ring, so head and tail wrap several times, at
// changing occupancy and batch sizes.
func TestFIFORingWrapAround(t *testing.T) {
	const capacity = 5
	f := NewFIFO(capacity)
	var queued []*Migrate // the model: batches in order
	used := 0
	check := func(when string) {
		t.Helper()
		if f.Len() != len(queued) || f.Used() != used || f.Free() != capacity-used {
			t.Fatalf("%s: len %d used %d free %d, want %d/%d/%d", when, f.Len(), f.Used(), f.Free(), len(queued), used, capacity-used)
		}
	}
	pushed := 0
	for i := 0; pushed < 4*capacity; i++ {
		// Fill to the brim with batches of 1 or 2, then drain one or two.
		for {
			m := &Migrate{SrcMid: pushed, Descs: descs(1 + (i+pushed)%2)}
			if err := f.Push(m); err != nil {
				if err != ErrFull || len(m.Descs) <= f.Free() {
					t.Fatalf("push of %d entries with %d free: %v", len(m.Descs), f.Free(), err)
				}
				break
			}
			queued = append(queued, m)
			used += len(m.Descs)
			pushed++
			check("after push")
		}
		for n := 0; n <= i%2 && len(queued) > 0; n++ {
			if got := f.Pop(); got != queued[0] {
				t.Fatalf("pop returned batch %v, want %d", got, queued[0].SrcMid)
			}
			used -= len(queued[0].Descs)
			queued = queued[1:]
			check("after pop")
		}
	}
	for len(queued) > 0 {
		if got := f.Pop(); got != queued[0] {
			t.Fatalf("draining: pop returned batch %v, want %d", got, queued[0].SrcMid)
		}
		used -= len(queued[0].Descs)
		queued = queued[1:]
		check("draining")
	}
	if f.Pop() != nil {
		t.Fatal("pop from the drained ring")
	}
	// capacity 1-entry batches fill every ring position; the next is refused.
	for i := 0; i < capacity; i++ {
		if err := f.Push(&Migrate{Descs: descs(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Push(&Migrate{Descs: descs(1)}); err != ErrFull {
		t.Fatalf("push into a full ring: %v", err)
	}
	if err := f.Push(&Migrate{}); err != ErrFull {
		t.Fatalf("empty batch into a ring with no position left: %v", err)
	}
}

func TestMRFile(t *testing.T) {
	mr := NewMRFile(11) // the paper's E[Nq]-derived sizing
	if mr.Capacity() != 11 || mr.Free() != 11 {
		t.Fatal("initial")
	}
	if err := mr.Stage(descs(8)); err != nil {
		t.Fatal(err)
	}
	if err := mr.Stage(descs(4)); err != ErrFull {
		t.Fatalf("overflow stage: %v", err)
	}
	if mr.Used() != 8 {
		t.Fatalf("partial stage: %d", mr.Used())
	}
	mr.Invalidate(3)
	if mr.Used() != 5 || mr.Free() != 6 {
		t.Fatalf("after invalidate: used=%d", mr.Used())
	}
	mr.Invalidate(100) // over-invalidate clamps
	if mr.Used() != 0 {
		t.Fatalf("clamped invalidate: %d", mr.Used())
	}
}

func TestParamRegs(t *testing.T) {
	var pr ParamRegs
	pr.Configure(200*sim.Nanosecond, 16, 8)
	if pr.Period != 200*sim.Nanosecond || pr.Bulk != 16 || pr.Concurrency != 8 {
		t.Fatalf("configure: %+v", pr)
	}
	if got := pr.BatchSize(); got != 2 {
		t.Fatalf("S = %d, want Bulk/Concurrency = 2", got)
	}
	pr.Configure(200*sim.Nanosecond, 4, 8)
	if got := pr.BatchSize(); got != 1 {
		t.Fatalf("S = %d, want floor of 1", got)
	}
	pr.Concurrency = 0
	if got := pr.BatchSize(); got != 4 {
		t.Fatalf("S with zero concurrency = %d", got)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	want := map[MsgType]string{
		MsgPredictConfig: "PREDICT_CONFIG",
		MsgMigrate:       "MIGRATE",
		MsgUpdate:        "UPDATE",
		MsgAck:           "ACK",
		MsgNack:          "NACK",
	}
	for k, v := range want {
		if k.String() != v {
			t.Fatalf("%d = %q", k, k.String())
		}
	}
}
