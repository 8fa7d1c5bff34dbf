package exec

import (
	"testing"
	"testing/quick"

	"repro/internal/rpcproto"
	"repro/internal/sim"
)

func TestCoreRunToCompletion(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, 0, 0)
	r := &rpcproto.Request{ID: 1, Service: 500 * sim.Nanosecond}
	var doneAt sim.Time
	c.Start(r, 35*sim.Nanosecond, func(r *rpcproto.Request) { doneAt = eng.Now() }, nil)
	if !c.Busy() || c.Current() != r {
		t.Fatal("core should be busy")
	}
	eng.RunAll()
	if doneAt != 535*sim.Nanosecond {
		t.Fatalf("done at %v, want 535ns", doneAt)
	}
	if r.Finish != doneAt || r.Remaining != 0 {
		t.Fatalf("request state: finish=%v remaining=%v", r.Finish, r.Remaining)
	}
	if c.Busy() {
		t.Fatal("core should be idle after completion")
	}
	if c.BusyTime() != 535*sim.Nanosecond {
		t.Fatalf("busy time = %v", c.BusyTime())
	}
}

func TestCorePreemption(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, 0, 0)
	c.Quantum = 5 * sim.Microsecond
	c.PreemptCost = 1 * sim.Microsecond
	r := &rpcproto.Request{ID: 1, Service: 12 * sim.Microsecond}

	var preemptions int
	var done bool
	var onDone, onPreempt func(*rpcproto.Request)
	onDone = func(*rpcproto.Request) { done = true }
	onPreempt = func(r *rpcproto.Request) {
		preemptions++
		c.Start(r, 0, onDone, onPreempt) // immediately resume
	}
	c.Start(r, 0, onDone, onPreempt)
	eng.RunAll()
	if !done {
		t.Fatal("request never completed")
	}
	// 12us service with 5us quantum: two preemptions (5+5+2), each
	// charging 1us: total 14us.
	if preemptions != 2 {
		t.Fatalf("preemptions = %d", preemptions)
	}
	if got := eng.Now(); got != 14*sim.Microsecond {
		t.Fatalf("completion at %v, want 14us", got)
	}
	if r.Finish != 14*sim.Microsecond {
		t.Fatalf("finish = %v", r.Finish)
	}
}

func TestCoreQuantumExactFit(t *testing.T) {
	// Service exactly equal to quantum must not preempt.
	eng := sim.NewEngine()
	c := NewCore(eng, 0, 0)
	c.Quantum = 5 * sim.Microsecond
	c.PreemptCost = 1 * sim.Microsecond
	r := &rpcproto.Request{ID: 1, Service: 5 * sim.Microsecond}
	done := false
	c.Start(r, 0, func(*rpcproto.Request) { done = true },
		func(*rpcproto.Request) { t.Fatal("should not preempt") })
	eng.RunAll()
	if !done || eng.Now() != 5*sim.Microsecond {
		t.Fatalf("done=%v at %v", done, eng.Now())
	}
}

func TestCoreDoubleStartPanics(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, 0, 0)
	r := &rpcproto.Request{Service: sim.Microsecond}
	c.Start(r, 0, func(*rpcproto.Request) {}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double start should panic")
		}
	}()
	c.Start(r, 0, func(*rpcproto.Request) {}, nil)
}

func TestDequeFIFOOrder(t *testing.T) {
	var q Deque
	for i := uint64(0); i < 10; i++ {
		q.PushTail(&rpcproto.Request{ID: i})
	}
	if q.Len() != 10 {
		t.Fatalf("len = %d", q.Len())
	}
	for i := uint64(0); i < 10; i++ {
		r := q.PopHead()
		if r == nil || r.ID != i {
			t.Fatalf("pop %d = %v", i, r)
		}
	}
	if q.PopHead() != nil || q.PopTail() != nil {
		t.Fatal("empty pops should return nil")
	}
}

func TestDequeTailOps(t *testing.T) {
	var q Deque
	for i := uint64(0); i < 5; i++ {
		q.PushTail(&rpcproto.Request{ID: i})
	}
	if q.PeekTail().ID != 4 || q.PeekHead().ID != 0 {
		t.Fatal("peek mismatch")
	}
	if q.PopTail().ID != 4 || q.PopTail().ID != 3 {
		t.Fatal("tail pops out of order")
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
	if q.At(0).ID != 0 || q.At(2).ID != 2 {
		t.Fatal("At mismatch")
	}
}

func TestDequeAtPanics(t *testing.T) {
	var q Deque
	q.PushTail(&rpcproto.Request{})
	for _, i := range []int{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d) should panic", i)
				}
			}()
			q.At(i)
		}()
	}
}

func TestDequeCompaction(t *testing.T) {
	var q Deque
	// Push and pop enough to trigger compaction several times.
	for round := 0; round < 10; round++ {
		for i := 0; i < 100; i++ {
			q.PushTail(&rpcproto.Request{ID: uint64(round*100 + i)})
		}
		for i := 0; i < 100; i++ {
			want := uint64(round*100 + i)
			if r := q.PopHead(); r.ID != want {
				t.Fatalf("compaction broke FIFO: got %d want %d", r.ID, want)
			}
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d", q.Len())
	}
}

// TestDequeDrainedStartsOver: a queue that keeps emptying, as a worker's
// local queue does, must not grow with the requests that passed through
// it. Every run makes its queues anew, so growth here is per-run
// allocation.
func TestDequeDrainedStartsOver(t *testing.T) {
	var q Deque
	r := &rpcproto.Request{}
	for i := 0; i < 1000; i++ {
		q.PushTail(r)
		q.PushTail(r)
		if q.PopHead() != r || q.PopHead() != r || q.PopHead() != nil {
			t.Fatalf("pass %d: queue of two did not pop two", i)
		}
	}
	if c := cap(q.buf); c > 2 {
		t.Fatalf("backing array grew to %d entries for a backlog of 2", c)
	}
}

func TestDequeMixedOpsProperty(t *testing.T) {
	// Property: Deque behaves like a reference slice under a random op
	// sequence of pushTail/popHead/popTail.
	f := func(ops []uint8) bool {
		var q Deque
		var ref []uint64
		next := uint64(0)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				q.PushTail(&rpcproto.Request{ID: next})
				ref = append(ref, next)
				next++
			case 1:
				r := q.PopHead()
				if len(ref) == 0 {
					if r != nil {
						return false
					}
				} else {
					if r == nil || r.ID != ref[0] {
						return false
					}
					ref = ref[1:]
				}
			case 2:
				r := q.PopTail()
				if len(ref) == 0 {
					if r != nil {
						return false
					}
				} else {
					if r == nil || r.ID != ref[len(ref)-1] {
						return false
					}
					ref = ref[:len(ref)-1]
				}
			}
			if q.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
