package sched

import (
	"testing"

	"repro/internal/rpcproto"
	"repro/internal/sim"
)

func TestJBSQEngineSerialization(t *testing.T) {
	// With a 100ns engine cost, 4 simultaneous arrivals on 4 idle cores
	// start 100ns apart: the central engine is a serial resource.
	h := newHarness(4)
	s := NewJBSQ(h.eng, 4, VariantNebula, 2, 0, 100*sim.Nanosecond, 0, 0, h.done)
	reqs := make([]*rpcproto.Request, 4)
	for i := range reqs {
		reqs[i] = &rpcproto.Request{ID: uint64(i), Service: us(1)}
		r := reqs[i]
		h.eng.At(0, func() { s.Deliver(r) })
	}
	h.eng.RunAll()
	if h.nDone != 4 {
		t.Fatalf("done = %d", h.nDone)
	}
	for i, r := range reqs {
		want := sim.Time(i+1)*100*sim.Nanosecond + us(1)
		if r.Finish != want {
			t.Fatalf("req %d finished at %v, want %v", i, r.Finish, want)
		}
	}
}

func TestJBSQRoundRobinTieBreak(t *testing.T) {
	// Sequential arrivals to idle cores spread round-robin rather than
	// piling onto core 0.
	h := newHarness(4)
	s := NewJBSQ(h.eng, 4, VariantNebula, 2, 0, 0, 0, 0, h.done)
	targets := map[int]bool{}
	for i := 0; i < 4; i++ {
		r := &rpcproto.Request{ID: uint64(i), Service: us(100)}
		h.eng.At(sim.Time(i)*sim.Nanosecond, func() {
			s.Deliver(r)
			// All cores idle at each arrival: the pick must rotate.
			q := s.QueueLensInto(nil)
			for c, p := range q[1:] {
				if p > 0 {
					targets[c] = true
				}
			}
		})
	}
	h.eng.RunAll()
	if len(targets) != 4 {
		t.Fatalf("pushes did not rotate across cores: %v", targets)
	}
}
