package sched

import (
	"testing"

	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// countingObserver records enqueue events.
type countingObserver struct {
	events []int // queue length seen at each enqueue
	queues []int
}

func (o *countingObserver) OnEnqueue(r *rpcproto.Request, q, qlen int) {
	o.events = append(o.events, qlen)
	o.queues = append(o.queues, q)
}

func TestObserversSeeEnqueues(t *testing.T) {
	mk := func(eng *sim.Engine, done Done, obs Observer) []Scheduler {
		rng := sim.NewRNG(5)
		d := NewDFCFS(eng, 2, nic.NewSteerer(nic.SteerConnection, 2, nil), 0, done)
		d.SetObserver(obs)
		st := NewSteal(eng, 2, nic.NewSteerer(nic.SteerConnection, 2, nil), 0, 0, rng, done)
		st.SetObserver(obs)
		c := NewCentral(eng, 2, 0, 0, 0, 0, done)
		c.SetObserver(obs)
		j := NewJBSQ(eng, 2, VariantNebula, 2, 0, 0, 0, 0, done)
		j.SetObserver(obs)
		return []Scheduler{d, st, c, j}
	}
	for idx := 0; idx < 4; idx++ {
		eng := sim.NewEngine()
		obs := &countingObserver{}
		nDone := 0
		ss := mk(eng, func(*rpcproto.Request) { nDone++ }, obs)
		s := ss[idx]
		for i := 0; i < 10; i++ {
			r := &rpcproto.Request{ID: uint64(i), Conn: uint32(i), Service: sim.Microsecond}
			eng.At(sim.Time(i)*100*sim.Nanosecond, func() { s.Deliver(r) })
		}
		eng.RunAll()
		if nDone != 10 {
			t.Fatalf("%s: done %d", s.Name(), nDone)
		}
		if len(obs.events) != 10 {
			t.Fatalf("%s: observer saw %d enqueues", s.Name(), len(obs.events))
		}
	}
}

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

func TestCentralNoDoubleClaim(t *testing.T) {
	// A slow dispatcher must not assign two requests to the same worker
	// while the first dispatch is still in flight.
	h := newHarness(2)
	s := NewCentral(h.eng, 1, 500*sim.Nanosecond, 0, 0, 0, h.done)
	a := &rpcproto.Request{ID: 1, Service: us(1)}
	b := &rpcproto.Request{ID: 2, Service: us(1)}
	h.eng.At(0, func() { s.Deliver(a) })
	h.eng.At(10*sim.Nanosecond, func() { s.Deliver(b) })
	h.eng.RunAll()
	if h.nDone != 2 {
		t.Fatalf("done = %d", h.nDone)
	}
	// Worker is serial: b starts only after a completes plus dispatch.
	if b.Start < a.Finish {
		t.Fatalf("double dispatch: b started %v before a finished %v", b.Start, a.Finish)
	}
}
