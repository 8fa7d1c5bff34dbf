package sched

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// TestCentralIsExactCFCFS pins Central with no dispatch cost and no
// preemption to exact k-server c-FCFS: every Finish equals the
// Kiefer-Wolfowitz recursion over the same arrivals and services, in
// integer picoseconds. A request starts at max(its arrival, the earliest
// time a server frees), and finishes one handoff plus its service later.
func TestCentralIsExactCFCFS(t *testing.T) {
	const n = 4000
	svc := dist.Exponential{M: sim.Microsecond}
	for _, k := range []int{1, 8, 64} {
		for _, handoff := range []sim.Time{0, 5 * sim.Nanosecond, 360 * sim.Nanosecond} {
			t.Run(fmt.Sprintf("k%d-handoff%dns", k, handoff/sim.Nanosecond), func(t *testing.T) {
				eng := sim.NewEngine()
				reqs := make([]*rpcproto.Request, n)
				s := NewCentral(eng, k, 0, handoff, 0, 0, func(r *rpcproto.Request) { reqs[r.ID] = r })
				OpenLoop{
					Arrivals: dist.Poisson{Rate: dist.LoadForRate(0.9, k, svc)},
					Service:  svc,
					N:        n,
					ArrRNG:   sim.NewRNG(uint64(k) + 1),
					SvcRNG:   sim.NewRNG(uint64(k) + 2),
				}.Start(eng, s)
				eng.RunAll()

				free := make([]sim.Time, k) // when each oracle server frees
				waited := 0
				for id, r := range reqs {
					if r == nil {
						t.Fatalf("request %d never completed", id)
					}
					first := 0
					for i := range free {
						if free[i] < free[first] {
							first = i
						}
					}
					start := max(r.Arrival, free[first])
					if start > r.Arrival {
						waited++
					}
					free[first] = start + handoff + r.Service
					if r.Finish != free[first] {
						t.Fatalf("request %d (arrival %d ps, service %d ps) finished at %d ps, c-FCFS gives %d ps",
							id, r.Arrival, r.Service, r.Finish, free[first])
					}
				}
				if waited == 0 {
					t.Fatal("no request queued; the comparison is vacuous")
				}
			})
		}
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
