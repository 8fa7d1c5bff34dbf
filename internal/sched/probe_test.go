package sched

import (
	"testing"

	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// nopProbe ignores every event; test probes embed it and override the
// hooks they count.
type nopProbe struct{}

func (nopProbe) OnEnqueue(*rpcproto.Request, int, int)               {}
func (nopProbe) OnRequeue(*rpcproto.Request, int, RequeueCause, int) {}
func (nopProbe) OnDequeue(*rpcproto.Request, int, bool)              {}
func (nopProbe) OnRun(*rpcproto.Request, int)                        {}
func (nopProbe) OnComplete(*rpcproto.Request, int)                   {}
func (nopProbe) OnPreempt(*rpcproto.Request, int)                    {}
func (nopProbe) OnSteal(*rpcproto.Request, int, int)                 {}
func (nopProbe) OnOutstanding(*rpcproto.Request, int, int, int)      {}
func (nopProbe) OnMigrate(int, int, int, int, int, bool)             {}
func (nopProbe) OnPhaseDone(*rpcproto.Request, int)                  {}

// countingProbe records enqueue events and counts preemptions.
type countingProbe struct {
	nopProbe
	events    []int // queue length seen at each enqueue
	queues    []int
	preempted int
}

func (p *countingProbe) OnEnqueue(r *rpcproto.Request, q, qlen int) {
	p.events = append(p.events, qlen)
	p.queues = append(p.queues, q)
}

func (p *countingProbe) OnPreempt(*rpcproto.Request, int) { p.preempted++ }

func TestObserversSeeEnqueues(t *testing.T) {
	mk := func(eng *sim.Engine, done Done) []Scheduler {
		rng := sim.NewRNG(5)
		return []Scheduler{
			NewDFCFS(eng, 2, nic.NewSteerer(nic.SteerConnection, 2, nil), 0, done),
			NewSteal(eng, 2, nic.NewSteerer(nic.SteerConnection, 2, nil), 0, 0, rng, done),
			NewCentral(eng, 2, 0, 0, 0, 0, done),
			NewJBSQ(eng, 2, VariantNebula, 2, 0, 0, 0, 0, done),
			NewRSSPlus(eng, 2, 8, 0, 0, done),
		}
	}
	for idx := 0; idx < 5; idx++ {
		eng := sim.NewEngine()
		probe := &countingProbe{}
		nDone := 0
		s := mk(eng, func(*rpcproto.Request) { nDone++ })[idx]
		s.SetProbe(probe)
		for i := 0; i < 10; i++ {
			r := &rpcproto.Request{ID: uint64(i), Conn: uint32(i), Service: sim.Microsecond}
			eng.At(sim.Time(i)*100*sim.Nanosecond, func() { s.Deliver(r) })
		}
		eng.RunAll()
		if nDone != 10 {
			t.Fatalf("%s: done %d", s.Name(), nDone)
		}
		if len(probe.events) != 10 {
			t.Fatalf("%s: probe saw %d enqueues", s.Name(), len(probe.events))
		}
	}
}
