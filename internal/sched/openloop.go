package sched

import (
	"repro/internal/dist"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// OpenLoop is an open-loop load generator for a bare Scheduler: N
// requests, request i+1 arriving one Arrivals gap after request i
// whatever is still in flight, each with a service time from Service.
// Request i's draws are, in order, its Conn from ArrRNG (only when
// Conns > 0), its service from SvcRNG, then its gap to request i+1 from
// ArrRNG.
type OpenLoop struct {
	Arrivals dist.ArrivalProcess
	Service  dist.ServiceDist
	N        int
	// Conns > 0 gives each request a connection id drawn uniformly from
	// [0, Conns), for schedulers that steer by connection.
	Conns  int
	ArrRNG *sim.RNG
	SvcRNG *sim.RNG
}

// Start books request 0's arrival at the engine's current time. Each
// arrival stamps r.Arrival, delivers r to s and books the next request,
// so one arrival event is in flight at a time. The caller runs eng.
func (o OpenLoop) Start(eng *sim.Engine, s Scheduler) {
	// The arrival trampoline is bound once; the request rides in the
	// event's arg slot and its gap to the next arrival in n.
	var arrive func(arg any, gap int64)
	book := func(i int, at sim.Time) {
		if i >= o.N {
			return
		}
		r := &rpcproto.Request{ID: uint64(i)}
		if o.Conns > 0 {
			r.Conn = uint32(o.ArrRNG.Intn(o.Conns))
		}
		r.Service = o.Service.Sample(o.SvcRNG)
		eng.AtArg(at, arrive, r, int64(o.Arrivals.NextGap(o.ArrRNG)))
	}
	arrive = func(arg any, gap int64) {
		r := arg.(*rpcproto.Request)
		r.Arrival = eng.Now()
		s.Deliver(r)
		book(int(r.ID)+1, r.Arrival+sim.Time(gap))
	}
	book(0, eng.Now())
}
