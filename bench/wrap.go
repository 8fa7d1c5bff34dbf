package main

import (
	"time"

	"repro/internal/dist"
	"repro/internal/rpcproto"
	"repro/internal/server"
	"repro/internal/sim"
)

// wrappers are the timing shims of a traced rep, placed on interfaces
// the simulator already accepts: the arrival process, the service
// distributions (bare or per phase) and the application. A nil
// *wrappers passes everything through untouched — that is the untraced
// run — so workloads are written once.
type wrappers struct {
	clock                              time.Duration // clockCost, taken off every call
	arrival, service, prepare, execute timer

	// Sums of the net times in reference time, for the layer table.
	sumArrival, sumService, sumPrepare, sumExecute time.Duration
}

func (w *wrappers) reset() {
	if w != nil {
		w.arrival, w.service, w.prepare, w.execute = timer{}, timer{}, timer{}, timer{}
	}
}

// record closes one run: its accumulated calls become aggregate child
// spans of the run's span (raw time, like every span) and join the
// layer sums (reference time, like every metric).
func (w *wrappers) record(tr *tracer, run int, toRef float64) {
	if w == nil {
		return
	}
	for _, l := range []struct {
		name string
		t    *timer
		sum  *time.Duration
	}{
		{"dist.arrival", &w.arrival, &w.sumArrival},
		{"dist.service", &w.service, &w.sumService},
		{"mica.prepare", &w.prepare, &w.sumPrepare},
		{"mica.execute", &w.execute, &w.sumExecute},
	} {
		d := l.t.net(w.clock)
		*l.sum += inRef(d, toRef)
		tr.aggregate(l.name, run, d, l.t.calls)
	}
}

func (w *wrappers) arrivals(a dist.ArrivalProcess) dist.ArrivalProcess {
	if w == nil {
		return a
	}
	return timedArrivals{a, &w.arrival}
}

func (w *wrappers) dist(s dist.ServiceDist) dist.ServiceDist {
	if w == nil {
		return s
	}
	return timedService{s, &w.service}
}

// profile rebuilds p with every phase's distribution wrapped.
func (w *wrappers) profile(p *dist.PhaseProfile) *dist.PhaseProfile {
	if w == nil {
		return p
	}
	specs := append([]dist.PhaseSpec(nil), p.Phases...)
	for i := range specs {
		specs[i].Dist = timedService{specs[i].Dist, &w.service}
	}
	return dist.NewPhaseProfile(p.Name(), specs...)
}

func (w *wrappers) app(a server.App) server.App {
	if w == nil {
		return a
	}
	return timedApp{a, w}
}

type timedArrivals struct {
	dist.ArrivalProcess
	t *timer
}

func (a timedArrivals) NextGap(r *sim.RNG) sim.Time {
	t0 := now()
	gap := a.ArrivalProcess.NextGap(r)
	a.t.add(now().Sub(t0))
	return gap
}

type timedService struct {
	dist.ServiceDist
	t *timer
}

func (s timedService) Sample(r *sim.RNG) sim.Time {
	t0 := now()
	v := s.ServiceDist.Sample(r)
	s.t.add(now().Sub(t0))
	return v
}

// timedApp times Prepare and chains a timer onto the OnExecute hook the
// application installs, which is where MICA does its real GET/SET/SCAN.
type timedApp struct {
	inner server.App
	w     *wrappers
}

func (a timedApp) Prepare(r *rpcproto.Request, rng *sim.RNG) {
	t0 := now()
	a.inner.Prepare(r, rng)
	a.w.prepare.add(now().Sub(t0))
	if exec := r.OnExecute; exec != nil {
		r.OnExecute = func(r *rpcproto.Request) {
			t0 := now()
			exec(r)
			a.w.execute.add(now().Sub(t0))
		}
	}
}
