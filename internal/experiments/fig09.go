package experiments

import (
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fabric"
	"repro/internal/nic"
	"repro/internal/report"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "fig09",
		Title: "Temporal load imbalance across 4 NetRX queues by steering policy",
		Paper: "Fig. 9",
		Run:   runFig09,
	})
}

// runFig09 reproduces the imbalance snapshot: a 256-core system split
// into 4 groups of 64, fed by connection / random / round-robin steering
// with migration disabled, snapshotting the four NetRX lengths at the
// moment the 10th SLO-violating request completes. Connection steering
// yields a Hill-like peak, random a Pairing-like gradient, round-robin a
// milder Valley-like dip — the shapes that motivate the pattern
// classifier of §VI.
func runFig09(scale Scale, seed uint64) ([]report.Table, error) {
	t := report.Table{
		ID:    "fig09",
		Title: "NetRX queue lengths at the 10th SLO violation (4x64-core groups, load ~0.98)",
		Cols:  []string{"policy", "q0", "q1", "q2", "q3", "max-min"},
	}
	// Duration-sized: near-saturation queues need hundreds of
	// microseconds to develop imbalance.
	n := scale.nForDuration(250e6, 600*sim.Microsecond, 4*sim.Millisecond)
	policies := []nic.SteerPolicy{nic.SteerConnection, nic.SteerRandom, nic.SteerRoundRobin}
	for _, pol := range policies {
		lens, err := fig09Snapshot(pol, n, seed)
		if err != nil {
			return nil, err
		}
		maxv, minv := lens[0], lens[0]
		for _, v := range lens {
			if v > maxv {
				maxv = v
			}
			if v < minv {
				minv = v
			}
		}
		t.AddRow(pol.String(), lens[0], lens[1], lens[2], lens[3], maxv-minv)
	}
	t.Notes = append(t.Notes,
		"paper: connection steering shows the largest skew (Hill), random a gradient (Pairing), RR the smallest (Valley)")
	return []report.Table{t}, nil
}

func fig09Snapshot(pol nic.SteerPolicy, n int, seed uint64) ([]int, error) {
	eng := sim.NewEngine()
	p := core.DefaultParams(4, 63)
	p.DisableMigration = true
	// Only the queue-length marking matters here; a long period keeps the
	// idle tick load negligible.
	p.Period = 10 * sim.Microsecond
	root := sim.NewRNG(seed)
	steer := nic.NewSteerer(pol, 4, root.Fork(3))
	svc := dist.Exponential{M: sim.Microsecond}
	slo := sim.Time(10 * float64(svc.Mean()))

	var snapshot []int
	violations, nDone := 0, 0
	var s *core.Scheduler
	done := func(r *rpcproto.Request) {
		nDone++
		if r.Latency() > slo {
			violations++
			if violations == 10 && snapshot == nil {
				snapshot = s.QueueLensInto(nil)
			}
		}
	}
	s, err := core.New(eng, p, fabric.Default(), steer, done)
	if err != nil {
		return nil, err
	}

	arr := root.Fork(1)
	svcRNG := root.Fork(2)
	rate := dist.LoadForRate(0.995, 4*63, svc)
	var schedule func(i int, at sim.Time)
	schedule = func(i int, at sim.Time) {
		if i >= n {
			return
		}
		r := &rpcproto.Request{ID: uint64(i), Conn: uint32(arr.Intn(64)), Service: svc.Sample(svcRNG)}
		gap := dist.Poisson{Rate: rate}.NextGap(arr)
		eng.At(at, func() {
			r.Arrival = eng.Now()
			s.Deliver(r)
			schedule(i+1, eng.Now()+gap)
		})
	}
	schedule(0, 0)
	for snapshot == nil && nDone < n {
		eng.Run(eng.Now() + sim.Millisecond)
	}
	s.Stop()
	if snapshot == nil {
		// Fewer than 10 violations in the whole run: report the final
		// queue state instead (still shows the policy's skew).
		snapshot = s.QueueLensInto(nil)
	}
	return snapshot, nil
}
