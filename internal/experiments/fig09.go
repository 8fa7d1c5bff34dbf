package experiments

import (
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fabric"
	"repro/internal/nic"
	"repro/internal/report"
	"repro/internal/rpcproto"
	"repro/internal/sched"
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

// fig09Snapshot runs the workload to its last completion under the
// invariant checker and returns the NetRX lengths the 10th SLO-violating
// completion saw.
func fig09Snapshot(pol nic.SteerPolicy, n int, seed uint64) ([]int, error) {
	p := core.DefaultParams(4, 63)
	p.DisableMigration = true
	// Only the queue-length marking matters here; a long period keeps the
	// idle tick load negligible.
	p.Period = 10 * sim.Microsecond
	root := sim.NewRNG(seed)
	steerRNG := root.Fork(3)
	svc := dist.Exponential{M: sim.Microsecond}
	slo := sim.Time(10 * float64(svc.Mean()))

	var s *core.Scheduler
	var snapshot []int
	violations := 0
	_, err := check.RunOpenLoop(sched.OpenLoop{
		Arrivals: dist.Poisson{Rate: dist.LoadForRate(0.995, 4*63, svc)},
		Service:  svc,
		N:        n,
		Conns:    64,
		ArrRNG:   root.Fork(1),
		SvcRNG:   root.Fork(2),
	}, func(r *rpcproto.Request) {
		if r.Latency() > slo {
			if violations++; violations == 10 {
				snapshot = s.QueueLensInto(nil)
			}
		}
	}, func(eng *sim.Engine, done sched.Done) (sched.Scheduler, error) {
		var err error
		s, err = core.New(eng, p, fabric.Default(), nic.NewSteerer(pol, 4, steerRNG), done)
		return s, err
	})
	if err != nil {
		return nil, err
	}
	if snapshot == nil {
		// Fewer than 10 violations in the whole run: report the drained
		// queues instead.
		snapshot = s.QueueLensInto(nil)
	}
	return snapshot, nil
}
