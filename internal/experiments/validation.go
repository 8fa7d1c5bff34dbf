package experiments

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/dist"
	"repro/internal/queueing"
	"repro/internal/report"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "validate",
		Title: "Simulator validation against closed-form queueing theory (extension)",
		Paper: "methodology check",
		Run:   runValidate,
	})
}

// runValidate cross-checks the discrete-event substrate against exact
// results: M/M/k mean waits and wait probabilities (Erlang-C) and the
// M/G/1 Pollaczek-Khinchine mean wait. Every scheduling experiment in
// this repository rests on the same engine/core/queue machinery, so
// agreement here validates the substrate itself.
func runValidate(scale Scale, seed uint64) ([]report.Table, error) {
	// Many-server mean waits are tiny (tens of ns); they need hundreds of
	// thousands of samples to converge, which the plain FCFS simulation
	// delivers in about a second.
	n := scale.n(4000000)

	mmk := report.Table{
		ID:    "validate",
		Title: "M/M/k: simulated vs Erlang-C analytical",
		Cols:  []string{"k", "load", "E[W] sim (us)", "E[W] theory (us)", "err%", "P(wait) sim", "P(wait) theory"},
	}
	for _, tc := range []struct {
		k    int
		load float64
	}{
		{1, 0.5}, {1, 0.8}, {4, 0.7}, {16, 0.8}, {64, 0.9}, {64, 0.95},
	} {
		simW, simPWait, err := simulateFCFS(tc.k, dist.Exponential{M: sim.Microsecond}, tc.load, n, seed)
		if err != nil {
			return nil, err
		}
		q := queueing.MMk{K: tc.k, Lambda: tc.load * float64(tc.k) / 1e-6, Mu: 1e6}
		thW := q.MeanWait() * 1e6 // seconds -> us
		errPct := math.Abs(simW-thW) / math.Max(thW, 1e-9) * 100
		mmk.AddRow(tc.k, fmt.Sprintf("%.2f", tc.load),
			fmt.Sprintf("%.3f", simW), fmt.Sprintf("%.3f", thW),
			fmt.Sprintf("%.1f", errPct),
			fmt.Sprintf("%.3f", simPWait), fmt.Sprintf("%.3f", q.PWait()))
	}
	mmk.Notes = append(mmk.Notes, "residual errors of a few percent reflect finite-run variance")

	mg1 := report.Table{
		ID:    "validate",
		Title: "M/G/1: simulated vs Pollaczek-Khinchine",
		Cols:  []string{"service", "load", "E[W] sim (us)", "E[W] P-K (us)", "err%"},
	}
	for _, tc := range []struct {
		name string
		svc  dist.ServiceDist
		es2  float64 // second moment in s^2
		load float64
	}{
		{"fixed(1us)", dist.Fixed{V: sim.Microsecond}, 1e-12, 0.8},
		{"exp(1us)", dist.Exponential{M: sim.Microsecond}, 2e-12, 0.8},
		{"bimodal", dist.Bimodal{Short: 500 * sim.Nanosecond, Long: 5 * sim.Microsecond, PLong: 0.1},
			0.9*0.25e-12 + 0.1*25e-12, 0.7},
	} {
		es := tc.svc.Mean().Seconds()
		lambda := tc.load / es
		simW, _, err := simulateFCFS(1, tc.svc, tc.load, n, seed+7)
		if err != nil {
			return nil, err
		}
		thW, err := queueing.MG1MeanWait(lambda, es, tc.es2)
		if err != nil {
			return nil, err
		}
		thWus := thW * 1e6
		errPct := math.Abs(simW-thWus) / thWus * 100
		mg1.AddRow(tc.name, fmt.Sprintf("%.2f", tc.load),
			fmt.Sprintf("%.3f", simW), fmt.Sprintf("%.3f", thWus),
			fmt.Sprintf("%.1f", errPct))
	}
	return []report.Table{mmk, mg1}, nil
}

// simulateFCFS runs a plain k-server FCFS queue and returns the mean wait
// in microseconds and the fraction of requests that waited.
func simulateFCFS(k int, svc dist.ServiceDist, load float64, n int, seed uint64) (meanWaitUS, pWait float64, err error) {
	// Skip the cold-start transient: an initially empty queue biases the
	// mean wait low, badly so for many-server systems whose equilibrium
	// waits are tiny.
	warm := n / 5
	var waitSum int64
	waited, measured := 0, 0
	_, err = check.RunOpenLoop(sched.OpenLoop{
		Arrivals: dist.Poisson{Rate: dist.LoadForRate(load, k, svc)},
		Service:  svc,
		N:        n,
		ArrRNG:   sim.NewRNG(seed),
		SvcRNG:   sim.NewRNG(seed + 1),
	}, func(r *rpcproto.Request) {
		if int(r.ID) < warm {
			return
		}
		wait := r.Start - r.Arrival
		waitSum += int64(wait)
		measured++
		if wait > 0 {
			waited++
		}
	}, func(eng *sim.Engine, done sched.Done) (sched.Scheduler, error) {
		return sched.NewCentral(eng, k, 0, 0, 0, 0, done), nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("validate: %w", err)
	}
	meanWait := sim.Time(float64(waitSum) / float64(measured))
	return meanWait.Microseconds(), float64(waited) / float64(measured), nil
}
