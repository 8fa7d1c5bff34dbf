package experiments

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/fleet"
	"repro/internal/report"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig03",
		Title: "p99 latency vs offered load for per-request scheduling overheads",
		Paper: "Fig. 3",
		Run:   runFig03,
	})
}

// runFig03 reproduces the motivation experiment: a 64-core c-FCFS system
// under Poisson/exp(1us) load where every scheduling decision costs a
// fixed overhead on the critical path. The paper sweeps 5 ns (ideal
// hardware) to 360 ns (a work-stealing operation) and shows that at a
// 5 us p99 target, the 5 ns scheduler sustains ~3x the load of the
// 360 ns one. Each run feeds sched.Central, with the overhead as its
// handoff and no dispatch cost, straight from an open-loop generator (no
// NIC) to isolate pure scheduling overhead, as the paper's discrete
// event simulation does.
func runFig03(scale Scale, seed uint64) ([]report.Table, error) {
	t := report.Table{
		ID:    "fig03",
		Title: "99th percentile latency (us) vs offered load; 64-core c-FCFS, exp(1us) service",
		Cols:  []string{"overhead(ns)", "load", "p99(us)"},
	}
	summary := report.Table{
		ID:    "fig03",
		Title: "max load within p99 targets per scheduling overhead",
		Cols:  []string{"overhead(ns)", "load@5.5us", "load@8us", "vs 360ns @5.5us"},
	}
	const cores = 64
	svc := dist.Exponential{M: sim.Microsecond}
	overheads := []sim.Time{5 * sim.Nanosecond, 45 * sim.Nanosecond, 90 * sim.Nanosecond,
		135 * sim.Nanosecond, 180 * sim.Nanosecond, 360 * sim.Nanosecond}
	loads := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95}
	n := scale.n(200000)

	// The full overhead x load grid is one flat batch of independent
	// runs for the fleet pool; aggregation below walks it in grid order.
	type cell struct {
		ov   sim.Time
		load float64
	}
	grid := make([]cell, 0, len(overheads)*len(loads))
	for _, ov := range overheads {
		for _, load := range loads {
			grid = append(grid, cell{ov, load})
		}
	}
	p99s, err := fleet.Map(len(grid), func(i int) (sim.Time, error) {
		return runCFCFS(cores, grid[i].ov, svc, grid[i].load, n, seed)
	})
	if err != nil {
		return nil, err
	}
	best55 := map[sim.Time]float64{}
	best80 := map[sim.Time]float64{}
	for i, c := range grid {
		p99 := p99s[i]
		t.AddRow(fmt.Sprint(int64(c.ov/sim.Nanosecond)), fmt.Sprintf("%.2f", c.load), usStr(p99))
		if p99 <= 5500*sim.Nanosecond && c.load > best55[c.ov] {
			best55[c.ov] = c.load
		}
		if p99 <= 8*sim.Microsecond && c.load > best80[c.ov] {
			best80[c.ov] = c.load
		}
	}
	base := best55[360*sim.Nanosecond]
	for _, ov := range overheads {
		ratio := "n/a"
		if base > 0 {
			ratio = fmt.Sprintf("%.2fx", best55[ov]/base)
		}
		summary.AddRow(fmt.Sprint(int64(ov/sim.Nanosecond)),
			fmt.Sprintf("%.2f", best55[ov]), fmt.Sprintf("%.2f", best80[ov]), ratio)
	}
	summary.Notes = append(summary.Notes,
		"paper: reducing scheduling from 360ns to 5ns improves throughput ~3x at a 5us tail target")
	return []report.Table{t, summary}, nil
}

// runCFCFS simulates an ideal centralized FCFS system where each
// dispatch charges `overhead` on the request's critical path.
func runCFCFS(cores int, overhead sim.Time, svc dist.ServiceDist, load float64, n int, seed uint64) (sim.Time, error) {
	// The overhead inflates effective per-request work; keep offered load
	// meaningful by measuring against the bare service time as the paper
	// does (their "offered load" axis).
	lat := stats.NewSample(n)
	err := runCentral(cores, overhead, sched.OpenLoop{
		Arrivals: dist.Poisson{Rate: dist.LoadForRate(load, cores, svc)},
		Service:  svc,
		N:        n,
		ArrRNG:   sim.NewRNG(seed),
		SvcRNG:   sim.NewRNG(seed + 1),
	}, nil, func(r *rpcproto.Request) { lat.Add(r.Latency()) })
	if err != nil {
		return 0, fmt.Errorf("fig03: %w", err)
	}
	return lat.P99(), nil
}
