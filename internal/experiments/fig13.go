package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fabric"
	"repro/internal/fleet"
	"repro/internal/mica"
	"repro/internal/nic"
	"repro/internal/report"
	"repro/internal/rpcproto"
	"repro/internal/server"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "fig13a",
		Title: "MICA throughput@SLO scaling and prediction accuracy",
		Paper: "Fig. 13(a)",
		Run:   runFig13a,
	})
	register(Experiment{
		ID:    "fig13b",
		Title: "Case studies 1-2: runtime/messaging on scale-out Nebula; ACrss tuning",
		Paper: "Fig. 13(b)",
		Run:   runFig13b,
	})
	register(Experiment{
		ID:    "fig13c",
		Title: "Case study 3: prediction accuracy vs SLO target",
		Paper: "Fig. 13(c)",
		Run:   runFig13c,
	})
}

// newMICA builds a MICA app sized for the run: the EREW partition count
// matches the scheduling entities (AC groups or baseline cores).
func newMICA(partitions int, fixed sim.Time) (*server.MICAApp, error) {
	app, err := server.NewMICA(partitions, mica.DefaultOpCost(fabric.Default()), 100000, 16, 512)
	if err != nil {
		return nil, err
	}
	app.FixedService = fixed
	return app, nil
}

// acOpt is the "tuned" configuration: a faster reaction period and larger
// batches, which help under bursty (MMPP) arrivals.
func acOpt(groups, wpg int) core.Params {
	p := core.DefaultParams(groups, wpg)
	p.Period = 100 * sim.Nanosecond
	p.Bulk = 32
	p.Concurrency = 8
	return p
}

const fig13Service = 850 * sim.Nanosecond // the eRPC-stack service time
const fig13SLO = sim.Time(10 * 850 * sim.Nanosecond)

// fig13Config builds the server config for one named system at a core
// count.
func fig13Config(name string, cores int, seed uint64) (server.Config, int, error) {
	groups := cores / 16
	switch name {
	case "RSS":
		// EREW MICA statically maps each partition to its owner core;
		// SteerDirect models those per-core NIC queues. RSS's weakness
		// is not mis-mapping but the absence of any rebalancing when
		// bursts and service dispersion skew the per-core load.
		return server.Config{Kind: server.SchedRSS, Cores: cores,
			Stack: rpcproto.StackNanoRPC, Steer: nic.SteerDirect,
			Seed: seed, SLO: fig13SLO}, cores, nil
	case "Nebula":
		return server.Config{Kind: server.SchedNebula, Cores: cores,
			Stack: rpcproto.StackNanoRPC, Seed: seed, SLO: fig13SLO}, cores, nil
	case "ACint_subopt":
		return server.Config{Kind: server.SchedAltocumulus, AC: core.DefaultParams(groups, 15),
			Stack: rpcproto.StackNanoRPC, Steer: nic.SteerDirect,
			Seed: seed, SLO: fig13SLO}, groups, nil
	case "ACint_opt":
		return server.Config{Kind: server.SchedAltocumulus, AC: acOpt(groups, 15),
			Stack: rpcproto.StackNanoRPC, Steer: nic.SteerDirect,
			Seed: seed, SLO: fig13SLO}, groups, nil
	default:
		return server.Config{}, 0, fmt.Errorf("fig13: unknown system %q", name)
	}
}

// fig13Sweep measures throughput@SLO of one system under one arrival
// model ("poisson" or "mmpp").
// fig13MMPP is the real-world arrival surrogate with a dwell short
// enough that duration-bounded runs sample many phases.
func fig13MMPP(rate float64) *dist.MMPP {
	// Milder multipliers than the generic cloud surrogate: the paper's
	// regression-generated traffic is bursty but sustainable; a 3x burst
	// phase would be outright overload for every scheduler at these
	// loads.
	mult := []float64{0.7, 0.9, 1.0, 1.1, 1.3, 1.5}
	var avg float64
	for _, m := range mult {
		avg += m
	}
	avg /= float64(len(mult))
	return &dist.MMPP{BaseRate: rate / avg, Mult: mult,
		Dwell: 20 * sim.Microsecond, PJump: 0.25}
}

// fig13N sizes one run to cover enough MMPP phases.
func fig13N(scale Scale, rate float64) int {
	return scale.nForDuration(rate, 400*sim.Microsecond, 2*sim.Millisecond)
}

func fig13Sweep(name string, cores int, arrivals string, loads []float64, scale Scale, seed uint64) (float64, error) {
	cfg, parts, err := fig13Config(name, cores, seed)
	if err != nil {
		return 0, err
	}
	workersOf := func() int {
		if cfg.Kind == server.SchedAltocumulus {
			return cfg.AC.Groups * cfg.AC.WorkersPerGroup
		}
		return cores
	}
	capacity := float64(workersOf()) / fig13Service.Seconds()
	pts, err := sweep(loads,
		func(float64) server.Config { return cfg },
		func(load float64) server.Workload {
			app, aerr := newMICA(parts, fig13Service)
			if aerr != nil {
				panic(aerr) // sizing is static; failure is a programming error
			}
			rate := load * capacity
			n := fig13N(scale, rate)
			var arr dist.ArrivalProcess
			if arrivals == "mmpp" {
				arr = fig13MMPP(rate)
			} else {
				arr = dist.Poisson{Rate: rate}
			}
			return server.Workload{Arrivals: arr, App: app, N: n, Warmup: n / 10}
		})
	if err != nil {
		return 0, err
	}
	return server.ThroughputAtSLO(pts, fig13SLO), nil
}

func runFig13a(scale Scale, seed uint64) ([]report.Table, error) {
	coreCounts := []int{64, 128, 192, 256}
	// The low points let RSS (whose hash collisions overload some queues
	// at ~2x their fair share) register a nonzero throughput@SLO.
	loads := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
	if scale == ScaleQuick {
		coreCounts = []int{64, 256}
		loads = []float64{0.3, 0.5, 0.7, 0.8, 0.9, 0.95}
	}
	systems := []string{"RSS", "Nebula", "ACint_subopt", "ACint_opt"}

	tput := report.Table{
		ID:    "fig13a",
		Title: "MICA throughput@SLO (MRPS), fixed 850ns eRPC service, SLO 8.5us",
		Cols:  []string{"arrivals", "cores", "RSS", "Nebula", "ACint_subopt", "ACint_opt"},
	}
	for _, arrivals := range []string{"poisson", "mmpp"} {
		for _, cores := range coreCounts {
			row := []interface{}{arrivals, cores}
			for _, sys := range systems {
				tp, err := fig13Sweep(sys, cores, arrivals, loads, scale, seed)
				if err != nil {
					return nil, fmt.Errorf("%s/%d/%s: %w", sys, cores, arrivals, err)
				}
				row = append(row, mrps(tp))
			}
			tput.AddRow(row...)
		}
	}
	tput.Notes = append(tput.Notes,
		"paper: ACint_opt scales near-linearly, 2.8-7.4x over Nebula under real-world traffic; subopt still gains 1.5-2.3x",
		"real-world (mmpp) traffic costs ACint_opt ~13-15% throughput@SLO vs poisson")

	// Prediction accuracy at load 0.9 under MMPP, 256 cores.
	acc := report.Table{
		ID:    "fig13a",
		Title: "SLO-violation prediction accuracy under real-world traffic (load 0.95)",
		Cols:  []string{"system", "accuracy"},
	}
	cores := 256
	if scale == ScaleQuick {
		cores = 64
	}
	for _, sys := range []string{"ACint_subopt", "ACint_opt"} {
		a, err := fig13Accuracy(sys, cores, "mmpp", 0.95, scale, seed, fig13SLO)
		if err != nil {
			return nil, err
		}
		acc.AddRow(sys, fmt.Sprintf("%.3f", a))
	}
	acc.Notes = append(acc.Notes,
		"paper: prediction accuracy drops from 99.8% (synthetic) to ~96% under real-world patterns")
	return []report.Table{tput, acc}, nil
}

// fig13Accuracy runs system and its same-seed no-migration baseline and
// computes prediction accuracy.
func fig13Accuracy(name string, cores int, arrivals string, load float64, scale Scale, seed uint64, slo sim.Time) (float64, error) {
	run := func(disable bool) (*server.Result, error) {
		cfg, parts, err := fig13Config(name, cores, seed)
		if err != nil {
			return nil, err
		}
		if cfg.Kind != server.SchedAltocumulus {
			return nil, fmt.Errorf("fig13: accuracy needs an AC config")
		}
		cfg.AC.DisableMigration = disable
		app, err := newMICA(parts, fig13Service)
		if err != nil {
			return nil, err
		}
		capacity := float64(cfg.AC.Groups*cfg.AC.WorkersPerGroup) / fig13Service.Seconds()
		rate := load * capacity
		n := fig13N(scale, rate)
		var arr dist.ArrivalProcess
		if arrivals == "mmpp" {
			arr = fig13MMPP(rate)
		} else {
			arr = dist.Poisson{Rate: rate}
		}
		return server.Run(cfg, server.Workload{Arrivals: arr, App: app, N: n, Warmup: n / 10})
	}
	// The baseline and migrating runs are independent; pair them on the
	// fleet pool.
	pair, err := fleet.Map(2, func(i int) (*server.Result, error) {
		return run(i == 0)
	})
	if err != nil {
		return 0, err
	}
	return server.PredictionAccuracy(pair[0], pair[1], slo)
}

func runFig13b(scale Scale, seed uint64) ([]report.Table, error) {
	cores := 256
	// Fine-grained loads around the knee, plus low points where the RSS
	// baseline (whose 256-queue hash imbalance leaves some queues 3-4x
	// overloaded) can still qualify.
	loads := []float64{0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.65, 0.7, 0.75, 0.8}
	if scale == ScaleQuick {
		cores = 64
		loads = []float64{0.2, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9}
	}
	groups := cores / 16

	t := report.Table{
		ID:    "fig13b",
		Title: fmt.Sprintf("case studies 1-2: throughput@SLO (MRPS), %d cores, real-world traffic", cores),
		Cols:  []string{"config", "tput@SLO(MRPS)", "vs RSS"},
	}
	type cs struct {
		name string
		cfg  server.Config
		ac   bool
	}
	mkAC := func(p core.Params) server.Config {
		return server.Config{Kind: server.SchedAltocumulus, AC: p,
			Stack: rpcproto.StackNanoRPC, Steer: nic.SteerDirect, Seed: seed, SLO: fig13SLO}
	}
	rt := core.DefaultParams(groups, 15)
	rt.SoftwareMessaging = true
	rtmsg := core.DefaultParams(groups, 15)
	syn := core.DefaultParams(groups, 15)
	syn.Local = core.DispatchSoftware
	rw := acOpt(groups, 15)
	rw.Local = core.DispatchSoftware

	cases := []cs{
		{"RSS", server.Config{Kind: server.SchedRSS, Cores: cores,
			Stack: rpcproto.StackNanoRPC, Steer: nic.SteerDirect, Seed: seed, SLO: fig13SLO}, false},
		{"ACint_rt (runtime only, sw messaging)", mkAC(rt), true},
		{"ACint_rt+msg (full hw mechanism)", mkAC(rtmsg), true},
		{"ACrss_syn (synthetic-tuned params)", mkAC(syn), true},
		{"ACrss_rw (real-world-tuned params)", mkAC(rw), true},
	}

	var rssTput float64
	for _, c := range cases {
		parts := cores
		workers := cores
		if c.ac {
			parts = groups
			workers = c.cfg.AC.Groups * c.cfg.AC.WorkersPerGroup
		}
		capacity := float64(workers) / fig13Service.Seconds()
		pts, err := sweep(loads,
			func(float64) server.Config { return c.cfg },
			func(load float64) server.Workload {
				app, aerr := newMICA(parts, fig13Service)
				if aerr != nil {
					panic(aerr)
				}
				rate := load * capacity
				n := fig13N(scale, rate)
				return server.Workload{Arrivals: fig13MMPP(rate),
					App: app, N: n, Warmup: n / 10}
			})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		tp := server.ThroughputAtSLO(pts, fig13SLO)
		if c.name == "RSS" {
			rssTput = tp
		}
		ratio := "n/a"
		if rssTput > 0 {
			ratio = fmt.Sprintf("%.2fx", tp/rssTput)
		}
		t.AddRow(c.name, mrps(tp), ratio)
	}
	t.Notes = append(t.Notes,
		"paper: runtime-only improves 2.2x over RSS, +hw messaging 1.3x more (2.9x total); ACrss_syn 1.4x, ACrss_rw 2.7x")
	return []report.Table{t}, nil
}

func runFig13c(scale Scale, seed uint64) ([]report.Table, error) {
	cores := 64
	groups := cores / 16
	const load = 0.95

	t := report.Table{
		ID:    "fig13c",
		Title: "prediction accuracy vs SLO target (A = 850ns, load 0.95)",
		Cols:  []string{"SLO", "RSS(naive T)", "ACint_opt", "ACrss_opt"},
	}
	for _, mult := range []float64{5, 10, 20} {
		slo := sim.Time(mult * float64(fig13Service))
		row := []interface{}{fmt.Sprintf("%.0fA", mult)}
		// "RSS" baseline predictor: grouped d-FCFS with the naive
		// k*L+1 threshold and no migration; accuracy of its own marks.
		naive := core.DefaultParams(groups, 15)
		naive.DisableMigration = true
		naive.NaiveThreshold = true
		naive.SLOMultiplier = mult
		nres, err := fig13RunAC(naive, load, scale, seed, slo)
		if err != nil {
			return nil, err
		}
		nacc, err := server.PredictionAccuracy(nres, nres, slo)
		if err != nil {
			return nil, err
		}
		row = append(row, fmt.Sprintf("%.3f", nacc))

		for _, local := range []core.LocalDispatch{core.DispatchHardware, core.DispatchSoftware} {
			p := acOpt(groups, 15)
			p.Local = local
			p.SLOMultiplier = mult
			pair, err := fleet.Map(2, func(i int) (*server.Result, error) {
				pp := p
				pp.DisableMigration = i == 0
				return fig13RunAC(pp, load, scale, seed, slo)
			})
			if err != nil {
				return nil, err
			}
			acc, err := server.PredictionAccuracy(pair[0], pair[1], slo)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.3f", acc))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: AC gains 2.3x/1.8x accuracy over the naive baseline at SLO=5A; all approaches exceed 95% at the relaxed 20A target")
	return []report.Table{t}, nil
}

func fig13RunAC(p core.Params, load float64, scale Scale, seed uint64, slo sim.Time) (*server.Result, error) {
	app, err := newMICA(p.Groups, fig13Service)
	if err != nil {
		return nil, err
	}
	capacity := float64(p.Groups*p.WorkersPerGroup) / fig13Service.Seconds()
	rate := load * capacity
	n := fig13N(scale, rate)
	return server.Run(server.Config{
		Kind: server.SchedAltocumulus, AC: p, Stack: rpcproto.StackNanoRPC,
		Steer: nic.SteerDirect, Seed: seed, SLO: slo,
	}, server.Workload{
		Arrivals: fig13MMPP(rate), App: app, N: n, Warmup: n / 10,
	})
}
