package server

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

func us(v float64) sim.Time { return sim.FromNanos(v * 1000) }

func poisson(loadFrac float64, cores int, svc dist.ServiceDist) dist.ArrivalProcess {
	return dist.Poisson{Rate: dist.LoadForRate(loadFrac, cores, svc)}
}

func TestRunAllKindsComplete(t *testing.T) {
	svc := dist.Exponential{M: us(1)}
	kinds := []SchedulerKind{SchedRSS, SchedIX, SchedZygOS, SchedShinjuku,
		SchedRPCValet, SchedNebula, SchedNanoPU, SchedAltocumulus, SchedRSSPlus}
	for _, k := range kinds {
		cfg := Config{
			Kind: k, Cores: 16, Stack: rpcproto.StackERPC,
			Steer: nic.SteerConnection, Seed: 1,
		}
		if k == SchedAltocumulus {
			cfg.AC = core.DefaultParams(4, 3)
		}
		res, err := Run(cfg, Workload{
			Arrivals: poisson(0.5, 16, svc), Service: svc, N: 4000, Warmup: 200,
		})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.Lat.Len() != 4000-200 {
			t.Fatalf("%v: sample %d", k, res.Lat.Len())
		}
		if res.Summary.P99 <= 0 {
			t.Fatalf("%v: p99 = %v", k, res.Summary.P99)
		}
		if res.Name == "" || res.Duration <= 0 || res.DoneRPS <= 0 {
			t.Fatalf("%v: result fields: %+v", k, res.Summary)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Kind: SchedRSS, Cores: 2}, Workload{N: 0}); err == nil {
		t.Fatal("N=0 should fail")
	}
	if _, err := Run(Config{Kind: SchedulerKind(99), Cores: 2},
		Workload{Arrivals: dist.Poisson{Rate: 1e6}, Service: dist.Fixed{V: us(1)}, N: 10}); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

func TestDefaultSLOFromMeanService(t *testing.T) {
	svc := dist.Fixed{V: us(1)}
	res, err := Run(Config{Kind: SchedNanoPU, Cores: 8, Stack: rpcproto.StackNanoRPC, Seed: 2},
		Workload{Arrivals: poisson(0.3, 8, svc), Service: svc, N: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// SLO = 10 x 1us.
	if res.SLO != us(10) {
		t.Fatalf("SLO = %v", res.SLO)
	}
}

func TestSoftwareStackInflatesService(t *testing.T) {
	svc := dist.Fixed{V: us(1)}
	run := func(kind SchedulerKind, stack rpcproto.StackKind) sim.Time {
		res, err := Run(Config{Kind: kind, Cores: 8, Stack: stack, Steer: nic.SteerRoundRobin, Seed: 3},
			Workload{Arrivals: poisson(0.05, 8, svc), Service: svc, N: 500})
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.P50
	}
	erpc := run(SchedRSS, rpcproto.StackERPC)       // software: ~1us svc + ~850ns stack on core
	nano := run(SchedNebula, rpcproto.StackNanoRPC) // hardware-terminated
	if erpc < us(1.8) {
		t.Fatalf("software stack not charged on core: p50=%v", erpc)
	}
	if nano > us(1.3) {
		t.Fatalf("hw-terminated stack should stay near bare service: p50=%v", nano)
	}
}

func TestReplayDeterminismAcrossConfigs(t *testing.T) {
	// Same seed, same workload: the generated request traces (service
	// times, conns) must match between an AC run and its no-migration
	// baseline so replay classification is sound.
	svc := dist.Bimodal{Short: us(0.5), Long: us(50), PLong: 0.01}
	mk := func(disable bool) *Result {
		p := core.DefaultParams(4, 3)
		p.DisableMigration = disable
		res, err := Run(Config{Kind: SchedAltocumulus, AC: p, Stack: rpcproto.StackNanoRPC,
			Steer: nic.SteerConnection, Seed: 7},
			Workload{Arrivals: poisson(0.7, 12, svc), Service: svc, N: 5000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mk(true)
	mig := mk(false)
	for i := range base.Requests {
		b, m := base.Requests[i], mig.Requests[i]
		if b.Service != m.Service || b.Conn != m.Conn || b.Arrival != m.Arrival {
			t.Fatalf("trace diverged at %d: %+v vs %+v", i, b, m)
		}
	}
	// Classification runs without error and accounts every migrated req.
	eff, err := ClassifyMigrations(base, mig, base.SLO)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Eff+eff.IneffNoHarm+eff.IneffNoBenefit+eff.False != eff.Migrated {
		t.Fatalf("classification does not partition: %+v", eff)
	}
	if eff.String() == "" {
		t.Fatal("stringer")
	}
	acc, err := PredictionAccuracy(base, mig, base.SLO)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestClassifyMismatch(t *testing.T) {
	a := &Result{Requests: make([]*rpcproto.Record, 2)}
	b := &Result{Requests: make([]*rpcproto.Record, 3)}
	if _, err := ClassifyMigrations(a, b, us(1)); err == nil {
		t.Fatal("mismatch should error")
	}
	if _, err := PredictionAccuracy(a, b, us(1)); err == nil {
		t.Fatal("mismatch should error")
	}
}

func TestPredictionAccuracyNoViolations(t *testing.T) {
	r := &rpcproto.Record{Arrival: 0, Finish: us(1)}
	a := &Result{Requests: []*rpcproto.Record{r}}
	acc, err := PredictionAccuracy(a, a, us(10))
	if err != nil || acc != 1 {
		t.Fatalf("acc=%v err=%v", acc, err)
	}
}

func TestThroughputAtSLO(t *testing.T) {
	pts := []LoadPoint{
		{OfferedRPS: 1e6, P99: us(5)},
		{OfferedRPS: 2e6, P99: us(8)},
		{OfferedRPS: 3e6, P99: us(40)},
	}
	if got := ThroughputAtSLO(pts, us(10)); got != 2e6 {
		t.Fatalf("t@slo = %v", got)
	}
	if got := ThroughputAtSLO(pts, us(1)); got != 0 {
		t.Fatalf("no qualifying point: %v", got)
	}
}

func TestSnapshots(t *testing.T) {
	svc := dist.Fixed{V: us(1)}
	res, err := Run(Config{Kind: SchedRSS, Cores: 4, Stack: rpcproto.StackNanoRPC,
		Steer: nic.SteerConnection, Seed: 5, SnapshotEvery: 10 * sim.Microsecond},
		Workload{Arrivals: poisson(0.8, 4, svc), Service: svc, N: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) == 0 {
		t.Fatal("no snapshots collected")
	}
	if got := len(res.Snapshots[0].Lens); got != 4 {
		t.Fatalf("snapshot width = %d", got)
	}
}

func TestKindStringer(t *testing.T) {
	names := map[SchedulerKind]string{
		SchedRSS: "RSS", SchedIX: "IX", SchedZygOS: "ZygOS", SchedShinjuku: "Shinjuku",
		SchedRPCValet: "RPCValet", SchedNebula: "Nebula", SchedNanoPU: "nanoPU",
		SchedAltocumulus: "Altocumulus", SchedRSSPlus: "RSS++",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d = %q", k, k.String())
		}
	}
}

// TestBareWorkloadOnTwoClassMachine: a workload without a Profile has no
// phase sidecars, and a heterogeneous machine must treat its requests as
// general-class work, not read a class out of a sidecar that is not
// there.
func TestBareWorkloadOnTwoClassMachine(t *testing.T) {
	svc := dist.Exponential{M: us(1)}
	cfg := Config{
		Kind: SchedAltocumulus, AC: core.DefaultParams(4, 2),
		Stack: rpcproto.StackNanoRPC, Steer: nic.SteerConnection, Seed: 3,
	}
	cfg.AC.GroupClass = []uint8{0, 0, 0, 1}
	cfg.AC.Forward = core.ForwardPowK
	res, err := Run(cfg, Workload{Arrivals: poisson(0.5, 6, svc), Service: svc, N: 3000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Requests {
		if r.Finish == 0 || r.NumPhases != 0 || r.PhaseVec != nil {
			t.Fatalf("request %d: finish %v, phases %d, sidecar %p", r.ID, r.Finish, r.NumPhases, r.PhaseVec)
		}
		if r.GroupHint == 3 {
			t.Fatalf("request %d was steered to the accelerator group", r.ID)
		}
	}
}
