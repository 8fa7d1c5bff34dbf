package altocumulus

import (
	"testing"
	"time"

	"repro/internal/nic"
	"repro/internal/rpcproto"
)

func TestFacadeQuickstartPath(t *testing.T) {
	cfg := NewServer(2, 3)
	wl := PoissonWorkload(2e6, Exponential(time.Microsecond), 5000)
	res, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.N != 5000-500 {
		t.Fatalf("sample = %d", res.Summary.N)
	}
	if res.Summary.P99 <= 0 {
		t.Fatal("no p99")
	}
}

func TestFacadeBaselines(t *testing.T) {
	for _, kind := range []int{int(RSS), int(ZygOS), int(Nebula), int(NanoPU)} {
		cfg := NewBaseline(Kind(kind), 8)
		wl := PoissonWorkload(1e6, Fixed(time.Microsecond), 3000)
		res, err := Run(cfg, wl)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if res.Summary.N == 0 {
			t.Fatalf("kind %d: empty sample", kind)
		}
	}
}

func TestFacadeDistributions(t *testing.T) {
	if Exponential(time.Microsecond).Mean() != Duration(time.Microsecond) {
		t.Fatal("exp mean")
	}
	b := Bimodal(500*time.Nanosecond, 500*time.Microsecond, 0.005)
	if b.Mean() <= Duration(500*time.Nanosecond) {
		t.Fatal("bimodal mean")
	}
}

func TestFacadeCloudWorkload(t *testing.T) {
	wl := CloudWorkload(1e6, Fixed(time.Microsecond), 2000)
	if wl.Arrivals.MeanRate() != 1e6 {
		t.Fatalf("rate = %v", wl.Arrivals.MeanRate())
	}
}

func TestFacadeKVStore(t *testing.T) {
	app, err := NewKVStore(4, 5000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewServer(4, 3)
	cfg.Steer = nic.SteerDirect
	wl := Workload{Arrivals: PoissonWorkload(5e6, nil, 0).Arrivals, App: app, N: 4000, Warmup: 400}
	res, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.N != 3600 {
		t.Fatalf("sample = %d", res.Summary.N)
	}
	get := app.Cost.Time(rpcproto.OpGet, app.ValLen, false)
	set := app.Cost.Time(rpcproto.OpSet, app.ValLen, false)
	took := map[Time]bool{}
	for _, r := range res.Requests {
		took[r.Service] = true
	}
	if !took[get] || !took[set] {
		t.Fatalf("no request took the GET (%v) or the SET (%v) service time", get, set)
	}
}

// TestHeadlineRegression guards the paper's core result end to end
// through the public API: under a bursty mix with rare long requests, the
// ALTOCUMULUS runtime keeps the tail far below a no-migration replay of
// the identical trace.
func TestHeadlineRegression(t *testing.T) {
	run := func(disable bool) Time {
		cfg := NewServer(4, 3)
		cfg.Seed = 2024
		cfg.AC.DisableMigration = disable
		svc := Bimodal(500*time.Nanosecond, 50*time.Microsecond, 0.01)
		rate := 0.85 * 12 / svc.Mean().Seconds()
		res, err := Run(cfg, PoissonWorkload(rate, svc, 40_000))
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.P99
	}
	without := run(true)
	with := run(false)
	if float64(with) > 0.7*float64(without) {
		t.Fatalf("migration regression: p99 with=%v without=%v", with, without)
	}
}
