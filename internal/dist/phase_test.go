package dist

import (
	"math"
	"testing"

	"repro/internal/rpcproto"
	"repro/internal/sim"
)

func TestPhaseProfileApply(t *testing.T) {
	p := NewPhaseProfile("kv4",
		PhaseSpec{Name: "parse", Dist: Fixed{V: 10 * sim.Nanosecond}},
		PhaseSpec{Name: "index", Dist: Fixed{V: 20 * sim.Nanosecond}, Class: 1, Speedup: 2},
		PhaseSpec{Name: "data", Dist: Exponential{M: 30 * sim.Nanosecond}, Class: 1, Speedup: 4, Offload: 5 * sim.Nanosecond},
		PhaseSpec{Name: "respond", Dist: Fixed{V: 7 * sim.Nanosecond}},
	)
	rng := sim.NewRNG(1)
	var r rpcproto.Request
	p.Apply(&r, rng)

	if r.NumPhases != 4 || r.Phase != 0 {
		t.Fatalf("NumPhases=%d Phase=%d, want 4/0", r.NumPhases, r.Phase)
	}
	var total sim.Time
	for i := 0; i < 4; i++ {
		total += r.PhaseSvc[i]
	}
	if r.Service != total {
		t.Errorf("Service %v != phase sum %v", r.Service, total)
	}
	// durOn is phase i's duration on a core of class cls.
	durOn := func(i, cls uint8) sim.Time {
		r.Phase = i
		return r.PhaseDur(cls)
	}
	if r.PhaseSvc[0] != 10*sim.Nanosecond || durOn(0, 0) != 10*sim.Nanosecond || durOn(0, 1) != 10*sim.Nanosecond {
		t.Errorf("neutral phase 0 scaled: svc=%v on0=%v on1=%v", r.PhaseSvc[0], durOn(0, 0), durOn(0, 1))
	}
	if got := durOn(1, 1); got != 10*sim.Nanosecond {
		t.Errorf("phase 1 speedup 2x: acc=%v, want 10ns", got)
	}
	if got := durOn(1, 0); got != 20*sim.Nanosecond {
		t.Errorf("phase 1 off its class: %v, want the base 20ns", got)
	}
	if want, got := sim.Time(float64(r.PhaseSvc[2])/4), durOn(2, 1); got != want {
		t.Errorf("phase 2 speedup 4x: acc=%v, want %v", got, want)
	}
	if r.Plan.Offload[2] != 5*sim.Nanosecond || r.Plan.Class[2] != 1 {
		t.Errorf("phase 2 offload/class: %v/%d", r.Plan.Offload[2], r.Plan.Class[2])
	}
	if r.Plan.Speedup[0] != 0 || r.Plan.Speedup[3] != 0 {
		t.Errorf("neutral phases carry speedups %v/%v, want 0", r.Plan.Speedup[0], r.Plan.Speedup[3])
	}
	want := r.PhaseSvc[0] + 10*sim.Nanosecond + sim.Time(float64(r.PhaseSvc[2])/4) + r.PhaseSvc[3]
	if got := r.MinService(); got != want {
		t.Errorf("MinService = %v, want %v", got, want)
	}
	if p.Classes() != 2 || p.Neutral() || p.Len() != 4 {
		t.Errorf("Classes=%d Neutral=%v Len=%d, want 2/false/4", p.Classes(), p.Neutral(), p.Len())
	}
	if p.Name() != "kv4" {
		t.Errorf("Name = %q", p.Name())
	}
}

// TestOnePhaseNeutralStream locks the byte-identity seed: a one-phase
// neutral profile must consume exactly the draws a bare distribution
// would, producing the identical Service stream.
func TestOnePhaseNeutralStream(t *testing.T) {
	base := Exponential{M: 500 * sim.Nanosecond}
	p := NewPhaseProfile("", PhaseSpec{Dist: base})
	if !p.Neutral() {
		t.Fatal("one neutral phase must report Neutral")
	}
	a, b := sim.NewRNG(42), sim.NewRNG(42)
	for i := 0; i < 1000; i++ {
		var r rpcproto.Request
		p.Apply(&r, a)
		want := base.Sample(b)
		if r.Service != want || r.PhaseSvc[0] != want || r.PhaseDur(0) != want || r.MinService() != want {
			t.Fatalf("draw %d: profile %v/%v/%v/%v, bare %v", i, r.Service, r.PhaseSvc[0], r.PhaseDur(0), r.MinService(), want)
		}
		if r.NumPhases != 1 || *r.Plan != (rpcproto.PhasePlan{}) {
			t.Fatalf("draw %d: non-neutral plan: %d phases, %+v", i, r.NumPhases, *r.Plan)
		}
	}
}

// TestProfileSharesOnePlan: every request drawn from a profile points at
// the profile's one plan, and its sidecar holds nothing but the plan
// pointer, the draws and the stamps.
func TestProfileSharesOnePlan(t *testing.T) {
	p := NewPhaseProfile("",
		PhaseSpec{Dist: Fixed{V: 10 * sim.Nanosecond}},
		PhaseSpec{Dist: Exponential{M: 30 * sim.Nanosecond}, Class: 1, Speedup: 3, Offload: 4 * sim.Nanosecond},
	)
	rng := sim.NewRNG(7)
	var a, b rpcproto.Request
	p.Apply(&a, rng)
	p.Apply(&b, rng)
	if a.Plan == nil || a.Plan != b.Plan {
		t.Fatalf("plans %p and %p, want one shared non-nil plan", a.Plan, b.Plan)
	}
	if a.PhaseVec == b.PhaseVec {
		t.Fatal("two requests share one sidecar")
	}
	want := rpcproto.PhasePlan{}
	want.Class[1], want.Speedup[1], want.Offload[1] = 1, 3, 4*sim.Nanosecond
	if *a.Plan != want {
		t.Fatalf("plan %+v, want %+v", *a.Plan, want)
	}
	for _, r := range []*rpcproto.Request{&a, &b} {
		draws := rpcproto.PhaseVec{Plan: r.Plan}
		copy(draws.PhaseSvc[:], r.PhaseSvc[:r.NumPhases])
		if *r.PhaseVec != draws {
			t.Errorf("request sidecar %+v holds more than its draws %v", *r.PhaseVec, r.PhaseSvc[:r.NumPhases])
		}
	}
}

func TestPhaseProfileServiceDist(t *testing.T) {
	p := NewPhaseProfile("",
		PhaseSpec{Dist: Fixed{V: 10 * sim.Nanosecond}},
		PhaseSpec{Dist: Fixed{V: 30 * sim.Nanosecond}, Class: 1, Speedup: 3},
	)
	if got := p.Mean(); got != 40*sim.Nanosecond {
		t.Errorf("Mean = %v, want 40ns", got)
	}
	if got := p.MeanOn(); got != 20*sim.Nanosecond {
		t.Errorf("MeanOn = %v, want 20ns (10 + 30/3)", got)
	}
	if got := p.Sample(sim.NewRNG(1)); got != 40*sim.Nanosecond {
		t.Errorf("Sample = %v, want 40ns", got)
	}
	if got := p.Name(); got != "phases(fixed(10.000ns)>fixed(30.000ns))" {
		t.Errorf("default Name = %q", got)
	}
}

func TestNewPhaseProfilePanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	expectPanic("empty", func() { NewPhaseProfile("x") })
	expectPanic("nil dist", func() { NewPhaseProfile("x", PhaseSpec{}) })
	expectPanic("too many", func() {
		specs := make([]PhaseSpec, rpcproto.MaxPhases+1)
		for i := range specs {
			specs[i] = PhaseSpec{Dist: Fixed{V: sim.Nanosecond}}
		}
		NewPhaseProfile("x", specs...)
	})
}

// TestNewPhaseProfileValidatesSpecs: the plan's constants are checked
// where the plan is built. A speedup that would make an accelerated
// phase free (+Inf) or silently neutral (NaN) and a negative offload
// panic; non-positive and unit speedups are documented as neutral.
func TestNewPhaseProfileValidatesSpecs(t *testing.T) {
	d := Fixed{V: 10 * sim.Nanosecond}
	cases := []struct {
		name    string
		spec    PhaseSpec
		panics  bool
		speedup float64 // the plan's stored divisor when it builds
	}{
		{"+inf speedup", PhaseSpec{Dist: d, Class: 1, Speedup: math.Inf(1)}, true, 0},
		{"nan speedup", PhaseSpec{Dist: d, Class: 1, Speedup: math.NaN()}, true, 0},
		{"negative offload", PhaseSpec{Dist: d, Class: 1, Offload: -sim.Nanosecond}, true, 0},
		{"zero speedup", PhaseSpec{Dist: d, Class: 1}, false, 0},
		{"negative speedup", PhaseSpec{Dist: d, Class: 1, Speedup: -2}, false, 0},
		{"unit speedup", PhaseSpec{Dist: d, Class: 1, Speedup: 1}, false, 0},
		{"slowdown", PhaseSpec{Dist: d, Class: 1, Speedup: 0.5}, false, 0.5},
		{"speedup", PhaseSpec{Dist: d, Class: 1, Speedup: 4, Offload: sim.Nanosecond}, false, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p *PhaseProfile
			panicked := func() (bad bool) {
				defer func() { bad = recover() != nil }()
				p = NewPhaseProfile("x", PhaseSpec{Dist: d}, tc.spec)
				return false
			}()
			if panicked != tc.panics {
				t.Fatalf("panicked = %v, want %v", panicked, tc.panics)
			}
			if !tc.panics && p.plan.Speedup[1] != tc.speedup {
				t.Errorf("plan speedup %v, want %v", p.plan.Speedup[1], tc.speedup)
			}
		})
	}
}
