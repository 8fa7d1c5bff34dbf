package core

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/fabric"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/stats"
)

func us(v float64) sim.Time { return sim.FromNanos(v * 1000) }

type testRig struct {
	eng   *sim.Engine
	s     *Scheduler
	lat   *stats.Sample
	nDone int
	byID  map[uint64]*rpcproto.Request
}

func newRig(t *testing.T, p Params, policy nic.SteerPolicy) *testRig {
	t.Helper()
	rig := &testRig{eng: sim.NewEngine(), lat: stats.NewSample(0), byID: map[uint64]*rpcproto.Request{}}
	steer := nic.NewSteerer(policy, p.Groups, sim.NewRNG(99))
	s, err := New(rig.eng, p, fabric.Default(), steer, func(r *rpcproto.Request) {
		rig.lat.Add(r.Latency())
		rig.nDone++
		if _, dup := rig.byID[r.ID]; dup {
			t.Fatalf("request %d completed twice", r.ID)
		}
		rig.byID[r.ID] = r
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.s = s
	return rig
}

// feed injects n Poisson arrivals and runs the engine until all complete.
func (rig *testRig) feed(t *testing.T, rate float64, svc dist.ServiceDist, n int, seed uint64) {
	t.Helper()
	arr := sim.NewRNG(seed)
	svcRNG := sim.NewRNG(seed + 1)
	var at sim.Time
	for i := 0; i < n; i++ {
		at += dist.Poisson{Rate: rate}.NextGap(arr)
		r := &rpcproto.Request{
			ID: uint64(i), Conn: uint32(arr.Intn(256)), Arrival: at,
			Service: svc.Sample(svcRNG), Size: 300,
		}
		tAt := at
		rig.eng.At(tAt, func() { rig.s.Deliver(r) })
	}
	// Chunked run: the periodic runtime keeps the event queue non-empty,
	// so run until all requests have completed.
	deadline := 200 * sim.Millisecond
	for rig.nDone < n && rig.eng.Now() < deadline {
		rig.eng.Run(rig.eng.Now() + sim.Millisecond)
	}
	rig.s.Stop()
	if rig.nDone != n {
		t.Fatalf("completed %d of %d", rig.nDone, n)
	}
}

func TestValidate(t *testing.T) {
	good := DefaultParams(4, 15)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{},
		{Groups: 1},
		{Groups: 1, WorkersPerGroup: 1},
		{Groups: 1, WorkersPerGroup: 1, Period: sim.Nanosecond},
		{Groups: 1, WorkersPerGroup: 1, Period: sim.Nanosecond, Bulk: 1},
	}
	for _, depth := range []int{0, maxWorkerDepth + 1} {
		p := good
		p.WorkerDepth = depth
		bad = append(bad, p)
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad params %d validated", i)
		}
	}
	if got := good.TotalCores(); got != 64 {
		t.Fatalf("TotalCores = %d", got)
	}
}

func TestNewRejectsMismatchedSteerer(t *testing.T) {
	eng := sim.NewEngine()
	steer := nic.NewSteerer(nic.SteerRoundRobin, 3, nil)
	if _, err := New(eng, DefaultParams(4, 4), fabric.Default(), steer, func(*rpcproto.Request) {}); err == nil {
		t.Fatal("expected steerer/groups mismatch error")
	}
}

func TestSingleGroupBasicService(t *testing.T) {
	p := DefaultParams(1, 4)
	rig := newRig(t, p, nic.SteerRoundRobin)
	rig.feed(t, 1e6, dist.Fixed{V: us(1)}, 2000, 1)
	// Low load: latency ~ service + dispatch (LLC 30ns).
	if got := rig.lat.P50(); got < us(1) || got > us(1.2) {
		t.Fatalf("p50 = %v", got)
	}
	if rig.s.Stats.Migrations != 0 {
		t.Fatal("single group must never migrate")
	}
}

func TestConservationUnderMigrationPressure(t *testing.T) {
	// Overload one group via connection skew; migrations rebalance.
	// Every request must complete exactly once despite NACKs/aborts.
	p := DefaultParams(4, 4)
	p.Period = 100 * sim.Nanosecond
	p.Bulk = 8
	p.Concurrency = 4
	p.FIFOCapacity = 8 // small, to force FIFO-full aborts
	p.MRCapacity = 16
	rig := newRig(t, p, nic.SteerConnection)
	rig.feed(t, 12e6, dist.Exponential{M: us(1)}, 20000, 3)
	if rig.s.Stats.Migrations == 0 {
		t.Fatal("expected migrations under skewed load")
	}
	if rig.s.Stats.MigratedReqs == 0 {
		t.Fatal("no requests migrated")
	}
}

func TestMigrationImprovesTailUnderSkew(t *testing.T) {
	// RSS connection steering sends hot flows to one group. With
	// migration disabled the victim group's tail explodes; with the
	// runtime on, the tail improves substantially.
	run := func(disable bool) sim.Time {
		p := DefaultParams(4, 4)
		p.DisableMigration = disable
		rig := newRig(t, p, nic.SteerConnection)
		// Skew: all requests from 4 connections -> at most 4 of 16 queues.
		arr := sim.NewRNG(7)
		svcRNG := sim.NewRNG(8)
		var at sim.Time
		const n = 8000
		for i := 0; i < n; i++ {
			at += dist.Poisson{Rate: 10e6}.NextGap(arr)
			r := &rpcproto.Request{
				ID: uint64(i), Conn: uint32(i % 4), Arrival: at,
				Service: dist.Exponential{M: us(1)}.Sample(svcRNG), Size: 300,
			}
			tAt := at
			rig.eng.At(tAt, func() { rig.s.Deliver(r) })
		}
		for rig.nDone < n && rig.eng.Now() < 100*sim.Millisecond {
			rig.eng.Run(rig.eng.Now() + sim.Millisecond)
		}
		rig.s.Stop()
		if rig.nDone != n {
			t.Fatalf("completed %d of %d (disable=%v)", rig.nDone, n, disable)
		}
		return rig.lat.P99()
	}
	without := run(true)
	with := run(false)
	if float64(with) > 0.5*float64(without) {
		t.Fatalf("migration did not help: p99 with=%v without=%v", with, without)
	}
}

func TestMigrateOnceRestriction(t *testing.T) {
	p := DefaultParams(2, 2)
	p.Period = 50 * sim.Nanosecond
	rig := newRig(t, p, nic.SteerConnection)
	rig.feed(t, 3.5e6, dist.Exponential{M: us(1)}, 15000, 11)
	// No request may be counted migrated more than once: migrated
	// requests stay put, so MigratedReqs <= delivered count.
	if rig.s.Stats.MigratedReqs > 15000 {
		t.Fatalf("migrated %d > delivered", rig.s.Stats.MigratedReqs)
	}
	for _, r := range rig.byID {
		_ = r.Migrated // flag readable; semantic checked by conservation
	}
}

func TestGuardSkipsUnprofitableMigrations(t *testing.T) {
	// With balanced load the guard should fire when threshold triggers
	// would otherwise bounce work between equally loaded queues.
	p := DefaultParams(4, 4)
	p.Period = 100 * sim.Nanosecond
	rig := newRig(t, p, nic.SteerRoundRobin) // perfectly balanced
	rig.feed(t, 14e6, dist.Exponential{M: us(1)}, 20000, 13)
	// Balanced RR load: patterns rarely trigger, and any threshold
	// trigger should usually be guarded away. Migrations should be rare
	// relative to total load.
	if rig.s.Stats.MigratedReqs > 2000 {
		t.Fatalf("balanced load migrated too much: %d", rig.s.Stats.MigratedReqs)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, Stats) {
		p := DefaultParams(4, 4)
		rig := newRig(t, p, nic.SteerConnection)
		rig.feed(t, 10e6, dist.Bimodal{Short: us(0.5), Long: us(50), PLong: 0.01}, 10000, 17)
		return rig.lat.P99(), rig.s.Stats
	}
	p1, s1 := run()
	p2, s2 := run()
	if p1 != p2 {
		t.Fatalf("p99 not deterministic: %v vs %v", p1, p2)
	}
	if s1 != s2 {
		t.Fatalf("stats not deterministic: %+v vs %+v", s1, s2)
	}
}

func TestSoftwareDispatchSerializesOnManager(t *testing.T) {
	// ACrss: the manager is a serial dispatch resource; ACint is not.
	// Under a simultaneous burst, software dispatch must be slower.
	run := func(local LocalDispatch) sim.Time {
		p := DefaultParams(1, 8)
		p.Local = local
		rig := newRig(t, p, nic.SteerRoundRobin)
		for i := 0; i < 8; i++ {
			r := &rpcproto.Request{ID: uint64(i), Arrival: 0, Service: us(1), Size: 300}
			rig.eng.At(0, func() { rig.s.Deliver(r) })
		}
		for rig.nDone < 8 {
			rig.eng.Run(rig.eng.Now() + sim.Microsecond)
		}
		rig.s.Stop()
		return rig.lat.Max()
	}
	hw := run(DispatchHardware)
	sw := run(DispatchSoftware)
	if sw <= hw {
		t.Fatalf("software dispatch should serialize: hw=%v sw=%v", hw, sw)
	}
}

func TestMSRInterfaceCostsMoreThanISA(t *testing.T) {
	// With the software dispatcher, MSR runtime ops steal manager time
	// from dispatch, raising tail latency under load versus ISA.
	run := func(iface fabric.Interface) sim.Time {
		p := DefaultParams(4, 4)
		p.Local = DispatchSoftware
		p.Iface = iface
		p.Period = 100 * sim.Nanosecond
		rig := newRig(t, p, nic.SteerConnection)
		rig.feed(t, 13e6, dist.Exponential{M: us(1)}, 20000, 23)
		return rig.lat.P99()
	}
	isa := run(fabric.InterfaceISA)
	msr := run(fabric.InterfaceMSR)
	if msr < isa {
		t.Fatalf("MSR should not beat ISA: isa=%v msr=%v", isa, msr)
	}
}

func TestPredictedMarking(t *testing.T) {
	p := DefaultParams(2, 2)
	rig := newRig(t, p, nic.SteerConnection)
	rig.feed(t, 3.8e6, dist.Exponential{M: us(1)}, 20000, 29)
	if rig.s.Stats.PredictedReqs == 0 {
		t.Fatal("overloaded system should predict some violators")
	}
	// Predicted flags must be visible on completed requests.
	n := 0
	for _, r := range rig.byID {
		if r.Predicted {
			n++
		}
	}
	if n == 0 {
		t.Fatal("no completed request carries the Predicted flag")
	}
}

func TestQueueLensAndViews(t *testing.T) {
	p := DefaultParams(3, 2)
	rig := newRig(t, p, nic.SteerRoundRobin)
	if got := len(rig.s.QueueLensInto(nil)); got != 3 {
		t.Fatalf("QueueLens size = %d", got)
	}
	if got := len(rig.s.GroupView(0)); got != 3 {
		t.Fatalf("GroupView size = %d", got)
	}
	if rig.s.Name() == "" {
		t.Fatal("name")
	}
}

func TestLoadMeter(t *testing.T) {
	m := NewLoadMeter()
	// 100 arrivals of 1us service over 100us -> 1 MRPS, A = 1 Erlang.
	for i := 0; i < 100; i++ {
		m.Arrival(&rpcproto.Request{Service: us(1)})
	}
	m.Tick(100 * sim.Microsecond)
	if m.Rate() < 0.9e6 || m.Rate() > 1.1e6 {
		t.Fatalf("rate = %v", m.Rate())
	}
	if got := m.OfferedPerGroup(1); got < 0.9 || got > 1.1 {
		t.Fatalf("offered = %v", got)
	}
	if got := m.OfferedPerGroup(2); got < 0.45 || got > 0.55 {
		t.Fatalf("offered/2 = %v", got)
	}
	if m.OfferedPerGroup(0) != 0 {
		t.Fatal("zero groups")
	}
	// Zero-length window must not divide by zero.
	m.Tick(100 * sim.Microsecond)
	// EWMA converges toward a new sustained rate.
	for w := 0; w < 50; w++ {
		for i := 0; i < 200; i++ {
			m.Arrival(&rpcproto.Request{Service: us(1)})
		}
		m.Tick(100*sim.Microsecond + sim.Time(w+1)*100*sim.Microsecond)
	}
	if m.Rate() < 1.8e6 {
		t.Fatalf("EWMA did not converge upward: %v", m.Rate())
	}
}

func TestLocalDispatchStringer(t *testing.T) {
	if DispatchHardware.String() != "hardware" || DispatchSoftware.String() != "software" {
		t.Fatal("stringer")
	}
}
