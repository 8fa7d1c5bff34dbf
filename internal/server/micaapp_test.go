package server

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fabric"
	"repro/internal/mica"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

func newTestApp(t *testing.T, partitions int, scanFrac float64) *MICAApp {
	t.Helper()
	store, err := mica.NewStore(mica.Config{
		Partitions: partitions, BucketsPerPart: 1 << 12,
		EntriesPerBucket: 8, LogBytesPerPart: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewMICAApp(store, mica.DefaultOpCost(fabric.Default()), 10000, 16, 512)
	if err != nil {
		t.Fatal(err)
	}
	app.ScanFrac = scanFrac
	return app
}

func TestNewMICAAppValidation(t *testing.T) {
	store, _ := mica.NewStore(mica.Config{Partitions: 1, BucketsPerPart: 8, EntriesPerBucket: 2, LogBytesPerPart: 1 << 16})
	if _, err := NewMICAApp(store, mica.DefaultOpCost(fabric.Default()), 0, 16, 64); err == nil {
		t.Fatal("keys=0 should fail")
	}
	if _, err := NewMICAApp(store, mica.DefaultOpCost(fabric.Default()), 10, 4, 64); err == nil {
		t.Fatal("short keys should fail")
	}
}

func TestMICAAppPrepareShapes(t *testing.T) {
	app := newTestApp(t, 4, 0.01)
	rng := sim.NewRNG(1)
	ops := map[rpcproto.Op]int{}
	for i := 0; i < 20000; i++ {
		var r rpcproto.Request
		app.Prepare(&r, rng)
		ops[r.Op]++
		if r.Service <= 0 {
			t.Fatal("no service time")
		}
		if len(r.Payload) != 16 {
			t.Fatalf("key len %d", len(r.Payload))
		}
		if int(r.Conn) != app.Store.Partition(r.Payload) {
			t.Fatal("conn is not the EREW partition")
		}
		if r.Op == rpcproto.OpSet && r.Size <= 16+16 {
			t.Fatal("SET size should include the value")
		}
	}
	scanRate := float64(ops[rpcproto.OpScan]) / 20000
	if math.Abs(scanRate-0.01) > 0.004 {
		t.Fatalf("scan rate = %v", scanRate)
	}
	// GET/SET roughly even split of the remainder.
	if ops[rpcproto.OpGet] < 8000 || ops[rpcproto.OpSet] < 8000 {
		t.Fatalf("op mix: %v", ops)
	}
}

func TestMICAAppExecutesRealWork(t *testing.T) {
	app := newTestApp(t, 2, 0)
	rng := sim.NewRNG(2)
	before := app.Store.Stats()
	for i := 0; i < 1000; i++ {
		var r rpcproto.Request
		app.Prepare(&r, rng)
		r.OnExecute(&r)
	}
	after := app.Store.Stats()
	if after.Gets <= before.Gets {
		t.Fatal("no real GETs executed")
	}
	if after.Sets <= before.Sets {
		t.Fatal("no real SETs executed")
	}
	// Preloaded keys: GETs must overwhelmingly hit.
	hitRate := float64(after.GetHits-before.GetHits) / float64(after.Gets-before.Gets)
	if hitRate < 0.95 {
		t.Fatalf("hit rate = %v", hitRate)
	}
}

func TestMICAAppExecuteIsAllocationFree(t *testing.T) {
	// Every request's OnExecute is one pre-bound func working in app-
	// owned scratch: the real GET, SET and SCAN touch the heap not at
	// all, and a SET stores ValLen copies of the key id's low byte.
	app := newTestApp(t, 2, 0.2)
	rng := sim.NewRNG(5)
	reqs := map[rpcproto.Op]*rpcproto.Request{}
	for len(reqs) < 3 {
		r := new(rpcproto.Request)
		app.Prepare(r, rng)
		reqs[r.Op] = r
	}
	for op, r := range reqs {
		if got := testing.AllocsPerRun(100, func() { r.OnExecute(r) }); got != 0 {
			t.Errorf("%v: OnExecute allocates %v times, want 0", op, got)
		}
	}
	set := reqs[rpcproto.OpSet]
	v, ok := app.Store.Get(set.Payload)
	if !ok || len(v) != app.ValLen {
		t.Fatalf("after SET: %d bytes, hit %v", len(v), ok)
	}
	for _, b := range v {
		if b != set.Payload[0] {
			t.Fatalf("SET stored %#x, want the key id's low byte %#x", b, set.Payload[0])
		}
	}
}

func TestMICAAppMigratedPenalty(t *testing.T) {
	app := newTestApp(t, 2, 0)
	rng := sim.NewRNG(3)
	var r rpcproto.Request
	app.Prepare(&r, rng)
	base := r.Service
	r.Migrated = true
	r.OnExecute(&r)
	if r.Service != base+app.Cost.RemotePenalty {
		t.Fatalf("penalty not applied: %v -> %v", base, r.Service)
	}
}

func TestMICAAppMeanService(t *testing.T) {
	app := newTestApp(t, 2, 0.005)
	m := app.MeanService()
	// ~50ns GET/SET + 0.5% of 50us SCAN -> ~300ns.
	if m < 200*sim.Nanosecond || m > 500*sim.Nanosecond {
		t.Fatalf("mean service = %v", m)
	}
	app.FixedService = 850 * sim.Nanosecond
	if app.MeanService() != 850*sim.Nanosecond {
		t.Fatal("fixed service override")
	}
}

func TestMICAEndToEndRun(t *testing.T) {
	app := newTestApp(t, 4, 0)
	mean := app.MeanService()
	rate := 0.5 * 12 / mean.Seconds() // 50% load on 12 workers
	p := core.DefaultParams(4, 3)
	res, err := Run(Config{
		Kind: SchedAltocumulus, AC: p, Stack: rpcproto.StackNanoRPC,
		Steer: nic.SteerDirect, Seed: 11,
	}, Workload{
		Arrivals: dist.Poisson{Rate: rate}, App: app, N: 5000, Warmup: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lat.Len() != 4500 {
		t.Fatalf("sample %d", res.Lat.Len())
	}
	st := app.Store.Stats()
	if st.Gets == 0 || st.Sets == 0 {
		t.Fatal("store saw no traffic")
	}
	// At 50% load with direct steering, p50 is service plus the fixed
	// pipeline floor (NIC front end, hw stack, LLC transfer, dispatch:
	// ~170 ns) and modest queueing.
	if res.Summary.P50 > mean+400*sim.Nanosecond {
		t.Fatalf("p50 = %v vs mean %v", res.Summary.P50, mean)
	}
}

func TestSteerDirect(t *testing.T) {
	s := nic.NewSteerer(nic.SteerDirect, 4, nil)
	for conn := uint32(0); conn < 16; conn++ {
		if got := s.Steer(&rpcproto.Request{Conn: conn}); got != int(conn)%4 {
			t.Fatalf("direct steer %d = %d", conn, got)
		}
	}
	if nic.SteerDirect.String() != "direct" {
		t.Fatal("stringer")
	}
}

func TestMICAAppHotAndZipfSkew(t *testing.T) {
	app := newTestApp(t, 4, 0)
	rng := sim.NewRNG(9)

	// Hot set: 40% of traffic on 64 keys.
	app.HotFrac = 0.4
	hot := 0
	for i := 0; i < 20000; i++ {
		var r rpcproto.Request
		app.Prepare(&r, rng)
		if binaryKeyID(r.Payload) < 64 {
			hot++
		}
	}
	if frac := float64(hot) / 20000; frac < 0.35 || frac > 0.48 {
		t.Fatalf("hot fraction = %v", frac)
	}

	// Zipf: rank 0 dominates.
	app.HotFrac = 0
	z, err := dist.NewZipf(app.Keys, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	app.Zipf = z
	counts := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		var r rpcproto.Request
		app.Prepare(&r, rng)
		counts[binaryKeyID(r.Payload)]++
	}
	if counts[0] < 500 {
		t.Fatalf("zipf head count = %d", counts[0])
	}
}

// binaryKeyID extracts the key id MICAApp encodes in the first 8 bytes.
func binaryKeyID(key []byte) uint64 {
	var id uint64
	for i := 7; i >= 0; i-- {
		id = id<<8 | uint64(key[i])
	}
	return id
}
