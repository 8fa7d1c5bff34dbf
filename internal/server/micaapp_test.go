package server

import (
	"bytes"
	"encoding/binary"
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
	app, err := NewMICA(partitions, mica.DefaultOpCost(fabric.Default()), 10000, 16, 512)
	if err != nil {
		t.Fatal(err)
	}
	app.ScanFrac = scanFrac
	return app
}

// canonicalKey is the key a MICA client sends for key id: the id in the
// first 8 bytes, little endian, padded with 'k' to keyLen bytes.
func canonicalKey(id uint64, keyLen int) []byte {
	key := bytes.Repeat([]byte{'k'}, keyLen)
	binary.LittleEndian.PutUint64(key, id)
	return key
}

func TestNewMICAAppValidation(t *testing.T) {
	store, _ := mica.NewStore(mica.Config{Partitions: 1, BucketsPerPart: 8, EntriesPerBucket: 2, LogBytesPerPart: 1 << 16})
	if _, err := NewMICAApp(store, mica.DefaultOpCost(fabric.Default()), 0, 16, 64); err == nil {
		t.Fatal("keys=0 should fail")
	}
	if _, err := NewMICAApp(store, mica.DefaultOpCost(fabric.Default()), 10, 4, 64); err == nil {
		t.Fatal("short keys should fail")
	}
	if _, err := NewMICA(0, mica.DefaultOpCost(fabric.Default()), 10, 16, 64); err == nil {
		t.Fatal("partitions=0 should fail")
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
		if r.Service != app.Cost.Time(r.Op, app.ValLen, false) {
			t.Fatalf("%v: service %v is not the op cost", r.Op, r.Service)
		}
		if r.Conn >= 4 {
			t.Fatalf("conn %d is not one of the 4 partitions", r.Conn)
		}
		size := 16 + app.KeyLen
		if r.Op == rpcproto.OpSet {
			size += app.ValLen // a SET carries its value
		}
		if r.Size != size {
			t.Fatalf("%v: size %d, want %d", r.Op, r.Size, size)
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

// TestMICAAppPlacementMatchesStore is the differential for EREW
// placement: for every key id, the partition Prepare assigns is the one
// a real store with the same partition count holds the canonical key in.
// Prepare draws the key id first, so a copy of the generator taken just
// before the call names the key.
func TestMICAAppPlacementMatchesStore(t *testing.T) {
	const keys = 1000
	for _, parts := range []int{1, 4, 16, 64} {
		app, err := NewMICA(parts, mica.DefaultOpCost(fabric.Default()), keys, 16, 512)
		if err != nil {
			t.Fatal(err)
		}
		store, err := mica.NewStore(mica.Config{
			Partitions: parts, BucketsPerPart: 8, EntriesPerBucket: 2, LogBytesPerPart: 1 << 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(uint64(parts))
		seen := make([]bool, keys)
		for left := keys; left > 0; {
			peek := *rng
			id := peek.Intn(keys)
			var r rpcproto.Request
			app.Prepare(&r, rng)
			if want := store.Partition(canonicalKey(uint64(id), app.KeyLen)); int(r.Conn) != want {
				t.Fatalf("parts=%d key %d: Prepare placed it in %d, the store in %d", parts, id, r.Conn, want)
			}
			if !seen[id] {
				seen[id] = true
				left--
			}
		}
	}
}

func TestMICAAppPrepareIsAllocationFree(t *testing.T) {
	// Prepare hashes each canonical key in app-owned scratch and installs
	// the pre-bound hook: no GET, SET or SCAN draw touches the heap.
	app := newTestApp(t, 4, 0.2)
	rng := sim.NewRNG(5)
	var r rpcproto.Request
	ops := map[rpcproto.Op]bool{}
	if got := testing.AllocsPerRun(1000, func() {
		app.Prepare(&r, rng)
		ops[r.Op] = true
	}); got != 0 {
		t.Errorf("Prepare allocates %v times, want 0", got)
	}
	if len(ops) != 3 {
		t.Fatalf("draws covered %v, want GET, SET and SCAN", ops)
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

func TestMICAAppHotSkew(t *testing.T) {
	// With far more partitions than keys, a request's partition names its
	// key: the hot set is the partitions of the first micaHotKeys keys.
	const parts = 1 << 16
	app := newTestApp(t, parts, 0)
	hotParts := map[uint32]bool{}
	for id := uint64(0); id < micaHotKeys; id++ {
		hotParts[uint32(mica.PartitionOf(mica.Hash(canonicalKey(id, app.KeyLen)), parts))] = true
	}
	rng := sim.NewRNG(9)

	// Hot set: 40% of traffic on 64 keys.
	app.HotFrac = 0.4
	hot := 0
	for i := 0; i < 20000; i++ {
		var r rpcproto.Request
		app.Prepare(&r, rng)
		if hotParts[r.Conn] {
			hot++
		}
	}
	if frac := float64(hot) / 20000; frac < 0.35 || frac > 0.48 {
		t.Fatalf("hot fraction = %v", frac)
	}
}
