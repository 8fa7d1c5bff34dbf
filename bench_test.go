package altocumulus

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, each regenerating the artifact at quick scale (use
// `go run ./cmd/altobench -exp <id> -scale full` for full-fidelity runs;
// EXPERIMENTS.md records the full-scale outputs).
//
// The reported metric is wall time per full experiment regeneration;
// each benchmark also reports simulated-request throughput via
// b.ReportMetric where meaningful.

import (
	"encoding/binary"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/fleet"
	"repro/internal/live"
	"repro/internal/mica"
	"repro/internal/nic"
	"repro/internal/policy"
	"repro/internal/rack"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(experiments.ScaleQuick, uint64(i)+1); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkFig01 regenerates Fig. 1 (stack processing vs scheduling).
func BenchmarkFig01(b *testing.B) { benchExperiment(b, "fig01") }

// BenchmarkFig03 regenerates Fig. 3 (scheduling-overhead load sweep).
func BenchmarkFig03(b *testing.B) { benchExperiment(b, "fig03") }

// BenchmarkFig07 regenerates Fig. 7 (violation ratio vs queue length and
// the E[T] threshold model).
func BenchmarkFig07(b *testing.B) { benchExperiment(b, "fig07") }

// BenchmarkFig09 regenerates Fig. 9 (NetRX imbalance snapshot).
func BenchmarkFig09(b *testing.B) { benchExperiment(b, "fig09") }

// BenchmarkFig10 regenerates Fig. 10 (tail vs throughput, all systems).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig10Serial regenerates Fig. 10 with the cross-run fleet
// forced to width 1 — the baseline for the parallel-speedup comparison
// recorded in BENCH_sim.json.
func BenchmarkFig10Serial(b *testing.B) {
	fleet.SetParallelism(1)
	defer fleet.SetParallelism(0)
	benchExperiment(b, "fig10")
}

// BenchmarkFig10Par4 regenerates Fig. 10 at fleet width 4. On a box
// with >=4 cores this should beat BenchmarkFig10Serial by ~2x or more
// (the sweep has more points than workers, so scaling is not perfectly
// linear); on a single-core box the two are expected to tie.
func BenchmarkFig10Par4(b *testing.B) {
	fleet.SetParallelism(4)
	defer fleet.SetParallelism(0)
	benchExperiment(b, "fig10")
}

// BenchmarkFig11 regenerates Fig. 11 (Bulk and Period sensitivity).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12a regenerates Fig. 12(a) (group-size exploration).
func BenchmarkFig12a(b *testing.B) { benchExperiment(b, "fig12a") }

// BenchmarkFig12b regenerates Fig. 12(b,c) (migration effectiveness).
func BenchmarkFig12b(b *testing.B) { benchExperiment(b, "fig12b") }

// BenchmarkFig13a regenerates Fig. 13(a) (MICA scaling + accuracy).
func BenchmarkFig13a(b *testing.B) { benchExperiment(b, "fig13a") }

// BenchmarkFig13b regenerates Fig. 13(b) (case studies 1-2).
func BenchmarkFig13b(b *testing.B) { benchExperiment(b, "fig13b") }

// BenchmarkFig13c regenerates Fig. 13(c) (accuracy vs SLO target).
func BenchmarkFig13c(b *testing.B) { benchExperiment(b, "fig13c") }

// BenchmarkFig14 regenerates Fig. 14 (MICA adaptability, ISA vs MSR).
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkSimulatorThroughput measures raw simulator speed: simulated
// requests per wall second through a full 64-core ALTOCUMULUS server at
// 80% load — the figure of merit for the DES substrate itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	svc := Exponential(time.Microsecond)
	rate := dist.LoadForRate(0.8, 60, svc)
	const nPerRun = 50000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := NewServer(4, 15)
		cfg.Seed = uint64(i) + 1
		if _, err := Run(cfg, PoissonWorkload(rate, svc, nPerRun)); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)*nPerRun/elapsed, "simreq/s")
	}
}

// BenchmarkRequestLifecycle measures the steady-state per-request path
// end to end: generate -> arrive -> deliver -> queue -> execute ->
// complete -> recycle, through full fixed-size server runs on a warm
// Scratch. The derived allocs/req metric is the one to watch: with the
// request arena and pre-bound callbacks it should be ~0 (the residue is
// per-run setup amortized over the requests, not per-request cost).
func BenchmarkRequestLifecycle(b *testing.B) {
	svc := dist.Exponential{M: sim.Microsecond}
	const (
		cores = 4
		n     = 5000
	)
	wl := server.Workload{
		Arrivals: dist.Poisson{Rate: dist.LoadForRate(0.7, cores, svc)},
		Service:  svc,
		N:        n, Conns: 64,
	}
	sc := server.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := server.Config{
			Kind: server.SchedRSS, Cores: cores, Stack: rpcproto.StackNanoRPC,
			Steer: nic.SteerConnection, Seed: uint64(i) + 1,
		}
		if _, err := server.RunWith(sc, cfg, wl); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/req")
}

// BenchmarkQueueLens measures the scratch-buffer queue-length snapshot
// on each scheduler implementation — the path the AC manager tick and
// the invariant checker hit every Period. All variants must stay at
// 0 allocs/op once the scratch has grown to size.
func BenchmarkQueueLens(b *testing.B) {
	const cores = 16
	nop := func(*rpcproto.Request) {}
	cost := fabric.Default()
	build := map[string]func(eng *sim.Engine) sched.Scheduler{
		"DFCFS": func(eng *sim.Engine) sched.Scheduler {
			st := nic.NewSteerer(nic.SteerConnection, cores, sim.NewRNG(3))
			return sched.NewDFCFS(eng, cores, st, cost.CacheMiss, nop)
		},
		"Steal": func(eng *sim.Engine) sched.Scheduler {
			st := nic.NewSteerer(nic.SteerConnection, cores, sim.NewRNG(3))
			return sched.NewSteal(eng, cores, st, cost.CacheMiss, cost.StealAttempt, sim.NewRNG(4), nop)
		},
		"Central": func(eng *sim.Engine) sched.Scheduler {
			return sched.NewCentral(eng, cores-1, 200*sim.Nanosecond, cost.CoherenceMsg,
				5*sim.Microsecond, cost.PreemptCost, nop)
		},
		"JBSQ": func(eng *sim.Engine) sched.Scheduler {
			return sched.NewJBSQ(eng, cores, sched.VariantRPCValet, 2, cost.CacheMiss,
				6*sim.Nanosecond, 0, 0, nop)
		},
		"RSSPlus": func(eng *sim.Engine) sched.Scheduler {
			return sched.NewRSSPlus(eng, cores, 4*cores, cost.CacheMiss, 20*sim.Microsecond, nop)
		},
		"Altocumulus": func(eng *sim.Engine) sched.Scheduler {
			st := nic.NewSteerer(nic.SteerConnection, 4, sim.NewRNG(3))
			s, err := core.New(eng, core.DefaultParams(4, 4), cost, st, nop)
			if err != nil {
				b.Fatal(err)
			}
			return s
		},
	}
	for _, name := range []string{"DFCFS", "Steal", "Central", "JBSQ", "RSSPlus", "Altocumulus"} {
		b.Run(name, func(b *testing.B) {
			s := build[name](sim.NewEngine())
			var buf []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.QueueLensInto(buf)
			}
			_ = buf
		})
	}
}

// policyTick runs one manager's complete per-tick decision sequence —
// threshold from the Erlang-C model, Decide over the view, batch sizing,
// the Algorithm 1 guard and migrate-once counting for every planned
// destination — on warm caller scratch. Both engines run exactly this
// sequence every Period, so it must not allocate.
func policyTick(model *policy.ThresholdModel, view []int, self int, offered float64, order, dests []int) int {
	t := model.Threshold(offered)
	_, _, plan := policy.Decide(view, self, t, 16, 3, true, order, dests)
	planned := 0
	batch := policy.BatchSize(16, len(plan))
	for _, dst := range plan {
		if !policy.GuardAllows(view[self], view[dst], batch) {
			continue
		}
		planned += policy.MigratableCount(view[self], batch, func(i int) bool { return false })
	}
	return planned
}

// BenchmarkPolicyTick measures the engine-agnostic decision core's
// per-tick cost. Watch allocs/op: it must be 0 (TestPolicyTickZeroAlloc
// is the hard gate; this records the ns/op trend in BENCH_sim.json).
func BenchmarkPolicyTick(b *testing.B) {
	model := policy.NewThresholdModel(15, 10)
	views := [4][]int{
		{42, 3, 7, 1, 9, 2, 5, 4},       // hill
		{12, 14, 0, 13, 15, 12, 14, 13}, // valley
		{29, 25, 20, 16, 11, 7, 4, 1},   // pairing staircase
		{6, 5, 6, 5, 6, 5, 6, 5},        // balanced: threshold path only
	}
	order := make([]int, 0, 8)
	dests := make([]int, 0, 8)
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := views[i%4]
		sink += policyTick(model, v, i%len(v), 0.5+float64(i%8), order, dests)
	}
	_ = sink
}

// TestPolicyTickZeroAlloc is the hard zero-allocation gate on the
// policy core's per-tick path (the benchmark only records the trend).
func TestPolicyTickZeroAlloc(t *testing.T) {
	model := policy.NewThresholdModel(15, 10)
	view := []int{42, 3, 7, 1, 9, 2, 5, 4}
	order := make([]int, 0, len(view))
	dests := make([]int, 0, len(view))
	// Warm the scratch and the threshold memo outside the measurement.
	policyTick(model, view, 0, 3.5, order, dests)
	if avg := testing.AllocsPerRun(100, func() {
		policyTick(model, view, 0, 3.5, order, dests)
	}); avg != 0 {
		t.Fatalf("policy tick allocates %.1f times per run, want 0", avg)
	}
}

// BenchmarkRackDispatch measures the inter-server tier's per-arrival
// decision cost — one Dispatcher.Pick on a warm 16-server depth view,
// with a periodic ObserveAll standing in for the relay's sampling
// ticker — per dispatch policy. Watch allocs/op: it must be 0
// (TestRackDispatchZeroAlloc is the hard gate; this records the ns/op
// trend in BENCH_sim.json). The live relay pays exactly this plus one
// mutex acquisition per relayed RPC.
func BenchmarkRackDispatch(b *testing.B) {
	for _, pol := range []rack.Kind{rack.RoundRobin, rack.JSQ, rack.PowerOfK, rack.Affinity} {
		b.Run(pol.String(), func(b *testing.B) {
			d, err := rack.NewDispatcher(rack.Config{Servers: 16, Policy: pol, K: 2})
			if err != nil {
				b.Fatal(err)
			}
			rng := rack.NewSplitMix(1)
			depths := make([]int, d.Servers())
			sink := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%64 == 0 {
					for s := range depths {
						depths[s] = (i + 3*s) % 7
					}
					d.ObserveAll(depths, policy.Duration(i))
				}
				dec := d.Pick(uint32(i), policy.Duration(i), rng)
				sink += dec.Server
			}
			_ = sink
		})
	}
}

// TestRackDispatchZeroAlloc is the hard zero-allocation gate on the
// dispatch tier's per-arrival path: every policy's Pick, and the
// ObserveAll refresh, must run entirely on the dispatcher's pre-sized
// scratch (the benchmark only records the trend).
func TestRackDispatchZeroAlloc(t *testing.T) {
	for _, pol := range []rack.Kind{rack.RoundRobin, rack.JSQ, rack.PowerOfK, rack.Affinity} {
		d, err := rack.NewDispatcher(rack.Config{Servers: 16, Policy: pol, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		rng := rack.NewSplitMix(9)
		depths := make([]int, d.Servers())
		i := uint32(0)
		// Warm one full cycle outside the measurement.
		d.ObserveAll(depths, 0)
		d.Pick(0, 0, rng)
		if avg := testing.AllocsPerRun(100, func() {
			i++
			d.ObserveAll(depths, policy.Duration(i))
			d.Pick(i, policy.Duration(i), rng)
		}); avg != 0 {
			t.Fatalf("%v dispatch allocates %.1f times per run, want 0", pol, avg)
		}
	}
}

// liveLoopback is the shared harness of the loopback benchmark and the
// zero-alloc gate: a runtime + TCP server + persistent loadgen Client,
// so measured rounds exercise only the steady-state data plane (no
// dialing, no goroutine spawn per request, warm arenas and rings).
type liveLoopback struct {
	rt   *live.Runtime
	srv  *live.Server
	wait func() error
	cl   *live.Client
}

// newLiveLoopback serves h; a nil prepare leaves every request the
// loadgen's default 16-byte ECHO.
func newLiveLoopback(tb testing.TB, h live.Handler, prepare func(r *rpcproto.Request, conn, seq int), expected, conns, depth int) *liveLoopback {
	tb.Helper()
	rt, err := live.New(live.Config{
		Groups: 2, WorkersPerGroup: 2, WorkerDepth: depth, Expected: expected,
	}, h)
	if err != nil {
		tb.Fatal(err)
	}
	rt.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := live.NewServer(rt)
	lb := &liveLoopback{rt: rt, srv: srv, wait: srv.ServeBackground(ln)}
	lb.cl, err = live.NewLoadgenClient(live.LoadgenConfig{
		Addr: ln.Addr().String(), Conns: conns, Prepare: prepare,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return lb
}

// round drives n requests at max rate and checks full delivery.
func (lb *liveLoopback) round(tb testing.TB, n int) *live.LoadgenResult {
	tb.Helper()
	res, err := lb.cl.Run(n, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Received != uint64(n) {
		tb.Fatalf("received %d of %d", res.Received, n)
	}
	return res
}

// teardown closes everything and asserts conservation plus a clean
// data plane: every arena slot released exactly once.
func (lb *liveLoopback) teardown(tb testing.TB) {
	tb.Helper()
	lb.cl.Close()
	if err := lb.rt.Drain(30 * time.Second); err != nil {
		tb.Fatal(err)
	}
	if err := lb.wait(); err != nil {
		tb.Fatal(err)
	}
	lb.rt.Close()
	if err := lb.rt.Report().Check.Err(); err != nil {
		tb.Fatal(err)
	}
	if leaked, stale := lb.srv.DataPlaneStats(); leaked != 0 || stale != 0 {
		tb.Fatalf("data plane: %d leaked arena slot(s), %d stale release(s)", leaked, stale)
	}
}

// BenchmarkLiveLoopback measures the real goroutine runtime end to end:
// TCP loopback, rpcproto frame batching, arena-pooled requests, manager
// dispatch, policy-driven migration, vectored response writes. One
// iteration is a 20k-request open-loop round on a persistent session;
// rpc/s is the headline metric and allocs/op the zero-alloc gate's
// trend line (TestLiveLoopbackZeroAlloc is the hard gate).
func BenchmarkLiveLoopback(b *testing.B) {
	benchLiveLoopback(b, live.EchoHandler{}, nil)
}

func benchLiveLoopback(b *testing.B, h live.Handler, prepare func(r *rpcproto.Request, conn, seq int)) {
	const n = 20000
	lb := newLiveLoopback(b, h, prepare, (b.N+1)*n, 4, 64)
	lb.round(b, n) // warm arenas, rings, pools: measure steady state only
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb.round(b, n)
	}
	b.StopTimer()
	tot := lb.cl.Totals()
	lb.teardown(b)
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)*n/elapsed, "rpc/s")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/rpc")
	}
	b.ReportMetric(float64(tot.P50.Nanoseconds()), "p50_ns")
	b.ReportMetric(float64(tot.P99.Nanoseconds()), "p99_ns")
	b.ReportMetric(float64(tot.P999.Nanoseconds()), "p999_ns")
}

// TestLiveLoopbackZeroAlloc is the hard allocation gate on the live
// data plane: after a warm round, a full 20k-request round — loadgen
// send, server decode/schedule/execute/respond, loadgen receive — must
// average at most one heap allocation per RPC across the whole process.
// GC is disabled during the measurement so pool clearing cannot charge
// the round for refills it didn't cause.
func TestLiveLoopbackZeroAlloc(t *testing.T) {
	perRPC, _ := liveRoundAllocs(t, live.EchoHandler{}, nil)
	if perRPC > 1.0 {
		t.Fatalf("live data plane allocates %.4f times per RPC, want <= 1.0", perRPC)
	}
}

// liveRoundAllocs returns the heap objects and bytes per RPC, across
// the whole process, of one steady-state 20k-request round.
func liveRoundAllocs(t *testing.T, h live.Handler, prepare func(r *rpcproto.Request, conn, seq int)) (objects, bytes float64) {
	const n = 20000
	lb := newLiveLoopback(t, h, prepare, 2*n, 4, 64)
	lb.round(t, n) // warm arenas, rings, pools, ledger, deques
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lb.round(t, n)
	runtime.ReadMemStats(&after)
	lb.teardown(t)
	objects = float64(after.Mallocs-before.Mallocs) / n
	bytes = float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("steady-state allocations: %d (%d bytes) over %d RPCs = %.4f/RPC, %.1f B/RPC",
		after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc, n, objects, bytes)
	return objects, bytes
}

// The MICA shape the live KV workload serves: 100k 16-byte keys with
// 512-byte values over 4 partitions, every key preloaded.
const (
	kvKeys   = 100000
	kvKeyLen = 16
	kvValLen = 512
)

func kvKey(dst []byte, id uint64) {
	for i := range dst {
		dst[i] = 'k'
	}
	binary.LittleEndian.PutUint64(dst, id)
}

func newKVStore(tb testing.TB) *mica.Store {
	tb.Helper()
	store, err := mica.NewStore(mica.Config{
		Partitions: 4, BucketsPerPart: 1 << 15, EntriesPerBucket: 8, LogBytesPerPart: 48 << 20,
	})
	if err != nil {
		tb.Fatal(err)
	}
	key, val := make([]byte, kvKeyLen), make([]byte, kvValLen)
	for i := 0; i < kvKeys; i++ {
		kvKey(key, uint64(i))
		if err := store.Set(key, val); err != nil {
			tb.Fatal(err)
		}
	}
	return store
}

// kvPrepare is a 90 % GET / 10 % same-size SET mix over the preloaded
// keys, from per-connection buffers the client marshals before the same
// connection asks again.
func kvPrepare(conns int) func(r *rpcproto.Request, conn, seq int) {
	gets, sets := make([][]byte, conns), make([][]byte, conns)
	for c := range gets {
		gets[c] = make([]byte, kvKeyLen)
		sets[c] = live.EncodeSet(gets[c], make([]byte, kvValLen))
	}
	return func(r *rpcproto.Request, conn, seq int) {
		id := uint64(seq*conns+conn) * 7919 % kvKeys
		if seq%10 == 0 {
			r.Op = rpcproto.OpSet
			kvKey(sets[conn][2:2+kvKeyLen], id)
			r.Payload = sets[conn]
			return
		}
		r.Op = rpcproto.OpGet
		kvKey(gets[conn], id)
		r.Payload = gets[conn]
	}
}

// BenchmarkMICAGet is one GET of a resident 512-byte value into a
// caller's buffer: index probe, in-log key compare, one copy out of the
// circular log. allocs/op must be 0.
func BenchmarkMICAGet(b *testing.B) {
	store := newKVStore(b)
	key, dst := make([]byte, kvKeyLen), make([]byte, 0, kvValLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kvKey(key, uint64(i)*7919%kvKeys)
		if v, ok := store.AppendGet(dst, key); !ok || len(v) != kvValLen {
			b.Fatalf("GET of resident key %d: %d bytes, hit %v", uint64(i)*7919%kvKeys, len(v), ok)
		}
	}
}

// BenchmarkMICASet is one same-size SET of a resident key: the value is
// overwritten where it lies in the log. allocs/op must be 0.
func BenchmarkMICASet(b *testing.B) {
	store := newKVStore(b)
	key, val := make([]byte, kvKeyLen), make([]byte, kvValLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kvKey(key, uint64(i)*7919%kvKeys)
		if err := store.Set(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveKVLoopback is BenchmarkLiveLoopback with the MICA store
// behind the runtime: the same 20k-request rounds, 90 % GETs answered
// with 512-byte values and 10 % SETs. Against the echo figure it prices
// the service stage.
func BenchmarkLiveKVLoopback(b *testing.B) {
	benchLiveLoopback(b, live.NewKVHandler(newKVStore(b)), kvPrepare(4))
}

// TestLiveKVZeroAlloc is TestLiveLoopbackZeroAlloc for the KV service.
// The object count of a round is per write batch, not per request, and
// swings tenfold with the batches the host's scheduling gives, so it
// gets the echo test's bound; the bytes do not swing, and nine requests
// in ten are GETs of 512-byte values, so one heap copy of the value
// anywhere between the log and the response frame adds 460 bytes per RPC
// (the parent commit made three). The exact zero for the service stage
// alone is live's TestKVGetThroughWorkerZeroAlloc.
func TestLiveKVZeroAlloc(t *testing.T) {
	perRPC, bytesPerRPC := liveRoundAllocs(t, live.NewKVHandler(newKVStore(t)), kvPrepare(4))
	if perRPC > 1.0 {
		t.Fatalf("live KV data plane allocates %.4f times per RPC, want <= 1.0", perRPC)
	}
	if bytesPerRPC > 256 {
		t.Fatalf("live KV data plane allocates %.1f bytes per RPC, want <= 256", bytesPerRPC)
	}
}

// BenchmarkEngineEvents measures the bare event loop: schedule+run cost
// per event.
func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.After(sim.Nanosecond, func() {})
		if i%4096 == 4095 {
			eng.RunAll()
		}
	}
	eng.RunAll()
}

func nopEvent() {}

// BenchmarkEngineEventsDeep measures the event loop with a deep pending
// backlog parked ~1 simulated second out: the timer wheel's near-band
// push/pop should stay flat as the backlog grows (the far heap holds it
// untouched), where a single binary heap pays O(log pending) per
// operation. The measured mix is ~7/8 in-window deltas and 1/8 past the
// ~4.2 us window, so migration and the far heap see steady traffic.
func BenchmarkEngineEventsDeep(b *testing.B) {
	// Sub-benchmark names must not end in digits: go test's own -N
	// GOMAXPROCS suffix (and benchjson's parser) would swallow them.
	for _, c := range []struct {
		name  string
		depth int
	}{{"pending-10k", 10_000}, {"pending-100k", 100_000}, {"pending-1M", 1_000_000}} {
		b.Run(c.name, func(b *testing.B) {
			eng := sim.NewEngine()
			for j := 0; j < c.depth; j++ {
				eng.After(sim.Second+sim.Time(j)*sim.Microsecond, nopEvent)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := sim.Nanosecond * sim.Time(1+i%3000)
				if i%8 == 7 {
					d = 33 * sim.Microsecond // past the wheel window: far heap
				}
				eng.After(d, nopEvent)
				if i%4096 == 4095 {
					eng.Run(eng.Now() + 4*sim.Microsecond)
				}
			}
			b.StopTimer()
			eng.RunAll()
		})
	}
}

// BenchmarkBigTopoTick measures one manager's per-tick decision on
// big-topology grids: a handful of queue-depth changes land in the
// RankTracker, then threshold + DecideRanked run over the repaired
// order. This is the O(active) contract in isolation — the tick pays
// for the 8 queues that changed, not the whole group view. Watch
// allocs/op: it must be 0 (TestRankTrackerZeroAlloc and
// TestPolicyTickZeroAlloc are the hard gates).
func BenchmarkBigTopoTick(b *testing.B) {
	for _, g := range []struct {
		name   string
		groups int
	}{{"1024-cores", 64}, {"4096-cores", 128}} {
		b.Run(g.name, func(b *testing.B) {
			tr := policy.NewRankTracker(g.groups)
			model := policy.NewThresholdModel(15, 10)
			dests := make([]int, 0, g.groups)
			for q := 0; q < g.groups; q++ {
				tr.Set(q, (q*7)%23)
			}
			tr.Order()
			sink := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 8; k++ {
					tr.Set((i*13+k*29)%g.groups, (i+k*5)%31)
				}
				t := model.Threshold(0.8)
				_, _, plan := policy.DecideRanked(tr.View(), tr.Order(), i%g.groups, t, 16, 3, true, dests)
				sink += len(plan)
			}
			_ = sink
		})
	}
}

// BenchmarkBigTopoQuick runs one 1024-core AC grid (64 groups of 15+1,
// 1 us period, load 0.5, 200 us of simulated time) per iteration — the
// wall-time record for the big-topology engine. The run ends at the
// last completion and only changed UPDATEs land (DESIGN.md §14), so the
// time is the workload's. benchjson -regress gates ns/op at 2x the
// committed record; the derived bigtopo_quick_ms stays an informational
// note.
func BenchmarkBigTopoQuick(b *testing.B) {
	svc := dist.Exponential{M: sim.Microsecond}
	p := core.DefaultParams(64, 15)
	p.Period = sim.Microsecond
	rate := dist.LoadForRate(0.5, 64*15, svc)
	n := int(rate * (200 * sim.Microsecond).Seconds())
	for i := 0; i < b.N; i++ {
		cfg := server.Config{
			Kind: server.SchedAltocumulus, AC: p,
			Stack: rpcproto.StackNanoRPC, Steer: nic.SteerConnection,
			Seed: uint64(i) + 1, SLO: 50 * sim.Microsecond,
		}
		if _, err := server.Run(cfg, server.Workload{
			Arrivals: dist.Poisson{Rate: rate}, Service: svc,
			N: n, Warmup: n / 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// phaseForwardRig is a warm heterogeneous AC machine (3 general groups
// + 1 accelerator group, 2 workers each, least-loaded forwarding) with
// one preallocated request recycled through it. Each drive() resets the
// request as a 3-phase chain whose middle phase is accelerator-affine,
// delivers it, and runs the engine until it completes — the full
// boundary path: OnPhase seam, in-class pick, offload delay, NetRX
// landing, and the hop back.
type phaseForwardRig struct {
	eng  *sim.Engine
	s    *core.Scheduler
	req  rpcproto.Request
	vec  rpcproto.PhaseVec  // req's phase sidecar, reused like req
	plan rpcproto.PhasePlan // the chain's constants, shared by every drive
}

func newPhaseForwardRig(tb testing.TB) *phaseForwardRig {
	tb.Helper()
	eng := sim.NewEngine()
	p := core.DefaultParams(4, 2)
	p.GroupClass = []uint8{0, 0, 0, 1}
	p.Forward = core.ForwardLeastLoaded
	p.ForwardSeed = 1
	st := nic.NewSteerer(nic.SteerDirect, 4, nil)
	s, err := core.New(eng, p, fabric.Default(), st, func(*rpcproto.Request) {})
	if err != nil {
		tb.Fatal(err)
	}
	rg := &phaseForwardRig{eng: eng, s: s}
	rg.plan.Class[1], rg.plan.Speedup[1], rg.plan.Offload[1] = 1, 4, 20*sim.Nanosecond
	return rg
}

func (rg *phaseForwardRig) drive(id uint64) {
	r := &rg.req
	rg.vec = rpcproto.PhaseVec{Plan: &rg.plan}
	*r = rpcproto.Request{ID: id, Conn: uint32(id), Arrival: rg.eng.Now(), NumPhases: 3, PhaseVec: &rg.vec}
	for i := 0; i < 3; i++ {
		r.PhaseSvc[i] = 200 * sim.Nanosecond
	}
	r.Service = 600 * sim.Nanosecond
	rg.s.Deliver(r)
	rg.eng.Run(rg.eng.Now() + 5*sim.Microsecond)
}

// BenchmarkPhaseForward measures the per-request cost of a 3-phase
// chain with one accelerator round trip on the hetero AC machine —
// two phase-boundary forwards plus ~80 manager ticks per 5 us window.
// Watch allocs/op: it must be 0 (TestPhaseForwardZeroAlloc is the hard
// gate; this records the ns/op trend in BENCH_sim.json).
func BenchmarkPhaseForward(b *testing.B) {
	rg := newPhaseForwardRig(b)
	rg.drive(0) // warm event pool, dispatcher scratch, forward RNG
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.drive(uint64(i) + 1)
	}
	b.StopTimer()
	rg.s.Stop()
	if rg.s.Stats.PhaseForwards < 2*uint64(b.N) {
		b.Fatalf("forwards %d < %d: chains not crossing class boundaries", rg.s.Stats.PhaseForwards, 2*b.N)
	}
}

// migrateBatchRig is a warm homogeneous AC machine (4 groups x 2
// workers, hardware messaging) with sixteen preallocated requests
// recycled through it. Each drive() lands the whole burst on group 0,
// whose manager sees a Hill and spreads the queue tail over the idle
// groups in MIGRATE batches — stage, send FIFO, NoC, receive FIFO,
// drain, ACK — and runs the engine until every request has completed.
type migrateBatchRig struct {
	eng  *sim.Engine
	s    *core.Scheduler
	reqs [16]rpcproto.Request
	done int
}

func newMigrateBatchRig(tb testing.TB) *migrateBatchRig {
	tb.Helper()
	rg := &migrateBatchRig{eng: sim.NewEngine()}
	st := nic.NewSteerer(nic.SteerDirect, 4, nil)
	s, err := core.New(rg.eng, core.DefaultParams(4, 2), fabric.Default(), st, func(*rpcproto.Request) { rg.done++ })
	if err != nil {
		tb.Fatal(err)
	}
	rg.s = s
	return rg
}

func (rg *migrateBatchRig) drive(tb testing.TB) {
	rg.done = 0
	for i := range rg.reqs {
		r := &rg.reqs[i]
		*r = rpcproto.Request{ID: uint64(i), Conn: 0, Arrival: rg.eng.Now(), Service: sim.Microsecond, Size: 300}
		rg.s.Deliver(r)
	}
	rg.eng.Run(rg.eng.Now() + 20*sim.Microsecond)
	if rg.done != len(rg.reqs) {
		tb.Fatalf("burst completed %d of %d requests", rg.done, len(rg.reqs))
	}
}

// BenchmarkMigrateBatch measures one skewed 16-request burst rebalanced
// by MIGRATE on the warm 4-group machine, ~400 manager ticks per 20 us
// window included. Watch allocs/op: the pooled migration records and
// the FIFO rings make it 0 (TestMigrateZeroAlloc in internal/core is the
// hard gate; this records the trend in BENCH_sim.json). batches/op says
// how many MIGRATEs an op carried.
func BenchmarkMigrateBatch(b *testing.B) {
	rg := newMigrateBatchRig(b)
	for i := 0; i < 64; i++ { // warm the event pool, queues, MR slots and record pool
		rg.drive(b)
	}
	before := rg.s.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.drive(b)
	}
	b.StopTimer()
	rg.s.Stop()
	batches := rg.s.Stats.Migrations - before.Migrations
	if batches < uint64(b.N) || rg.s.Stats.MigratedReqs == before.MigratedReqs {
		b.Fatalf("%d MIGRATEs over %d bursts: the skew is not being migrated", batches, b.N)
	}
	b.ReportMetric(float64(batches)/float64(b.N), "batches/op")
}

// TestPhaseForwardZeroAlloc is the hard zero-allocation gate on the
// phase-boundary forwarding path (the benchmark only records the
// trend): once pools are warm, a full 3-phase chain with an
// accelerator round trip must not allocate.
func TestPhaseForwardZeroAlloc(t *testing.T) {
	rg := newPhaseForwardRig(t)
	id := uint64(0)
	// Warm deep: beyond the event pool and dispatcher scratch, the
	// timer wheel grows lazily as simulated time advances, trickling
	// allocations for the first few ms of sim time. ~5 ms (1024 5 us
	// windows) reaches the fully-grown steady state.
	for i := 0; i < 1024; i++ {
		id++
		rg.drive(id)
	}
	if avg := testing.AllocsPerRun(100, func() {
		id++
		rg.drive(id)
	}); avg != 0 {
		t.Fatalf("phase forward allocates %.1f times per chain, want 0", avg)
	}
	rg.s.Stop()
}
