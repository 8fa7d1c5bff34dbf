package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/live"
	"repro/internal/mica"
	"repro/internal/rpcproto"
)

// The live workloads drive the real goroutine runtime over TCP on the
// host's loopback interface — no link is crossed, so latencies are the
// box's scheduling and syscall costs, not a network's. They are sized
// for a 2-core box: 2 connections and a 2-group x (1 manager + 1
// worker) runtime, GOMAXPROCS left at the core count.
const (
	liveConns  = 2
	liveWindow = 256 // stage A: closed loop, this many outstanding per connection

	kvKeys   = 100000
	kvKeyLen = 16
	kvValLen = 512
)

// liveSpec is one live workload. Stage A is a closed loop at maximum
// rate (each connection keeps liveWindow requests outstanding and sends
// the next when a reply frees a slot); stage B is an open loop at a
// fixed rate on a fresh runtime and client. Stage-B rounds last a
// quarter of a second: the latency metrics are medians over rounds, and
// many short rounds keep a scheduling hiccup of the shared box inside
// the one or two rounds it hit.
type liveSpec struct {
	name     string
	setups   int     // set-ups per run; setup_s is their median
	payload  int     // request payload bytes, picks the codec figures
	roundA   int     // requests per stage-A round
	roundB   int     // requests per stage-B round
	rateB    float64 // stage-B offered rate, requests/s
	peakRate float64 // sizes the conservation ledger for stage A
	kv       bool
}

var liveSpecs = []liveSpec{
	{name: "live-echo", setups: 5, payload: 16, roundA: 200000, roundB: 12500, rateB: 50000, peakRate: 1.2e6},
	{name: "live-kv", setups: 3, payload: kvValLen, roundA: 100000, roundB: 7500, rateB: 30000, peakRate: 0.5e6, kv: true},
}

func liveConfig(expected int) live.Config {
	return live.Config{Groups: 2, WorkersPerGroup: 1, WorkerDepth: 64, Expected: expected}
}

// splitmix is the seed expander: request (conn, seq) of seed s always
// carries the same operation and key.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// kvKey writes the fixed-width key of id.
func kvKey(dst []byte, id uint64) {
	for i := range dst {
		dst[i] = 'k'
	}
	binary.LittleEndian.PutUint64(dst[:8], id)
}

// inputs builds the workload's handler and request generator from the
// seed: the handler (for live-kv, over a store preloaded with kvKeys
// keys) and the Prepare hook that fills each request. Prepare hands
// out per-connection buffers, which the client marshals before the
// same connection asks again.
func (s liveSpec) inputs(seed uint64) (live.Handler, *mica.Store, func(r *rpcproto.Request, conn, seq int), error) {
	if !s.kv {
		var bufs [liveConns][16]byte
		for c := range bufs {
			binary.LittleEndian.PutUint64(bufs[c][:8], splitmix(seed+uint64(c)))
			binary.LittleEndian.PutUint64(bufs[c][8:], splitmix(seed^0xecc0))
		}
		return live.EchoHandler{}, nil, func(r *rpcproto.Request, conn, _ int) {
			r.Payload = bufs[conn][:]
		}, nil
	}
	// 4 partitions x 48 MB of log hold the 53 MB preload and the SETs of
	// a run twice as fast as today's without the circular log wrapping.
	store, err := mica.NewStore(mica.Config{
		Partitions: 4, BucketsPerPart: 1 << 15, EntriesPerBucket: 8, LogBytesPerPart: 48 << 20,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	key := make([]byte, kvKeyLen)
	val := make([]byte, kvValLen)
	for i := range val {
		val[i] = byte(splitmix(seed) >> (i % 8 * 8))
	}
	for i := 0; i < kvKeys; i++ {
		kvKey(key, uint64(i))
		if err := store.Set(key, val); err != nil {
			return nil, nil, nil, err
		}
	}
	var sets [liveConns][]byte
	var gets [liveConns][]byte
	for c := range sets {
		gets[c] = make([]byte, kvKeyLen)
		sets[c] = live.EncodeSet(key, val)
	}
	prepare := func(r *rpcproto.Request, conn, seq int) {
		h := splitmix(seed ^ uint64(conn)<<56 ^ uint64(seq))
		id := (h >> 8) % kvKeys
		if h%10 == 0 { // 10 % SET
			r.Op = rpcproto.OpSet
			kvKey(sets[conn][2:2+kvKeyLen], id)
			r.Payload = sets[conn]
			return
		}
		r.Op = rpcproto.OpGet
		kvKey(gets[conn], id)
		r.Payload = gets[conn]
	}
	return live.NewKVHandler(store), store, prepare, nil
}

// liveRig is a started runtime, its TCP server on loopback and a
// persistent client, so rounds measure the steady-state data plane.
type liveRig struct {
	rt   *live.Runtime
	srv  *live.Server
	wait func() error
	cl   *live.Client
}

func newLiveRig(h live.Handler, expected, window int, prepare func(*rpcproto.Request, int, int)) (*liveRig, error) {
	rt, err := live.New(liveConfig(expected), h)
	if err != nil {
		return nil, err
	}
	rt.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, err
	}
	srv := live.NewServer(rt)
	rig := &liveRig{rt: rt, srv: srv, wait: srv.ServeBackground(ln)}
	rig.cl, err = live.NewLoadgenClient(live.LoadgenConfig{
		Addr: ln.Addr().String(), Conns: liveConns, Window: window, Prepare: prepare,
	})
	if err != nil {
		_ = rig.wait() // the dial error is the one to report
		rt.Close()
		return nil, err
	}
	return rig, nil
}

// teardown stops everything, waits for it, and returns the runtime's
// report once the conservation ledger is clean; leaked and stale are
// the data plane's arena slots never released and released twice.
func (rig *liveRig) teardown() (rep *live.Report, leaked, stale int64, err error) {
	rig.cl.Close()
	drainErr := rig.rt.Drain(30 * time.Second)
	waitErr := rig.wait()
	rig.rt.Close()
	leaked, stale = rig.srv.DataPlaneStats()
	switch {
	case drainErr != nil:
		return nil, leaked, stale, drainErr
	case waitErr != nil:
		return nil, leaked, stale, waitErr
	case leaked != 0 || stale != 0:
		return nil, leaked, stale, fmt.Errorf("live data plane: %d leaked arena slot(s), %d stale release(s)", leaked, stale)
	}
	rep = rig.rt.Report()
	return rep, leaked, stale, rep.Check.Err()
}

// liveStage collects the rounds of one stage.
type liveStage struct {
	sent, failed   int64
	allocs         allocated
	rps            []float64 // per round
	allocsPerReq   []float64 // per round: heap objects allocated / requests
	bytesPerReq    []float64 // per round: heap bytes allocated / requests
	p50us, p99us   []float64 // per round
	lagMS          []float64 // per round: Elapsed - n/rate
	stalls         uint64
	dropped        uint64 // latency samples lost to send-slot reuse
	lateRounds     int
	firstErr       error
	pooledP50us    float64 // Client.Totals over the stage's rounds
	pooledP99us    float64
	pooledReceived uint64
}

// run drives rounds of n requests at rate (0 = closed loop at maximum
// rate) until the budget is spent.
func (st *liveStage) run(rig *liveRig, b *budget, n int, rate float64, tr *tracer, stage string) {
	for b.more() {
		runtime.GC()
		a0 := allocations()
		id := tr.begin("live.round", fmt.Sprintf("%s-%d", stage, len(st.rps)), 0)
		res, err := rig.cl.Run(n, rate)
		tr.end(id)
		made := allocations().since(a0)
		st.allocs.add(made)
		st.sent += int64(n)
		if err != nil {
			st.failed += int64(n)
			if st.firstErr == nil {
				st.firstErr = err
			}
			return // the session is broken; later rounds would only repeat it
		}
		// Every request was answered when Received == Sent. Dropped counts
		// answers whose latency sample was lost — the client reuses a send
		// slot once Window answers are in, and answers overtake each other
		// — so it fails requests only where latency is what is measured.
		st.failed += int64(res.Sent-res.Received) + int64(res.BadStatus)
		st.dropped += res.Dropped
		if rate > 0 {
			st.failed += int64(res.Dropped)
		}
		st.rps = append(st.rps, res.AchievedRPS)
		st.allocsPerReq = append(st.allocsPerReq, float64(made.objects)/float64(n))
		st.bytesPerReq = append(st.bytesPerReq, float64(made.bytes)/float64(n))
		st.p50us = append(st.p50us, float64(res.P50.Nanoseconds())/1e3)
		st.p99us = append(st.p99us, float64(res.P99.Nanoseconds())/1e3)
		st.stalls += res.Stalls
		if rate > 0 {
			schedule := float64(n) / rate
			lag := res.Elapsed.Seconds() - schedule
			st.lagMS = append(st.lagMS, lag*1e3)
			if lag > 0.01*schedule {
				st.lateRounds++
			}
		}
	}
	tot := rig.cl.Totals()
	st.pooledP50us = float64(tot.P50.Nanoseconds()) / 1e3
	st.pooledP99us = float64(tot.P99.Nanoseconds()) / 1e3
	st.pooledReceived = tot.Received
}

// runLive measures one live workload.
func runLive(s liveSpec, opt options) (*outcome, error) {
	out := newOutcome()
	roundA, roundB := s.roundA, s.roundB
	if opt.smoke {
		roundA, roundB = roundA/50, roundB/6
	}
	var tr *tracer
	shareA, shareB := 0.4, 0.6
	if opt.trace {
		tr = newTracer()
		shareA, shareB = 0.3, 0.3
	}
	secondsA := opt.seconds * shareA
	expected := int(s.peakRate*secondsA) + 4*roundA

	// Set-up: build the inputs (for live-kv, preload the store), start
	// the runtime and its listener, dial, and push one warm round. It is
	// repeated so one slow start does not decide setup_s.
	var (
		rig     *liveRig
		handler live.Handler
		store   *mica.Store
		prepare func(*rpcproto.Request, int, int)
		setups  []float64
	)
	for len(setups) < setupCount(s.setups, opt) {
		if rig != nil {
			if _, _, _, err := rig.teardown(); err != nil {
				return nil, err
			}
		}
		rig, handler, store, prepare = nil, nil, nil, nil
		debug.FreeOSMemory() // so peak_rss_mb holds one set of inputs, however many set-ups ran
		t0 := now()
		var err error
		handler, store, prepare, err = s.inputs(opt.seed)
		if err != nil {
			return nil, err
		}
		rig, err = newLiveRig(handler, expected, liveWindow, prepare)
		if err != nil {
			return nil, err
		}
		warm := &liveStage{}
		warm.run(rig, once(), roundA/4, 0, nil, "warm")
		setups = append(setups, now().Sub(t0).Seconds())
		out.tally(warm.sent, warm.failed, warm.firstErr)
	}

	// Stage A: closed loop at maximum rate.
	stageA := &liveStage{}
	stageA.run(rig, newBudget(secondsA, 3), roundA, 0, tr, "A")
	out.tally(stageA.sent, stageA.failed, stageA.firstErr)
	heap := liveHeapMB() // stage A's runtime, server, client and store still stand
	repA, leaked, stale, err := rig.teardown()
	if err != nil {
		out.fail(err)
		repA = &live.Report{}
	}

	// Stage B: open loop at a fixed rate, on a fresh runtime, server and
	// client so its histograms hold stage-B requests only.
	stageB := &liveStage{}
	rig, err = newLiveRig(handler, int(s.rateB*opt.seconds*shareB)+4*roundB, 0, prepare)
	if err != nil {
		return nil, err
	}
	stageB.run(rig, newBudget(opt.seconds*shareB, 3), roundB, s.rateB, tr, "B")
	out.tally(stageB.sent, stageB.failed, stageB.firstErr)
	repB, leakedB, staleB, err := rig.teardown()
	if err != nil {
		out.fail(err)
		repB = &live.Report{}
	}
	if store != nil {
		// Every key was preloaded and the log is sized not to wrap within a
		// run, so GETs hit. MICA is a lossy cache: were the log to wrap on
		// a much faster machine, keys not SET since the preload would go,
		// a few in a hundred; a broken store or handler loses far more.
		if st := store.Stats(); st.GetHits*10 < st.Gets*9 {
			out.fail(fmt.Errorf("live-kv: %d of %d GETs missed keys that were preloaded", st.Gets-st.GetHits, st.Gets))
		}
	}
	if len(stageA.rps) == 0 || len(stageB.p50us) == 0 {
		return nil, fmt.Errorf("no round completed: %v", out.errs)
	}

	rps := spreadOf(stageA.rps)
	p50, p99 := spreadOf(stageB.p50us), spreadOf(stageB.p99us)
	out.notef("transport: TCP over the host loopback interface, %d connections, %d groups x (1 manager + 1 worker)", liveConns, 2)
	out.notef("stage A: closed loop, window %d per connection, %d rounds of %d; round req/s median %.0f [q1 %.0f, q3 %.0f]; %d latency samples lost to slot reuse",
		liveWindow, rps.N, roundA, rps.Median, rps.Q1, rps.Q3, stageA.dropped)
	out.notef("stage B: open loop at %.0f req/s, %d rounds of %d (%d samples); round p50 median %.1f us [%.1f, %.1f], round p99 median %.1f us [%.1f, %.1f]; pooled p50 %.1f us, p99 %.1f us; %d late round(s)",
		s.rateB, p50.N, roundB, stageB.pooledReceived, p50.Median, p50.Q1, p50.Q3, p99.Median, p99.Q1, p99.Q3, stageB.pooledP50us, stageB.pooledP99us, stageB.lateRounds)

	if !opt.trace {
		out.e2e = values{
			"setup_s":             median(setups),
			"req_per_s":           rps.Median,
			"allocs_per_req":      median(stageB.allocsPerReq),
			"alloc_bytes_per_req": median(stageB.bytesPerReq),
			"heap_live_mb":        heap,
			"p50_us":              p50.Median,
			"p99_us":              p99.Median,
		}
		return out, nil
	}

	v := out.layers
	v["live.client_p50_us"] = stageB.pooledP50us
	v["live.client_p99_us"] = stageB.pooledP99us
	v["live.server_p50_us"] = repB.P50.Microseconds()
	v["live.server_p99_us"] = repB.P99.Microseconds()
	v["live.wire_p50_us"] = stageB.pooledP50us - repB.P50.Microseconds()
	v["live.ticks"] = float64(repA.Stats.Ticks)
	v["live.migrated_reqs"] = float64(repA.Stats.MigratedReqs)
	v["live.nacked_reqs"] = float64(repA.Stats.NackedReqs)
	v["live.guard_skips"] = float64(repA.Stats.GuardSkips)
	v["live.stalls_per_round"] = float64(stageB.stalls) / float64(len(stageB.rps))
	v["live.loadgen_lag_ms"] = median(stageB.lagMS)
	v["live.late_rounds"] = float64(stageB.lateRounds)
	v["live.allocs_per_rpc"] = float64(stageA.allocs.objects) / float64(stageA.sent)
	v["live.arena_leaked"], v["live.arena_stale"] = float64(leaked+leakedB), float64(stale+staleB)

	dr := newDrives(tr, v, opt.smoke)
	if err := dr.codec(); err != nil {
		return nil, err
	}
	if err := dr.runtime(handler, prepare, roundA); err != nil {
		return nil, err
	}
	if err := dr.handler(handler, prepare, roundA); err != nil {
		return nil, err
	}
	if store != nil {
		if err := dr.store(store, kvKeys); err != nil {
			return nil, err
		}
	}
	tag := fmt.Sprintf("_%db", s.payload)
	respTag := tag
	if s.kv {
		// 90 % of live-kv requests are 16 B GET keys answered with 512 B
		// values; the 10 % SETs go the other way round.
		tag = "_16b"
	}
	codec := v["rpcproto.encode_req_ns"+tag] + v["rpcproto.decode_req_ns"+tag] +
		v["rpcproto.encode_resp_ns"+respTag] + v["rpcproto.decode_resp_ns"+respTag]
	// The runtime drive serves through the workload's handler, so its
	// figure already holds live.handler_ns_per_req.
	v["live.tcp_remainder_ns_per_rpc"] = 1e9/rps.Median - codec - 1e9/v["live.runtime_req_per_s"]
	return out, out.finishTrace(tr, opt, s.name)
}
