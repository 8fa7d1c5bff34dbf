package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/arena"
	"repro/internal/check"
	"repro/internal/live"
	"repro/internal/mica"
	"repro/internal/policy"
	"repro/internal/rack"
	"repro/internal/rpcproto"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
)

// drives are the isolated drives of a traced run: each calls one
// layer's public functions, alone, at the shapes and counts a workload
// uses, under its own span, and stores the mean cost of one call in v.
// Iteration counts are fixed, so the work is the same on every commit;
// div shrinks them for the -smoke scale.
type drives struct {
	tr  *tracer
	v   values
	div int
}

func newDrives(tr *tracer, v values, smoke bool) drives {
	d := drives{tr: tr, v: v, div: 1}
	if smoke {
		d.div = 64
	}
	return d
}

// n is a drive's fixed iteration count at the run's scale.
func (d drives) n(count int) int { return count / d.div }

// perCall times n calls of fn under one span and returns the mean, in
// ns of reference time.
func (d drives) perCall(name string, n int, fn func(i int)) float64 {
	id := d.tr.begin("drive:"+name, "", 0)
	var sw stopwatch
	sw.start()
	for i := 0; i < n; i++ {
		fn(i)
	}
	raw, toRef := sw.stop()
	d.tr.end(id)
	return float64(inRef(raw, toRef).Nanoseconds()) / float64(n)
}

// serverSetup measures what a run costs before its first and after its
// last request: RunWith on every point of the workload with a single
// request, so building the machine, the engine and the checker, and
// running the engine to the end of its last 5 ms chunk, is all there
// is. It makes passes over the points for about half a second (one
// pass on the 1024-core machine, whose empty run takes seconds). ticks
// is the manager ticks one pass made.
func (d drives) serverSetup(pts []simPoint, sc *server.Scratch) (usPerRun, allocsPerRun, ticks float64, err error) {
	m0 := mallocs()
	id := d.tr.begin("drive:server.setup", "", 0)
	var sw stopwatch
	sw.start()
	passes := 0
	for passes == 0 || (passes < 20/d.div && now().Sub(sw.started) < 500*time.Millisecond) {
		for _, p := range pts {
			wl := p.workload(nil)
			wl.N, wl.Warmup = 1, 0
			res, err := server.RunWith(sc, p.cfg, wl)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("server.setup drive, %s: %w", p.name, err)
			}
			ticks += float64(res.ACStats.Ticks)
		}
		passes++
	}
	raw, toRef := sw.stop()
	d.tr.end(id)
	runs := float64(passes * len(pts))
	return float64(inRef(raw, toRef).Nanoseconds()) / 1e3 / runs, float64(mallocs()-m0) / runs, ticks / float64(passes), nil
}

func nop() {}

// engineDrives measures building an engine, and scheduling plus firing
// one event inside the timer wheel's window and past it.
func (d drives) engine() {
	v := d.v
	var eng *sim.Engine
	v["sim.engine_new_us"] = d.perCall("sim.engine_new", d.n(320), func(int) {
		eng = sim.NewEngine()
	}) / 1e3

	n := d.n(1 << 20)
	v["sim.event_ns"] = d.perCall("sim.event", n, func(i int) {
		eng.After(sim.Nanosecond*sim.Time(1+i%3000), nop)
		if i%4096 == 4095 {
			eng.Run(eng.Now() + 4*sim.Microsecond)
		}
	})
	eng.RunAll()
	v["sim.event_far_ns"] = d.perCall("sim.event_far", n, func(i int) {
		eng.After(33*sim.Microsecond, nop) // past the ~4.2 us window: far heap
		if i%4096 == 4095 {
			eng.Run(eng.Now() + 4*sim.Microsecond)
		}
	})
	eng.RunAll()
}

// policyDrives measures one manager's per-tick decision — threshold,
// pattern classification, batch sizing, guard and migrate-once count —
// at the two view widths the workloads use: 4 groups through Decide,
// 64 groups through the RankTracker and DecideRanked.
func (d drives) policy() {
	v := d.v
	model := policy.NewThresholdModel(15, 10)
	views := [4][]int{{42, 3, 7, 1}, {12, 14, 0, 13}, {29, 20, 11, 4}, {6, 5, 6, 5}}
	order := make([]int, 0, 4)
	dests := make([]int, 0, 64)
	sink := 0
	plan := func(view, plan []int, self int) {
		batch := policy.BatchSize(16, len(plan))
		for _, dst := range plan {
			if policy.GuardAllows(view[self], view[dst], batch) {
				sink += policy.MigratableCount(view[self], batch, func(int) bool { return false })
			}
		}
	}
	v["policy.tick_ns_g4"] = d.perCall("policy.tick_g4", d.n(1<<20), func(i int) {
		view, self := views[i%4], i%4
		t := model.Threshold(0.5 + float64(i%8))
		_, _, p := policy.Decide(view, self, t, 16, 3, true, order, dests)
		plan(view, p, self)
	})

	const g = 64
	rt := policy.NewRankTracker(g)
	for q := 0; q < g; q++ {
		rt.Set(q, (q*7)%23)
	}
	rt.Order()
	v["policy.tick_ns_g64"] = d.perCall("policy.tick_g64", d.n(1<<19), func(i int) {
		for k := 0; k < 8; k++ {
			rt.Set((i*13+k*29)%g, (i+k*5)%31)
		}
		self := i % g
		t := model.Threshold(0.8)
		_, _, p := policy.DecideRanked(rt.View(), rt.Order(), self, t, 16, 3, true, dests)
		plan(rt.View(), p, self)
	})
	if sink == math.MinInt {
		panic("unreachable: keeps the policy calls from being optimised away")
	}
}

// rackDrive measures phase forwarding's destination pick: pow-2 over a
// 4-entry depth view, refreshed as often as the managers refresh it.
func (d drives) rack() error {
	disp, err := rack.NewDispatcher(rack.Config{Servers: 4, Policy: rack.PowerOfK, K: 2})
	if err != nil {
		return err
	}
	rng := rack.NewSplitMix(1)
	depths := make([]int, 4)
	sink := 0
	d.v["rack.pick_ns"] = d.perCall("rack.pick", d.n(1<<21), func(i int) {
		if i%64 == 0 {
			for s := range depths {
				depths[s] = (i + 3*s) % 7
			}
			disp.ObserveAll(depths, policy.Duration(i))
		}
		sink += disp.Pick(uint32(i), policy.Duration(i), rng).Server
	})
	if sink < 0 {
		panic("unreachable: keeps the picks from being optimised away")
	}
	return nil
}

// arenaDrive measures one request record's acquire and release on a
// warm arena, eight in flight as on a busy worker group.
func (d drives) arena() {
	a := arena.New()
	var ids [8]arena.RequestID
	for i := range ids {
		_, ids[i] = a.Acquire()
	}
	d.v["arena.acquire_release_ns"] = d.perCall("arena.acquire_release", d.n(1<<21), func(i int) {
		a.Release(ids[i%8])
		_, ids[i%8] = a.Acquire()
	})
}

// summarizeDrive measures stats.Sample.Summarize on each run's own
// latency sample, unsorted as a run leaves it, and returns the total
// for one rep.
func (d drives) summarize(latencies [][]sim.Time, slos []sim.Time) time.Duration {
	var total time.Duration
	var sw stopwatch
	for i, lats := range latencies {
		s := stats.NewSample(len(lats))
		for _, l := range lats {
			s.Add(l)
		}
		id := d.tr.begin("drive:stats.summarize", "", 0)
		sw.start()
		s.Summarize(slos[i])
		raw, toRef := sw.stop()
		d.tr.end(id)
		total += inRef(raw, toRef)
	}
	return total
}

// modelError runs the closed-form differential grid once and returns
// the largest relative deviation of a simulated statistic from its
// M/M/k value, in percent.
func (d drives) modelError(seed uint64) (float64, error) {
	id := d.tr.begin("drive:check.rundiff", "", 0)
	defer d.tr.end(id)
	worst := 0.0
	for _, c := range check.DefaultDiffCases(true) {
		res, err := check.RunDiff(c, seed)
		if err != nil {
			return 0, err
		}
		if err := res.Report.Err(); err != nil {
			return 0, err
		}
		for _, m := range res.Metrics {
			// The third statistic is a 1 % exceedance share: its relative
			// deviation is sampling noise, tens of percent at these lengths.
			if m.Model > 0 && m.Name != "p99-exceedance" {
				worst = math.Max(worst, 100*math.Abs(m.Sim-m.Model)/m.Model)
			}
		}
	}
	return worst, nil
}

// codecDrives measures the wire codec on a request and a response of
// each payload size the live workloads carry.
func (d drives) codec() error {
	v := d.v
	n := d.n(1 << 19)
	for _, size := range []int{16, 512} {
		tag := fmt.Sprintf("_%db", size)
		req := rpcproto.Request{ID: 7, Conn: 1, Op: rpcproto.OpEcho, Payload: make([]byte, size)}
		var buf []byte
		var err error
		v["rpcproto.encode_req_ns"+tag] = d.perCall("rpcproto.encode_req"+tag, n, func(i int) {
			req.ID = uint64(i)
			buf, err = rpcproto.AppendRequest(buf[:0], &req)
		})
		if err != nil {
			return err
		}
		var into rpcproto.Request
		v["rpcproto.decode_req_ns"+tag] = d.perCall("rpcproto.decode_req"+tag, n, func(int) {
			err = rpcproto.UnmarshalInto(&into, buf)
		})
		if err != nil {
			return err
		}
		var rbuf []byte
		v["rpcproto.encode_resp_ns"+tag] = d.perCall("rpcproto.encode_resp"+tag, n, func(i int) {
			rbuf, err = rpcproto.AppendResponse(rbuf[:0], uint64(i), rpcproto.StatusOK, req.Payload)
		})
		if err != nil {
			return err
		}
		v["rpcproto.decode_resp_ns"+tag] = d.perCall("rpcproto.decode_resp"+tag, n, func(int) {
			_, _, err = rpcproto.DecodeResponse(rbuf)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// runtimeDrive measures the scheduling runtime without the network:
// requests handed straight to Deliver from this goroutine, then Drain.
func (d drives) runtime(h live.Handler, prepare func(r *rpcproto.Request, conn, seq int), n int) error {
	rt, err := live.New(liveConfig(n), h)
	if err != nil {
		return err
	}
	rt.Start()
	reqs := make([]rpcproto.Request, n)
	for i := range reqs {
		reqs[i] = rpcproto.Request{ID: uint64(i), Conn: uint32(i % 2), Op: rpcproto.OpEcho}
		prepare(&reqs[i], i%2, i/2)
		// Prepare hands out a per-connection buffer it will overwrite.
		reqs[i].Payload = append([]byte(nil), reqs[i].Payload...)
	}
	done := func(*rpcproto.Request, []byte, rpcproto.Status) {}
	id := d.tr.begin("drive:live.runtime", "", 0)
	var sw stopwatch
	sw.start()
	for i := range reqs {
		rt.Deliver(&reqs[i], done)
	}
	err = rt.Drain(30 * time.Second)
	raw, toRef := sw.stop()
	d.tr.end(id)
	rt.Close()
	if err != nil {
		return err
	}
	rep := rt.Report()
	if err := rep.Check.Err(); err != nil {
		return err
	}
	if rep.Stats.Completed != uint64(n) {
		return fmt.Errorf("live.runtime drive: completed %d of %d", rep.Stats.Completed, n)
	}
	d.v["live.runtime_req_per_s"] = float64(n) / inRef(raw, toRef).Seconds()
	return nil
}

// handlerDrive measures the handler alone on the workload's own
// request mix, single-threaded.
func (d drives) handler(h live.Handler, prepare func(r *rpcproto.Request, conn, seq int), n int) error {
	var r rpcproto.Request
	bad := 0
	d.v["live.handler_ns_per_req"] = d.perCall("live.handler", n, func(i int) {
		r = rpcproto.Request{ID: uint64(i), Op: rpcproto.OpEcho}
		prepare(&r, 0, i)
		if _, st := h.Serve(&r); st == rpcproto.StatusError {
			bad++
		}
	})
	if bad > 0 {
		return fmt.Errorf("live.handler drive: %d error statuses", bad)
	}
	return nil
}

// storeDrives measures the store's GET and SET on resident keys.
func (d drives) store(store *mica.Store, keys int) error {
	key := make([]byte, kvKeyLen)
	val := make([]byte, kvValLen)
	misses := 0
	d.v["mica.get_ns"] = d.perCall("mica.get", d.n(1<<16), func(i int) {
		kvKey(key, uint64(i*7919%keys))
		if _, ok := store.Get(key); !ok {
			misses++
		}
	})
	var err error
	d.v["mica.set_ns"] = d.perCall("mica.set", d.n(1<<16), func(i int) {
		kvKey(key, uint64(i*7919%keys))
		if e := store.Set(key, val); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	if misses > 0 {
		return fmt.Errorf("mica.get drive: %d misses on resident keys", misses)
	}
	return nil
}
