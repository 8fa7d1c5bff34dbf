// Command altoserve runs the live ALTOCUMULUS runtime end to end on
// this machine: a TCP server scheduling real goroutine groups with the
// same policy core the simulator uses (threshold, patterns, guarded
// MIGRATE batches), a MICA-backed key-value service, and an open-loop
// load generator. It reports achieved throughput, client-side
// p50/p99/p99.9 latency, the runtime's migration counters, and the
// conservation verdict.
//
// Usage:
//
//	altoserve -groups 2 -workers 4 -n 200000 -rate 300000
//	altoserve -service spin:500 -groups 4 -conns 16 -n 500000
//	altoserve -sweep 100000:1200000:100000 -n 100000 -clients 2
//
// With -sweep min:max:step the generator walks the offered rate across
// the range (a fresh runtime per point, the shared service store kept
// warm) and prints one table row per point — the live analogue of the
// simulator's tail-vs-throughput sweep, with overload showing up as
// achieved < offered plus sender stalls.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/live"
	"repro/internal/mica"
	"repro/internal/rpcproto"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:0", "listen address")
		groups  = flag.Int("groups", 2, "manager groups")
		workers = flag.Int("workers", 4, "workers per group")
		depth   = flag.Int("depth", 2, "bounded outstanding requests per worker")
		period  = flag.Duration("period", 200*time.Microsecond, "manager tick period")
		bulk    = flag.Int("bulk", 16, "migration bulk B")
		conc    = flag.Int("concurrency", 0, "migration concurrency (default groups-1)")
		sloMult = flag.Float64("slo-mult", 10, "SLO multiplier L of the threshold model")
		fifo    = flag.Int("fifo", 4, "inbound migration FIFO capacity (batches)")
		noPat   = flag.Bool("no-patterns", false, "disable Hill/Valley/Pairing triggering")
		noGuard = flag.Bool("no-guard", false, "disable the q[src]-S >= q[dst]+S guard")

		service = flag.String("service", "kv", "service: kv | echo | spin:<iters>")
		keys    = flag.Int("keys", 10000, "preloaded keys (kv service)")
		valLen  = flag.Int("vallen", 128, "value size in bytes (kv service)")
		setFrac = flag.Int("sets", 10, "SET percentage of the kv mix (rest GET)")

		n       = flag.Int("n", 200000, "requests to offer (per sweep point with -sweep)")
		conns   = flag.Int("conns", 8, "load-generator connections per client")
		clients = flag.Int("clients", 1, "client multiplier: total streams = conns*clients")
		rate    = flag.Float64("rate", 0, "offered RPCs/sec (0 = as fast as possible)")
		sweep   = flag.String("sweep", "", "offered-rate sweep min:max:step RPS (overrides -rate)")
	)
	flag.Parse()

	handler, prepare, err := buildService(*service, *keys, *valLen, *setFrac, *groups)
	if err != nil {
		fail("%v", err)
	}
	cfg := live.Config{
		Groups:          *groups,
		WorkersPerGroup: *workers,
		WorkerDepth:     *depth,
		Period:          *period,
		Bulk:            *bulk,
		Concurrency:     *conc,
		SLOMult:         *sloMult,
		MigrateFIFO:     *fifo,
		DisablePatterns: *noPat,
		DisableGuard:    *noGuard,
		Expected:        *n,
	}
	lg := live.LoadgenConfig{
		Conns:    *conns,
		Clients:  *clients,
		Requests: *n,
		Prepare:  prepare,
	}

	fmt.Printf("altoserve: %d groups x %d workers (depth %d), period %v, service %s, %d stream(s)\n",
		*groups, *workers, *depth, *period, *service, *conns**clients)

	if *sweep != "" {
		min, max, step, err := live.ParseSweep(*sweep)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("%12s %12s %10s %10s %10s %8s %6s\n",
			"offered", "achieved", "p50", "p99", "p99.9", "stalls", "migr")
		for offered := min; offered <= max; offered += step {
			res, rep, err := runPoint(*addr, cfg, handler, lg, offered)
			if err != nil {
				fail("sweep @%.0f: %v", offered, err)
			}
			fmt.Printf("%12.0f %12.0f %10v %10v %10v %8d %6d\n",
				offered, res.AchievedRPS, res.P50, res.P99, res.P999,
				res.Stalls, rep.Stats.Migrations)
		}
		return
	}

	res, rep, err := runPoint(*addr, cfg, handler, lg, *rate)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("client      %d requests over %d stream(s) in %v (%.0f RPS achieved, %d stalls)\n",
		res.Received, *conns**clients, res.Elapsed.Round(time.Millisecond), res.AchievedRPS, res.Stalls)
	fmt.Printf("latency     p50=%v p99=%v p99.9=%v max=%v\n", res.P50, res.P99, res.P999, res.Max)
	fmt.Printf("runtime     ticks=%d migrations=%d migrated=%d nacked=%d guard-skips=%d\n",
		rep.Stats.Ticks, rep.Stats.Migrations, rep.Stats.MigratedReqs,
		rep.Stats.NackedReqs, rep.Stats.GuardSkips)
	fmt.Printf("patterns    hill=%d valley=%d pairing=%d threshold=%d\n",
		rep.Stats.HillEvents, rep.Stats.ValleyEvents, rep.Stats.PairingEvents, rep.Stats.ThresholdEvts)
	fmt.Printf("invariants  conservation + migrate-once clean (%d checks, delivered=%d completed=%d)\n",
		rep.Check.Checks, rep.Check.Delivered, rep.Check.Completed)
	if res.BadStatus > 0 {
		fail("%d requests returned an error status", res.BadStatus)
	}
}

// runPoint runs one complete measurement: fresh runtime and server (the
// service handler, with its store, is shared so sweeps stay warm), one
// loadgen session at the offered rate, full drain, invariant check and
// data-plane leak check.
func runPoint(addr string, cfg live.Config, handler live.Handler, lg live.LoadgenConfig, rate float64) (*live.LoadgenResult, *live.Report, error) {
	rt, err := live.New(cfg, handler)
	if err != nil {
		return nil, nil, err
	}
	rt.Start()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := live.NewServer(rt)
	wait := srv.ServeBackground(ln)
	lg.Addr = ln.Addr().String()
	lg.RateRPS = rate
	res, err := live.RunLoadgen(lg)
	if err != nil {
		return nil, nil, fmt.Errorf("loadgen: %w", err)
	}
	if err := rt.Drain(30 * time.Second); err != nil {
		return nil, nil, err
	}
	rt.Close()
	rep := rt.Report()
	if err := wait(); err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	if err := rep.Check.Err(); err != nil {
		return nil, nil, fmt.Errorf("invariants: %w", err)
	}
	if leaked, stale := srv.DataPlaneStats(); leaked != 0 || stale != 0 {
		return nil, nil, fmt.Errorf("data plane: %d leaked arena slot(s), %d stale release(s)", leaked, stale)
	}
	return res, rep, nil
}

// buildService constructs the handler and the matching loadgen request
// mix for the -service flag.
func buildService(spec string, keys, valLen, setFrac, partitions int) (live.Handler, func(*rpcproto.Request, int, int), error) {
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "echo":
		return live.EchoHandler{}, nil, nil
	case "spin":
		iters := 200
		if arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 0 {
				return nil, nil, fmt.Errorf("bad spin iteration count %q", arg)
			}
			iters = v
		}
		return live.SpinHandler{Iters: iters}, nil, nil
	case "kv":
		store, err := mica.NewStore(mica.Config{
			Partitions:       partitions,
			BucketsPerPart:   1 << 12,
			EntriesPerBucket: 8,
			LogBytesPerPart:  64 << 20 / int64(partitions),
		})
		if err != nil {
			return nil, nil, err
		}
		val := make([]byte, valLen)
		for i := range val {
			val[i] = byte('a' + i%26)
		}
		key := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
		for i := 0; i < keys; i++ {
			if err := store.Set(key(i), val); err != nil {
				return nil, nil, err
			}
		}
		prepare := func(r *rpcproto.Request, conn, seq int) {
			// Deterministic mix: no RNG so two runs offer identical
			// request streams.
			// Unsigned 64-bit so the key sequence is the same, and the
			// command builds, where int is 32 bits.
			k := key(int((uint64(seq)*2654435761 + uint64(conn)*40503) % uint64(keys)))
			if setFrac > 0 && seq%100 < setFrac {
				r.Op = rpcproto.OpSet
				r.Payload = live.EncodeSet(k, val)
			} else {
				r.Op = rpcproto.OpGet
				r.Payload = k
			}
		}
		return live.NewKVHandler(store), prepare, nil
	default:
		return nil, nil, fmt.Errorf("unknown service %q (want kv, echo, or spin:<iters>)", spec)
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "altoserve: "+format+"\n", args...)
	os.Exit(2)
}
