// Command altosim runs one ad-hoc simulation: pick a scheduler, a core
// count, a service-time distribution and an offered load, and read off
// the latency profile.
//
// Usage:
//
//	altosim -sched altocumulus -cores 64 -dist exp:1us -load 0.8 -n 200000
//	altosim -sched nebula -cores 16 -dist bimodal:0.5us,500us,0.005 -load 0.6
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
)

var kinds = map[string]server.SchedulerKind{
	"rss":         server.SchedRSS,
	"ix":          server.SchedIX,
	"zygos":       server.SchedZygOS,
	"shinjuku":    server.SchedShinjuku,
	"rpcvalet":    server.SchedRPCValet,
	"nebula":      server.SchedNebula,
	"nanopu":      server.SchedNanoPU,
	"altocumulus": server.SchedAltocumulus,
	"rss++":       server.SchedRSSPlus,
}

func main() {
	var (
		schedName = flag.String("sched", "altocumulus", "scheduler: rss|ix|zygos|shinjuku|rpcvalet|nebula|nanopu|altocumulus")
		cores     = flag.Int("cores", 64, "total cores")
		distSpec  = flag.String("dist", "exp:1us", "service dist: fixed:<d> | exp:<d> | uniform:<lo>,<hi> | bimodal:<short>,<long>,<pLong>")
		load      = flag.Float64("load", 0.8, "offered load fraction of worker capacity")
		n         = flag.Int("n", 100000, "requests to simulate")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		groups    = flag.Int("groups", 0, "altocumulus groups (default: tile cores into 16-core groups)")
		period    = flag.Duration("period", 200*time.Nanosecond, "altocumulus migration period")
		bulk      = flag.Int("bulk", 16, "altocumulus migration bulk")
		conc      = flag.Int("concurrency", 8, "altocumulus migration concurrency")
		burst     = flag.Bool("bursty", false, "use the bursty cloud arrival pattern instead of Poisson")
		traceOut  = flag.String("trace", "", "write per-request records to this CSV file")
	)
	flag.Parse()

	kind, ok := kinds[strings.ToLower(*schedName)]
	if !ok {
		fail("unknown scheduler %q", *schedName)
	}
	svc, err := parseDist(*distSpec)
	if err != nil {
		fail("%v", err)
	}

	cfg := server.Config{Kind: kind, Cores: *cores, Stack: rpcproto.StackNanoRPC,
		Steer: nic.SteerConnection, Seed: *seed}
	workers := *cores
	if kind == server.SchedAltocumulus {
		g, wpg, err := acLayout(*cores, *groups)
		if err != nil {
			fail("%v", err)
		}
		p := core.DefaultParams(g, wpg)
		p.Period = sim.Time(period.Nanoseconds()) * sim.Nanosecond
		p.Bulk = *bulk
		p.Concurrency = *conc
		cfg.AC = p
		workers = g * wpg
	}
	if kind == server.SchedShinjuku && workers > 1 {
		workers--
	}

	rate := dist.LoadForRate(*load, workers, svc)
	var arrivals dist.ArrivalProcess = dist.Poisson{Rate: rate}
	if *burst {
		arrivals = dist.NewCloudMMPP(rate)
	}

	res, err := server.Run(cfg, server.Workload{
		Arrivals: arrivals, Service: svc, N: *n, Warmup: *n / 10,
	})
	if err != nil {
		fail("%v", err)
	}

	fmt.Printf("scheduler   %s (%d cores, %d workers)\n", res.Name, *cores, workers)
	fmt.Printf("service     %s, arrivals %s\n", svc.Name(), arrivals.Name())
	fmt.Printf("offered     %.2f MRPS (load %.2f)\n", rate/1e6, *load)
	fmt.Printf("SLO         %v (p99 target, 10x mean service)\n", res.SLO)
	fmt.Printf("latency     %s\n", res.Summary)
	fmt.Printf("simulated   %v in %d events\n", res.Duration, res.Events)
	if kind == server.SchedAltocumulus {
		st := res.ACStats
		// The run ends at the last completion: no idle tail in either count.
		fmt.Printf("runtime     ticks=%d updates=%d (workload interval only)\n", st.Ticks, st.UpdatesSent)
		fmt.Printf("migration   migrations=%d migrated=%d nacked=%d guard-skips=%d predicted=%d\n",
			st.Migrations, st.MigratedReqs, st.NackedReqs, st.GuardSkips, st.PredictedReqs)
		fmt.Printf("patterns    hill=%d valley=%d pairing=%d threshold=%d\n",
			st.HillEvents, st.ValleyEvents, st.PairingEvents, st.ThresholdEvts)
	}
	if res.StealFrac > 0 {
		fmt.Printf("stealing    %.1f%% of requests moved across cores\n", res.StealFrac*100)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		if err := trace.WriteCSV(f, res.Requests); err != nil {
			fail("writing trace: %v", err)
		}
		fmt.Printf("trace       %d records written to %s\n", len(res.Requests), *traceOut)
	}
}

// parseDist parses the -dist flag grammar.
func parseDist(spec string) (dist.ServiceDist, error) {
	name, args, _ := strings.Cut(spec, ":")
	parts := strings.Split(args, ",")
	d := func(s string) (sim.Time, error) {
		v, err := time.ParseDuration(strings.TrimSpace(s))
		if err != nil {
			return 0, fmt.Errorf("bad duration %q: %w", s, err)
		}
		return sim.Time(v.Nanoseconds()) * sim.Nanosecond, nil
	}
	switch strings.ToLower(name) {
	case "fixed":
		v, err := d(args)
		if err != nil {
			return nil, err
		}
		return dist.Fixed{V: v}, nil
	case "exp":
		v, err := d(args)
		if err != nil {
			return nil, err
		}
		return dist.Exponential{M: v}, nil
	case "uniform":
		if len(parts) != 2 {
			return nil, fmt.Errorf("uniform needs lo,hi")
		}
		lo, err := d(parts[0])
		if err != nil {
			return nil, err
		}
		hi, err := d(parts[1])
		if err != nil {
			return nil, err
		}
		return dist.Uniform{Lo: lo, Hi: hi}, nil
	case "bimodal":
		if len(parts) != 3 {
			return nil, fmt.Errorf("bimodal needs short,long,pLong")
		}
		short, err := d(parts[0])
		if err != nil {
			return nil, err
		}
		long, err := d(parts[1])
		if err != nil {
			return nil, err
		}
		p, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("bad probability %q: %w", parts[2], err)
		}
		return dist.Bimodal{Short: short, Long: long, PLong: p}, nil
	default:
		return nil, fmt.Errorf("unknown distribution %q", name)
	}
}

// acLayout resolves the -cores/-groups pair for the ALTOCUMULUS
// scheduler. An explicit -groups overrides the tiling; otherwise cores
// must split into the paper's 16-core groups exactly.
func acLayout(cores, groups int) (g, wpg int, err error) {
	if groups > 0 {
		wpg = cores/groups - 1
		if wpg < 1 {
			return 0, 0, fmt.Errorf("cores=%d cannot host %d groups with at least one worker each", cores, groups)
		}
		return groups, wpg, nil
	}
	return core.GroupLayout(cores)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "altosim: "+format+"\n", args...)
	os.Exit(2)
}
