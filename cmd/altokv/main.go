// Command altokv simulates the MICA key-value store end to end on an
// ALTOCUMULUS-scheduled server (§IX): offer a GET/SET(/SCAN) mix over an
// EREW-partitioned key space under Poisson or bursty cloud arrivals, and
// report latency, SLO accounting and runtime statistics. The real store
// runs on the live plane (altoserve -service kv).
//
// Usage:
//
//	altokv -cores 64 -keys 100000 -load 0.8 -scans 0.001 -bursty
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fabric"
	"repro/internal/mica"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/server"
	"repro/internal/sim"
)

func main() {
	var (
		cores  = flag.Int("cores", 64, "total cores (16 per group)")
		keys   = flag.Int("keys", 100000, "key count (16B keys, 512B values)")
		load   = flag.Float64("load", 0.8, "offered load fraction of worker capacity")
		scans  = flag.Float64("scans", 0.001, "SCAN fraction of requests (~50us each)")
		n      = flag.Int("n", 300000, "requests to simulate")
		seed   = flag.Uint64("seed", 1, "simulation seed")
		bursty = flag.Bool("bursty", true, "bursty cloud arrivals (false = Poisson)")
		msr    = flag.Bool("msr", false, "use MSR interface instead of custom ISA")
	)
	flag.Parse()

	groups, wpg, err := core.GroupLayout(*cores)
	if err != nil {
		fail("%v", err)
	}

	app, err := server.NewMICA(groups, mica.DefaultOpCost(fabric.Default()), *keys, 16, 512)
	if err != nil {
		fail("%v", err)
	}
	app.ScanFrac = *scans

	p := core.DefaultParams(groups, wpg)
	p.Period = 100 * sim.Nanosecond
	p.Bulk = 48
	if groups > 1 {
		p.Concurrency = groups - 1
	}
	if *msr {
		p.Iface = fabric.InterfaceMSR
	}

	mean := app.MeanService()
	rate := *load * float64(groups*wpg) / mean.Seconds()
	var arrivals dist.ArrivalProcess = dist.Poisson{Rate: rate}
	if *bursty {
		arrivals = dist.NewCloudMMPP(rate)
	}

	res, err := server.Run(server.Config{
		Kind: server.SchedAltocumulus, AC: p,
		Stack: rpcproto.StackNanoRPC, Steer: nic.SteerDirect, Seed: *seed,
	}, server.Workload{Arrivals: arrivals, App: app, N: *n, Warmup: *n / 10})
	if err != nil {
		fail("%v", err)
	}

	fmt.Printf("MICA over Altocumulus: %d cores (%d groups x %d workers), %s interface\n",
		*cores, groups, wpg, p.Iface)
	fmt.Printf("workload    %s, mean service %v, %d requests\n", arrivals.Name(), mean, *n)
	fmt.Printf("offered     %.2f MRPS (load %.2f)\n", rate/1e6, *load)
	fmt.Printf("latency     %s\n", res.Summary)
	fmt.Printf("SLO         %v; violations %.3f%%\n", res.SLO, res.Summary.VioRatio*100)
	fmt.Printf("runtime     migrations=%d migrated=%d predicted=%d nacked=%d\n",
		res.ACStats.Migrations, res.ACStats.MigratedReqs, res.ACStats.PredictedReqs,
		res.ACStats.NackedReqs)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "altokv: "+format+"\n", args...)
	os.Exit(2)
}
