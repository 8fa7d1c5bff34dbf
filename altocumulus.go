// Package altocumulus (import path "repro") is the public facade of the
// ALTOCUMULUS reproduction: a deterministic discrete-event model of
// nanosecond-scale RPC scheduling on high core-count servers, including
// the paper's proactive migration runtime, its hardware messaging
// mechanism, the baseline schedulers it is evaluated against (IX, ZygOS,
// Shinjuku, RPCValet, Nebula, nanoPU), the MICA key-value store
// application, and the full experiment suite regenerating every figure
// of the paper's evaluation.
//
// # Quickstart
//
//	cfg := altocumulus.NewServer(4, 15)           // 4 groups x (1 manager + 15 workers)
//	wl := altocumulus.PoissonWorkload(0.8, altocumulus.Exponential(time.Microsecond), 100_000)
//	res, err := altocumulus.Run(cfg, wl)
//	fmt.Println(res.Summary)                      // p50/p99/p99.9, SLO violations
//
// See examples/ for complete programs and internal/experiments for the
// paper's evaluation harness.
package altocumulus

import (
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fabric"
	"repro/internal/mica"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/server"
	"repro/internal/sim"
)

// Re-exported configuration and result types. The facade aliases the
// internal types so downstream code needs only this package for the
// common path while power users can reach the internal packages of the
// same module.
type (
	// Config describes a simulated server (scheduler kind, cores, NIC
	// stack, steering, SLO).
	Config = server.Config
	// Workload is an offered load: arrival process, service times or an
	// application, and a request count.
	Workload = server.Workload
	// Result carries a run's latency sample, summary and per-request
	// records.
	Result = server.Result
	// Params configures the ALTOCUMULUS runtime (groups, Period, Bulk,
	// Concurrency, interface, ablations).
	Params = core.Params
	// Time is a simulated duration in picoseconds.
	Time = sim.Time
	// Kind selects the scheduler a Config models.
	Kind = server.SchedulerKind
)

// Scheduler kinds, re-exported.
const (
	RSS         = server.SchedRSS
	IX          = server.SchedIX
	ZygOS       = server.SchedZygOS
	Shinjuku    = server.SchedShinjuku
	RPCValet    = server.SchedRPCValet
	Nebula      = server.SchedNebula
	NanoPU      = server.SchedNanoPU
	Altocumulus = server.SchedAltocumulus
	RSSPlus     = server.SchedRSSPlus
)

// Run executes a workload against a configured server and returns its
// measurements. Runs are deterministic in (Config, Workload).
func Run(cfg Config, wl Workload) (*Result, error) { return server.Run(cfg, wl) }

// NewServer returns an ALTOCUMULUS server with the paper's default
// runtime parameters (Period 200 ns, Bulk 16, Concurrency 8, custom ISA
// interface, hardware local dispatch) and connection-hash steering.
func NewServer(groups, workersPerGroup int) Config {
	return Config{
		Kind:  server.SchedAltocumulus,
		AC:    core.DefaultParams(groups, workersPerGroup),
		Stack: rpcproto.StackNanoRPC,
		Steer: nic.SteerConnection,
	}
}

// NewBaseline returns a baseline server of the given kind with n cores.
func NewBaseline(kind server.SchedulerKind, n int) Config {
	stack := rpcproto.StackNanoRPC
	switch kind {
	case server.SchedRSS, server.SchedIX, server.SchedZygOS, server.SchedShinjuku:
		stack = rpcproto.StackERPC
	}
	return Config{Kind: kind, Cores: n, Stack: stack, Steer: nic.SteerConnection}
}

// Duration converts a time.Duration to simulated Time.
func Duration(d time.Duration) Time { return sim.Time(d.Nanoseconds()) * sim.Nanosecond }

// Exponential returns an exponentially distributed service-time model.
func Exponential(mean time.Duration) dist.ServiceDist {
	return dist.Exponential{M: Duration(mean)}
}

// Fixed returns a deterministic service-time model.
func Fixed(v time.Duration) dist.ServiceDist { return dist.Fixed{V: Duration(v)} }

// Bimodal returns a two-point service-time model: pLong of requests take
// long, the rest take short.
func Bimodal(short, long time.Duration, pLong float64) dist.ServiceDist {
	return dist.Bimodal{Short: Duration(short), Long: Duration(long), PLong: pLong}
}

// PoissonWorkload offers n requests as a homogeneous Poisson stream at
// an absolute rate in requests/second, with the first 10% treated as
// warmup. Use dist.LoadForRate to derive a rate from a load fraction.
func PoissonWorkload(rate float64, svc dist.ServiceDist, n int) Workload {
	return Workload{Arrivals: dist.Poisson{Rate: rate}, Service: svc, N: n, Warmup: n / 10}
}

// CloudWorkload offers a bursty "real-world" arrival pattern (a
// Markov-modulated Poisson surrogate for the paper's public-cloud
// regression model) at the given long-run rate.
func CloudWorkload(rate float64, svc dist.ServiceDist, n int) Workload {
	return Workload{Arrivals: dist.NewCloudMMPP(rate), Service: svc, N: n, Warmup: n / 10}
}

// NewKVStore returns the simulator's MICA application for a store of the
// given EREW partition count serving `keys` 16 B keys with 512 B values,
// ready to attach to a Workload: requests take their key's partition as
// their connection and their service time from MICA's op cost model.
func NewKVStore(partitions, keys int) (*server.MICAApp, error) {
	return server.NewMICA(partitions, mica.DefaultOpCost(fabric.Default()), keys, 16, 512)
}
