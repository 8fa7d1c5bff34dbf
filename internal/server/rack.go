package server

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/check"
	"repro/internal/policy"
	"repro/internal/rack"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// RackConfig describes the inter-server tier of a simulated rack: how
// many identical servers it holds and how arrivals are dispatched
// across them. The per-server tier is a plain Config — each server
// runs the existing group-scheduling core completely unchanged.
type RackConfig struct {
	// Servers is the rack width (>= 1).
	Servers int
	// Policy is the inter-server dispatch rule.
	Policy rack.Kind
	// K is the PowerOfK sample size (0 = 2).
	K int
	// SampleEvery is the queue-depth sampling period: the dispatcher's
	// view of per-server depth refreshes this often, going stale in
	// between exactly as RackSched's sampled lens vectors do. 0 means a
	// fresh view before every dispatch (an idealised instant-visibility
	// rack interconnect).
	SampleEvery sim.Time
	// NoCheck opts the rack run out of both the per-server invariant
	// checkers and the rack-level checker. On by default, like Config.
	NoCheck bool
	// TraceViews records each dispatch decision's sampled view as a
	// string (RackResult.Views) for golden traces. Costs an allocation
	// per request; leave off outside tests.
	TraceViews bool
}

// Validate reports unusable rack configurations.
func (rc RackConfig) Validate() error {
	if rc.Servers < 1 {
		return fmt.Errorf("server: rack Servers = %d, want >= 1", rc.Servers)
	}
	if rc.SampleEvery < 0 {
		return fmt.Errorf("server: rack SampleEvery = %v, want >= 0", rc.SampleEvery)
	}
	return nil
}

// RackResult extends a Result (aggregate latency, SLO accounting,
// per-request records — exactly what a single-server run reports) with
// the rack tier's accounting. The embedded Result's ACStats and
// StealFrac are server 0's; its WorkerUtilization covers every server.
type RackResult struct {
	*Result
	Servers int
	Policy  rack.Kind
	// Dispatched and Completed are per-server request counts; the rack
	// checker proves they match at drain.
	Dispatched []uint64
	Completed  []uint64
	// MaxSampleAge is the oldest depth view any dispatch consulted.
	MaxSampleAge sim.Time
	// ServerOf[id] is the server request id was dispatched to; Ages[id]
	// is the view age its decision consulted.
	ServerOf []int32
	Ages     []sim.Time
	// Views[id] is the decision's sampled (server:depth) view, recorded
	// only under RackConfig.TraceViews.
	Views []string
	// RackCheck is the rack-level checker report; ServerChecks are the
	// per-server reports (nil when opted out).
	RackCheck    *check.Report
	ServerChecks []*check.Report
}

// rackTier is the inter-server layer of a rack run: the dispatcher that
// picks each arrival's server, the ground-truth depths its sampler
// reads, and the rack-level checker. The servers underneath are
// untouched — with one server the dispatcher short-circuits without
// consuming randomness, which is why a rack-of-1 trace is byte-identical
// to the single-server path.
type rackTier struct {
	rr   *RackResult
	disp *rack.Dispatcher
	rng  *sim.RNG
	chk  *check.RackChecker // nil when opted out

	// outstanding is the ground-truth per-server in-flight count
	// (dispatched minus completed) the sampler reads.
	outstanding []int
	sampleEvery sim.Time
}

// newRackTier builds the tier for a validated rc and fills in the rack
// side of rr.
func newRackTier(rc RackConfig, rr *RackResult, n int, rng *sim.RNG, checkOn bool) (*rackTier, error) {
	disp, err := rack.NewDispatcher(rack.Config{
		Servers: rc.Servers, Policy: rc.Policy, K: rc.K,
		StalenessBound: policy.Duration(rc.SampleEvery),
	})
	if err != nil {
		return nil, err
	}
	rr.Servers, rr.Policy = rc.Servers, rc.Policy
	rr.Dispatched = make([]uint64, rc.Servers)
	rr.Completed = make([]uint64, rc.Servers)
	rr.ServerOf = make([]int32, n)
	rr.Ages = make([]sim.Time, n)
	if rc.TraceViews {
		rr.Views = make([]string, n)
	}
	t := &rackTier{
		rr: rr, disp: disp, rng: rng,
		outstanding: make([]int, rc.Servers),
		sampleEvery: rc.SampleEvery,
	}
	if checkOn {
		// The staleness bound: with periodic sampling no decision may
		// consult a view older than one period; with fresh-view dispatch
		// any nonzero age is a harness bug.
		bound := rc.SampleEvery
		if bound == 0 {
			bound = sim.Picosecond
		}
		t.chk = check.NewRackChecker(check.RackOptions{
			Servers: rc.Servers, Expected: n, StalenessBound: bound,
		})
	}
	return t, nil
}

// startSampler arms the periodic depth-view refresh. With SampleEvery
// == 0 there is none: dispatch observes a fresh view per arrival.
func (t *rackTier) startSampler(eng *sim.Engine) {
	if t.sampleEvery == 0 {
		return
	}
	eng.Every(t.sampleEvery, func() bool {
		t.disp.ObserveAll(t.outstanding, policy.Duration(eng.Now()))
		return true
	})
}

// dispatch makes the rack decision for an arrival and records it.
//
//altolint:hotpath
func (t *rackTier) dispatch(r *rpcproto.Request, now sim.Time) int {
	if t.sampleEvery == 0 {
		t.disp.ObserveAll(t.outstanding, policy.Duration(now))
	}
	dec := t.disp.Pick(r.Conn, policy.Duration(now), t.rng)
	srv := dec.Server
	t.outstanding[srv]++
	t.rr.Dispatched[srv]++
	t.rr.ServerOf[r.ID] = int32(srv)
	t.rr.Ages[r.ID] = sim.Time(dec.Age)
	if t.rr.Views != nil {
		t.recordView(r.ID, dec)
	}
	if t.chk != nil {
		t.chk.OnDispatch(r.ID, srv, sim.Time(dec.Age), now)
	}
	return srv
}

// complete accounts a completion on server srv.
func (t *rackTier) complete(srv int, id uint64, now sim.Time) {
	t.outstanding[srv]--
	t.rr.Completed[srv]++
	if t.chk != nil {
		t.chk.OnComplete(id, srv, now)
	}
}

// finalize closes the rack checker and publishes its report.
func (t *rackTier) finalize(now sim.Time) error {
	t.rr.RackCheck = t.chk.Finalize(now)
	t.rr.MaxSampleAge = t.chk.MaxSampleAge()
	return t.rr.RackCheck.Err()
}

// recordView formats one decision's sampled (server:depth) pairs.
func (t *rackTier) recordView(id uint64, dec rack.Decision) {
	var b []byte
	for i, s := range dec.Sampled {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(dec.Depths[i]), 10)
	}
	t.rr.Views[id] = string(b)
}

// RunRack executes the workload against a rack of identical servers
// with a private Scratch.
func RunRack(rc RackConfig, cfg Config, wl Workload) (*RackResult, error) {
	return RunRackWith(nil, rc, cfg, wl)
}

// RunRackWith is RunRack with a reusable Scratch (see RunWith): the one
// run loop with the rack tier over its servers.
func RunRackWith(sc *Scratch, rc RackConfig, cfg Config, wl Workload) (*RackResult, error) {
	return run(sc, &rc, cfg, wl)
}

// WriteRackDispatchCSV exports the rack tier's decision trace: one row
// per request with its destination server, the age of the depth view
// the decision consulted, and (when the run recorded them) the sampled
// (server:depth) pairs. Together with trace.WriteCSV this pins a rack
// run's behaviour byte-for-byte.
func WriteRackDispatchCSV(w io.Writer, rr *RackResult) error {
	if _, err := fmt.Fprintln(w, "id,server,age_ns,view"); err != nil {
		return err
	}
	for id, srv := range rr.ServerOf {
		view := ""
		if rr.Views != nil {
			view = rr.Views[id]
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%.3f,%s\n",
			id, srv, rr.Ages[id].Nanoseconds(), view); err != nil {
			return err
		}
	}
	return nil
}
