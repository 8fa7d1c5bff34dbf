package check

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/nic"
	"repro/internal/queueing"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Differential validation (the nanoPU/RackSched methodology): run the
// two schedulers with exact queueing-theory counterparts under
// Poisson arrivals and exponential service, then assert the simulated
// latency statistics against the closed forms.
//
//   - c-FCFS: sched.Central with zero dispatch/handoff cost and no
//     preemption is exactly M/M/k; mean sojourn, delay probability and
//     the P99 sojourn follow from the Erlang-C formula.
//   - d-FCFS: sched.DFCFS under per-request random steering splits the
//     Poisson stream into k independent M/M/1 queues at rate λ/k each
//     (both closed forms are the K=1 instance of the same M/M/k
//     expressions).
//
// Tolerances are CI-calibrated at runtime via the batch-means method:
// the post-warmup series is cut into fixed-count batches whose means
// are near-independent, giving a standard error that already accounts
// for the autocorrelation of queueing output; each assertion allows
// diffZ standard errors plus a small model slack (DESIGN §8).

// DiffCase is one differential-validation configuration.
type DiffCase struct {
	Name    string
	CFCFS   bool // true: Central (M/M/k); false: DFCFS + random steering (k x M/M/1)
	K       int
	Rho     float64  // offered load per core
	MeanSvc sim.Time // exponential service mean
	N       int
	Warmup  int // leading completions excluded from statistics
}

// DiffMetric is one simulated-vs-analytical comparison.
type DiffMetric struct {
	Name  string
	Sim   float64
	Model float64
	Tol   float64 // allowed absolute deviation
	OK    bool
}

// DiffResult is the outcome of one differential case.
type DiffResult struct {
	Case    DiffCase
	Metrics []DiffMetric
	Report  *Report // invariant report of the same run
}

// Err returns nil when every metric passed and the run was clean.
func (d *DiffResult) Err() error {
	if err := d.Report.Err(); err != nil {
		return fmt.Errorf("differential %s: %w", d.Case.Name, err)
	}
	for _, m := range d.Metrics {
		if !m.OK {
			return fmt.Errorf("differential %s: %s = %.6g, model %.6g (tol %.2g)",
				d.Case.Name, m.Name, m.Sim, m.Model, m.Tol)
		}
	}
	return nil
}

// Batch-means parameters: diffBatches batches keep batch sizes large
// enough (thousands of requests) that batch means decorrelate at the
// loads used below; diffZ standard errors bound the false-alarm rate
// per metric around the 1e-4 level even with residual correlation.
const (
	diffBatches   = 25
	diffZ         = 4.5
	diffMeanSlack = 0.015 // relative model slack for means
	diffProbSlack = 0.006 // absolute model slack for probabilities
)

// DefaultDiffCases returns the validation grid; quick shrinks run
// lengths for CI.
func DefaultDiffCases(quick bool) []DiffCase {
	n, warm := 400_000, 20_000
	if quick {
		n, warm = 80_000, 8_000
	}
	svc := sim.Microsecond
	return []DiffCase{
		{Name: "mm1-cfcfs-rho0.7", CFCFS: true, K: 1, Rho: 0.7, MeanSvc: svc, N: n, Warmup: warm},
		{Name: "erlangc-cfcfs-k8-rho0.8", CFCFS: true, K: 8, Rho: 0.8, MeanSvc: svc, N: n, Warmup: warm},
		{Name: "mm1-dfcfs-k4-rho0.7", CFCFS: false, K: 4, Rho: 0.7, MeanSvc: svc, N: n, Warmup: warm},
		{Name: "mm1-dfcfs-k8-rho0.5", CFCFS: false, K: 8, Rho: 0.5, MeanSvc: svc, N: n, Warmup: warm},
	}
}

// RunDiff executes one differential case with the invariant checker
// attached and compares the measured sojourn statistics against the
// queueing model.
func RunDiff(c DiffCase, seed uint64) (*DiffResult, error) {
	if c.K < 1 || c.Rho <= 0 || c.Rho >= 1 || c.N <= c.Warmup {
		return nil, fmt.Errorf("check: bad differential case %+v", c)
	}
	eng := sim.NewEngine()
	root := sim.NewRNG(seed)
	arrRNG := root.Fork(1)
	svcRNG := root.Fork(2)
	steerRNG := root.Fork(3)

	mu := 1 / c.MeanSvc.Seconds()
	lambda := c.Rho * float64(c.K) * mu

	// Per-queue model: the whole system for c-FCFS, one random split for
	// d-FCFS. Both sojourn statistics are queue-local and identical
	// across the k symmetric M/M/1 queues, so d-FCFS pools all requests.
	model := queueing.MMk{K: c.K, Lambda: lambda, Mu: mu}
	if !c.CFCFS {
		model = queueing.MMk{K: 1, Lambda: lambda / float64(c.K), Mu: mu}
	}

	chk := New(Options{Expected: c.N})
	sojourn := make([]float64, 0, c.N-c.Warmup) // seconds, completion in ID order below
	waited := make([]float64, 0, c.N-c.Warmup)  // 1.0 when the request queued
	reqs := make([]*rpcproto.Request, c.N)      // filled at completion
	done := chk.WrapDone(func(r *rpcproto.Request) { reqs[r.ID] = r })

	var s sched.Scheduler
	var specs []QueueSpec
	if c.CFCFS {
		s = sched.NewCentral(eng, c.K, 0, 0, 0, 0, done)
		specs = []QueueSpec{{ID: 0, Core: -1, Lens: 0}}
	} else {
		st := nic.NewSteerer(nic.SteerRandom, c.K, steerRNG)
		s = sched.NewDFCFS(eng, c.K, st, 0, done)
		for i := 0; i < c.K; i++ {
			specs = append(specs, QueueSpec{ID: i, Core: i, Lens: i})
		}
	}
	s.SetProbe(chk)
	chk.Attach(eng, specs, s.QueueLensInto)

	sched.OpenLoop{
		Arrivals: dist.Poisson{Rate: lambda},
		Service:  dist.Exponential{M: c.MeanSvc},
		N:        c.N,
		ArrRNG:   arrRNG,
		SvcRNG:   svcRNG,
	}.Start(eng, s)
	eng.RunAll()

	rep := chk.Finalize()
	for _, r := range reqs[c.Warmup:] {
		if r == nil {
			return nil, fmt.Errorf("check: differential %s left request unfinished", c.Name)
		}
		sojourn = append(sojourn, (r.Finish - r.Arrival).Seconds())
		w := 0.0
		if r.Start > r.Arrival {
			w = 1.0
		}
		waited = append(waited, w)
	}

	res := &DiffResult{Case: c, Report: rep}

	// Mean sojourn vs E[T] = E[W] + 1/µ.
	meanT := model.MeanSojourn()
	simMean, se := batchStats(sojourn)
	res.Metrics = append(res.Metrics, metric("mean-sojourn",
		simMean, meanT, diffZ*se+diffMeanSlack*meanT))

	// Delay probability vs Erlang-C (ρ for the M/M/1 split).
	pWait := model.PWait()
	simP, seP := batchStats(waited)
	res.Metrics = append(res.Metrics, metric("p-wait",
		simP, pWait, diffZ*seP+diffProbSlack))

	// P99 sojourn via the exceedance fraction: the share of sojourns
	// beyond the model's 99th percentile must be 1%.
	t99 := sojournPercentile(model, 0.99)
	exceed := make([]float64, len(sojourn))
	for i, v := range sojourn {
		if v > t99 {
			exceed[i] = 1
		}
	}
	simEx, seEx := batchStats(exceed)
	res.Metrics = append(res.Metrics, metric("p99-exceedance",
		simEx, 0.01, diffZ*seEx+diffProbSlack))

	return res, nil
}

func metric(name string, sim, model, tol float64) DiffMetric {
	return DiffMetric{Name: name, Sim: sim, Model: model, Tol: tol,
		OK: math.Abs(sim-model) <= tol}
}

// batchStats returns the overall mean and the batch-means standard
// error of a time-ordered series.
func batchStats(vals []float64) (mean, se float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	b := diffBatches
	if b > n {
		b = n
	}
	size := n / b
	means := make([]float64, 0, b)
	var total float64
	for i := 0; i < b; i++ {
		var s float64
		for _, v := range vals[i*size : (i+1)*size] {
			s += v
		}
		means = append(means, s/float64(size))
		total += s
	}
	// The remainder (< one batch) still counts toward the mean.
	for _, v := range vals[b*size:] {
		total += v
	}
	mean = total / float64(n)
	var ss float64
	for _, m := range means {
		d := m - mean
		ss += d * d
	}
	if b > 1 {
		se = math.Sqrt(ss/float64(b-1)) / math.Sqrt(float64(b))
	}
	return mean, se
}

// sojournPercentile solves P(T <= t) = p for the M/M/k sojourn time T.
// With W the wait (atom at zero of mass 1-C, exponential tail at rate
// δ = kµ-λ) and S ~ Exp(µ) independent of W,
//
//	P(T > t) = (1-C)·e^(-µt) + C·(µ·e^(-δt) - δ·e^(-µt))/(µ-δ)
//
// which for K=1 collapses to the classic Exp(µ-λ) sojourn. Solved by
// bisection (the tail is strictly decreasing).
func sojournPercentile(q queueing.MMk, p float64) float64 {
	mu := q.Mu
	delta := float64(q.K)*q.Mu - q.Lambda
	cc := q.PWait()
	if math.Abs(mu-delta) < 1e-9*mu {
		// Degenerate δ=µ: nudge to keep the closed form well-defined
		// (the limit is continuous).
		delta *= 1 + 1e-6
	}
	tail := func(t float64) float64 {
		return (1-cc)*math.Exp(-mu*t) + cc*(mu*math.Exp(-delta*t)-delta*math.Exp(-mu*t))/(mu-delta)
	}
	target := 1 - p
	lo, hi := 0.0, 1/mu
	for tail(hi) > target {
		hi *= 2
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if tail(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
