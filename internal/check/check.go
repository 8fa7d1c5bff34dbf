// Package check is the simulator's online invariant engine: a
// sched.Probe that shadows every queue mutation and core transition a
// scheduler performs and verifies, while the run executes, the
// conservation laws the paper's results rest on —
//
//   - conservation: every delivered request completes exactly once, and
//     at drain no request is left queued, in transit, or running;
//   - FIFO order: per-queue service order matches arrival order (head
//     pops return the oldest resident, tail pops the newest);
//   - queue accounting: the lengths a scheduler reports (OnEnqueue
//     qlen, QueueLens) always match the shadow copy;
//   - bounded queues: JBSQ's bound and ALTOCUMULUS's WorkerDepth are
//     never exceeded (OnOutstanding);
//   - migrate-at-most-once (§VI): a request lands at a destination
//     NetRX at most once unless remigration is explicitly enabled;
//   - migration guard (Algorithm 1 line 8): every MIGRATE batch
//     satisfied q[src]-S >= q[dst]+S when the guard was enabled;
//   - work conservation: per-core queues never hold work while their
//     core idles at a checkpoint; for work-stealing schedulers, no core
//     idles while any queue holds work.
//
// The checker is passive: it draws no randomness and mutates no
// simulation state, so a run behaves identically with it attached or
// not. Violations carry the offending request id, sim time, and a
// queue-length snapshot. The companion differential mode
// (differential.go) validates d-FCFS/c-FCFS latency distributions
// against closed-form M/M/1 and Erlang-C predictions.
package check

import (
	"fmt"
	"strings"

	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
)

// enabled is the process-wide opt-out consulted by harnesses that
// attach checkers by default (server.Run). It is written once at
// startup (the altobench -check flag) before any run begins, never
// concurrently with runs.
var enabled = true

// SetEnabled flips the process-wide default. Call it only before runs
// start (flag parsing); per-run opt-out is Config.NoCheck.
func SetEnabled(on bool) { enabled = on }

// Enabled reports the process-wide default.
func Enabled() bool { return enabled }

// Options configures a Checker.
type Options struct {
	// Expected is the number of requests the run will deliver; Finalize
	// fails conservation if deliveries differ. 0 disables the check.
	Expected int
	// AllowRemigration disables the migrate-at-most-once invariant
	// (the paper's remigration ablation).
	AllowRemigration bool
	// WorkConserving additionally asserts, at every checkpoint, that no
	// owned core idles while ANY queue holds work (work stealing).
	WorkConserving bool
}

const (
	// checkEvery is the checkpoint period in simulated time.
	checkEvery = 20 * sim.Microsecond
	// maxViolations caps the Violation records a checker retains;
	// further violations are only counted.
	maxViolations = 16
)

// Violation is one invariant failure, with enough context to debug it.
type Violation struct {
	Invariant string   // which law broke (e.g. "fifo-order", "migrate-guard")
	At        sim.Time // sim time of detection
	ReqID     uint64   // offending request, or NoRequest
	Queue     int      // offending queue id, or -1
	Detail    string
	Lens      []int // scheduler-reported queue lengths at detection
}

// NoRequest marks a violation not tied to a single request.
const NoRequest = ^uint64(0)

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] t=%v", v.Invariant, v.At)
	if v.ReqID != NoRequest {
		fmt.Fprintf(&b, " req=%d", v.ReqID)
	}
	if v.Queue >= 0 {
		fmt.Fprintf(&b, " queue=%d", v.Queue)
	}
	fmt.Fprintf(&b, ": %s", v.Detail)
	if v.Lens != nil {
		fmt.Fprintf(&b, " (qlens=%v)", v.Lens)
	}
	return b.String()
}

// Report is the outcome of one checked run.
type Report struct {
	Checks      uint64 // individual invariant evaluations
	Checkpoints uint64 // periodic sweeps performed
	Delivered   uint64
	Completed   uint64
	Batches     uint64 // MIGRATE batches observed
	Violations  []Violation
	Dropped     int // violations beyond the retention cap
}

// Total returns the number of violations, retained or not.
func (rep *Report) Total() int { return len(rep.Violations) + rep.Dropped }

// Err returns nil when the run was clean, else an error summarising the
// first violation.
func (rep *Report) Err() error {
	if rep == nil || rep.Total() == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s), first: %s",
		rep.Total(), rep.Violations[0])
}

// Request lifecycle states. A request may cycle Queued -> InTransit
// (dequeue, preempt, migration pop) -> Queued any number of times
// before completing.
const (
	stateNew      uint8 = iota // not yet delivered
	stateQueued                // resident in a shadow queue
	stateTransit               // popped but not yet running or re-queued
	stateRunning               // executing on a core
	stateDone                  // completed (OnComplete fired)
	stateFinished              // Done callback consumed
)

var stateNames = [...]string{"new", "queued", "in-transit", "running", "done", "finished"}

// shadowQ mirrors one scheduler queue as request ids.
type shadowQ struct {
	buf  []uint64
	head int
}

func (q *shadowQ) len() int       { return len(q.buf) - q.head }
func (q *shadowQ) push(id uint64) { q.buf = append(q.buf, id) }
func (q *shadowQ) popHead() (uint64, bool) {
	if q.len() == 0 {
		return 0, false
	}
	id := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0 // drained: refill from the front
	} else if q.head > 64 && q.head*2 >= len(q.buf) {
		q.buf = append(q.buf[:0], q.buf[q.head:]...)
		q.head = 0
	}
	return id, true
}
func (q *shadowQ) popTail() (uint64, bool) {
	if q.len() == 0 {
		return 0, false
	}
	id := q.buf[len(q.buf)-1]
	q.buf = q.buf[:len(q.buf)-1]
	return id, true
}

// Checker implements sched.Probe over one run. Zero-value is unusable;
// construct with New and wire with WrapDone + Attach, or run under
// RunOpenLoop, which does both.
type Checker struct {
	opt         Options
	eng         *sim.Engine
	lens        func(buf []int) []int
	lensScratch []int // reused across checkpoints (violations copy fresh)
	specs       []sched.QueueSpec

	queues   []*shadowQ // indexed by queue id; nil = undeclared
	coreBusy []bool     // indexed by core id
	state    []uint8    // indexed by request id
	migrated []int32    // indexed by request id: RequeueMigrate landings
	migPhase []uint8    // indexed by request id: phase the migrate count belongs to
	phase    []uint8    // indexed by request id: last phase seen at a forwarded boundary

	queued    int // requests across all shadow queues
	running   int // requests executing
	delivered uint64
	completed uint64

	checks      uint64
	checkpoints uint64
	batches     uint64
	violations  []Violation
	dropped     int
	finalized   bool
}

// New builds a checker.
func New(opt Options) *Checker {
	c := &Checker{opt: opt}
	if opt.Expected > 0 {
		c.state = make([]uint8, opt.Expected)
		c.migrated = make([]int32, opt.Expected)
		c.migPhase = make([]uint8, opt.Expected)
		c.phase = make([]uint8, opt.Expected)
	}
	return c
}

// Attach binds the checker to a run of s on eng: it installs itself as
// s's probe, shadows the queue topology s declares (QueueSpecs), and
// cross-checks s's QueueLensInto snapshot at every checkpoint on eng's
// clock (the checker owns the scratch buffer, so periodic checkpoints
// allocate nothing). Call once, before the first delivery. The
// checkpoint cadence stops by itself once the expected request count has
// completed, so event queues can drain.
func (c *Checker) Attach(eng *sim.Engine, s sched.Scheduler) {
	s.SetProbe(c)
	c.attach(eng, s.QueueSpecs(), s.QueueLensInto)
}

// attach binds the checker to eng and a queue topology with no
// scheduler behind it; lens may be nil.
func (c *Checker) attach(eng *sim.Engine, specs []sched.QueueSpec, lens func(buf []int) []int) {
	c.eng = eng
	c.specs = specs
	c.lens = lens
	for _, sp := range specs {
		if sp.ID < 0 {
			panic(fmt.Sprintf("check: negative queue spec id %d", sp.ID))
		}
		for len(c.queues) <= sp.ID {
			c.queues = append(c.queues, nil)
		}
		if c.queues[sp.ID] != nil {
			panic(fmt.Sprintf("check: duplicate queue spec id %d", sp.ID))
		}
		c.queues[sp.ID] = &shadowQ{}
		if sp.Core >= 0 {
			c.ensureCore(sp.Core)
		}
	}
	eng.Every(checkEvery, c.checkpoint)
}

// WrapDone interposes completion checking on a Done callback. Wire the
// wrapped callback into the scheduler so the checker observes every
// completion even when probe hooks are disabled.
func (c *Checker) WrapDone(done sched.Done) sched.Done {
	return func(r *rpcproto.Request) {
		c.onDone(r)
		if done != nil {
			done(r)
		}
	}
}

// now is the violation timestamp; 0 before Attach.
func (c *Checker) now() sim.Time {
	if c.eng == nil {
		return 0
	}
	return c.eng.Now()
}

// record captures a violation, keeping at most maxViolations.
func (c *Checker) record(invariant string, reqID uint64, queue int, detail string) {
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	var lens []int
	if c.lens != nil {
		lens = c.lens(nil) // fresh: the Violation retains the snapshot
	}
	c.violations = append(c.violations, Violation{
		Invariant: invariant,
		At:        c.now(),
		ReqID:     reqID,
		Queue:     queue,
		Detail:    detail,
		Lens:      lens,
	})
}

// stateOf returns the lifecycle state of a request id.
func (c *Checker) stateOf(id uint64) uint8 {
	if id < uint64(len(c.state)) {
		return c.state[id]
	}
	return stateNew
}

// setState transitions a request, growing the slab for ids beyond the
// expected count (harnesses with unknown N).
func (c *Checker) setState(id uint64, st uint8) {
	for uint64(len(c.state)) <= id {
		c.state = append(c.state, stateNew)
	}
	c.state[id] = st
}

// expectState verifies a lifecycle transition precondition.
func (c *Checker) expectState(r *rpcproto.Request, q int, want uint8, during string) bool {
	c.checks++
	if st := c.stateOf(r.ID); st != want {
		c.record("state-machine", r.ID, q, fmt.Sprintf(
			"%s while %s (want %s)", during, stateNames[st], stateNames[want]))
		return false
	}
	return true
}

// queue resolves a probe queue id; unknown ids are themselves a
// violation (the harness's queue topology is out of sync).
func (c *Checker) queue(id int) *shadowQ {
	if id >= 0 && id < len(c.queues) && c.queues[id] != nil {
		return c.queues[id]
	}
	c.record("queue-topology", NoRequest, id, "probe event on undeclared queue")
	q := &shadowQ{}
	for len(c.queues) <= id {
		c.queues = append(c.queues, nil)
	}
	c.queues[id] = q
	return q
}

// ensureCore grows the busy slab to cover a core id.
func (c *Checker) ensureCore(core int) {
	for len(c.coreBusy) <= core {
		c.coreBusy = append(c.coreBusy, false)
	}
}

// enqueue is the shared push path of OnEnqueue and OnRequeue.
func (c *Checker) enqueue(r *rpcproto.Request, qid, qlen int, during string) {
	q := c.queue(qid)
	c.checks++
	if q.len() != qlen {
		c.record("queue-accounting", r.ID, qid, fmt.Sprintf(
			"%s reported qlen %d, shadow has %d", during, qlen, q.len()))
	}
	q.push(r.ID)
	c.setState(r.ID, stateQueued)
	c.queued++
}

// OnEnqueue implements sched.Probe: first delivery of r to queue q.
func (c *Checker) OnEnqueue(r *rpcproto.Request, qid, qlen int) {
	c.delivered++
	c.expectState(r, qid, stateNew, "delivered")
	c.enqueue(r, qid, qlen, "OnEnqueue")
}

// requeueDuring pre-renders the expectState context per cause: the probe
// fires on every transfer landing, so building the string with
// concatenation here would be one allocation per queue mutation.
var requeueDuring = [...]string{
	sched.RequeueTransfer: "requeued (transfer)",
	sched.RequeuePreempt:  "requeued (preempt)",
	sched.RequeueMigrate:  "requeued (migrate)",
	sched.RequeueNack:     "requeued (nack)",
	sched.RequeueForward:  "requeued (forward)",
}

// OnRequeue implements sched.Probe.
//
//altolint:hotpath
func (c *Checker) OnRequeue(r *rpcproto.Request, qid int, cause sched.RequeueCause, qlen int) {
	during := "requeued (transfer)"
	if int(cause) >= 0 && int(cause) < len(requeueDuring) {
		during = requeueDuring[cause]
	}
	c.expectState(r, qid, stateTransit, during)
	if cause == sched.RequeueMigrate {
		for uint64(len(c.migrated)) <= r.ID {
			c.migrated = append(c.migrated, 0) //altolint:allow hotalloc migrated slab is preallocated to Expected; growth only on ID overflow
		}
		for uint64(len(c.migPhase)) <= r.ID {
			c.migPhase = append(c.migPhase, 0) //altolint:allow hotalloc migPhase slab is preallocated to Expected; growth only on ID overflow
		}
		// Migrate-once is scoped per phase (DESIGN.md §15): the count
		// resets when the request's phase has advanced since its last
		// migration. Unphased requests stay at phase 0, so the count
		// never resets and the classic §VI invariant holds verbatim.
		if c.migPhase[r.ID] != r.Phase {
			c.migPhase[r.ID] = r.Phase
			c.migrated[r.ID] = 0
		}
		c.migrated[r.ID]++
		c.checks++
		if n := c.migrated[r.ID]; n > 1 && !c.opt.AllowRemigration {
			c.record("migrate-once", r.ID, qid, fmt.Sprintf(
				"request landed at a migration destination %d times (§VI allows one)", n))
		}
	}
	c.enqueue(r, qid, qlen, "OnRequeue")
}

// OnPhaseDone implements sched.Probe: core finished a non-final
// phase of r and the scheduler took the request off it to forward the
// next phase (r.Phase has already advanced). Back-to-back local
// continuations emit no event, so observed boundaries need only be
// strictly increasing in phase, not consecutive.
//
//altolint:hotpath
func (c *Checker) OnPhaseDone(r *rpcproto.Request, core int) {
	if c.expectState(r, -1, stateRunning, "phase-forwarded") {
		c.running--
	}
	c.ensureCore(core)
	c.checks++
	if !c.coreBusy[core] {
		c.record("double-dispatch", r.ID, -1, fmt.Sprintf(
			"core %d finished a phase of request %d while marked idle", core, r.ID))
	}
	c.coreBusy[core] = false
	c.setState(r.ID, stateTransit)
	c.checks++
	if !r.Phased() || r.Phase == 0 || r.Phase >= r.NumPhases {
		c.record("phase-order", r.ID, -1, fmt.Sprintf(
			"phase boundary at phase %d of a %d-phase request", r.Phase, r.NumPhases))
		return
	}
	for uint64(len(c.phase)) <= r.ID {
		c.phase = append(c.phase, 0) //altolint:allow hotalloc phase slab is preallocated to Expected; growth only on ID overflow
	}
	c.checks++
	if last := c.phase[r.ID]; r.Phase <= last {
		c.record("phase-order", r.ID, -1, fmt.Sprintf(
			"phase boundary at phase %d after a boundary at phase %d", r.Phase, last))
	}
	c.phase[r.ID] = r.Phase
}

// OnDequeue implements sched.Probe.
func (c *Checker) OnDequeue(r *rpcproto.Request, qid int, fromTail bool) {
	c.expectState(r, qid, stateQueued, "dequeued")
	q := c.queue(qid)
	var got uint64
	var ok bool
	if fromTail {
		got, ok = q.popTail()
	} else {
		got, ok = q.popHead()
	}
	c.checks++
	switch {
	case !ok:
		c.record("queue-accounting", r.ID, qid, "dequeue from empty shadow queue")
	case got != r.ID:
		end := "head"
		if fromTail {
			end = "tail"
		}
		c.record("fifo-order", r.ID, qid, fmt.Sprintf(
			"%s pop returned request %d, shadow %s is %d", end, r.ID, end, got))
	default:
		c.queued--
	}
	c.setState(r.ID, stateTransit)
}

// OnRun implements sched.Probe.
func (c *Checker) OnRun(r *rpcproto.Request, core int) {
	c.expectState(r, -1, stateTransit, "started")
	c.ensureCore(core)
	c.checks++
	if c.coreBusy[core] {
		c.record("double-dispatch", r.ID, -1, fmt.Sprintf(
			"core %d started request %d while already running", core, r.ID))
	}
	c.coreBusy[core] = true
	c.setState(r.ID, stateRunning)
	c.running++
}

// OnComplete implements sched.Probe.
func (c *Checker) OnComplete(r *rpcproto.Request, core int) {
	if c.expectState(r, -1, stateRunning, "completed") {
		c.running--
	}
	c.ensureCore(core)
	c.checks++
	if !c.coreBusy[core] {
		c.record("double-dispatch", r.ID, -1, fmt.Sprintf(
			"core %d completed request %d while marked idle", core, r.ID))
	}
	c.coreBusy[core] = false
	c.setState(r.ID, stateDone)
}

// OnPreempt implements sched.Probe.
func (c *Checker) OnPreempt(r *rpcproto.Request, core int) {
	if c.expectState(r, -1, stateRunning, "preempted") {
		c.running--
	}
	c.ensureCore(core)
	c.coreBusy[core] = false
	c.setState(r.ID, stateTransit)
	c.checks++
	if r.Remaining <= 0 {
		c.record("state-machine", r.ID, -1, "preempted with no remaining work")
	}
}

// OnSteal implements sched.Probe.
func (c *Checker) OnSteal(r *rpcproto.Request, thief, victim int) {
	c.checks++
	if thief == victim {
		c.record("state-machine", r.ID, victim, "steal from own queue")
	}
}

// OnOutstanding implements sched.Probe: the bounded-queue law.
func (c *Checker) OnOutstanding(r *rpcproto.Request, core, n, bound int) {
	c.checks++
	if n > bound {
		c.record("bound-exceeded", r.ID, -1, fmt.Sprintf(
			"core %d outstanding %d exceeds bound %d", core, n, bound))
	}
}

// OnMigrate implements sched.Probe: Algorithm 1 line 8.
func (c *Checker) OnMigrate(src, dst, srcLen, dstView, batch int, guarded bool) {
	c.batches++
	c.checks++
	if guarded && srcLen-batch < dstView+batch {
		c.record("migrate-guard", NoRequest, src, fmt.Sprintf(
			"MIGRATE src=%d(len %d) dst=%d(view %d) batch %d violates q[src]-S >= q[dst]+S",
			src, srcLen, dst, dstView, batch))
	}
	if src >= 0 && src < len(c.queues) && c.queues[src] != nil {
		q := c.queues[src]
		c.checks++
		if q.len() != srcLen {
			c.record("queue-accounting", NoRequest, src, fmt.Sprintf(
				"MIGRATE decision saw qlen %d, shadow has %d", srcLen, q.len()))
		}
	}
}

// onDone runs inside the wrapped Done callback.
func (c *Checker) onDone(r *rpcproto.Request) {
	c.completed++
	c.checks++
	if st := c.stateOf(r.ID); st == stateFinished {
		c.record("conservation", r.ID, -1, "request completed twice")
	}
	c.setState(r.ID, stateFinished)
	c.checks++
	if r.Finish == 0 {
		c.record("conservation", r.ID, -1, "Done with zero finish time")
	} else if !r.Phased() {
		if r.Finish < r.Arrival+r.Service {
			c.record("conservation", r.ID, -1, fmt.Sprintf(
				"finish %v precedes arrival %v + service %v", r.Finish, r.Arrival, r.Service))
		}
	} else {
		// Per-phase conservation: with accelerator speedups the chain
		// can finish faster than the base Service sum, but never faster
		// than the sum of each phase's best-case duration.
		if min := r.MinService(); r.Finish < r.Arrival+min {
			c.record("conservation", r.ID, -1, fmt.Sprintf(
				"finish %v precedes arrival %v + minimum chain service %v", r.Finish, r.Arrival, min))
		}
		// Phase order at completion: every phase ended, timestamps
		// nondecreasing from arrival, the last one at Finish, and the
		// request parked on its final phase.
		c.checks++
		ok := r.Phase == r.NumPhases-1 && r.PhaseEnd[r.NumPhases-1] == r.Finish
		prev := r.Arrival
		for i := 0; ok && i < int(r.NumPhases); i++ {
			if r.PhaseEnd[i] < prev {
				ok = false
			}
			prev = r.PhaseEnd[i]
		}
		if !ok {
			c.record("phase-order", r.ID, -1, fmt.Sprintf(
				"completed on phase %d/%d with phase ends %v (arrival %v, finish %v)",
				r.Phase, r.NumPhases, r.PhaseEnd[:r.NumPhases], r.Arrival, r.Finish))
		}
	}
}

// done reports whether the run has delivered and completed everything
// the harness promised.
func (c *Checker) done() bool {
	return c.opt.Expected > 0 &&
		c.delivered >= uint64(c.opt.Expected) &&
		c.completed >= uint64(c.opt.Expected)
}

// checkpoint is the periodic sweep; returning false stops the cadence.
func (c *Checker) checkpoint() bool {
	if c.finalized || c.done() {
		return false
	}
	c.checkpoints++
	var lens []int
	if c.lens != nil {
		lens = c.lens(c.lensScratch)
		c.lensScratch = lens
	}
	anyQueued := c.queued > 0
	for _, sp := range c.specs {
		q := c.queues[sp.ID]
		if sp.Lens >= 0 && sp.Lens < len(lens) {
			c.checks++
			if lens[sp.Lens] != q.len() {
				c.record("queue-accounting", NoRequest, sp.ID, fmt.Sprintf(
					"QueueLens[%d] = %d, shadow has %d", sp.Lens, lens[sp.Lens], q.len()))
			}
		}
		if sp.Core >= 0 {
			c.checks++
			idle := !c.coreBusy[sp.Core]
			if idle && q.len() > 0 {
				c.record("work-conservation", NoRequest, sp.ID, fmt.Sprintf(
					"core %d idle with %d request(s) in its queue", sp.Core, q.len()))
			}
			if c.opt.WorkConserving && idle && anyQueued {
				c.record("work-conservation", NoRequest, sp.ID, fmt.Sprintf(
					"core %d idle while %d request(s) queued somewhere (stealing enabled)",
					sp.Core, c.queued))
			}
		}
	}
	return true
}

// Finalize closes the run: the drain-time conservation identity
// (arrivals = completions, nothing queued, in transit, or running) and
// the report. Call after the run loop ends; the checker is inert
// afterwards.
func (c *Checker) Finalize() *Report {
	first := !c.finalized
	if first {
		c.finalized = true
		c.checks++
		if c.opt.Expected > 0 && c.delivered != uint64(c.opt.Expected) {
			c.record("conservation", NoRequest, -1, fmt.Sprintf(
				"delivered %d of %d expected requests", c.delivered, c.opt.Expected))
		}
		c.checks++
		if c.completed != c.delivered {
			c.record("conservation", NoRequest, -1, fmt.Sprintf(
				"delivered %d but completed %d (in-flight at drain: %d queued, %d running)",
				c.delivered, c.completed, c.queued, c.running))
		}
		c.checks++
		if c.queued != 0 || c.running != 0 {
			for _, sp := range c.specs {
				if q := c.queues[sp.ID]; q.len() > 0 {
					c.record("conservation", NoRequest, sp.ID, fmt.Sprintf(
						"%d request(s) still queued at drain", q.len()))
				}
			}
			if c.running != 0 {
				c.record("conservation", NoRequest, -1, fmt.Sprintf(
					"%d request(s) still running at drain", c.running))
			}
		}
	}
	rep := &Report{
		Checks:      c.checks,
		Checkpoints: c.checkpoints,
		Delivered:   c.delivered,
		Completed:   c.completed,
		Batches:     c.batches,
		Violations:  c.violations,
		Dropped:     c.dropped,
	}
	if first {
		recordRun(rep)
	}
	return rep
}

var _ sched.Probe = (*Checker)(nil)
