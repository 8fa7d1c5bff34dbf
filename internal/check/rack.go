package check

import "repro/internal/sim"

// RackChecker verifies the rack tier's own conservation laws on top of
// the per-server Checkers: every arrival is dispatched to exactly one
// server, completes on the server it was dispatched to, and every
// dispatch decision was made on a depth view no staler than the
// configured bound. Like Checker it is passive — it observes dispatch
// and completion events and mutates nothing — and like Ledger it is
// engine-free, so the simulated rack runner and (in principle) a live
// relay can share it; callers serialise access.
type RackChecker struct {
	opts RackOptions

	// server[id] is the destination the request was dispatched to, or
	// rackUndispatched. done[id] marks completion. Ids are dense run
	// ids, exactly as Ledger assumes.
	server []int32
	done   []bool

	dispatched []uint64 // per-server dispatch counts
	completed  []uint64 // per-server completion counts
	maxAge     sim.Time // oldest view any decision consulted

	checks     uint64
	violations []Violation
	dropped    int
}

const rackUndispatched = int32(-1)

// RackOptions configures a RackChecker.
type RackOptions struct {
	// Servers is the rack width; completions naming a server outside
	// [0, Servers) are violations.
	Servers int
	// Expected is the number of requests the run will dispatch;
	// Finalize fails rack conservation if the total differs. 0 disables
	// that final check (online per-request checks still run).
	Expected int
	// StalenessBound, when nonzero, is the oldest depth observation a
	// dispatch decision may consult (the rack contract's bounded-
	// staleness invariant). Zero disables the invariant but ages are
	// still tracked for reporting.
	StalenessBound sim.Time
}

// NewRackChecker builds a checker for a rack of opts.Servers servers.
func NewRackChecker(opts RackOptions) *RackChecker {
	n := opts.Expected
	if n < 0 {
		n = 0
	}
	rc := &RackChecker{
		opts:       opts,
		server:     make([]int32, 0, n),
		done:       make([]bool, 0, n),
		dispatched: make([]uint64, opts.Servers),
		completed:  make([]uint64, opts.Servers),
	}
	return rc
}

func (rc *RackChecker) violate(v Violation) {
	if len(rc.violations) < maxViolations {
		rc.violations = append(rc.violations, v)
	} else {
		rc.dropped++
	}
}

// grow ensures the per-request slabs cover id.
func (rc *RackChecker) grow(id uint64) {
	for uint64(len(rc.server)) <= id {
		rc.server = append(rc.server, rackUndispatched)
		rc.done = append(rc.done, false)
	}
}

// OnDispatch records the rack-level dispatch of request id to server
// srv at time at, decided on a view whose oldest consulted observation
// was age old. Dispatching a request twice, to an out-of-range server,
// or on a view staler than the bound are violations.
func (rc *RackChecker) OnDispatch(id uint64, srv int, age sim.Time, at sim.Time) {
	rc.checks++
	rc.grow(id)
	if srv < 0 || srv >= rc.opts.Servers {
		rc.violate(Violation{Invariant: "rack-range", At: at, ReqID: id, Queue: srv,
			Detail: "dispatched to a server outside the rack"})
		return
	}
	if rc.server[id] != rackUndispatched {
		rc.violate(Violation{Invariant: "rack-dispatch-once", At: at, ReqID: id, Queue: srv,
			Detail: "request dispatched twice"})
		return
	}
	rc.server[id] = int32(srv)
	rc.dispatched[srv]++
	if age > rc.maxAge {
		rc.maxAge = age
	}
	if rc.opts.StalenessBound > 0 && age > rc.opts.StalenessBound {
		rc.violate(Violation{Invariant: "rack-staleness", At: at, ReqID: id, Queue: srv,
			Detail: "dispatch decided on a view older than the staleness bound"})
	}
}

// OnComplete records request id finishing on server srv at time at.
// Completing twice, or on a different server than dispatched to, are
// violations.
func (rc *RackChecker) OnComplete(id uint64, srv int, at sim.Time) {
	rc.checks++
	rc.grow(id)
	switch {
	case rc.server[id] == rackUndispatched:
		rc.violate(Violation{Invariant: "rack-conservation", At: at, ReqID: id, Queue: srv,
			Detail: "completed without a rack dispatch"})
	case int(rc.server[id]) != srv:
		rc.violate(Violation{Invariant: "rack-affinity", At: at, ReqID: id, Queue: srv,
			Detail: "completed on a different server than dispatched to"})
	case rc.done[id]:
		rc.violate(Violation{Invariant: "rack-complete-once", At: at, ReqID: id, Queue: srv,
			Detail: "request completed twice"})
	default:
		rc.done[id] = true
		rc.completed[srv]++
	}
}

// MaxSampleAge returns the oldest view any dispatch decision consulted.
func (rc *RackChecker) MaxSampleAge() sim.Time { return rc.maxAge }

// PerServer returns copies of the per-server dispatch and completion
// counts.
func (rc *RackChecker) PerServer() (dispatched, completed []uint64) {
	return append([]uint64(nil), rc.dispatched...), append([]uint64(nil), rc.completed...)
}

// Finalize runs the drain-time rack conservation checks and returns
// the report: total dispatches match Expected, and every server
// completed exactly what it was dispatched (nothing in flight, nothing
// lost, nothing duplicated).
func (rc *RackChecker) Finalize(at sim.Time) *Report {
	rc.checks++
	var totalDispatched, totalCompleted uint64
	for srv := range rc.dispatched {
		totalDispatched += rc.dispatched[srv]
		totalCompleted += rc.completed[srv]
		if rc.dispatched[srv] != rc.completed[srv] {
			rc.violate(Violation{Invariant: "rack-conservation", At: at, ReqID: NoRequest, Queue: srv,
				Detail: "server completed fewer requests than it was dispatched"})
		}
	}
	if rc.opts.Expected > 0 && totalDispatched != uint64(rc.opts.Expected) {
		rc.violate(Violation{Invariant: "rack-conservation", At: at, ReqID: NoRequest, Queue: -1,
			Detail: "rack dispatched a different total than expected"})
	}
	return &Report{
		Checks:     rc.checks,
		Delivered:  totalDispatched,
		Completed:  totalCompleted,
		Violations: rc.violations,
		Dropped:    rc.dropped,
	}
}
