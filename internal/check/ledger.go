package check

import "fmt"

// Ledger is the engine-independent core of the conservation and
// migrate-at-most-once invariants: bare request-lifecycle accounting
// with no probe wiring, no shadow queues and no event engine, so the
// live goroutine runtime (internal/live) can assert the same §VI laws
// the simulator's Checker enforces. The runtime records Delivered at
// ingress, MigrateLanded when a descriptor lands on a destination run
// queue, and Completed when the response callback fires; Verify closes
// the run with the drain-time identity delivered == completed and
// nothing in flight.
//
// A Ledger is not safe for concurrent use: callers serialize access
// (the live runtime guards its ledger with one mutex, which also gives
// the counters a single total order to verify against).
type Ledger struct {
	allowRemigration bool
	maxViolations    int

	// recs is indexed by request id, one byte each: the lifecycle state
	// in the low ledgerStateBits, the migration landings above them,
	// saturating at ledgerMaxLandings. The live runtime keeps one record
	// per request of a run (millions), so the record's size is most of a
	// short-request server's live heap.
	recs []uint8

	delivered uint64
	completed uint64
	landed    uint64 // migration landings (requests, not batches)

	checks     uint64
	violations []Violation
	dropped    int
}

const (
	ledgerStateBits   = 3 // stateFinished, the largest state, is 5
	ledgerStateMask   = 1<<ledgerStateBits - 1
	ledgerMaxLandings = 0xff >> ledgerStateBits
)

// NewLedger builds a ledger. expected pre-sizes the lifecycle slab
// (ids beyond it still work, they just grow the slab); allowRemigration
// disables the migrate-at-most-once law for the remigration ablation.
func NewLedger(expected int, allowRemigration bool) *Ledger {
	l := &Ledger{allowRemigration: allowRemigration, maxViolations: 16}
	if expected > 0 {
		l.recs = make([]uint8, expected)
	}
	return l
}

// record captures a violation, keeping at most maxViolations. Ledger
// violations carry no sim timestamp (At stays zero): the live runtime
// has no simulated clock.
func (l *Ledger) record(invariant string, id uint64, detail string) {
	if len(l.violations) >= l.maxViolations {
		l.dropped++
		return
	}
	l.violations = append(l.violations, Violation{
		Invariant: invariant, ReqID: id, Queue: -1, Detail: detail,
	})
}

func (l *Ledger) stateOf(id uint64) uint8 {
	if id < uint64(len(l.recs)) {
		return l.recs[id] & ledgerStateMask
	}
	return stateNew
}

// rec returns id's record, growing the slab to reach it.
func (l *Ledger) rec(id uint64) *uint8 {
	for uint64(len(l.recs)) <= id {
		l.recs = append(l.recs, stateNew)
	}
	return &l.recs[id]
}

func (l *Ledger) setState(id uint64, st uint8) {
	r := l.rec(id)
	*r = *r&^ledgerStateMask | st
}

// Delivered records one request entering the runtime. Request ids must
// be unique per run; a repeat is a conservation violation.
func (l *Ledger) Delivered(id uint64) {
	l.delivered++
	l.checks++
	if st := l.stateOf(id); st != stateNew {
		l.record("conservation", id, fmt.Sprintf(
			"request delivered twice (duplicate id, state %s)", stateNames[st]))
	}
	l.setState(id, stateQueued)
}

// MigrateLanded records one request landing on a migration destination.
// The per-request count saturates at ledgerMaxLandings, far past the
// one landing the law allows.
func (l *Ledger) MigrateLanded(id uint64) {
	l.landed++
	r := l.rec(id)
	n := *r >> ledgerStateBits
	if n < ledgerMaxLandings {
		n++
		*r += 1 << ledgerStateBits
	}
	l.checks++
	if n > 1 && !l.allowRemigration {
		l.record("migrate-once", id, fmt.Sprintf(
			"request landed at a migration destination %d times (§VI allows one)", n))
	}
}

// Completed records one request finishing. Each delivered request must
// complete exactly once.
func (l *Ledger) Completed(id uint64) {
	l.completed++
	l.checks++
	switch l.stateOf(id) {
	case stateFinished:
		l.record("conservation", id, "request completed twice")
	case stateNew:
		l.record("conservation", id, "completion for a request never delivered")
	}
	l.setState(id, stateFinished)
}

// Counts returns the running delivered / completed / migration-landing
// totals.
func (l *Ledger) Counts() (delivered, completed, migrateLanded uint64) {
	return l.delivered, l.completed, l.landed
}

// Verify closes the run: the drain-time conservation identity plus the
// accumulated per-event violations, as a Report. Call after the runtime
// has drained; the ledger stays usable (Verify only appends drain
// findings on its first call per imbalance, so call it once).
func (l *Ledger) Verify() *Report {
	l.checks++
	if l.delivered != l.completed {
		l.record("conservation", NoRequest, fmt.Sprintf(
			"delivered %d but completed %d at drain", l.delivered, l.completed))
	}
	l.checks++
	inflight := 0
	for _, r := range l.recs {
		if st := r & ledgerStateMask; st != stateNew && st != stateFinished {
			inflight++
		}
	}
	if inflight > 0 {
		l.record("conservation", NoRequest, fmt.Sprintf(
			"%d request(s) delivered but never completed", inflight))
	}
	return &Report{
		Checks:     l.checks,
		Delivered:  l.delivered,
		Completed:  l.completed,
		Violations: l.violations,
		Dropped:    l.dropped,
	}
}
