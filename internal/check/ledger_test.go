package check

import (
	"fmt"
	"strings"
	"testing"
)

// findViolation returns the first retained violation for an invariant,
// or nil.
func findViolation(rep *Report, invariant string) *Violation {
	for i := range rep.Violations {
		if rep.Violations[i].Invariant == invariant {
			return &rep.Violations[i]
		}
	}
	return nil
}

func TestLedgerCleanRun(t *testing.T) {
	l := NewLedger(8, false)
	for id := uint64(0); id < 8; id++ {
		l.Delivered(id)
	}
	l.MigrateLanded(3) // one hop is legal
	for id := uint64(0); id < 8; id++ {
		l.Completed(id)
	}

	d, c, m := l.Counts()
	if d != 8 || c != 8 || m != 1 {
		t.Fatalf("Counts() = %d/%d/%d, want 8/8/1", d, c, m)
	}
	rep := l.Verify()
	if err := rep.Err(); err != nil {
		t.Fatalf("clean run reported violation: %v", err)
	}
	if rep.Delivered != 8 || rep.Completed != 8 {
		t.Fatalf("report counts %d/%d, want 8/8", rep.Delivered, rep.Completed)
	}
	if rep.Checks == 0 {
		t.Fatal("report claims zero checks for a run that performed 17+")
	}
}

func TestLedgerDuplicateDelivery(t *testing.T) {
	l := NewLedger(4, false)
	l.Delivered(2)
	l.Delivered(2)
	l.Completed(2)
	// delivered=2, completed=1: the duplicate also breaks the drain
	// identity, so complete a second time to isolate the per-event law.
	l.Completed(2)

	rep := l.Verify()
	v := findViolation(rep, "conservation")
	if v == nil {
		t.Fatal("duplicate delivery not flagged")
	}
	if v.ReqID != 2 || !strings.Contains(v.Detail, "delivered twice") {
		t.Fatalf("wrong violation: %v", v)
	}
}

func TestLedgerDoubleCompletion(t *testing.T) {
	l := NewLedger(4, false)
	l.Delivered(1)
	l.Completed(1)
	l.Completed(1)
	l.Delivered(3) // rebalance delivered==completed at drain

	rep := l.Verify()
	v := findViolation(rep, "conservation")
	if v == nil || !strings.Contains(v.Detail, "completed twice") {
		t.Fatalf("double completion not flagged: %+v", rep.Violations)
	}
}

func TestLedgerCompletionNeverDelivered(t *testing.T) {
	l := NewLedger(4, false)
	l.Completed(9) // id beyond the slab: stateOf must report stateNew
	l.Delivered(0) // rebalance the drain identity

	rep := l.Verify()
	v := findViolation(rep, "conservation")
	if v == nil || !strings.Contains(v.Detail, "never delivered") {
		t.Fatalf("phantom completion not flagged: %+v", rep.Violations)
	}
}

func TestLedgerMigrateOnce(t *testing.T) {
	l := NewLedger(2, false)
	l.Delivered(0)
	l.MigrateLanded(0)
	l.MigrateLanded(0)
	l.Completed(0)

	rep := l.Verify()
	v := findViolation(rep, "migrate-once")
	if v == nil {
		t.Fatal("second migration landing not flagged")
	}
	if v.ReqID != 0 || !strings.Contains(v.Detail, "2 times") {
		t.Fatalf("wrong violation: %v", v)
	}
	if _, _, m := l.Counts(); m != 2 {
		t.Fatalf("landed count %d, want 2", m)
	}
}

func TestLedgerRemigrationAblation(t *testing.T) {
	l := NewLedger(2, true) // §VI relaxed: remigration allowed
	l.Delivered(0)
	l.MigrateLanded(0)
	l.MigrateLanded(0)
	l.MigrateLanded(0)
	l.Completed(0)

	if err := l.Verify().Err(); err != nil {
		t.Fatalf("remigration flagged despite allowRemigration: %v", err)
	}
}

// The per-request landing count shares a byte with the lifecycle state
// and saturates: a request bounced far past any real run must keep its
// state intact, and the run totals stay exact.
func TestLedgerLandingCountSaturates(t *testing.T) {
	const landings = 3 * ledgerMaxLandings
	l := NewLedger(2, true)
	l.Delivered(0)
	l.Delivered(1)
	for i := 0; i < landings; i++ {
		l.MigrateLanded(1)
	}
	l.Completed(0)
	l.Completed(1)
	if err := l.Verify().Err(); err != nil {
		t.Fatalf("remigration ablation reported: %v", err)
	}
	if _, _, m := l.Counts(); m != landings {
		t.Fatalf("landed count %d, want %d", m, landings)
	}

	strict := NewLedger(1, false)
	strict.Delivered(0)
	for i := 0; i < landings; i++ {
		strict.MigrateLanded(0)
	}
	strict.Completed(0)
	rep := strict.Verify()
	if got := rep.Total(); got != landings-1 {
		t.Fatalf("%d violations, want one per landing after the first (%d)", got, landings-1)
	}
	if v := findViolation(rep, "conservation"); v != nil {
		t.Fatalf("landing count spilled into the state bits: %v", v)
	}
}

func TestLedgerDrainImbalanceAndInflight(t *testing.T) {
	l := NewLedger(4, false)
	l.Delivered(0)
	l.Delivered(1)
	l.Completed(0) // id 1 stays queued: both drain laws fire

	rep := l.Verify()
	if rep.Total() != 2 {
		t.Fatalf("want 2 drain violations, got %d: %+v", rep.Total(), rep.Violations)
	}
	var sawImbalance, sawInflight bool
	for _, v := range rep.Violations {
		if v.ReqID != NoRequest {
			t.Fatalf("drain violations are run-wide, got req=%d", v.ReqID)
		}
		switch {
		case strings.Contains(v.Detail, "delivered 2 but completed 1"):
			sawImbalance = true
		case strings.Contains(v.Detail, "1 request(s) delivered but never completed"):
			sawInflight = true
		}
	}
	if !sawImbalance || !sawInflight {
		t.Fatalf("missing drain law (imbalance=%v inflight=%v): %+v",
			sawImbalance, sawInflight, rep.Violations)
	}
}

// TestLedgerSlabGrowth exercises ids past the pre-sized slabs, and an
// expected=0 ledger (everything grows on demand).
func TestLedgerSlabGrowth(t *testing.T) {
	for _, expected := range []int{0, 2} {
		l := NewLedger(expected, false)
		for id := uint64(0); id < 64; id++ {
			l.Delivered(id)
			if id%7 == 0 {
				l.MigrateLanded(id)
			}
			l.Completed(id)
		}
		if err := l.Verify().Err(); err != nil {
			t.Fatalf("expected=%d: %v", expected, err)
		}
		d, c, m := l.Counts()
		if d != 64 || c != 64 || m != 10 {
			t.Fatalf("expected=%d: Counts() = %d/%d/%d, want 64/64/10",
				expected, d, c, m)
		}
	}
}

func TestLedgerViolationRetentionCap(t *testing.T) {
	l := NewLedger(1, false)
	l.Delivered(0)
	for i := 0; i < 30; i++ { // 30 duplicate deliveries, cap is 16
		l.Delivered(0)
	}
	for i := 0; i < 31; i++ {
		l.Completed(0) // rebalance so drain laws stay quiet
	}

	rep := l.Verify()
	if len(rep.Violations) != 16 {
		t.Fatalf("retained %d violations, want cap of 16", len(rep.Violations))
	}
	// 30 duplicate deliveries + 30 double completions = 60 per-event
	// violations; 16 retained, the rest counted as dropped.
	if rep.Total() != 60 {
		t.Fatalf("Total() = %d, want 60 (dropped=%d)", rep.Total(), rep.Dropped)
	}
	if err := rep.Err(); err == nil ||
		!strings.Contains(err.Error(), "60 invariant violation(s)") {
		t.Fatalf("Err() = %v, want summary of 60", err)
	}
}

// Ledger violations carry no queue or sim timestamp; String must still
// render them without the queue field.
func TestLedgerViolationString(t *testing.T) {
	l := NewLedger(1, false)
	l.Delivered(0)
	l.Delivered(0)
	l.Completed(0)
	l.Completed(0)

	rep := l.Verify()
	if len(rep.Violations) == 0 {
		t.Fatal("no violations retained")
	}
	s := rep.Violations[0].String()
	if strings.Contains(s, "queue=") {
		t.Fatalf("ledger violation rendered a queue id: %q", s)
	}
	if !strings.Contains(s, "req=0") {
		t.Fatalf("violation string lost the request id: %q", s)
	}
	if want := fmt.Sprintf("[%s]", "conservation"); !strings.Contains(s, want) {
		t.Fatalf("violation string lost the invariant name: %q", s)
	}
}
