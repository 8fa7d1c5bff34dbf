package check

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func rackViolations(rep *Report) map[string]int {
	out := map[string]int{}
	for _, v := range rep.Violations {
		out[v.Invariant]++
	}
	return out
}

func TestRackCheckerCleanRun(t *testing.T) {
	rc := NewRackChecker(RackOptions{Servers: 3, Expected: 6, StalenessBound: 50 * sim.Microsecond})
	order := []int{0, 1, 2, 2, 1, 0}
	for id, srv := range order {
		rc.OnDispatch(uint64(id), srv, sim.Time(id)*sim.Microsecond, sim.Time(id)*sim.Millisecond)
	}
	// Completions land out of dispatch order — irrelevant to the rack laws.
	for _, id := range []int{3, 0, 5, 1, 4, 2} {
		rc.OnComplete(uint64(id), order[id], 10*sim.Millisecond)
	}
	rep := rc.Finalize(11 * sim.Millisecond)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 6 || rep.Completed != 6 {
		t.Fatalf("counts: %+v", rep)
	}
	if rc.MaxSampleAge() != 5*sim.Microsecond {
		t.Fatalf("max age = %v", rc.MaxSampleAge())
	}
	disp, comp := rc.PerServer()
	for s := 0; s < 3; s++ {
		if disp[s] != 2 || comp[s] != 2 {
			t.Fatalf("server %d: %d/%d", s, disp[s], comp[s])
		}
	}
}

func TestRackCheckerDispatchOnce(t *testing.T) {
	rc := NewRackChecker(RackOptions{Servers: 2})
	rc.OnDispatch(1, 0, 0, 0)
	rc.OnDispatch(1, 1, 0, 0)
	rc.OnComplete(1, 0, 0)
	rep := rc.Finalize(0)
	if got := rackViolations(rep); got["rack-dispatch-once"] != 1 {
		t.Fatalf("violations: %v", got)
	}
}

func TestRackCheckerCompleteOnceAndAffinity(t *testing.T) {
	rc := NewRackChecker(RackOptions{Servers: 2})
	rc.OnDispatch(0, 1, 0, 0)
	rc.OnComplete(0, 1, 0)
	rc.OnComplete(0, 1, 0) // double completion
	rc.OnDispatch(1, 0, 0, 0)
	rc.OnComplete(1, 1, 0) // wrong server
	rc.OnComplete(2, 0, 0) // never dispatched
	rep := rc.Finalize(0)
	got := rackViolations(rep)
	if got["rack-complete-once"] != 1 || got["rack-affinity"] != 1 {
		t.Fatalf("violations: %v", got)
	}
	// The never-dispatched completion plus the two servers' imbalance
	// all surface as rack-conservation.
	if got["rack-conservation"] == 0 {
		t.Fatalf("violations: %v", got)
	}
}

func TestRackCheckerStaleness(t *testing.T) {
	rc := NewRackChecker(RackOptions{Servers: 2, StalenessBound: 10 * sim.Microsecond})
	rc.OnDispatch(0, 0, 10*sim.Microsecond, 0) // exactly at the bound: fine
	rc.OnDispatch(1, 1, 11*sim.Microsecond, 0) // past it: violation
	rc.OnComplete(0, 0, 0)
	rc.OnComplete(1, 1, 0)
	rep := rc.Finalize(0)
	got := rackViolations(rep)
	if got["rack-staleness"] != 1 {
		t.Fatalf("violations: %v", got)
	}
	if rc.MaxSampleAge() != 11*sim.Microsecond {
		t.Fatalf("max age = %v", rc.MaxSampleAge())
	}
	// Unbounded config never fires the invariant.
	free := NewRackChecker(RackOptions{Servers: 1})
	free.OnDispatch(0, 0, sim.Second, 0)
	free.OnComplete(0, 0, 0)
	if err := free.Finalize(0).Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRackCheckerExpectedMismatchAndRange(t *testing.T) {
	rc := NewRackChecker(RackOptions{Servers: 2, Expected: 3})
	rc.OnDispatch(0, 0, 0, 0)
	rc.OnDispatch(1, 5, 0, 0) // out of range: not counted as a dispatch
	rc.OnComplete(0, 0, 0)
	rep := rc.Finalize(0)
	got := rackViolations(rep)
	if got["rack-range"] != 1 || got["rack-conservation"] == 0 {
		t.Fatalf("violations: %v", got)
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "violation") {
		t.Fatalf("err = %v", err)
	}
}

func TestRackCheckerViolationCap(t *testing.T) {
	rc := NewRackChecker(RackOptions{Servers: 1})
	for id := uint64(0); id < maxViolations+3; id++ {
		rc.OnComplete(id, 0, 0) // undispatched completions, three past the cap
	}
	rep := rc.Finalize(0)
	if len(rep.Violations) != maxViolations || rep.Dropped < 3 {
		t.Fatalf("retained %d dropped %d", len(rep.Violations), rep.Dropped)
	}
	if rep.Total() != len(rep.Violations)+rep.Dropped {
		t.Fatalf("total = %d", rep.Total())
	}
}
