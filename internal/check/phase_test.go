package check

import (
	"testing"

	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
)

// accelPlan makes phase 1 accelerator-affine at a 3.5x speedup.
var accelPlan = func() *rpcproto.PhasePlan {
	p := &rpcproto.PhasePlan{}
	p.Class[1], p.Speedup[1] = 1, 3.5
	return p
}()

// phasedReq builds a 2-phase chain on accelPlan: 300 ns + 700 ns base,
// the second phase 200 ns on the accelerator.
func phasedReq(id uint64) *rpcproto.Request {
	r := &rpcproto.Request{ID: id, NumPhases: 2, PhaseVec: &rpcproto.PhaseVec{Plan: accelPlan}}
	r.PhaseSvc[0], r.PhaseSvc[1] = 300*sim.Nanosecond, 700*sim.Nanosecond
	r.Service = sim.Microsecond
	return r
}

// TestPhaseCleanChain scripts a full 2-phase lifecycle with one
// forwarding hop: no violations, and the forward requeue cause is
// accepted from the transit state.
func TestPhaseCleanChain(t *testing.T) {
	c, _ := scriptedChecker(Options{Expected: 1})
	done := c.WrapDone(nil)
	r := phasedReq(0)
	c.OnEnqueue(r, 0, 0)
	c.OnDequeue(r, 0, false)
	c.OnRun(r, 0)
	r.Phase = 1 // exec advances the phase before the OnPhase seam fires
	c.OnPhaseDone(r, 0)
	c.OnRequeue(r, 0, sched.RequeueForward, 0)
	c.OnDequeue(r, 0, false)
	c.OnRun(r, 0)
	c.OnComplete(r, 0)
	r.PhaseEnd[0] = 400 * sim.Nanosecond
	r.PhaseEnd[1] = 700 * sim.Nanosecond // 300 base + 200 accelerated + slack
	r.Finish = r.PhaseEnd[1]
	done(r)
	rep := c.Finalize()
	if rep.Total() != 0 {
		t.Fatalf("clean phased chain reported violations: %v", rep.Violations)
	}
}

// TestPhaseOrderBoundaryViolations covers every malformed OnPhaseDone:
// an unphased request, a boundary before any phase advanced, a phase
// past the chain length, and a non-increasing repeat.
func TestPhaseOrderBoundaryViolations(t *testing.T) {
	boundary := func(mut func(r *rpcproto.Request)) *Report {
		c, _ := scriptedChecker(Options{})
		r := phasedReq(0)
		c.OnEnqueue(r, 0, 0)
		c.OnDequeue(r, 0, false)
		c.OnRun(r, 0)
		mut(r)
		c.OnPhaseDone(r, 0)
		return c.Finalize()
	}
	cases := map[string]func(r *rpcproto.Request){
		"unphased":   func(r *rpcproto.Request) { r.NumPhases = 0; r.Phase = 0 },
		"phase-zero": func(r *rpcproto.Request) { r.Phase = 0 },
		"past-end":   func(r *rpcproto.Request) { r.Phase = 2 },
	}
	for name, mut := range cases {
		if rep := boundary(mut); len(violationsOf(rep, "phase-order")) != 1 {
			t.Errorf("%s: phase-order violations = %v", name, rep.Violations)
		}
	}

	// Two boundaries at the same phase: the second must be flagged.
	c, _ := scriptedChecker(Options{})
	r := phasedReq(1)
	r.NumPhases = 3
	c.OnEnqueue(r, 0, 0)
	c.OnDequeue(r, 0, false)
	c.OnRun(r, 0)
	r.Phase = 1
	c.OnPhaseDone(r, 0)
	c.OnRequeue(r, 0, sched.RequeueForward, 0)
	c.OnDequeue(r, 0, false)
	c.OnRun(r, 0)
	c.OnPhaseDone(r, 0) // still phase 1: not strictly increasing
	rep := c.Finalize()
	if len(violationsOf(rep, "phase-order")) != 1 {
		t.Fatalf("repeated boundary not flagged: %v", rep.Violations)
	}
}

// TestPhaseBoundaryIdleCore: a boundary on a core the shadow believes
// idle is a double dispatch.
func TestPhaseBoundaryIdleCore(t *testing.T) {
	c, _ := scriptedChecker(Options{})
	r := phasedReq(0)
	c.OnEnqueue(r, 0, 0)
	c.OnDequeue(r, 0, false)
	c.OnRun(r, 0)
	r.Phase = 1
	c.OnPhaseDone(r, 0)
	c.OnRequeue(r, 0, sched.RequeueForward, 0)
	c.OnDequeue(r, 0, false)
	// No OnRun: core 0 is idle when the next boundary fires.
	r.NumPhases = 3
	r.Phase = 2
	c.OnPhaseDone(r, 0)
	rep := c.Finalize()
	if len(violationsOf(rep, "double-dispatch")) == 0 {
		t.Fatalf("idle-core boundary not flagged: %v", rep.Violations)
	}
}

// TestMigrateOncePerPhase: one migration per phase is legal; a second
// landing within the same phase is the §VI violation.
func TestMigrateOncePerPhase(t *testing.T) {
	attach := func() *Checker {
		eng := sim.NewEngine()
		c := New(Options{})
		c.attach(eng, []sched.QueueSpec{{ID: 0, Core: -1, Lens: -1}, {ID: 1, Core: -1, Lens: -1}}, nil)
		return c
	}
	// Legal: migrate in phase 0, advance, migrate again in phase 1.
	c := attach()
	r := phasedReq(3)
	c.OnEnqueue(r, 0, 0)
	c.OnDequeue(r, 0, false)
	c.OnRequeue(r, 1, sched.RequeueMigrate, 0)
	c.OnDequeue(r, 1, false)
	r.Phase = 1 // boundary elsewhere; the latch re-arms
	c.OnRequeue(r, 0, sched.RequeueMigrate, 0)
	if rep := c.Finalize(); len(violationsOf(rep, "migrate-once")) != 0 {
		t.Fatalf("per-phase re-arm flagged: %v", rep.Violations)
	}
	// Illegal: two landings within phase 1.
	c2 := attach()
	r2 := phasedReq(4)
	r2.Phase = 1
	c2.OnEnqueue(r2, 0, 0)
	c2.OnDequeue(r2, 0, false)
	c2.OnRequeue(r2, 1, sched.RequeueMigrate, 0)
	c2.OnDequeue(r2, 1, false)
	c2.OnRequeue(r2, 0, sched.RequeueMigrate, 0)
	rep := c2.Finalize()
	if len(violationsOf(rep, "migrate-once")) != 1 {
		t.Fatalf("same-phase double migration not flagged: %v", rep.Violations)
	}
}

// TestPhasedCompletionViolations covers the phased onDone checks: the
// MinService lower bound and the completion-shape audit.
func TestPhasedCompletionViolations(t *testing.T) {
	complete := func(mut func(r *rpcproto.Request)) *Report {
		c, _ := scriptedChecker(Options{})
		done := c.WrapDone(nil)
		r := phasedReq(0)
		c.OnEnqueue(r, 0, 0)
		c.OnDequeue(r, 0, false)
		c.OnRun(r, 0)
		c.OnComplete(r, 0)
		r.Phase = 1
		r.PhaseEnd[0] = 400 * sim.Nanosecond
		r.PhaseEnd[1] = 700 * sim.Nanosecond
		r.Finish = r.PhaseEnd[1]
		mut(r)
		done(r)
		return c.Finalize()
	}
	// Clean completion as scripted: no violations.
	if rep := complete(func(*rpcproto.Request) {}); rep.Total() != 0 {
		t.Fatalf("clean completion flagged: %v", rep.Violations)
	}
	// Faster than the sum of best-case phase durations (500 ns).
	if rep := complete(func(r *rpcproto.Request) {
		r.PhaseEnd[1] = 450 * sim.Nanosecond
		r.PhaseEnd[0] = 200 * sim.Nanosecond
		r.Finish = r.PhaseEnd[1]
	}); len(violationsOf(rep, "conservation")) == 0 {
		t.Errorf("sub-MinService completion not flagged: %v", rep.Violations)
	}
	// Parked on a non-final phase.
	if rep := complete(func(r *rpcproto.Request) {
		r.Phase = 0
	}); len(violationsOf(rep, "phase-order")) == 0 {
		t.Errorf("non-final-phase completion not flagged: %v", rep.Violations)
	}
	// Final stamp disagrees with Finish.
	if rep := complete(func(r *rpcproto.Request) {
		r.Finish = r.PhaseEnd[1] + sim.Nanosecond
	}); len(violationsOf(rep, "phase-order")) == 0 {
		t.Errorf("finish/stamp mismatch not flagged: %v", rep.Violations)
	}
	// Decreasing timestamps.
	if rep := complete(func(r *rpcproto.Request) {
		r.PhaseEnd[0] = 800 * sim.Nanosecond
	}); len(violationsOf(rep, "phase-order")) == 0 {
		t.Errorf("decreasing phase ends not flagged: %v", rep.Violations)
	}
}
