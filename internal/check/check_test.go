package check

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
)

func req(id uint64) *rpcproto.Request {
	return &rpcproto.Request{ID: id, Service: sim.Microsecond, Remaining: sim.Microsecond}
}

// violationsOf filters a report by invariant name.
func violationsOf(rep *Report, invariant string) []Violation {
	var out []Violation
	for _, v := range rep.Violations {
		if v.Invariant == invariant {
			out = append(out, v)
		}
	}
	return out
}

// scriptedChecker builds a checker attached to a fresh engine with one
// core-owned queue (id 0, core 0, lens 0).
func scriptedChecker(opt Options) (*Checker, *sim.Engine) {
	eng := sim.NewEngine()
	c := New(opt)
	c.Attach(eng, []QueueSpec{{ID: 0, Core: 0, Lens: 0}}, func([]int) []int { return []int{c.queues[0].len()} })
	return c, eng
}

func TestCleanLifecycle(t *testing.T) {
	c, _ := scriptedChecker(Options{Expected: 2})
	done := c.WrapDone(nil)
	for i := uint64(0); i < 2; i++ {
		r := req(i)
		c.OnEnqueue(r, 0, int(i)) // queue grows 0 -> 1 -> 2
	}
	for i := uint64(0); i < 2; i++ {
		r := req(i)
		c.OnDequeue(r, 0, false)
		c.OnRun(r, 0)
		c.OnComplete(r, 0)
		r.Finish = r.Arrival + r.Service
		done(r)
	}
	rep := c.Finalize()
	if rep.Total() != 0 {
		t.Fatalf("clean run reported violations: %v", rep.Violations)
	}
	if rep.Delivered != 2 || rep.Completed != 2 {
		t.Fatalf("delivered/completed = %d/%d, want 2/2", rep.Delivered, rep.Completed)
	}
	if rep.Checks == 0 {
		t.Fatal("no invariant evaluations counted")
	}
}

func TestFIFOOrderViolation(t *testing.T) {
	c, _ := scriptedChecker(Options{})
	a, b := req(0), req(1)
	c.OnEnqueue(a, 0, 0)
	c.OnEnqueue(b, 0, 1)
	c.OnDequeue(b, 0, false) // head pop must return a, not b
	rep := c.Finalize()
	got := violationsOf(rep, "fifo-order")
	if len(got) != 1 {
		t.Fatalf("fifo-order violations = %d, want 1 (all: %v)", len(got), rep.Violations)
	}
	if got[0].ReqID != 1 || got[0].Queue != 0 {
		t.Fatalf("violation context = %+v", got[0])
	}
	// Tail pop of the newest resident is legal (LIFO selection).
	c2, _ := scriptedChecker(Options{})
	c2.OnEnqueue(req(0), 0, 0)
	c2.OnEnqueue(req(1), 0, 1)
	c2.OnDequeue(req(1), 0, true)
	c2.OnDequeue(req(0), 0, false)
	if rep := c2.Finalize(); len(violationsOf(rep, "fifo-order")) != 0 {
		t.Fatalf("tail pop flagged: %v", rep.Violations)
	}
}

func TestQueueAccountingViolation(t *testing.T) {
	c, _ := scriptedChecker(Options{})
	c.OnEnqueue(req(0), 0, 3) // shadow queue is empty; reported length lies
	rep := c.Finalize()
	if len(violationsOf(rep, "queue-accounting")) != 1 {
		t.Fatalf("want one queue-accounting violation, got %v", rep.Violations)
	}
}

func TestDequeueEmptyQueue(t *testing.T) {
	c, _ := scriptedChecker(Options{})
	r := req(0)
	c.OnEnqueue(r, 0, 0)
	c.OnDequeue(r, 0, false)
	c.OnRequeue(r, 0, sched.RequeuePreempt, 0)
	c.OnDequeue(r, 0, false)
	c.OnDequeue(r, 0, false) // double pop: state machine + empty shadow
	rep := c.Finalize()
	if len(violationsOf(rep, "state-machine")) == 0 {
		t.Fatalf("double pop not flagged: %v", rep.Violations)
	}
	if len(violationsOf(rep, "queue-accounting")) == 0 {
		t.Fatalf("empty-shadow pop not flagged: %v", rep.Violations)
	}
}

func TestMigrateOnce(t *testing.T) {
	run := func(allow bool) *Report {
		eng := sim.NewEngine()
		c := New(Options{AllowRemigration: allow})
		c.Attach(eng, []QueueSpec{{ID: 0, Core: -1, Lens: -1}, {ID: 1, Core: -1, Lens: -1}}, nil)
		r := req(7)
		c.OnEnqueue(r, 0, 0)
		c.OnDequeue(r, 0, false)
		c.OnRequeue(r, 1, sched.RequeueMigrate, 0) // first landing: legal
		c.OnDequeue(r, 1, false)
		c.OnRequeue(r, 0, sched.RequeueMigrate, 0) // second landing
		return c.Finalize()
	}
	rep := run(false)
	got := violationsOf(rep, "migrate-once")
	if len(got) != 1 {
		t.Fatalf("migrate-once violations = %d, want 1 (all: %v)", len(got), rep.Violations)
	}
	if got[0].ReqID != 7 {
		t.Fatalf("violation req = %d, want 7", got[0].ReqID)
	}
	if rep := run(true); len(violationsOf(rep, "migrate-once")) != 0 {
		t.Fatalf("remigration flagged despite AllowRemigration: %v", rep.Violations)
	}
}

func TestMigrateGuard(t *testing.T) {
	c, _ := scriptedChecker(Options{})
	// src len 4, dst view 2, batch 2: 4-2 >= 2+2 fails -> violation.
	c.OnMigrate(5, 6, 4, 2, 2, true)
	// Same geometry unguarded (ablation): legal.
	c.OnMigrate(5, 6, 4, 2, 2, false)
	// src 8, dst 2, batch 2: 8-2 >= 2+2 holds.
	c.OnMigrate(5, 6, 8, 2, 2, true)
	rep := c.Finalize()
	if len(violationsOf(rep, "migrate-guard")) != 1 {
		t.Fatalf("migrate-guard violations: %v", rep.Violations)
	}
	if rep.Batches != 3 {
		t.Fatalf("batches = %d, want 3", rep.Batches)
	}
}

func TestBoundExceeded(t *testing.T) {
	c, _ := scriptedChecker(Options{})
	c.OnOutstanding(req(0), 0, 4, 4) // at the bound: legal
	c.OnOutstanding(req(1), 0, 5, 4) // beyond: violation
	rep := c.Finalize()
	got := violationsOf(rep, "bound-exceeded")
	if len(got) != 1 {
		t.Fatalf("bound-exceeded violations: %v", rep.Violations)
	}
	if !strings.Contains(got[0].Detail, "exceeds bound 4") {
		t.Fatalf("detail = %q", got[0].Detail)
	}
}

func TestDoubleDispatch(t *testing.T) {
	c, _ := scriptedChecker(Options{})
	a, b := req(0), req(1)
	c.OnEnqueue(a, 0, 0)
	c.OnEnqueue(b, 0, 1)
	c.OnDequeue(a, 0, false)
	c.OnRun(a, 0)
	c.OnDequeue(b, 0, false)
	c.OnRun(b, 0) // core 0 is still running a
	rep := c.Finalize()
	if len(violationsOf(rep, "double-dispatch")) != 1 {
		t.Fatalf("double-dispatch violations: %v", rep.Violations)
	}
}

func TestConservationAtDrain(t *testing.T) {
	c, _ := scriptedChecker(Options{Expected: 2})
	done := c.WrapDone(nil)
	r := req(0)
	c.OnEnqueue(r, 0, 0)
	c.OnDequeue(r, 0, false)
	c.OnRun(r, 0)
	c.OnComplete(r, 0)
	r.Finish = r.Service
	done(r)
	// Second request delivered but stranded in the queue.
	c.OnEnqueue(req(1), 0, 0)
	rep := c.Finalize()
	if got := violationsOf(rep, "conservation"); len(got) < 2 {
		t.Fatalf("conservation violations = %d, want >=2 (missing delivery count + stranded request): %v",
			len(got), rep.Violations)
	}
	if rep.Err() == nil {
		t.Fatal("Err() = nil for a dirty run")
	}
}

func TestDoubleCompletion(t *testing.T) {
	c, _ := scriptedChecker(Options{})
	done := c.WrapDone(nil)
	r := req(0)
	c.OnEnqueue(r, 0, 0)
	c.OnDequeue(r, 0, false)
	c.OnRun(r, 0)
	c.OnComplete(r, 0)
	r.Finish = r.Service
	done(r)
	done(r)
	rep := c.Finalize()
	if len(violationsOf(rep, "conservation")) == 0 {
		t.Fatalf("double completion not flagged: %v", rep.Violations)
	}
}

func TestViolationCapAndTotal(t *testing.T) {
	c, _ := scriptedChecker(Options{MaxViolations: 2})
	for i := 0; i < 5; i++ {
		c.OnOutstanding(req(uint64(i)), 0, 9, 1)
	}
	rep := c.Finalize()
	if len(rep.Violations) != 2 || rep.Dropped != 3 || rep.Total() != 5 {
		t.Fatalf("retained %d dropped %d total %d, want 2/3/5",
			len(rep.Violations), rep.Dropped, rep.Total())
	}
}

func TestWorkConservationCheckpoint(t *testing.T) {
	c, eng := scriptedChecker(Options{Every: sim.Microsecond})
	c.OnEnqueue(req(0), 0, 0) // request sits queued while core 0 idles
	eng.Run(3 * sim.Microsecond)
	rep := c.Finalize()
	if len(violationsOf(rep, "work-conservation")) == 0 {
		t.Fatalf("idle core with queued work not flagged: %v", rep.Violations)
	}
	if rep.Checkpoints == 0 {
		t.Fatal("no checkpoints ran")
	}
}

func TestCheckpointCadenceStops(t *testing.T) {
	// Once the expected count completes, the checkpoint stops
	// rescheduling itself so RunAll can drain. A hang here would make
	// this test time out.
	c, eng := scriptedChecker(Options{Every: sim.Microsecond, Expected: 1})
	done := c.WrapDone(nil)
	r := req(0)
	eng.After(0, func() {
		c.OnEnqueue(r, 0, 0)
		c.OnDequeue(r, 0, false)
		c.OnRun(r, 0)
		c.OnComplete(r, 0)
		r.Finish = eng.Now() + r.Service
		done(r)
	})
	eng.RunAll()
	if rep := c.Finalize(); rep.Total() != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Invariant: "fifo-order", At: 3 * sim.Microsecond, ReqID: 42, Queue: 2,
		Detail: "head pop returned request 42, shadow head is 41", Lens: []int{1, 0}}
	s := v.String()
	for _, want := range []string{"fifo-order", "req=42", "queue=2", "qlens=[1 0]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// offByOneProbe simulates a JBSQ whose bound comparison is off by one:
// it forwards every probe event unchanged but understates the bound the
// scheduler claims to enforce, exactly what a `<=` vs `<` slip in the
// drain loop produces. The checker must catch it on a real JBSQ run.
type offByOneProbe struct {
	*Checker
}

func (p offByOneProbe) OnOutstanding(r *rpcproto.Request, core, n, bound int) {
	p.Checker.OnOutstanding(r, core, n, bound-1)
}

func TestJBSQBoundOffByOneCaught(t *testing.T) {
	const (
		cores = 4
		bound = 3
		n     = 2000
	)
	run := func(seeded bool) *Report {
		eng := sim.NewEngine()
		chk := New(Options{Expected: n})
		done := chk.WrapDone(nil)
		s := sched.NewJBSQ(eng, cores, sched.VariantRPCValet, bound, 0, 0, 0, 0, done)
		if seeded {
			s.SetProbe(offByOneProbe{chk})
		} else {
			s.SetProbe(chk)
		}
		specs := []QueueSpec{{ID: 0, Core: -1, Lens: 0}}
		for i := 0; i < cores; i++ {
			specs = append(specs, QueueSpec{ID: 1 + i, Core: i, Lens: -1})
		}
		chk.Attach(eng, specs, s.QueueLensInto)

		svc := dist.Exponential{M: sim.Microsecond}
		rng := sim.NewRNG(11)
		sched.OpenLoop{
			Arrivals: dist.Poisson{Rate: dist.LoadForRate(0.9, cores, svc)},
			Service:  svc,
			N:        n,
			ArrRNG:   rng,
			SvcRNG:   rng,
		}.Start(eng, s)
		eng.RunAll()
		return chk.Finalize()
	}

	clean := run(false)
	if clean.Total() != 0 {
		t.Fatalf("correct JBSQ flagged: %v", clean.Violations)
	}
	seeded := run(true)
	got := violationsOf(seeded, "bound-exceeded")
	if len(got) == 0 {
		t.Fatalf("off-by-one bound not caught (report: %+v)", seeded)
	}
	if !strings.Contains(got[0].Detail, "exceeds bound") {
		t.Fatalf("detail = %q", got[0].Detail)
	}
}

func TestUndeclaredQueue(t *testing.T) {
	c, _ := scriptedChecker(Options{})
	c.OnEnqueue(req(0), 9, 0) // queue 9 never declared
	rep := c.Finalize()
	if len(violationsOf(rep, "queue-topology")) != 1 {
		t.Fatalf("undeclared queue not flagged: %v", rep.Violations)
	}
}
