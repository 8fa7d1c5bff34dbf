package core

import (
	"testing"

	"repro/internal/check"
	"repro/internal/fabric"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
)

// accelPlan is a 3-phase plan whose middle phase is affine to class 1
// with a 4x speedup and an offload cost.
var accelPlan = func() *rpcproto.PhasePlan {
	p := &rpcproto.PhasePlan{}
	p.Class[1], p.Speedup[1], p.Offload[1] = 1, 4, 20*sim.Nanosecond
	return p
}()

// phasedReq builds a 3-phase request on accelPlan: 100/400/100 ns base,
// the middle phase 100 ns on the accelerator.
func phasedReq(id uint64, conn uint32, at sim.Time) *rpcproto.Request {
	r := &rpcproto.Request{ID: id, Conn: conn, Arrival: at, NumPhases: 3, PhaseVec: &rpcproto.PhaseVec{Plan: accelPlan}}
	durs := [3]sim.Time{100 * sim.Nanosecond, 400 * sim.Nanosecond, 100 * sim.Nanosecond}
	for i, d := range durs {
		r.PhaseSvc[i] = d
		r.Service += d
	}
	return r
}

// heteroParams is a 2-class machine: groups 0,1 general, group 2 an
// accelerator class.
func heteroParams(forward ForwardPolicy) Params {
	p := DefaultParams(3, 2)
	p.GroupClass = []uint8{0, 0, 1}
	p.Forward = forward
	p.ForwardSeed = 7
	return p
}

// runPhased drives n phased requests through a hetero scheduler with
// the full invariant checker attached and returns (scheduler, report).
func runPhased(t *testing.T, forward ForwardPolicy, n int) (*Scheduler, *check.Report) {
	t.Helper()
	eng := sim.NewEngine()
	p := heteroParams(forward)
	chk := check.New(check.Options{Expected: n})
	nDone := 0
	done := chk.WrapDone(func(r *rpcproto.Request) { nDone++ })
	steer := nic.NewSteerer(nic.SteerDirect, 3, nil)
	s, err := New(eng, p, fabric.Default(), steer, done)
	if err != nil {
		t.Fatal(err)
	}
	s.SetProbe(chk)
	var specs []check.QueueSpec
	for gid := 0; gid < 3; gid++ {
		specs = append(specs, check.QueueSpec{ID: gid, Core: -1, Lens: gid})
	}
	for gid := 0; gid < 3; gid++ {
		for w := 0; w < 2; w++ {
			specs = append(specs, check.QueueSpec{ID: 3 + gid*2 + w, Core: gid*2 + w, Lens: -1})
		}
	}
	chk.Attach(eng, specs, s.QueueLensInto)
	for i := 0; i < n; i++ {
		i := i
		eng.At(sim.Time(i)*50*sim.Nanosecond, func() {
			s.Deliver(phasedReq(uint64(i), uint32(i%2), eng.Now()))
		})
	}
	for nDone < n && eng.Now() < sim.Millisecond {
		eng.Run(eng.Now() + 10*sim.Microsecond)
	}
	s.Stop()
	if nDone != n {
		t.Fatalf("completed %d of %d", nDone, n)
	}
	return s, chk.Finalize()
}

// TestPhaseForwardLeastLoaded runs phased requests across a 2-class
// machine under the full checker: phases must forward to the
// accelerator group and back, with phase-order, conservation, and
// migrate-once-per-phase invariants green.
func TestPhaseForwardLeastLoaded(t *testing.T) {
	s, rep := runPhased(t, ForwardLeastLoaded, 40)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	// Every request has 2 interior boundaries, all forwarded under
	// least-loaded (phase 1 to class 1, phase 2 back to class 0).
	if want := uint64(2 * 40); s.Stats.PhaseForwards != want {
		t.Errorf("PhaseForwards = %d, want %d", s.Stats.PhaseForwards, want)
	}
	if s.Stats.PhaseStays != 0 {
		t.Errorf("PhaseStays = %d, want 0", s.Stats.PhaseStays)
	}
}

// TestPhaseForwardPowK is the same drive under pow-k-in-class sampling.
func TestPhaseForwardPowK(t *testing.T) {
	s, rep := runPhased(t, ForwardPowK, 40)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if s.Stats.PhaseForwards == 0 {
		t.Error("pow-k forwarded nothing")
	}
}

// TestPhaseStayLocal: the stay-local baseline never forwards — chains
// run to completion on the landing group, at base (unaccelerated)
// durations unless the landing class happens to match.
func TestPhaseStayLocal(t *testing.T) {
	s, rep := runPhased(t, ForwardStayLocal, 40)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if s.Stats.PhaseForwards != 0 {
		t.Errorf("PhaseForwards = %d, want 0 under stay-local", s.Stats.PhaseForwards)
	}
	if want := uint64(2 * 40); s.Stats.PhaseStays != want {
		t.Errorf("PhaseStays = %d, want %d", s.Stats.PhaseStays, want)
	}
}

// TestAcceleratedPhaseFaster: offloading the affine phase to the
// accelerator class must beat running the chain locally at base speed.
func TestAcceleratedPhaseFaster(t *testing.T) {
	finish := func(forward ForwardPolicy) sim.Time {
		eng := sim.NewEngine()
		p := heteroParams(forward)
		var last sim.Time
		steer := nic.NewSteerer(nic.SteerDirect, 3, nil)
		s, err := New(eng, p, fabric.Default(), steer, func(r *rpcproto.Request) { last = r.Finish })
		if err != nil {
			t.Fatal(err)
		}
		eng.At(0, func() { s.Deliver(phasedReq(1, 0, 0)) })
		eng.Run(100 * sim.Microsecond)
		s.Stop()
		if last == 0 {
			t.Fatalf("%v: request never completed", forward)
		}
		return last
	}
	local := finish(ForwardStayLocal)
	acc := finish(ForwardLeastLoaded)
	// Stay-local: 600 ns of base work. Offloaded: 100 + 100 (accelerated)
	// + 100 plus two transfers — comfortably faster.
	if acc >= local {
		t.Errorf("accelerated chain %v not faster than local %v", acc, local)
	}
}

// TestHeteroValidate covers the new Params validation paths.
func TestHeteroValidate(t *testing.T) {
	p := DefaultParams(3, 2)
	p.GroupClass = []uint8{0, 0} // wrong length
	if err := p.Validate(); err == nil {
		t.Error("want error for GroupClass length mismatch")
	}
	p.GroupClass = []uint8{0, 0, 2} // class 1 unserved
	if err := p.Validate(); err == nil {
		t.Error("want error for a class with no serving group")
	}
	p.GroupClass = []uint8{0, 1, 1}
	p.ClassPeriods = []sim.Time{sim.Nanosecond} // wrong length
	if err := p.Validate(); err == nil {
		t.Error("want error for ClassPeriods length mismatch")
	}
	p.ClassPeriods = []sim.Time{sim.Nanosecond, 0}
	if err := p.Validate(); err == nil {
		t.Error("want error for zero class period")
	}
	p.ClassPeriods = []sim.Time{200 * sim.Nanosecond, 400 * sim.Nanosecond}
	if err := p.Validate(); err != nil {
		t.Errorf("valid hetero params rejected: %v", err)
	}
	if p.NumClasses() != 2 || p.ClassOf(0) != 0 || p.ClassOf(2) != 1 {
		t.Error("NumClasses/ClassOf")
	}
	for f, want := range map[ForwardPolicy]string{
		ForwardStayLocal: "stay-local", ForwardLeastLoaded: "least-loaded", ForwardPowK: "pow-k",
	} {
		if f.String() != want {
			t.Errorf("ForwardPolicy(%d).String() = %q, want %q", f, f.String(), want)
		}
	}
	if sched.RequeueForward.String() != "forward" {
		t.Error("RequeueForward stringer")
	}
}

// TestClassPeriodsTick: a class with a slower period must tick less
// often than the default-period class.
func TestClassPeriodsTick(t *testing.T) {
	eng := sim.NewEngine()
	p := heteroParams(ForwardLeastLoaded)
	p.ClassPeriods = []sim.Time{200 * sim.Nanosecond, 1600 * sim.Nanosecond}
	steer := nic.NewSteerer(nic.SteerDirect, 3, nil)
	s, err := New(eng, p, fabric.Default(), steer, func(*rpcproto.Request) {})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() { s.Deliver(phasedReq(1, 0, 0)) })
	eng.Run(50 * sim.Microsecond)
	s.Stop()
	// 3 groups: two in class 0 at 200 ns, one in class 1 at 1600 ns. If
	// all shared the fast period, ticks would be ~3/2 of the class-0
	// pair's count; the slow accelerator manager should contribute ~1/8.
	if s.Stats.Ticks == 0 {
		t.Fatal("no ticks")
	}
	perFast := 50 * sim.Microsecond / (200 * sim.Nanosecond)
	if s.Stats.Ticks > uint64(perFast)*5/2 {
		t.Errorf("ticks %d suggest the accelerator manager ticked at the fast period", s.Stats.Ticks)
	}
}
