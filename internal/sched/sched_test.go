package sched

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// harness drives a scheduler with a Poisson arrival stream and collects
// completion latencies.
type harness struct {
	eng    *sim.Engine
	lat    *stats.Sample
	nDone  int
	target int
}

func newHarness(n int) *harness {
	return &harness{eng: sim.NewEngine(), lat: stats.NewSample(n), target: n}
}

func (h *harness) done(r *rpcproto.Request) {
	h.lat.Add(r.Latency())
	h.nDone++
}

// feed schedules n Poisson arrivals with the given service distribution.
func (h *harness) feed(s Scheduler, rate float64, svc dist.ServiceDist, n int, seed uint64) {
	arr := sim.NewRNG(seed)
	svcRNG := sim.NewRNG(seed + 1)
	t := sim.Time(0)
	for i := 0; i < n; i++ {
		t += dist.Poisson{Rate: rate}.NextGap(arr)
		at := t
		id := uint64(i)
		service := svc.Sample(svcRNG)
		conn := uint32(arr.Intn(1024))
		h.eng.At(at, func() {
			h.eng_deliver(s, &rpcproto.Request{
				ID: id, Conn: conn, Arrival: at, Service: service, Size: 300,
			})
		})
	}
}

func (h *harness) eng_deliver(s Scheduler, r *rpcproto.Request) { s.Deliver(r) }

func us(v float64) sim.Time { return sim.FromNanos(v * 1000) }

func TestDFCFSCompletesEverything(t *testing.T) {
	h := newHarness(5000)
	steer := nic.NewSteerer(nic.SteerConnection, 8, nil)
	s := NewDFCFS(h.eng, 8, steer, 0, h.done)
	h.feed(s, 4e6, dist.Fixed{V: us(1)}, 5000, 42)
	h.eng.RunAll()
	if h.nDone != 5000 {
		t.Fatalf("completed %d of 5000", h.nDone)
	}
	for i, q := range s.QueueLensInto(nil) {
		if q != 0 {
			t.Fatalf("queue %d not drained: %d", i, q)
		}
	}
	if s.Name() == "" {
		t.Fatal("name")
	}
}

func TestDFCFSLatencyAtLowLoadIsService(t *testing.T) {
	h := newHarness(1000)
	steer := nic.NewSteerer(nic.SteerConnection, 16, nil)
	s := NewDFCFS(h.eng, 16, steer, 0, h.done)
	h.feed(s, 0.1e6, dist.Fixed{V: us(1)}, 1000, 7) // ~0.6% load
	h.eng.RunAll()
	// Median latency should be essentially the bare service time.
	if got := h.lat.P50(); got != us(1) {
		t.Fatalf("p50 = %v, want 1us", got)
	}
}

func TestDFCFSHeadOfLineBlocking(t *testing.T) {
	// One long request at the head of a core's queue delays a short one
	// behind it, even while other cores idle: the d-FCFS pathology.
	h := newHarness(2)
	steer := nic.NewSteerer(nic.SteerConnection, 2, nil)
	s := NewDFCFS(h.eng, 2, steer, 0, h.done)
	long := &rpcproto.Request{ID: 1, Conn: 0, Service: us(500)}
	short := &rpcproto.Request{ID: 2, Conn: 0, Service: us(1)} // same conn -> same queue
	h.eng.At(0, func() { s.Deliver(long) })
	h.eng.At(us(1), func() { s.Deliver(short) })
	h.eng.RunAll()
	if short.Finish < us(500) {
		t.Fatalf("short finished at %v; should have waited behind the long", short.Finish)
	}
}

func TestStealRescuesHOL(t *testing.T) {
	// Same scenario as above, but an idle core steals the short request.
	h := newHarness(2)
	steer := nic.NewSteerer(nic.SteerConnection, 2, nil)
	s := NewSteal(h.eng, 2, steer, 0, 300*sim.Nanosecond, sim.NewRNG(1), h.done)
	long := &rpcproto.Request{ID: 1, Conn: 0, Service: us(500)}
	short := &rpcproto.Request{ID: 2, Conn: 0, Service: us(1)}
	h.eng.At(0, func() { s.Deliver(long) })
	h.eng.At(us(1), func() { s.Deliver(short) })
	h.eng.RunAll()
	// Short should complete at ~1us arrival + 0.3us steal + 1us service.
	if short.Finish > us(5) {
		t.Fatalf("steal did not rescue the short request: finish=%v", short.Finish)
	}
	if s.Stolen != 1 {
		t.Fatalf("stolen = %d", s.Stolen)
	}
	if s.StealFraction() != 0.5 {
		t.Fatalf("steal fraction = %v", s.StealFraction())
	}
}

func TestStealCompletesUnderLoad(t *testing.T) {
	h := newHarness(8000)
	steer := nic.NewSteerer(nic.SteerConnection, 8, nil)
	s := NewSteal(h.eng, 8, steer, 0, 300*sim.Nanosecond, sim.NewRNG(3), h.done)
	h.feed(s, 5e6, dist.Exponential{M: us(1)}, 8000, 9)
	h.eng.RunAll()
	if h.nDone != 8000 {
		t.Fatalf("completed %d", h.nDone)
	}
	// At ~60%+ load with connection steering, a meaningful fraction of
	// requests move across cores.
	if s.StealFraction() < 0.05 {
		t.Fatalf("steal fraction suspiciously low: %v", s.StealFraction())
	}
}

func TestCentralDispatcherSerializes(t *testing.T) {
	// With dispatch cost 200ns, 10 simultaneous arrivals on 10 idle cores
	// start 200ns apart: the dispatcher is the bottleneck.
	h := newHarness(10)
	s := NewCentral(h.eng, 10, 200*sim.Nanosecond, 0, 0, 0, h.done)
	reqs := make([]*rpcproto.Request, 10)
	for i := range reqs {
		reqs[i] = &rpcproto.Request{ID: uint64(i), Service: us(1)}
		r := reqs[i]
		h.eng.At(0, func() { s.Deliver(r) })
	}
	h.eng.RunAll()
	if h.nDone != 10 {
		t.Fatalf("done = %d", h.nDone)
	}
	// i-th request starts at (i+1)*200ns, finishes 1us later.
	for i, r := range reqs {
		want := sim.Time(i+1)*200*sim.Nanosecond + us(1)
		if r.Finish != want {
			t.Fatalf("req %d finish = %v, want %v", i, r.Finish, want)
		}
	}
}

func TestCentralPreemptionBreaksHOL(t *testing.T) {
	// A 50us request followed by a short: with a 5us quantum the short
	// runs after at most one quantum even on a single worker.
	h := newHarness(2)
	s := NewCentral(h.eng, 1, 0, 0, 5*us(1), 100*sim.Nanosecond, h.done)
	probe := &countingProbe{}
	s.SetProbe(probe)
	long := &rpcproto.Request{ID: 1, Service: us(50)}
	short := &rpcproto.Request{ID: 2, Service: us(1)}
	h.eng.At(0, func() { s.Deliver(long) })
	h.eng.At(us(1), func() { s.Deliver(short) })
	h.eng.RunAll()
	if short.Finish > us(10) {
		t.Fatalf("preemption failed: short at %v", short.Finish)
	}
	if long.Finish < us(50) {
		t.Fatalf("long finished too early: %v", long.Finish)
	}
	if probe.preempted == 0 {
		t.Fatal("no preemptions recorded")
	}
	if len(s.QueueLensInto(nil)) != 1 {
		t.Fatal("central exposes one queue")
	}
}

func TestJBSQBalancesToIdleCores(t *testing.T) {
	// Four simultaneous arrivals on 4 cores: all run in parallel.
	h := newHarness(4)
	s := NewJBSQ(h.eng, 4, VariantNanoPU, 2, 5*sim.Nanosecond, 0, 0, 0, h.done)
	for i := 0; i < 4; i++ {
		r := &rpcproto.Request{ID: uint64(i), Service: us(1)}
		h.eng.At(0, func() { s.Deliver(r) })
	}
	h.eng.RunAll()
	if h.nDone != 4 {
		t.Fatalf("done = %d", h.nDone)
	}
	if got := h.lat.Max(); got > us(1)+10*sim.Nanosecond {
		t.Fatalf("max latency = %v; pushes should parallelize", got)
	}
}

func TestJBSQBoundCommitsRequests(t *testing.T) {
	// JBSQ(2) on one core: two requests are committed, the third waits in
	// the central queue until a slot frees.
	h := newHarness(3)
	s := NewJBSQ(h.eng, 1, VariantNebula, 2, 0, 0, 0, 0, h.done)
	for i := 0; i < 3; i++ {
		r := &rpcproto.Request{ID: uint64(i), Service: us(1)}
		h.eng.At(0, func() { s.Deliver(r) })
	}
	// Immediately after delivery, central should hold exactly 1.
	h.eng.At(1, func() {
		q := s.QueueLensInto(nil)
		if q[0] != 1 || q[1] != 2 {
			t.Errorf("queue state = %v, want central=1 core=2", q)
		}
	})
	h.eng.RunAll()
	if h.nDone != 3 {
		t.Fatalf("done = %d", h.nDone)
	}
}

func TestJBSQNebulaHOLvsNanoPUPreemption(t *testing.T) {
	// The Fig. 10 story in miniature: a short committed behind a long.
	run := func(variant JBSQVariant, quantum sim.Time) sim.Time {
		h := newHarness(3)
		s := NewJBSQ(h.eng, 1, variant, 2, 0, 0, quantum, 100*sim.Nanosecond, h.done)
		long := &rpcproto.Request{ID: 1, Service: us(500)}
		short := &rpcproto.Request{ID: 2, Service: us(1)}
		h.eng.At(0, func() { s.Deliver(long) })
		h.eng.At(us(1), func() { s.Deliver(short) })
		h.eng.RunAll()
		return short.Finish
	}
	nebula := run(VariantNebula, 0)
	nano := run(VariantNanoPU, 5*us(1))
	if nebula < us(500) {
		t.Fatalf("nebula short at %v; should be blocked by the long", nebula)
	}
	if nano > us(15) {
		t.Fatalf("nanopu short at %v; preemption should rescue it", nano)
	}
}

func TestJBSQVariantStrings(t *testing.T) {
	if VariantRPCValet.String() != "rpcvalet" || VariantNebula.String() != "nebula" ||
		VariantNanoPU.String() != "nanopu" {
		t.Fatal("variant stringer")
	}
	s := NewJBSQ(sim.NewEngine(), 1, VariantNebula, 0, 0, 0, 0, 0, func(*rpcproto.Request) {})
	if s.Bound != 1 {
		t.Fatal("bound clamp")
	}
	if s.Name() != "jbsq-nebula" {
		t.Fatalf("name = %s", s.Name())
	}
}

func TestSchedulersConserveRequests(t *testing.T) {
	// Conservation property across all baselines: every delivered request
	// completes exactly once.
	mk := func(eng *sim.Engine, done Done) []Scheduler {
		rng := sim.NewRNG(5)
		return []Scheduler{
			NewDFCFS(eng, 4, nic.NewSteerer(nic.SteerConnection, 4, nil), 0, done),
			NewSteal(eng, 4, nic.NewSteerer(nic.SteerConnection, 4, nil), 0, 300*sim.Nanosecond, rng, done),
			NewCentral(eng, 4, 200*sim.Nanosecond, 35*sim.Nanosecond, 5*us(1), us(1), done),
			NewJBSQ(eng, 4, VariantNanoPU, 2, 5*sim.Nanosecond, 0, 5*us(1), 100*sim.Nanosecond, done),
		}
	}
	// Build one scheduler at a time (each needs its own engine).
	for idx := 0; idx < 4; idx++ {
		h := newHarness(3000)
		s := mk(h.eng, h.done)[idx]
		h.feed(s, 3e6, dist.Bimodal{Short: us(0.5), Long: us(50), PLong: 0.01}, 3000, uint64(idx))
		h.eng.RunAll()
		if h.nDone != 3000 {
			t.Fatalf("%s completed %d of 3000", s.Name(), h.nDone)
		}
	}
}
