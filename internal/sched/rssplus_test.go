package sched

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

func TestRSSPlusCompletesAndRebalances(t *testing.T) {
	h := newHarness(20000)
	s := NewRSSPlus(h.eng, 8, 32, 0, 20*sim.Microsecond, h.done)
	// Skew with divisible flows: 12 flows hash onto few cores, leaving
	// others idle until rebalancing spreads the buckets. (With fewer
	// flows than cores a bucket move cannot improve the imbalance and
	// the rebalancer correctly refuses to act.)
	arr := sim.NewRNG(1)
	svcRNG := sim.NewRNG(2)
	var at sim.Time
	for i := 0; i < 20000; i++ {
		at += dist.Poisson{Rate: 5e6}.NextGap(arr)
		r := &rpcproto.Request{ID: uint64(i), Conn: uint32(i % 12),
			Arrival: at, Service: dist.Exponential{M: us(1)}.Sample(svcRNG)}
		tAt := at
		h.eng.At(tAt, func() { s.Deliver(r) })
	}
	for h.nDone < 20000 && h.eng.Now() < 100*sim.Millisecond {
		h.eng.Run(h.eng.Now() + sim.Millisecond)
	}
	s.Stop()
	if h.nDone != 20000 {
		t.Fatalf("done %d", h.nDone)
	}
	if s.Rebalances == 0 {
		t.Fatal("rebalancer never ran")
	}
	if s.MovedBkts == 0 {
		t.Fatal("no buckets moved despite skew")
	}
	if s.Name() != "rss++" {
		t.Fatal("name")
	}
	if len(s.QueueLensInto(nil)) != 8 || len(s.Cores()) != 8 {
		t.Fatal("accessors")
	}
}

func TestRSSPlusBeatsPlainRSSUnderSkew(t *testing.T) {
	// The point of the indirection-table rebalancing: under flow skew,
	// RSS++'s p99 improves on static RSS.
	run := func(interval sim.Time) sim.Time {
		h := newHarness(30000)
		var s Scheduler
		if interval > 0 {
			s = NewRSSPlus(h.eng, 8, 32, 0, interval, h.done)
		} else {
			rp := NewRSSPlus(h.eng, 8, 32, 0, 0, h.done) // no rebalancing = plain RSS
			s = rp
		}
		arr := sim.NewRNG(3)
		svcRNG := sim.NewRNG(4)
		var at sim.Time
		for i := 0; i < 30000; i++ {
			at += dist.Poisson{Rate: 4e6}.NextGap(arr)
			r := &rpcproto.Request{ID: uint64(i), Conn: uint32(i % 4),
				Arrival: at, Service: dist.Exponential{M: us(1)}.Sample(svcRNG)}
			tAt := at
			h.eng.At(tAt, func() { s.Deliver(r) })
		}
		for h.nDone < 30000 && h.eng.Now() < 200*sim.Millisecond {
			h.eng.Run(h.eng.Now() + sim.Millisecond)
		}
		if rp, ok := s.(*RSSPlus); ok {
			rp.Stop()
		}
		if h.nDone != 30000 {
			t.Fatalf("done %d", h.nDone)
		}
		return h.lat.P99()
	}
	static := run(0)
	rebal := run(20 * sim.Microsecond)
	if rebal >= static {
		t.Fatalf("rebalancing did not help: static=%v rss++=%v", static, rebal)
	}
}

func TestRSSPlusBucketClamp(t *testing.T) {
	s := NewRSSPlus(sim.NewEngine(), 8, 2, 0, 0, func(*rpcproto.Request) {})
	if s.buckets < 8 {
		t.Fatalf("buckets = %d, must cover cores", s.buckets)
	}
}
