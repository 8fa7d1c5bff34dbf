// Aliasing audit for every QueueLensInto implementation: the snapshot the
// invariant checker (internal/check) cross-checks at checkpoints must
// be a defensive copy, never a view of scheduler-internal state — a
// caller holding (or mutating) one snapshot must not perturb the next.
// External test package so the Altocumulus scheduler (internal/core,
// which imports sched) can join the table.
package sched_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestQueueLensDefensiveCopies(t *testing.T) {
	const cores = 4
	build := map[string]func(eng *sim.Engine) sched.Scheduler{
		"dfcfs": func(eng *sim.Engine) sched.Scheduler {
			st := nic.NewSteerer(nic.SteerRandom, cores, sim.NewRNG(1))
			return sched.NewDFCFS(eng, cores, st, 0, func(*rpcproto.Request) {})
		},
		"steal": func(eng *sim.Engine) sched.Scheduler {
			st := nic.NewSteerer(nic.SteerRandom, cores, sim.NewRNG(2))
			return sched.NewSteal(eng, cores, st, 0, 0, sim.NewRNG(3), func(*rpcproto.Request) {})
		},
		"central": func(eng *sim.Engine) sched.Scheduler {
			return sched.NewCentral(eng, cores, 0, 0, 0, 0, func(*rpcproto.Request) {})
		},
		"jbsq": func(eng *sim.Engine) sched.Scheduler {
			return sched.NewJBSQ(eng, cores, sched.VariantRPCValet, 2, 0, 0, 0, 0, func(*rpcproto.Request) {})
		},
		"rssplus": func(eng *sim.Engine) sched.Scheduler {
			return sched.NewRSSPlus(eng, cores, 64, 0, 20*sim.Microsecond, func(*rpcproto.Request) {})
		},
		"altocumulus": func(eng *sim.Engine) sched.Scheduler {
			st := nic.NewSteerer(nic.SteerConnection, 2, sim.NewRNG(4))
			s, err := core.New(eng, core.DefaultParams(2, 2), fabric.CostModel{}, st, func(*rpcproto.Request) {})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}

	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			s := mk(eng)
			// Flood with deliveries and freeze mid-run so queues are
			// non-empty when snapshotted.
			for i := 0; i < 64; i++ {
				r := &rpcproto.Request{ID: uint64(i), Conn: uint32(i), Service: sim.Millisecond}
				eng.After(0, func() { s.Deliver(r) })
			}
			eng.Run(sim.Microsecond)

			a := s.QueueLensInto(nil)
			if len(a) == 0 {
				t.Fatal("empty QueueLens")
			}
			want := append([]int(nil), a...)
			for i := range a {
				a[i] = -99 // vandalise the first snapshot
			}
			b := s.QueueLensInto(nil)
			if &a[0] == &b[0] {
				t.Fatal("QueueLens returned the same backing array twice")
			}
			for i := range b {
				if b[i] != want[i] {
					t.Fatalf("snapshot %d changed after caller mutation: got %d, want %d", i, b[i], want[i])
				}
				if b[i] < 0 {
					t.Fatalf("negative queue length %d", b[i])
				}
			}
		})
	}
}
