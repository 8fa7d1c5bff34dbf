package server

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
)

// queueIDs is the checker with a tap on every queue id a probe event
// names.
type queueIDs struct {
	*check.Checker
	seen map[int]bool
}

func (p *queueIDs) OnEnqueue(r *rpcproto.Request, q, qlen int) {
	p.seen[q] = true
	p.Checker.OnEnqueue(r, q, qlen)
}

func (p *queueIDs) OnRequeue(r *rpcproto.Request, q int, cause sched.RequeueCause, qlen int) {
	p.seen[q] = true
	p.Checker.OnRequeue(r, q, cause, qlen)
}

func (p *queueIDs) OnDequeue(r *rpcproto.Request, q int, fromTail bool) {
	p.seen[q] = true
	p.Checker.OnDequeue(r, q, fromTail)
}

func (p *queueIDs) OnMigrate(src, dst, srcLen, dstView, batch int, guarded bool) {
	p.seen[src], p.seen[dst] = true, true
	p.Checker.OnMigrate(src, dst, srcLen, dstView, batch, guarded)
}

// phased delivers every request as a chain drawn from prof.
type phased struct {
	sched.Scheduler
	prof *dist.PhaseProfile
	rng  *sim.RNG
}

func (p phased) Deliver(r *rpcproto.Request) {
	p.prof.Apply(r, p.rng)
	p.Scheduler.Deliver(r)
}

// TestQueueSpecsDeclareProbeTopology holds every scheduler the server
// builds to the topology it declares: queue ids dense and unique, owned
// cores unique and real, every exposed length inside the QueueLensInto
// snapshot, and every queue a short skewed run's probe events name
// declared (with the run itself invariant-clean under that topology).
func TestQueueSpecsDeclareProbeTopology(t *testing.T) {
	type machine struct {
		name string
		cfg  Config
		prof *dist.PhaseProfile // nil: bare requests
	}
	var machines []machine
	for _, k := range []SchedulerKind{SchedRSS, SchedIX, SchedZygOS, SchedShinjuku,
		SchedRPCValet, SchedNebula, SchedNanoPU, SchedAltocumulus, SchedRSSPlus} {
		cfg := Config{Kind: k, Cores: 16, Stack: rpcproto.StackNanoRPC, Steer: nic.SteerConnection, Cost: fabric.Default()}
		if k == SchedAltocumulus {
			cfg.AC = core.DefaultParams(4, 3)
		}
		machines = append(machines, machine{name: k.String(), cfg: cfg})
	}
	hetero, wl := phasesKV4()
	hetero.Cost = fabric.Default()
	machines = append(machines, machine{name: "Altocumulus-hetero-3+1", cfg: hetero, prof: wl.Profile})

	for _, m := range machines {
		t.Run(m.name, func(t *testing.T) {
			const n = 3000
			eng := sim.NewEngine()
			root := sim.NewRNG(1)
			chk := check.New(check.Options{Expected: n})
			nDone := 0
			done := chk.WrapDone(func(*rpcproto.Request) {
				if nDone++; nDone == n {
					eng.Stop()
				}
			})
			sch, _, err := build(m.cfg, eng, root.Fork(3), root.Fork(4), done)
			if err != nil {
				t.Fatal(err)
			}

			specs := sch.QueueSpecs()
			cores := len(sch.(interface{ Cores() []*exec.Core }).Cores())
			nLens := len(sch.QueueLensInto(nil))
			declared := make(map[int]bool, len(specs))
			owned := map[int]bool{}
			for _, sp := range specs {
				if sp.ID < 0 || sp.ID >= len(specs) || declared[sp.ID] {
					t.Fatalf("queue id %d is not dense and unique over %d specs: %v", sp.ID, len(specs), specs)
				}
				declared[sp.ID] = true
				if sp.Core >= 0 {
					if sp.Core >= cores || owned[sp.Core] {
						t.Fatalf("queue %d: owning core %d is a repeat or not below the core count %d", sp.ID, sp.Core, cores)
					}
					owned[sp.Core] = true
				}
				if sp.Lens >= nLens {
					t.Fatalf("queue %d: Lens index %d outside a %d-entry QueueLensInto", sp.ID, sp.Lens, nLens)
				}
			}

			chk.Attach(eng, sch)
			tap := &queueIDs{Checker: chk, seen: map[int]bool{}}
			sch.SetProbe(tap)
			var target sched.Scheduler = sch
			if m.prof != nil {
				target = phased{sch, m.prof, root.Fork(5)}
			}
			svc := dist.Exponential{M: sim.Microsecond}
			sched.OpenLoop{
				Arrivals: dist.Poisson{Rate: dist.LoadForRate(0.8, cores, svc)},
				Service:  svc,
				N:        n,
				Conns:    12, // skewed steering: AC migrates, ZygOS steals
				ArrRNG:   root.Fork(1),
				SvcRNG:   root.Fork(2),
			}.Start(eng, target)
			if err := check.RunToLastDone(eng, m.name, n, &nDone); err != nil {
				t.Fatal(err)
			}
			for q := range tap.seen {
				if !declared[q] {
					t.Errorf("probe named undeclared queue %d (declared %v)", q, specs)
				}
			}
			if err := chk.Finalize().Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
