package core

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// updateRig drives the managers of a scheduler through scripted NetRX
// depths with no request flow: depths are set directly on the queues
// between ticks, migration is off, nothing dispatches. What is left is
// the tick's UPDATE fan-out, which is what the tests observe.
type updateRig struct {
	t   *testing.T
	eng *sim.Engine
	s   *Scheduler
	// sent[gid] is the depth group gid last broadcast (0 before its first
	// tick, matching the views' initial contents).
	sent []int
	k    int // ticks driven so far
}

func newUpdateRig(t *testing.T, p Params) *updateRig {
	t.Helper()
	p.DisableMigration = true
	eng := sim.NewEngine()
	s, err := New(eng, p, fabric.Default(), nic.NewSteerer(nic.SteerDirect, p.Groups, nil), func(*rpcproto.Request) {})
	if err != nil {
		t.Fatal(err)
	}
	s.startTicks()
	return &updateRig{t: t, eng: eng, s: s, sent: make([]int, p.Groups)}
}

func (r *updateRig) setDepth(gid, n int) {
	q := &r.s.groups[gid].netrx
	for q.Len() < n {
		q.PushTail(&rpcproto.Request{})
	}
	for q.Len() > n {
		q.PopTail()
	}
}

// fanout is the number of UPDATE messages one tick of group gid sends.
func (r *updateRig) fanout(gid int) int { return len(r.s.groups[gid].peers) - 1 }

// tick sets every group's depth, fires the next tick of every manager,
// and checks the fan-out's accounting: every message counted, a landing
// event for exactly the messages whose depth differs from the sender's
// previous broadcast.
func (r *updateRig) tick(depths []int) {
	r.t.Helper()
	r.k++
	period := r.s.P.Period
	at := sim.Time(r.k) * period
	r.eng.Run(at - period/2)
	wantSent, wantLands := 0, 0
	for gid, d := range depths {
		r.setDepth(gid, d)
		wantSent += r.fanout(gid)
		if d != r.sent[gid] {
			wantLands += r.fanout(gid)
		}
		r.sent[gid] = d
	}
	ticks, sent, pending := r.s.Stats.Ticks, r.s.Stats.UpdatesSent, r.eng.Pending()
	// Every manager ticks at `at`; the earliest landing is a hop later.
	r.eng.Run(at + sim.Picosecond)
	if got := r.s.Stats.Ticks - ticks; got != uint64(len(depths)) {
		r.t.Fatalf("tick %d: %d managers ticked, want %d", r.k, got, len(depths))
	}
	if got := r.s.Stats.UpdatesSent - sent; got != uint64(wantSent) {
		r.t.Fatalf("tick %d: UpdatesSent grew by %d, want %d", r.k, got, wantSent)
	}
	if got := r.eng.Pending() - pending; got != wantLands {
		r.t.Fatalf("tick %d (depths %v): %d landing events, want %d", r.k, depths, got, wantLands)
	}
}

// checkViews asserts every manager's view of every peer equals that
// peer's last broadcast depth.
func (r *updateRig) checkViews() {
	r.t.Helper()
	for _, dst := range r.s.groups {
		view := r.s.GroupView(dst.id)
		for _, src := range r.s.groups {
			if src.class != dst.class {
				continue
			}
			if got := view[src.peerIdx]; got != r.sent[src.id] {
				r.t.Fatalf("after tick %d: manager %d sees group %d (peer %d) at %d, last broadcast %d",
					r.k, dst.id, src.id, src.peerIdx, got, r.sent[src.id])
			}
		}
	}
}

// depthScript is one depth per group per tick: constant, step up, step
// down, oscillating, and (when there is a fifth group) never non-zero.
func depthScript(groups int) [][]int {
	perGroup := [][]int{
		{3, 3, 3, 3, 3, 3, 3, 3},
		{0, 0, 0, 5, 5, 5, 5, 5},
		{7, 7, 7, 7, 2, 2, 0, 0},
		{1, 4, 1, 4, 1, 4, 4, 1},
		{0, 0, 0, 0, 0, 0, 0, 0},
	}
	script := make([][]int, len(perGroup[0]))
	for k := range script {
		for gid := 0; gid < groups; gid++ {
			script[k] = append(script[k], perGroup[gid][k])
		}
	}
	return script
}

// TestUpdateElision drives scripted depths through the hardware NoC,
// the SoftwareMessaging ablation and a 2-class machine (views in
// peer-index space): after each tick's landing horizon every view entry
// equals its sender's last broadcast, an unchanged depth adds no landing
// event, and UpdatesSent counts every message regardless.
func TestUpdateElision(t *testing.T) {
	hw := DefaultParams(4, 2)
	sw := DefaultParams(4, 2)
	sw.SoftwareMessaging = true
	hetero := DefaultParams(5, 2)
	hetero.GroupClass = []uint8{0, 1, 0, 1, 0} // peers {0,2,4} and {1,3}

	for _, tc := range []struct {
		name string
		p    Params
	}{{"noc", hw}, {"software-messaging", sw}, {"two-class", hetero}} {
		t.Run(tc.name, func(t *testing.T) {
			// 2 us leaves the software path (45 ns per message on the
			// manager plus three cache-line transfers) a clear horizon.
			tc.p.Period = 2 * sim.Microsecond
			r := newUpdateRig(t, tc.p)
			for _, depths := range depthScript(tc.p.Groups) {
				r.tick(depths)
				r.eng.Run(sim.Time(r.k)*tc.p.Period + tc.p.Period/4)
				r.checkViews()
			}
			// A run of constant ticks: no landing at all, counts still grow.
			last := depthScript(tc.p.Groups)[7]
			for i := 0; i < 3; i++ {
				r.tick(last)
			}
			r.checkViews()
		})
	}
}

// TestUpdateElisionOverlappingLandings shortens the period until
// hundreds of ticks' landings are in flight at once (software messaging
// serializes 15 messages on the manager core at 45 ns each, against a
// 100 ns period) and changes depths at times unrelated to the ticks. The
// elision is exact only if landings from one sender reach a peer in send
// order; a reordered pair would leave a stale value behind once the
// depths settle.
func TestUpdateElisionOverlappingLandings(t *testing.T) {
	for _, software := range []bool{false, true} {
		p := DefaultParams(16, 1)
		p.Period = 100 * sim.Nanosecond
		p.SoftwareMessaging = software
		r := newUpdateRig(t, p)
		rng := sim.NewRNG(7)
		for k := 0; k < 400; k++ {
			r.eng.Run(r.eng.Now() + 70*sim.Nanosecond)
			for gid := range r.sent {
				if rng.Intn(3) > 0 { // a third of the steps keep the depth
					r.sent[gid] = rng.Intn(4)
					r.setDepth(gid, r.sent[gid])
				}
			}
		}
		// The managers keep ticking at the settled depths, so those are
		// the last broadcasts; drain everything queued behind the manager
		// cores.
		r.eng.Run(r.eng.Now() + sim.Millisecond)
		r.checkViews()
		if r.s.Stats.UpdatesSent != r.s.Stats.Ticks*15 {
			t.Fatalf("software=%v: %d UPDATEs over %d ticks, want 15 per tick",
				software, r.s.Stats.UpdatesSent, r.s.Stats.Ticks)
		}
	}
}
