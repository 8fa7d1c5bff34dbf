package core

import (
	"testing"

	"repro/internal/check"
	"repro/internal/fabric"
	"repro/internal/hwmsg"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// migrateRig is a 2-group x 1-worker machine with the managers' ticks
// off, both workers held by a long request and the invariant checker
// attached, so the test scripts every MIGRATE itself: 8 requests wait in
// group 0's NetRX and 2 in group 1's.
type migrateRig struct {
	eng    *sim.Engine
	s      *Scheduler
	chk    *check.Checker
	nDone  int
	nTotal int
	a, b   *group
}

func newMigrateRig(t *testing.T) *migrateRig {
	t.Helper()
	p := DefaultParams(2, 1)
	p.AllowRemigration = true // the script moves the same requests back and forth
	rg := &migrateRig{eng: sim.NewEngine(), chk: check.New(check.Options{AllowRemigration: true})}
	s, err := New(rg.eng, p, fabric.Default(), nic.NewSteerer(nic.SteerDirect, 2, nil),
		rg.chk.WrapDone(func(*rpcproto.Request) { rg.nDone++ }))
	if err != nil {
		t.Fatal(err)
	}
	s.Stop() // no ticks: no UPDATEs, no decisions but the script's
	s.SetProbe(rg.chk)
	rg.chk.Attach(rg.eng, []check.QueueSpec{
		{ID: 0, Core: -1, Lens: 0}, {ID: 1, Core: -1, Lens: 1},
		{ID: 2, Core: 0, Lens: -1}, {ID: 3, Core: 1, Lens: -1},
	}, s.QueueLensInto)
	rg.s, rg.a, rg.b = s, s.groups[0], s.groups[1]

	deliver := func(conn uint32, service sim.Time) {
		s.Deliver(&rpcproto.Request{ID: uint64(rg.nTotal), Conn: conn, Arrival: rg.eng.Now(), Service: service, Size: 300})
		rg.nTotal++
	}
	deliver(0, 5*sim.Millisecond)
	deliver(1, 5*sim.Millisecond)
	rg.eng.Run(sim.Microsecond) // both workers now run their long request
	for i := 0; i < 8; i++ {
		deliver(0, sim.Microsecond)
	}
	deliver(1, sim.Microsecond)
	deliver(1, sim.Microsecond)
	if rg.a.netrx.Len() != 8 || rg.b.netrx.Len() != 2 {
		t.Fatalf("NetRX depths %d/%d, want 8/2", rg.a.netrx.Len(), rg.b.netrx.Len())
	}
	return rg
}

// settle runs the engine past every event of the MIGRATEs in flight.
func (rg *migrateRig) settle() { rg.eng.Run(rg.eng.Now() + sim.Microsecond) }

// TestMigrateZeroAlloc is the hard gate on the MIGRATE path: once the
// record pool is warm, an accepted batch, a NACKed one (receive FIFO
// full), an MR-full abort and a send-FIFO-full abort allocate nothing,
// with the checker's probe observing all of them. Each outcome is forced
// by occupying the structure in question with a filler, the way a batch
// still in flight would.
func TestMigrateZeroAlloc(t *testing.T) {
	rg := newMigrateRig(t)
	s, a, b := rg.s, rg.a, rg.b
	batch := a.pr.BatchSize()
	descs := make([]rpcproto.Descriptor, s.P.MRCapacity)
	filler := &hwmsg.Migrate{Descs: descs[:s.P.FIFOCapacity-batch+1]}

	round := func() {
		// Accepted: 0 -> 1, drained into NetRX and ACKed.
		s.sendMigrate(a, b, 0, batch)
		rg.settle()
		// MR-full abort: the staging registers have room for batch-1.
		if err := a.mr.Stage(descs[:a.mr.Free()-batch+1]); err != nil {
			t.Fatal(err)
		}
		s.sendMigrate(a, b, 0, batch)
		a.mr.Invalidate(a.mr.Used())
		// Send-FIFO-full abort.
		if err := a.send.Push(filler); err != nil {
			t.Fatal(err)
		}
		s.sendMigrate(a, b, 0, batch)
		a.send.Pop()
		// NACK: the batch is injected but the receive FIFO is full; the
		// requests come home when the NACK lands.
		if err := b.recv.Push(filler); err != nil {
			t.Fatal(err)
		}
		s.sendMigrate(a, b, 0, batch)
		rg.settle()
		b.recv.Pop()
		// Accepted: 1 -> 0 takes the first batch back.
		s.sendMigrate(b, a, 0, batch)
		rg.settle()
	}
	round() // warm the record pool, the MR slots and the checker's slabs

	const runs = 200
	if avg := testing.AllocsPerRun(runs, round); avg != 0 {
		t.Errorf("a round of MIGRATEs allocates %.1f times, want 0", avg)
	}

	rounds := uint64(runs + 2) // the warm-up, AllocsPerRun's own warm-up, the runs
	want := Stats{
		Migrations: 3 * rounds, MigratedReqs: 2 * uint64(batch) * rounds,
		NackedBatches: rounds, NackedReqs: uint64(batch) * rounds,
		MRFullAborts: rounds, FIFOFull: rounds,
	}
	if s.Stats != want {
		t.Errorf("stats %+v, want %+v", s.Stats, want)
	}
	if a.netrx.Len() != 8 || b.netrx.Len() != 2 || a.mr.Used() != 0 || b.mr.Used() != 0 ||
		a.send.Used()+a.recv.Used()+b.send.Used()+b.recv.Used() != 0 {
		t.Errorf("rounds did not return to the start: NetRX %d/%d, MRs %d/%d", a.netrx.Len(), b.netrx.Len(), a.mr.Used(), b.mr.Used())
	}
	// One batch is in flight at a time, so the pool never needed a second
	// record, and every record is back, let go of everything it held.
	if len(s.freeMigs) != 1 {
		t.Fatalf("pool holds %d records, want 1", len(s.freeMigs))
	}
	if m := s.freeMigs[0]; m.holds != 0 || m.Reqs != nil || m.Descs != nil || m.src != nil || m.dst != nil {
		t.Errorf("recycled record still holds state: %+v", m)
	}

	// Let the held workers finish and every request run: the checker saw
	// every scripted move and must agree nothing was lost or duplicated.
	for rg.nDone < rg.nTotal && rg.eng.Now() < 20*sim.Millisecond {
		rg.eng.Run(rg.eng.Now() + sim.Millisecond)
	}
	if rg.nDone != rg.nTotal {
		t.Fatalf("completed %d of %d", rg.nDone, rg.nTotal)
	}
	if err := rg.chk.Finalize().Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTickZeroAlloc is the gate on the manager tick: on a warm 64-group
// machine, a period in which every manager broadcasts a changed depth
// (63 landings each) and one in which none does (no landing at all)
// allocate nothing.
func TestTickZeroAlloc(t *testing.T) {
	p := DefaultParams(64, 15)
	p.Period = sim.Microsecond
	r := newUpdateRig(t, p)
	reqs := make([]rpcproto.Request, p.Groups)
	// Periods run from mid-period to mid-period, so each covers one tick
	// of every manager and all of its landings. (Run leaves the clock at
	// the last event it fired while ticks are pending, so the boundary is
	// kept here.)
	until := p.Period / 2
	r.eng.Run(until)
	period := func(changed bool) {
		if changed {
			for gid := range r.sent { // each depth toggles between 0 and 1
				q := &r.s.groups[gid].netrx
				if q.Len() == 0 {
					q.PushTail(&reqs[gid])
				} else {
					q.PopTail()
				}
				r.sent[gid] = q.Len()
			}
		}
		until += p.Period
		r.eng.Run(until)
	}
	for i := 0; i < 4; i++ { // grow the event slab and the queues
		period(true)
	}
	period(false)

	ticks, sent := r.s.Stats.Ticks, r.s.Stats.UpdatesSent
	if avg := testing.AllocsPerRun(100, func() { period(true) }); avg != 0 {
		t.Errorf("a period of ticks with landings allocates %.1f times, want 0", avg)
	}
	r.checkViews()
	pending := r.eng.Pending()
	if avg := testing.AllocsPerRun(100, func() { period(false) }); avg != 0 {
		t.Errorf("a period of ticks without landings allocates %.1f times, want 0", avg)
	}
	if got := r.eng.Pending(); got != pending {
		t.Errorf("unchanged depths left %d events pending, want the %d ticks", got, pending)
	}
	r.checkViews()
	periods := uint64(2 * 101) // each AllocsPerRun runs its function once more to warm up
	if dt, ds := r.s.Stats.Ticks-ticks, r.s.Stats.UpdatesSent-sent; dt != periods*64 || ds != dt*63 {
		t.Errorf("%d ticks sent %d UPDATEs, want %d ticks of 63", dt, ds, periods*64)
	}
}

// TestMigrationRecordOutlivesItsEvents pins the reason records are
// recycled by count: a FIFO pop frees the oldest batch, not the popping
// event's own, so a batch whose events have all fired can still sit in a
// FIFO. A 7-request batch reaches group 1 half a nanosecond before a
// 1-request one, which drains first and pops the big one; the small one
// then waits in the FIFO, drained and ACKed, for the big one's drain.
func TestMigrationRecordOutlivesItsEvents(t *testing.T) {
	rg := newMigrateRig(t)
	s, a, b := rg.s, rg.a, rg.b
	s.probe = nil // the script takes requests off NetRX behind the checker's back
	take := func(n int) *migration {
		m := s.newMigration(a, b, 8)
		for i := 0; i < n; i++ {
			m.reqs[i] = a.netrx.PopTail()
		}
		m.Reqs, m.Descs = m.reqs[:n], m.descs[:n]
		return m
	}
	big, small := take(7), take(1)
	now := rg.eng.Now()
	big.at(now, migArrived)                      // drains at +7 ns
	small.at(now+500*sim.Picosecond, migArrived) // drains at +1.5 ns
	big.release()
	small.release()

	rg.eng.Run(now + 6900*sim.Picosecond)
	if b.recv.Len() != 1 || b.recv.Used() != 1 {
		t.Fatalf("receive FIFO holds %d batches / %d entries after the early drain, want the 1-entry batch", b.recv.Len(), b.recv.Used())
	}
	if small.holds != 1 || small.Reqs == nil || len(s.freeMigs) != 0 {
		t.Fatalf("drained and ACKed batch still in the FIFO: holds %d, pool %d; want it held once and not recycled", small.holds, len(s.freeMigs))
	}
	rg.settle()
	if b.recv.Len() != 0 || b.netrx.Len() != 2+8 || s.Stats.MigratedReqs != 8 {
		t.Fatalf("after both drains: FIFO %d, NetRX %d, migrated %d", b.recv.Len(), b.netrx.Len(), s.Stats.MigratedReqs)
	}
	if len(s.freeMigs) != 2 {
		t.Fatalf("pool holds %d records, want both back", len(s.freeMigs))
	}
}
