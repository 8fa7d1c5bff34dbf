package core

import (
	"repro/internal/hwmsg"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
)

// migration is one MIGRATE in flight: the message, the backing of its
// Reqs/Descs and the two managers it travels between. Records are pooled
// per Scheduler and ride the protocol's events as arg-event payloads, so
// the paper's mechanism runs without the heap once the pool is warm.
type migration struct {
	hwmsg.Migrate // Reqs and Descs slice reqs and descs while in flight

	s        *Scheduler
	src, dst *group

	// holds counts what still refers to the record: its pending events,
	// its FIFO residencies, and sendMigrate while it builds the batch.
	// The record is recycled when the last one lets go — by count, because
	// drain and ACK fire in an order that depends on NoC distance, and a
	// FIFO pop frees the oldest batch, which need not be the popping
	// event's own.
	holds int

	reqs  []*rpcproto.Request   // len == the batch size S
	descs []rpcproto.Descriptor // likewise
}

// The protocol steps a migration's events stand for (§V-A).
const (
	migInjected = iota // the migrator has put the batch on the NoC: the send-FIFO entry frees
	migArrived         // the batch reaches the destination controller
	migDrained         // the destination migrator has moved it into the NetRX
	migAcked           // the ACK lands at the source, which invalidates its MRs
	migNacked          // the NACK lands at the source, which takes the requests back
)

// newMigration takes a record from the pool, or makes one sized to the
// batch, holding it for the caller.
func (s *Scheduler) newMigration(src, dst *group, batch int) *migration {
	var m *migration
	if n := len(s.freeMigs); n > 0 {
		m = s.freeMigs[n-1]
		s.freeMigs = s.freeMigs[:n-1]
	} else {
		m = &migration{
			s:     s,
			reqs:  make([]*rpcproto.Request, batch),
			descs: make([]rpcproto.Descriptor, batch),
		}
	}
	m.SrcMid, m.DstMid = src.id, dst.id
	m.src, m.dst = src, dst
	m.holds = 1
	return m
}

// release drops one hold and recycles the record with the last. A
// recycled record keeps nothing: a stale event or FIFO entry that still
// reached it would dereference nil groups or index a nil batch, not move
// some later migration's requests.
func (m *migration) release() {
	if m.holds--; m.holds > 0 {
		return
	}
	if m.holds < 0 {
		panic("core: migration record released more often than held")
	}
	clear(m.Reqs)
	m.Reqs, m.Descs = nil, nil
	m.src, m.dst = nil, nil
	m.s.freeMigs = append(m.s.freeMigs, m)
}

// at books the event of one protocol step, which holds the record until
// it has fired.
func (m *migration) at(t sim.Time, step int64) {
	m.holds++
	m.s.eng.AtArg(t, migrationStep, m, step)
}

// migrationStep is the arg-event trampoline of every MIGRATE event.
func migrationStep(arg any, step int64) {
	m := arg.(*migration)
	s, src, dst := m.s, m.src, m.dst
	switch step {
	case migInjected:
		src.send.Pop().(*migration).release()
	case migArrived:
		s.receiveMigrate(m)
	case migDrained:
		dst.recv.Pop().(*migration).release()
		for _, r := range m.Reqs {
			r.Migrated = true
			r.Enq = s.eng.Now()
			if s.probe != nil {
				s.probe.OnRequeue(r, dst.id, sched.RequeueMigrate, dst.netrx.Len())
			}
			dst.netrx.PushTail(r)
		}
		s.Stats.MigratedReqs += uint64(len(m.Reqs))
		s.dispatch(dst)
	case migAcked:
		src.mr.Invalidate(len(m.Descs))
	case migNacked:
		src.mr.Invalidate(len(m.Descs))
		for _, r := range m.Reqs {
			if s.probe != nil {
				s.probe.OnRequeue(r, src.id, sched.RequeueNack, src.netrx.Len())
			}
			src.netrx.PushTail(r)
		}
		s.dispatch(src)
	}
	m.release()
}

// putBack returns an aborted batch to the source's NetRX tail. Exact
// original positions are not recoverable for head-selected batches, and
// the hardware would re-enqueue at the tail regardless.
func (m *migration) putBack() {
	s, g := m.s, m.src
	for i := len(m.Reqs) - 1; i >= 0; i-- {
		if s.probe != nil {
			s.probe.OnRequeue(m.Reqs[i], g.id, sched.RequeueNack, g.netrx.Len())
		}
		g.netrx.PushTail(m.Reqs[i])
	}
}
