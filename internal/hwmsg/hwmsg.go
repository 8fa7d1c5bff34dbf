// Package hwmsg models the ALTOCUMULUS manager-tile hardware of §V: the
// migration registers (MRs) that stage RPC descriptors, the parameter
// registers (PRs) holding runtime configuration, the bounded send/receive
// FIFOs, and the four protocol message types of Table II
// (PREDICT_CONFIG, MIGRATE, UPDATE, ACK/NACK). The structures are
// behavioural: capacity, ordering and drop/NACK semantics are enforced
// here; timing is charged by the runtime in internal/core using the NoC
// and cost models.
package hwmsg

import (
	"errors"

	"repro/internal/policy"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// MsgType enumerates the runtime messages of Table II.
type MsgType int

const (
	// MsgPredictConfig configures the parameter registers. Intra-tile
	// only: never crosses the NoC.
	MsgPredictConfig MsgType = iota
	// MsgMigrate proactively moves RPC descriptors from a source
	// manager's NetRX tail to destination queue(s).
	MsgMigrate
	// MsgUpdate broadcasts the local queue length to all other managers.
	MsgUpdate
	// MsgAck acknowledges receipt of a MIGRATE.
	MsgAck
	// MsgNack rejects a MIGRATE (destination FIFO/MRs full); the source
	// does not replay (§V-A).
	MsgNack
)

func (t MsgType) String() string {
	switch t {
	case MsgMigrate:
		return "MIGRATE"
	case MsgUpdate:
		return "UPDATE"
	case MsgAck:
		return "ACK"
	case MsgNack:
		return "NACK"
	default:
		return "PREDICT_CONFIG"
	}
}

// MigrateHeaderSize is the wire footprint of a MIGRATE header: req_num,
// src_mid, dst_mid and the tail pointer (§V-A).
const MigrateHeaderSize = 16

// Migrate is a MIGRATE message: a batch of descriptors moving between
// manager tiles. The simulator carries the *Request objects alongside
// their wire descriptors; only the descriptors count toward wire size.
type Migrate struct {
	SrcMid, DstMid int
	Descs          []rpcproto.Descriptor
	Reqs           []*rpcproto.Request
}

// WireSize returns the NoC footprint in bytes.
func (m *Migrate) WireSize() int {
	return MigrateHeaderSize + len(m.Descs)*rpcproto.DescriptorSize
}

// Update is an UPDATE message: <q> from one manager to another.
type Update struct {
	SrcMid int
	QLen   int
}

// UpdateWireSize is the footprint of an UPDATE (<q> plus source id).
const UpdateWireSize = 8

// AckWireSize is the footprint of an ACK/NACK.
const AckWireSize = 4

// ErrFull is returned when a bounded hardware buffer cannot accept an
// entry.
var ErrFull = errors.New("hwmsg: buffer full")

// Batch is what a FIFO queues: a MIGRATE occupying some number of
// descriptor entries. *Migrate is one; the runtime queues its pooled
// migration records, which embed a Migrate, and gets them back from Pop.
type Batch interface {
	Entries() int
}

// Entries implements Batch: one FIFO entry per descriptor.
func (m *Migrate) Entries() int { return len(m.Descs) }

// FIFO is a bounded in-order buffer of MIGRATE batches (the send and
// receive FIFOs of Fig. 6). Capacity is counted in descriptor entries,
// matching the paper's sizing (16 entries × 14 B = 224 B per FIFO). The
// batches sit in a ring fixed at construction: a MIGRATE carries at
// least one descriptor, so capacity positions hold any admissible
// backlog and Push never allocates.
type FIFO struct {
	capacity int
	used     int
	ring     []Batch
	head     int // ring index of the oldest batch
	n        int // queued batches
}

// NewFIFO returns a FIFO holding up to capacity descriptor entries.
func NewFIFO(capacity int) *FIFO {
	return &FIFO{capacity: capacity, ring: make([]Batch, capacity)}
}

// Capacity returns the entry capacity.
func (f *FIFO) Capacity() int { return f.capacity }

// Used returns the occupied entries.
func (f *FIFO) Used() int { return f.used }

// Free returns the available entries.
func (f *FIFO) Free() int { return f.capacity - f.used }

// Push enqueues a batch if its descriptors fit, else returns ErrFull
// without partial admission (a MIGRATE is admitted atomically). An empty
// batch still takes a ring position.
func (f *FIFO) Push(b Batch) error {
	n := b.Entries()
	if n > f.Free() || f.n == len(f.ring) {
		return ErrFull
	}
	f.used += n
	f.ring[(f.head+f.n)%len(f.ring)] = b
	f.n++
	return nil
}

// Pop dequeues the oldest batch, or nil when empty.
func (f *FIFO) Pop() Batch {
	if f.n == 0 {
		return nil
	}
	b := f.ring[f.head]
	f.ring[f.head] = nil
	f.head = (f.head + 1) % len(f.ring)
	f.n--
	f.used -= b.Entries()
	return b
}

// Len returns the number of queued batches.
func (f *FIFO) Len() int { return f.n }

// MRFile is the migration-register file of a manager tile: a bounded set
// of descriptor slots staging requests that are candidates for (or in
// flight during) migration. §V-B bounds it independently of system size.
type MRFile struct {
	capacity int
	slots    []rpcproto.Descriptor
}

// NewMRFile returns an MR file with the given number of 14-byte slots.
func NewMRFile(capacity int) *MRFile {
	return &MRFile{capacity: capacity}
}

// Capacity returns the slot count.
func (m *MRFile) Capacity() int { return m.capacity }

// Used returns the occupied slots.
func (m *MRFile) Used() int { return len(m.slots) }

// Free returns the available slots.
func (m *MRFile) Free() int { return m.capacity - len(m.slots) }

// Stage reserves slots for a batch of descriptors; all-or-nothing.
func (m *MRFile) Stage(descs []rpcproto.Descriptor) error {
	if len(descs) > m.Free() {
		return ErrFull
	}
	m.slots = append(m.slots, descs...)
	return nil
}

// Invalidate releases n staged slots (on ACK, the source invalidates the
// migrated entries; on NACK they are released back too, since the
// requests stay in the local NetRX).
func (m *MRFile) Invalidate(n int) {
	if n > len(m.slots) {
		n = len(m.slots)
	}
	m.slots = m.slots[:len(m.slots)-n]
}

// ParamRegs are the parameter registers (PRs) of Fig. 6: period, maximum
// batch size, concurrency, the current migration threshold and the
// synchronized queue-length vector.
type ParamRegs struct {
	Period      sim.Time
	Bulk        int
	Concurrency int
	Threshold   int
	QView       []int
}

// Configure applies a PREDICT_CONFIG: full register update.
func (p *ParamRegs) Configure(period sim.Time, bulk, concurrency int) {
	p.Period = period
	p.Bulk = bulk
	p.Concurrency = concurrency
}

// BatchSize returns S = Bulk/Concurrency, the per-MIGRATE request count
// (§V-A), at least 1. The arithmetic lives in policy.BatchSize so both
// runtime consumers size batches identically.
func (p *ParamRegs) BatchSize() int {
	return policy.BatchSize(p.Bulk, p.Concurrency)
}
