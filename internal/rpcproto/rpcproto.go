// Package rpcproto defines the RPC data plane of the simulated server:
// the request object tracked through its lifetime, the 14-byte descriptor
// the ALTOCUMULUS hardware moves between manager tiles (§V-B: an 8 B
// pointer to the in-LLC message plus a 48-bit network address), a real
// binary wire format with marshal/unmarshal, and the RPC stack models
// whose processing latencies reproduce Fig. 1.
package rpcproto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Op is the application-level operation carried by an RPC.
type Op uint8

const (
	OpEcho Op = iota // synthetic workloads
	OpGet            // MICA GET
	OpSet            // MICA SET
	OpScan           // MICA SCAN (long request)
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpSet:
		return "SET"
	case OpScan:
		return "SCAN"
	default:
		return "ECHO"
	}
}

// Request is one RPC tracked through the simulated server. Scheduling
// state lives here so schedulers avoid per-request maps on the hot path.
type Request struct {
	ID      uint64
	Conn    uint32 // network connection (flow) id; RSS hashes this
	Tenant  uint8  // application/tenant id for multi-tenant isolation studies
	Op      Op
	Size    int      // request message size in bytes (payload + header)
	Arrival sim.Time // when the NIC received it (latency measurement start)
	Service sim.Time // on-CPU service time of the handler

	// Scheduling state.
	Enq       sim.Time // when it entered its current queue
	Start     sim.Time // when a core started (or resumed) it
	Finish    sim.Time // completion time; 0 until done
	Remaining sim.Time // remaining service (preemption support)
	Migrated  bool     // has been migrated once already (§V-B restriction 4)
	Predicted bool     // was predicted to violate SLO (selected for migration)
	GroupHint int      // group/queue the request was initially steered to

	// Rack-forwarding state, carried on the wire only by version-2
	// frames (relayed through a rack front end such as cmd/altorack).
	// Origin is the connection id on the front end the request arrived
	// on — backends echo the relay-assigned ID, and the relay uses its
	// pending table to route the response back to Origin. Hops counts
	// forwarding stages (0 = direct client, 1 = one relay tier).
	Origin uint32
	Hops   uint8

	// Payload carries the application bytes (e.g. a MICA key/value);
	// synthetic workloads leave it nil.
	Payload []byte

	// Pool is an opaque owner handle: the live data plane stores the
	// packed arena slot id backing this request here so the completion
	// path can release the slot without a per-request lookup (the same
	// keep-state-on-the-request rule the scheduling fields follow).
	// Zero for heap-allocated requests.
	Pool uint64

	// Multi-phase lifecycle state (DESIGN.md §15). A phased request runs
	// as a chain of NumPhases phase-completion events instead of one
	// opaque service time; Service stays the sum of the base phase
	// durations so SLO and load accounting are phase-agnostic. Only the
	// two cursor bytes live on the request. What is drawn or stamped per
	// phase is cold state in the PhaseVec sidecar, which is attached iff
	// NumPhases >= 1, so a bare request (every request of an App or
	// ServiceDist workload and of the live data plane) pays a nil pointer
	// for it. The pointer is embedded: r.PhaseSvc[i], r.PhaseEnd[i] and
	// r.Plan read through it by field promotion and must be bounded by
	// NumPhases. NumPhases <= 1 is the degenerate single-shot chain: every
	// pre-phase code path is taken unchanged (byte-identical traces).
	Phase     uint8 // current phase index (advances at each boundary)
	NumPhases uint8 // 0 = bare (no sidecar); 1 = single-shot chain; 2..MaxPhases = phased
	*PhaseVec

	// OnExecute, when non-nil, runs once when a core first begins this
	// request (before the execution duration is read). Applications use
	// it to finalise Service — e.g. MICA adds the EREW remote-access
	// penalty if the request was migrated.
	OnExecute func(r *Request)
}

// MaxPhases bounds the phase chain of one request. Eight covers a
// 4-phase KV chain (parse → index probe → log read → respond) with
// headroom for crypto/compression stages, while keeping the sidecar's
// footprint fixed (phase state is arrays, not slices).
const MaxPhases = 8

// PhasePlan is the per-profile half of a phase chain: for each phase, the
// core class it is affine to, the speedup it gets there, and the transfer
// cost charged when it is forwarded to another group. A profile builds
// its plan once (dist.NewPhaseProfile) and every request drawn from it
// points at that one plan, which nothing writes afterwards — the
// processor-side constants of xmp_sched_sim's model, not request state.
type PhasePlan struct {
	Class   [MaxPhases]uint8    // core-class affinity per phase (0 = general)
	Speedup [MaxPhases]float64  // divisor on the affine class; 0 = neutral
	Offload [MaxPhases]sim.Time // transfer cost when the phase is forwarded to another group
}

// Accel returns the duration of phase i on its affine class, given its
// base duration svc: svc divided by the phase's speedup, or svc itself
// when the phase is neutral.
//
//altolint:hotpath
func (p *PhasePlan) Accel(i uint8, svc sim.Time) sim.Time {
	if s := p.Speedup[i]; s != 0 {
		return sim.Time(float64(svc) / s)
	}
	return svc
}

// PhaseVec is the per-request state of a request with NumPhases >= 1:
// the sidecar Request embeds by pointer. It holds only what is drawn or
// stamped per request, plus a pointer to the profile's shared plan. It is
// owned by whoever owns the request — the arena's sidecar slab while the
// request is in flight (arena.AcquirePhased), the run's record slab once
// it completed — and is never shared between two requests.
type PhaseVec struct {
	Plan     *PhasePlan          // the profile's constants, shared by all its requests
	PhaseSvc [MaxPhases]sim.Time // base duration per phase (drawn at prepare)
	PhaseEnd [MaxPhases]sim.Time // completion timestamp per phase; 0 until the phase finishes
}

// EnsurePhases attaches a heap-allocated sidecar to a request that has
// none, for code that draws a chain onto a request it did not get from a
// phased arena slot (tests, one-off rigs). The simulator's generator
// attaches an arena-owned sidecar before applying a profile, so this
// never allocates on its path.
func (r *Request) EnsurePhases() {
	if r.PhaseVec == nil {
		r.PhaseVec = new(PhaseVec)
	}
}

// Phased reports whether this request runs as a multi-phase chain.
// Single-shot requests (NumPhases <= 1) take every pre-phase code path
// unchanged.
//
//altolint:hotpath
func (r *Request) Phased() bool { return r.NumPhases > 1 }

// PhaseDur returns the effective duration of the current phase on a
// core of the given class: the plan's accelerated duration when the
// classes match, the base duration elsewhere. A neutral phase runs its
// base duration on either, so the distinction vanishes.
//
//altolint:hotpath
func (r *Request) PhaseDur(class uint8) sim.Time {
	svc := r.PhaseSvc[r.Phase]
	if r.Plan.Class[r.Phase] == class {
		return r.Plan.Accel(r.Phase, svc)
	}
	return svc
}

// MinService returns the smallest on-CPU time the request can complete
// in: Service for single-shot requests, and the per-phase minimum of
// base and accelerated durations for phased ones (a phase never runs
// faster than its accelerated duration). The invariant checker's
// conservation bound uses this instead of Service, which an accelerated
// chain may legitimately undercut.
func (r *Request) MinService() sim.Time {
	if !r.Phased() {
		return r.Service
	}
	var total sim.Time
	for i := uint8(0); i < r.NumPhases; i++ {
		total += min(r.PhaseSvc[i], r.Plan.Accel(i, r.PhaseSvc[i]))
	}
	return total
}

// Latency returns the server-side latency (NIC arrival to completion).
// It panics if the request has not finished: reading the latency of an
// unfinished request is always a harness bug.
func (r *Request) Latency() sim.Time {
	if r.Finish == 0 {
		panic(fmt.Sprintf("rpcproto: request %d not finished", r.ID))
	}
	return r.Finish - r.Arrival
}

// Record is what a simulated run keeps of a request once it completed:
// the fields the replay analyses, trace writers and tenant digests read,
// each under the name it has on Request. Payload, pool handle,
// preemption, queue and forwarding state and the OnExecute hook end with
// the request, so a run's record slab costs 56 B per request on a 64-bit
// build instead of a whole Request. A phased record's sidecar is a copy
// owned by the run, never the arena's.
type Record struct {
	ID        uint64
	Arrival   sim.Time
	Service   sim.Time
	Finish    sim.Time
	*PhaseVec // nil iff NumPhases == 0
	Conn      uint32
	GroupHint int32
	Tenant    uint8
	Op        Op
	Migrated  bool
	Predicted bool
	NumPhases uint8
}

// Fill overwrites rec with the completed request r, field by field (a
// composite-literal store into a slab element costs a temporary and a
// copy). side is the run-owned sidecar the phase state is copied into;
// it is read only when r has a sidecar, so a bare request may pass nil.
func (rec *Record) Fill(r *Request, side *PhaseVec) {
	rec.ID = r.ID
	rec.Arrival = r.Arrival
	rec.Service = r.Service
	rec.Finish = r.Finish
	rec.Conn = r.Conn
	rec.GroupHint = int32(r.GroupHint)
	rec.Tenant = r.Tenant
	rec.Op = r.Op
	rec.Migrated = r.Migrated
	rec.Predicted = r.Predicted
	rec.NumPhases = r.NumPhases
	rec.PhaseVec = nil
	if r.PhaseVec != nil {
		*side = *r.PhaseVec
		rec.PhaseVec = side
	}
}

// Latency returns the server-side latency (NIC arrival to completion).
// Like Request.Latency, it panics on a record that never finished.
func (rec *Record) Latency() sim.Time {
	if rec.Finish == 0 {
		panic(fmt.Sprintf("rpcproto: request %d not finished", rec.ID))
	}
	return rec.Finish - rec.Arrival
}

// Descriptor is the 14-byte migration unit: what the MRs store and the
// MIGRATE messages carry. The full message body never moves (it stays in
// the LLC / network buffer); only this descriptor does.
type Descriptor struct {
	Ptr  uint64  // 8 B pointer to the in-memory message
	Addr [6]byte // 48-bit connection/network address
}

// DescriptorSize is the wire footprint of one descriptor (§V-B: 14 B).
const DescriptorSize = 14

// EncodeDescriptor serialises d into a 14-byte wire image.
func EncodeDescriptor(d Descriptor) [DescriptorSize]byte {
	var out [DescriptorSize]byte
	binary.LittleEndian.PutUint64(out[0:8], d.Ptr)
	copy(out[8:14], d.Addr[:])
	return out
}

// DecodeDescriptor parses a 14-byte wire image.
func DecodeDescriptor(b [DescriptorSize]byte) Descriptor {
	var d Descriptor
	d.Ptr = binary.LittleEndian.Uint64(b[0:8])
	copy(d.Addr[:], b[8:14])
	return d
}

// DescriptorFor builds the descriptor of a request: the pointer is the
// request ID (a stable surrogate for the buffer address) and the address
// encodes the connection id and opcode.
func DescriptorFor(r *Request) Descriptor {
	var d Descriptor
	d.Ptr = r.ID
	binary.LittleEndian.PutUint32(d.Addr[0:4], r.Conn)
	d.Addr[4] = byte(r.Op)
	return d
}

// Wire format ------------------------------------------------------------

// header layout, version 1 (16 bytes):
//
//	0:8   request id
//	8:12  connection id
//	12    op
//	13    version
//	14:16 payload length
//
// Version 2 is the rack-forwarded form: the first 16 bytes keep the
// exact version-1 layout (in particular the payload length stays at
// 14:16, so a transport can size either frame from a 16-byte prefix),
// followed by an 8-byte forwarding extension:
//
//	16:20 origin connection id (front-end conn the request arrived on)
//	20    hops (forwarding stages so far)
//	21:24 reserved, must be zero
const (
	headerSize     = 16
	fwdHeaderSize  = 24
	wireVersion    = 1
	wireVersionFwd = 2
	maxPayload     = 64 << 10 // 64 KiB, far above the paper's <2 KB RPCs
)

var (
	// ErrShortBuffer indicates a truncated wire message.
	ErrShortBuffer = errors.New("rpcproto: short buffer")
	// ErrBadVersion indicates an unsupported wire version.
	ErrBadVersion = errors.New("rpcproto: unsupported wire version")
	// ErrPayloadTooLarge indicates a payload over the 64 KiB cap.
	ErrPayloadTooLarge = errors.New("rpcproto: payload too large")
	// ErrBadReserved indicates nonzero reserved bytes in a forwarded
	// (version-2) header; rejecting them keeps the bits available.
	ErrBadReserved = errors.New("rpcproto: nonzero reserved bytes in forwarded header")
	// ErrHopLimit indicates a frame forwarded more times than the
	// 8-bit hop counter can record — always a routing loop in practice.
	ErrHopLimit = errors.New("rpcproto: forwarding hop limit exceeded")
)

// requestHeader parses the fixed request header at the front of buf:
// the header length consumed, the payload length, and the forwarding
// extension (zero for version-1 frames). The payload itself is not
// bounds-checked here.
func requestHeader(buf []byte) (hdrLen, plen int, origin uint32, hops uint8, err error) {
	if len(buf) < headerSize {
		return 0, 0, 0, 0, ErrShortBuffer
	}
	plen = int(binary.LittleEndian.Uint16(buf[14:16]))
	switch buf[13] {
	case wireVersion:
		return headerSize, plen, 0, 0, nil
	case wireVersionFwd:
		if len(buf) < fwdHeaderSize {
			return 0, 0, 0, 0, ErrShortBuffer
		}
		if buf[21] != 0 || buf[22] != 0 || buf[23] != 0 {
			return 0, 0, 0, 0, ErrBadReserved
		}
		return fwdHeaderSize, plen, binary.LittleEndian.Uint32(buf[16:20]), buf[20], nil
	default:
		return 0, 0, 0, 0, ErrBadVersion
	}
}

// Marshal encodes a request into its network representation. This is the
// real serialisation work an RPC stack performs; the simulator charges
// its modelled duration separately via StackModel.
func Marshal(r *Request) ([]byte, error) {
	buf, err := AppendRequest(make([]byte, 0, headerSize+len(r.Payload)), r)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// Unmarshal decodes a network message into a fresh Request (scheduling
// state zeroed). Both wire versions are accepted; version-2 frames fill
// the Origin/Hops forwarding fields. The Size field records the wire
// footprint.
func Unmarshal(buf []byte) (*Request, error) {
	hdrLen, plen, origin, hops, err := requestHeader(buf)
	if err != nil {
		return nil, err
	}
	if len(buf) < hdrLen+plen {
		return nil, ErrShortBuffer
	}
	r := &Request{
		ID:     binary.LittleEndian.Uint64(buf[0:8]),
		Conn:   binary.LittleEndian.Uint32(buf[8:12]),
		Op:     Op(buf[12]),
		Size:   hdrLen + plen,
		Origin: origin,
		Hops:   hops,
	}
	if plen > 0 {
		r.Payload = append([]byte(nil), buf[hdrLen:hdrLen+plen]...)
	}
	return r, nil
}

// UnmarshalInto decodes a network message into an existing request,
// zeroing every field exactly as Unmarshal would but reusing r's
// payload capacity: the payload bytes are copied into the recycled
// backing array, so a request slot cycled through an arena decodes
// frame after frame without allocating. A zero-length payload keeps
// the (empty) recycled slice rather than reverting to nil; the bytes
// are identical either way. On error r is left zeroed (payload
// capacity still retained) and must not be delivered.
//
//altolint:hotpath
func UnmarshalInto(r *Request, buf []byte) error {
	payload := r.Payload[:0]
	*r = Request{}
	r.Payload = payload
	hdrLen, plen, origin, hops, err := requestHeader(buf)
	if err != nil {
		return err
	}
	if len(buf) < hdrLen+plen {
		return ErrShortBuffer
	}
	r.ID = binary.LittleEndian.Uint64(buf[0:8])
	r.Conn = binary.LittleEndian.Uint32(buf[8:12])
	r.Op = Op(buf[12])
	r.Size = hdrLen + plen
	r.Origin = origin
	r.Hops = hops
	if plen > 0 {
		//altolint:allow hotalloc amortized payload-capacity growth; recycled slots reuse the backing array
		r.Payload = append(payload, buf[hdrLen:hdrLen+plen]...)
	}
	return nil
}
