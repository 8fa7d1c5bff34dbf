// Package arena provides a slab arena for rpcproto.Request values so the
// steady-state request lifecycle allocates nothing: requests are acquired
// from recycled slots on arrival and released back when they drain.
//
// The design mirrors the internal/sim event slab (PR 2): slots are
// addressed by index through generation-counted handles, so a stale
// RequestID — one whose slot has since been released and reissued — is
// detectable rather than silently aliasing a different request. Unlike
// the event slab, request pointers escape to schedulers and run for the
// whole service time, so slots must be pointer-stable: the arena grows in
// fixed-size chunks and never moves a slot once issued.
package arena

import "repro/internal/rpcproto"

// chunkSize is the number of request slots per slab chunk. Chunks are
// allocated whole and never reallocated, which keeps every issued
// *rpcproto.Request stable for the lifetime of the arena.
const chunkSize = 256

// RequestID is a generation-counted handle to an arena slot. The zero
// RequestID is never issued and is always stale.
type RequestID struct {
	idx int32
	gen uint32
}

// Valid reports whether the id was issued by an arena (it may still be
// stale if the slot has been recycled since).
func (id RequestID) Valid() bool { return id.gen != 0 }

// Pack flattens the handle into one word so owners can stash it in a
// uint64 field (the live data plane rides it on rpcproto.Request.Pool)
// instead of keeping a side table. Unpack inverts it losslessly.
func (id RequestID) Pack() uint64 {
	return uint64(uint32(id.idx))<<32 | uint64(id.gen)
}

// UnpackRequestID inverts RequestID.Pack. Garbage input yields a handle
// that Get/Release reject as stale, never a false match: the generation
// parity and bounds checks still apply.
func UnpackRequestID(p uint64) RequestID {
	return RequestID{idx: int32(uint32(p >> 32)), gen: uint32(p)}
}

type slot struct {
	req rpcproto.Request
	gen uint32 // odd while live, even while free; 0 = never issued
}

// Arena is a free-list slab of requests. Not safe for concurrent use:
// each simulation (fleet worker) owns its own arena, matching the
// //altolint:fleet-boundary rule that no simulator state crosses workers.
type Arena struct {
	chunks [][]slot
	// phases[c][i] is the phase sidecar of slot chunks[c][i], so a sidecar
	// is recycled with its slot and needs no free list of its own. A chunk
	// of sidecars exists only once a slot of its chunk carried a phased
	// request: an arena that never does (bare workloads, the live data
	// plane) holds none.
	phases [][]rpcproto.PhaseVec
	free   []RequestID
	live   int
}

// New returns an empty arena.
func New() *Arena {
	return &Arena{}
}

// Acquire returns a zeroed request and its handle (a slot recycled via
// ReleaseReuse keeps its payload capacity at length zero). The pointer
// stays valid until Release; afterwards the handle goes stale and the
// slot may be reissued.
//
//altolint:hotpath
func (a *Arena) Acquire() (*rpcproto.Request, RequestID) {
	var id RequestID
	if n := len(a.free); n > 0 {
		id = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		if len(a.chunks) == 0 || len(a.chunks[len(a.chunks)-1]) == chunkSize {
			//altolint:allow hotalloc one whole-chunk allocation per 256 slots; steady state recycles the free list
			a.chunks = append(a.chunks, make([]slot, 0, chunkSize))
		}
		last := len(a.chunks) - 1
		//altolint:allow hotalloc append within chunk capacity; the chunk is preallocated whole above
		a.chunks[last] = append(a.chunks[last], slot{})
		id = RequestID{idx: int32(last*chunkSize + len(a.chunks[last]) - 1)}
	}
	s := a.slot(id.idx)
	s.gen++ // free (even) -> live (odd)
	id.gen = s.gen
	a.live++
	return &s.req, id
}

// AcquirePhased is Acquire for a request that a phase profile is about
// to draw a chain onto: the slot's sidecar is zeroed — as Acquire's
// request is — and attached, ready for the profile to fill its draws and
// point it at the profile's plan. The sidecar is the arena's and goes
// back with the slot at Release, so a copy of the request that outlives
// the slot must be given a sidecar of its own.
//
//altolint:hotpath
func (a *Arena) AcquirePhased() (*rpcproto.Request, RequestID) {
	r, id := a.Acquire()
	c, i := id.idx/chunkSize, id.idx%chunkSize
	for int(c) >= len(a.phases) {
		//altolint:allow hotalloc one nil entry per 256 slots; steady state recycles the free list
		a.phases = append(a.phases, nil)
	}
	if a.phases[c] == nil {
		//altolint:allow hotalloc one whole-chunk allocation per 256 phased slots; steady state recycles the free list
		a.phases[c] = make([]rpcproto.PhaseVec, chunkSize)
	}
	pv := &a.phases[c][i]
	*pv = rpcproto.PhaseVec{}
	r.PhaseVec = pv
	return r, id
}

// Get returns the request for id, or nil if the handle is stale (the
// slot was released, possibly reissued to a different request).
//
//altolint:hotpath
func (a *Arena) Get(id RequestID) *rpcproto.Request {
	if !a.owns(id) {
		return nil
	}
	s := a.slot(id.idx)
	if s.gen != id.gen {
		return nil
	}
	return &s.req
}

// Release recycles the slot behind id. It returns false — and does
// nothing — if the handle is stale, so double-free is detectable by the
// caller (internal/check treats a lost or double-freed request as a
// conservation violation).
//
//altolint:hotpath
func (a *Arena) Release(id RequestID) bool {
	if !a.owns(id) {
		return false
	}
	s := a.slot(id.idx)
	if s.gen != id.gen {
		return false
	}
	s.req = rpcproto.Request{} // drop Payload/OnExecute/sidecar references
	s.gen++                    // live (odd) -> free (even): outstanding handles go stale
	//altolint:allow hotalloc amortized free-list growth; bounded by the high-water mark of live requests
	a.free = append(a.free, RequestID{idx: id.idx})
	a.live--
	return true
}

// ReleaseReuse recycles the slot like Release but keeps the payload's
// backing array (truncated to length zero), so the next UnmarshalInto
// on the reissued slot appends into recycled capacity instead of
// allocating. Use it when the arena owner also owns the payload bytes
// (the live TCP data plane); Release's drop-all-references semantics
// remain right for the simulator, where payloads may alias caller
// memory.
//
//altolint:hotpath
func (a *Arena) ReleaseReuse(id RequestID) bool {
	if !a.owns(id) {
		return false
	}
	s := a.slot(id.idx)
	if s.gen != id.gen {
		return false
	}
	p := s.req.Payload[:0]
	s.req = rpcproto.Request{} // drop OnExecute and scheduling state
	s.req.Payload = p          // keep the payload capacity for the next decode
	s.gen++                    // live (odd) -> free (even): outstanding handles go stale
	//altolint:allow hotalloc amortized free-list growth; bounded by the high-water mark of live requests
	a.free = append(a.free, RequestID{idx: id.idx})
	a.live--
	return true
}

// Live returns the number of acquired-but-not-released requests.
func (a *Arena) Live() int { return a.live }

// owns reports whether id could have been issued by this arena: a live
// generation (odd, non-zero) and an index inside the slab.
func (a *Arena) owns(id RequestID) bool {
	if id.gen == 0 || id.gen%2 == 0 || id.idx < 0 {
		return false
	}
	c := int(id.idx) / chunkSize
	if c >= len(a.chunks) {
		return false
	}
	return int(id.idx)%chunkSize < len(a.chunks[c])
}

func (a *Arena) slot(idx int32) *slot {
	return &a.chunks[idx/chunkSize][idx%chunkSize]
}
