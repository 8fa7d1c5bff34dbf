package live

import (
	"net"
	"sync"

	"repro/internal/rpcproto"
)

// respRing is the per-connection response path: a bounded ring of
// recycled frame buffers that worker completions encode into and one
// writer goroutine flushes as a single vectored write (net.Buffers →
// writev) whenever it finds backlog. It replaces the old respMsg
// channel + encode-per-Write scheme: completions no longer allocate a
// message or a frame, and a backlog of N responses costs one syscall,
// not N.
//
// Invariants:
//   - frames leave in completion order (the wire may interleave
//     connections' requests, but one connection's responses are written
//     in the order their workers finished them);
//   - at most limit frames are queued or in the writer's hands;
//     append blocks past that, so client-side TCP backpressure stalls
//     the worker instead of buffering unboundedly (the old channel's
//     semantics, kept deliberately);
//   - after a write error the ring keeps accepting and dropping frames
//     so completion callbacks never block on a dead connection.
type respRing struct {
	mu      sync.Mutex
	more    sync.Cond // frames queued, or closed
	space   sync.Cond // frames retired, or failed/closed
	free    [][]byte  // recycled frame buffers
	pending [][]byte  // encoded frames awaiting the writer, completion order
	queued  int       // frames in pending plus in the writer's current batch
	limit   int
	closed  bool
	failed  bool
}

// respRingLimit bounds queued response frames per connection; the old
// channel held 512 messages, so keep that backpressure point.
const respRingLimit = 512

func newRespRing() *respRing {
	rr := &respRing{limit: respRingLimit}
	rr.more.L = &rr.mu
	rr.space.L = &rr.mu
	return rr
}

// append encodes one response frame into a recycled buffer and queues
// it for the writer. It blocks while the ring is at its limit and the
// connection is still healthy.
//
//altolint:hotpath
func (rr *respRing) append(id uint64, st rpcproto.Status, payload []byte) {
	rr.mu.Lock()
	for rr.queued >= rr.limit && !rr.closed && !rr.failed {
		rr.space.Wait()
	}
	if rr.closed || rr.failed {
		// Teardown or a dead connection: drop the frame, never block.
		rr.mu.Unlock()
		return
	}
	var buf []byte
	if n := len(rr.free); n > 0 {
		buf = rr.free[n-1][:0]
		rr.free = rr.free[:n-1]
	} else {
		//altolint:allow hotalloc one frame buffer per ring slot until the ring reaches its high-water mark; steady state recycles
		buf = make([]byte, 0, 256)
	}
	buf, err := rpcproto.AppendResponse(buf, id, st, payload)
	if err != nil {
		// Oversized payload: the handler produced something unencodable.
		// Drop the frame (the client times out on this id) but keep the
		// buffer; the connection itself is still healthy.
		//altolint:allow hotalloc amortized free-list growth; bounded by limit
		rr.free = append(rr.free, buf)
		rr.mu.Unlock()
		return
	}
	//altolint:allow hotalloc amortized pending-slice growth; bounded by limit
	rr.pending = append(rr.pending, buf)
	rr.queued++
	rr.more.Signal()
	rr.mu.Unlock()
}

// forward re-frames one already-encoded request frame as a relayed
// (version-2) copy carrying newID and origin, and queues it for the
// writer: the relay's outbound hot path, sharing append's buffer
// recycling and backpressure contract. The frame bytes are copied
// before forward returns, so the caller may reuse its read window
// immediately. Returns false when the ring dropped the frame at
// teardown or after a write failure; a non-nil error means the frame
// itself was unrelayable (malformed, or at the hop limit) and the
// caller should tear down its connection.
//
//altolint:hotpath
func (rr *respRing) forward(frame []byte, newID uint64, origin uint32) (bool, error) {
	rr.mu.Lock()
	for rr.queued >= rr.limit && !rr.closed && !rr.failed {
		rr.space.Wait()
	}
	if rr.closed || rr.failed {
		rr.mu.Unlock()
		return false, nil
	}
	var buf []byte
	if n := len(rr.free); n > 0 {
		buf = rr.free[n-1][:0]
		rr.free = rr.free[:n-1]
	} else {
		//altolint:allow hotalloc one frame buffer per ring slot until the ring reaches its high-water mark; steady state recycles
		buf = make([]byte, 0, 256)
	}
	buf, err := rpcproto.AppendForwarded(buf, frame, newID, origin)
	if err != nil {
		//altolint:allow hotalloc amortized free-list growth; bounded by limit
		rr.free = append(rr.free, buf)
		rr.mu.Unlock()
		return false, err
	}
	//altolint:allow hotalloc amortized pending-slice growth; bounded by limit
	rr.pending = append(rr.pending, buf)
	rr.queued++
	rr.more.Signal()
	rr.mu.Unlock()
	return true, nil
}

// close wakes the writer to flush whatever is pending and exit, and
// unblocks any completion stalled on a full ring.
func (rr *respRing) close() {
	rr.mu.Lock()
	rr.closed = true
	rr.more.Signal()
	rr.space.Broadcast()
	rr.mu.Unlock()
}

// fail marks the connection dead: subsequent appends drop immediately.
func (rr *respRing) fail() {
	rr.mu.Lock()
	rr.failed = true
	rr.space.Broadcast()
	rr.mu.Unlock()
}

// writeLoop is the per-connection writer goroutine: it swaps out the
// whole backlog under the lock, writes it as one vectored write outside
// the lock, then recycles the frame buffers. Returns after close once
// the backlog is drained.
func (rr *respRing) writeLoop(conn net.Conn) {
	batch := make([][]byte, 0, 64) // writer-owned; ping-pongs with pending
	// WriteTo consumes the slice it is called on, capacity included, so it
	// is handed a header over a backing the writer keeps: vec is refilled
	// per batch and bufs re-pointed at its start.
	var vec [][]byte
	var bufs net.Buffers
	for {
		rr.mu.Lock()
		for _, b := range batch {
			rr.free = append(rr.free, b)
		}
		rr.queued -= len(batch)
		if len(batch) > 0 {
			rr.space.Broadcast()
		}
		for len(rr.pending) == 0 && !rr.closed {
			rr.more.Wait()
		}
		if len(rr.pending) == 0 { // closed and drained
			rr.mu.Unlock()
			return
		}
		batch, rr.pending = rr.pending, batch[:0]
		failed := rr.failed
		rr.mu.Unlock()

		if !failed {
			vec = append(vec[:0], batch...)
			bufs = vec
			if _, err := bufs.WriteTo(conn); err != nil {
				rr.fail()
			}
		}
	}
}
