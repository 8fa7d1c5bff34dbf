package live

import (
	"encoding/binary"
	"sync"

	"repro/internal/mica"
	"repro/internal/rpcproto"
)

// EchoHandler answers every request with its own payload. It is the
// loopback workload of the soak tests: zero service time beyond the
// scheduling path itself.
type EchoHandler struct{}

func (EchoHandler) Serve(r *rpcproto.Request) ([]byte, rpcproto.Status) {
	return r.Payload, rpcproto.StatusOK
}

// SpinHandler burns roughly Iters arithmetic iterations per request
// before echoing, a stand-in for a fixed service time without sleeping
// (sleep would free the worker's OS thread and hide queueing).
type SpinHandler struct {
	Iters int
}

func (h SpinHandler) Serve(r *rpcproto.Request) ([]byte, rpcproto.Status) {
	acc := uint64(r.ID)
	for i := 0; i < h.Iters; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	if acc == 0 { // defeat dead-code elimination; never taken in practice
		return nil, rpcproto.StatusError
	}
	return r.Payload, rpcproto.StatusOK
}

// KVHandler serves GET/SET/SCAN against a MICA store. The store's
// concurrency model is EREW — one core per partition — so the handler
// serializes per partition with a mutex, the software analogue of the
// paper's exclusive partition ownership; cross-partition requests still
// run fully in parallel.
type KVHandler struct {
	store *mica.Store
	locks []sync.Mutex
	// ScanMax bounds entries visited per SCAN (default 128).
	ScanMax int
}

// NewKVHandler wraps a store for live serving.
func NewKVHandler(store *mica.Store) *KVHandler {
	return &KVHandler{
		store:   store,
		locks:   make([]sync.Mutex, store.Partitions()),
		ScanMax: 128,
	}
}

// Serve implements Handler: AppendServe into a fresh slice.
func (h *KVHandler) Serve(r *rpcproto.Request) ([]byte, rpcproto.Status) {
	return h.AppendServe(nil, r)
}

// AppendServe implements AppendHandler. A GET copies the value straight
// from the store's log into dst under the partition lock; the key is
// hashed once, for the lock and the store alike.
//
//altolint:hotpath
func (h *KVHandler) AppendServe(dst []byte, r *rpcproto.Request) ([]byte, rpcproto.Status) {
	switch r.Op {
	case rpcproto.OpGet:
		hash := mica.Hash(r.Payload)
		lock := &h.locks[h.store.PartitionOf(hash)]
		lock.Lock()
		out, ok := h.store.AppendGetHashed(dst, hash, r.Payload)
		lock.Unlock()
		if !ok {
			return out, rpcproto.StatusNotFound
		}
		return out, rpcproto.StatusOK
	case rpcproto.OpSet:
		// SET payload: 2-byte key length, key, value.
		if len(r.Payload) < 2 {
			return dst, rpcproto.StatusError
		}
		klen := int(binary.LittleEndian.Uint16(r.Payload[0:2]))
		if 2+klen > len(r.Payload) {
			return dst, rpcproto.StatusError
		}
		key, val := r.Payload[2:2+klen], r.Payload[2+klen:]
		hash := mica.Hash(key)
		lock := &h.locks[h.store.PartitionOf(hash)]
		lock.Lock()
		err := h.store.SetHashed(hash, key, val)
		lock.Unlock()
		if err != nil {
			return dst, rpcproto.StatusError
		}
		return dst, rpcproto.StatusOK
	case rpcproto.OpScan:
		// SCAN payload: 1-byte partition index hint.
		p := 0
		if len(r.Payload) > 0 {
			p = int(r.Payload[0]) % len(h.locks)
		}
		lock := &h.locks[p]
		lock.Lock()
		n := h.store.Scan(p, h.ScanMax, nil)
		lock.Unlock()
		return binary.LittleEndian.AppendUint32(dst, uint32(n)), rpcproto.StatusOK
	default:
		//altolint:allow hotalloc grows the caller's scratch to the largest echoed payload once; the steady state reuses its capacity
		return append(dst, r.Payload...), rpcproto.StatusOK
	}
}

// EncodeSet builds the SET payload for key/value.
func EncodeSet(key, value []byte) []byte {
	out := make([]byte, 2+len(key)+len(value))
	binary.LittleEndian.PutUint16(out[0:2], uint16(len(key)))
	copy(out[2:], key)
	copy(out[2+len(key):], value)
	return out
}
