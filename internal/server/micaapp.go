package server

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/mica"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// MICAApp models the MICA key-value store on the simulated server (§IX).
// The simulator needs two things from MICA, and it models both without
// running a store:
//
//   - EREW placement: a request's Conn is its key's partition, the
//     store's own rule (mica.PartitionOf of mica.Hash) applied to the
//     canonical key, so SteerDirect pins each partition to its owner
//     manager.
//   - The on-CPU duration: mica.OpCost (or FixedService for the
//     eRPC-style fixed-service experiments), plus Cost.RemotePenalty when
//     a migrated request runs away from its partition's owner.
//
// The real store serves the same GET/SET mix on the live plane
// (internal/live's KV handler), where its data path is measured.
type MICAApp struct {
	Cost mica.OpCost

	Keys     int     // key-space size
	KeyLen   int     // bytes per key (paper: 16), fixed by NewMICA
	ValLen   int     // bytes per value (paper: 512)
	ScanFrac float64 // SCAN fraction of all requests (Fig. 14: 0.005)

	// FixedService, when non-zero, overrides the op cost model with a
	// constant service time (Fig. 13a's 850 ns eRPC workload).
	FixedService sim.Time

	// HotFrac sends that fraction of requests to a hot set of the first
	// micaHotKeys keys, modelling the key skew of real KV workloads. Hot
	// keys hash to specific partitions, skewing group load — the
	// imbalance proactive migration corrects.
	HotFrac float64

	// parts is the EREW partition count. key is the canonical-key
	// scratch, KeyLen bytes: the key for id is id in the first 8 bytes,
	// little endian, padded with 'k', so Prepare writes only the id
	// before it hashes the key. execute is the OnExecute hook of every
	// request, bound once so Prepare installs it without allocating a
	// closure. The app belongs to one simulation at a time.
	parts   int
	key     []byte
	execute func(*rpcproto.Request)
}

const (
	micaGetFrac = 0.5 // GET fraction of the GET/SET mix (paper: 0.5)
	micaHotKeys = 64  // size of the HotFrac hot key set
)

// NewMICA builds the app for a store of the given EREW partition count.
func NewMICA(partitions int, cost mica.OpCost, keys, keyLen, valLen int) (*MICAApp, error) {
	if partitions < 1 || keys < 1 || keyLen < 8 || valLen < 1 {
		return nil, fmt.Errorf("server: bad MICA shape partitions=%d keys=%d keyLen=%d valLen=%d",
			partitions, keys, keyLen, valLen)
	}
	a := &MICAApp{
		Cost: cost, Keys: keys, KeyLen: keyLen, ValLen: valLen,
		parts: partitions, key: bytes.Repeat([]byte{'k'}, keyLen),
	}
	a.execute = a.onExecute
	return a, nil
}

// NewMICAApp is NewMICA with the partition count of store, which it
// reads and does not keep. It exists for the repository benchmark
// (bench/sim.go), which builds its apps this way.
func NewMICAApp(store *mica.Store, cost mica.OpCost, keys, keyLen, valLen int) (*MICAApp, error) {
	return NewMICA(store.Partitions(), cost, keys, keyLen, valLen)
}

// Prepare implements App.
func (a *MICAApp) Prepare(r *rpcproto.Request, rng *sim.RNG) {
	keyID := uint64(rng.Intn(a.Keys))
	if a.HotFrac > 0 && rng.Bernoulli(a.HotFrac) {
		keyID = uint64(rng.Intn(min(micaHotKeys, a.Keys)))
	}
	switch {
	case a.ScanFrac > 0 && rng.Bernoulli(a.ScanFrac):
		r.Op = rpcproto.OpScan
	case rng.Bernoulli(micaGetFrac):
		r.Op = rpcproto.OpGet
	default:
		r.Op = rpcproto.OpSet
	}
	r.Size = 16 + a.KeyLen
	if r.Op == rpcproto.OpSet {
		r.Size += a.ValLen
	}
	binary.LittleEndian.PutUint64(a.key, keyID)
	r.Conn = uint32(mica.PartitionOf(mica.Hash(a.key), a.parts))

	if a.FixedService > 0 {
		r.Service = a.FixedService
	} else {
		r.Service = a.Cost.Time(r.Op, a.ValLen, false)
	}
	r.OnExecute = a.execute
}

// onExecute charges the EREW remote access (§IX-C) when a core first
// runs the request: a migrated request executes away from its
// partition's owner group. OnExecute runs before the core reads
// Service, so the penalty is charged in full.
func (a *MICAApp) onExecute(r *rpcproto.Request) {
	if r.Migrated {
		r.Service += a.Cost.RemotePenalty
	}
}

// MeanService returns the analytical mean service time of the configured
// mix, for SLO derivation.
func (a *MICAApp) MeanService() sim.Time {
	if a.FixedService > 0 {
		return a.FixedService
	}
	get := a.Cost.Time(rpcproto.OpGet, a.ValLen, false)
	set := a.Cost.Time(rpcproto.OpSet, a.ValLen, false)
	scan := a.Cost.Time(rpcproto.OpScan, 0, false)
	gs := micaGetFrac*float64(get) + (1-micaGetFrac)*float64(set)
	return sim.Time((1-a.ScanFrac)*gs + a.ScanFrac*float64(scan))
}

var _ App = (*MICAApp)(nil)
