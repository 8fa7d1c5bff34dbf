package server

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/dist"
	"repro/internal/mica"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// MICAApp binds the MICA key-value store to the simulated server (§IX).
// Requests carry real keys; GET/SET/SCAN handlers execute against the
// real store when a core first runs the request, and the modelled on-CPU
// duration comes from mica.OpCost (or FixedService for the eRPC-style
// fixed-service experiments). Connection ids are set to the key's EREW
// partition so SteerDirect pins each partition to its owner manager.
type MICAApp struct {
	Store *mica.Store
	Cost  mica.OpCost

	Keys     int     // key-space size
	KeyLen   int     // bytes per key (paper: 16)
	ValLen   int     // bytes per value (paper: 512)
	GetFrac  float64 // GET fraction of the GET/SET mix (paper: 0.5)
	ScanFrac float64 // SCAN fraction of all requests (Fig. 14: 0.005)

	// FixedService, when non-zero, overrides the op cost model with a
	// constant service time (Fig. 13a's 850 ns eRPC workload).
	FixedService sim.Time

	// HotFrac sends that fraction of requests to a small hot key set
	// (HotKeys keys, default 64), modelling the key skew of real KV
	// workloads. Hot keys hash to specific partitions, skewing group
	// load — the imbalance proactive migration corrects.
	HotFrac float64
	HotKeys int

	// Zipf, when non-nil, draws key ranks from a Zipf popularity curve
	// (YCSB-style) instead of uniformly. Composes with HotFrac.
	Zipf *dist.Zipf

	// ScanExecuteCap bounds the real entries visited per SCAN so wall
	// time stays reasonable; the modelled duration still reflects the
	// full Cost.ScanEntries.
	ScanExecuteCap int

	// execute is the OnExecute hook of every request, bound once so
	// Prepare installs it without allocating a closure; val is the value
	// scratch its GETs copy into and its SETs write from. The app, like
	// the store it drives, belongs to one simulation at a time.
	execute func(*rpcproto.Request)
	val     []byte
}

// NewMICAApp builds the app and preloads every key with an initial value.
func NewMICAApp(store *mica.Store, cost mica.OpCost, keys, keyLen, valLen int) (*MICAApp, error) {
	if keys < 1 || keyLen < 8 || valLen < 1 {
		return nil, fmt.Errorf("server: bad MICA shape keys=%d keyLen=%d valLen=%d", keys, keyLen, valLen)
	}
	a := &MICAApp{
		Store: store, Cost: cost,
		Keys: keys, KeyLen: keyLen, ValLen: valLen,
		GetFrac: 0.5, ScanExecuteCap: 256,
	}
	a.execute = a.onExecute
	a.val = make([]byte, valLen)
	key := make([]byte, keyLen)
	for i := 0; i < keys; i++ {
		a.fillKey(key, uint64(i))
		if err := store.Set(key, a.val); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// fillKey writes the canonical fixed-width key for id into dst.
func (a *MICAApp) fillKey(dst []byte, id uint64) {
	for i := range dst {
		dst[i] = 'k'
	}
	binary.LittleEndian.PutUint64(dst[:8], id)
}

// Prepare implements App.
func (a *MICAApp) Prepare(r *rpcproto.Request, rng *sim.RNG) {
	keyID := uint64(rng.Intn(a.Keys))
	if a.Zipf != nil {
		keyID = uint64(a.Zipf.Rank(rng) % a.Keys)
	}
	if a.HotFrac > 0 && rng.Bernoulli(a.HotFrac) {
		hot := a.HotKeys
		if hot <= 0 {
			hot = 64
		}
		if hot > a.Keys {
			hot = a.Keys
		}
		keyID = uint64(rng.Intn(hot))
	}
	key := make([]byte, a.KeyLen)
	a.fillKey(key, keyID)
	switch {
	case a.ScanFrac > 0 && rng.Bernoulli(a.ScanFrac):
		r.Op = rpcproto.OpScan
	case rng.Bernoulli(a.GetFrac):
		r.Op = rpcproto.OpGet
	default:
		r.Op = rpcproto.OpSet
	}
	r.Payload = key
	r.Size = 16 + a.KeyLen
	if r.Op == rpcproto.OpSet {
		r.Size += a.ValLen
	}
	r.Conn = uint32(a.Store.Partition(key))

	if a.FixedService > 0 {
		r.Service = a.FixedService
	} else {
		r.Service = a.Cost.Time(r.Op, a.ValLen, false)
	}
	r.OnExecute = a.execute
}

// onExecute does the request's real work against the store when a core
// first runs it. What it needs from Prepare rides on the request: the
// key is the payload, and the SET fill byte is the key id's low byte,
// which fillKey put first.
func (a *MICAApp) onExecute(r *rpcproto.Request) {
	switch r.Op {
	case rpcproto.OpGet:
		a.val, _ = a.Store.AppendGet(a.val[:0], r.Payload)
	case rpcproto.OpSet:
		a.val = slices.Grow(a.val[:0], a.ValLen)[:a.ValLen]
		fill := r.Payload[0]
		for i := range a.val {
			a.val[i] = fill
		}
		// Set only fails for oversize entries, which Prepare's shape
		// validation precludes.
		_ = a.Store.Set(r.Payload, a.val)
	case rpcproto.OpScan:
		a.Store.Scan(a.Store.Partition(r.Payload), a.ScanExecuteCap, nil)
	}
	// EREW: a migrated request executes away from the partition's
	// owner group and pays a remote access (§IX-C). OnExecute runs
	// before the core reads Service, so the penalty is charged in full.
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
	gs := a.GetFrac*float64(get) + (1-a.GetFrac)*float64(set)
	return sim.Time((1-a.ScanFrac)*gs + a.ScanFrac*float64(scan))
}

var _ App = (*MICAApp)(nil)
