package mica

import (
	"repro/internal/fabric"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// OpCost models the on-CPU duration of MICA operations for the simulator,
// matching the paper's description (§IX-B): a SET loads the value from
// the LLC or memory and writes it to the DRAM-resident log; a GET fetches
// the value from the log and writes it to the response buffer, usually
// taking longer than a SET. Scan visits ScanEntries log entries.
type OpCost struct {
	Cost        fabric.CostModel
	GetBase     sim.Time // index probe + control
	SetBase     sim.Time
	PerByte     sim.Time // copy bandwidth cost per payload byte
	ScanEntries int      // entries visited by one SCAN
	PerEntry    sim.Time // per-entry SCAN cost
	// RemotePenalty is charged when an EREW request executes on a worker
	// after migration, requiring a remote cache access to the key's owner
	// partition (§IX-C: the application-level concurrency overhead of
	// migrated RPCs).
	RemotePenalty sim.Time
}

// DefaultOpCost returns costs tuned to the paper's anchor points: ~50 ns
// GET/SET for small cached values (Fig. 14's nanoRPC workload) and
// ~50 µs SCANs.
func DefaultOpCost(cost fabric.CostModel) OpCost {
	return OpCost{
		Cost:          cost,
		GetBase:       38 * sim.Nanosecond,
		SetBase:       30 * sim.Nanosecond,
		PerByte:       20 * sim.Picosecond,
		ScanEntries:   2000,
		PerEntry:      25 * sim.Nanosecond,
		RemotePenalty: cost.LLCAccess,
	}
}

// Time returns the modelled duration of op touching payload bytes.
// migrated applies the EREW remote-access penalty.
func (o OpCost) Time(op rpcproto.Op, payload int, migrated bool) sim.Time {
	var d sim.Time
	switch op {
	case rpcproto.OpGet:
		d = o.GetBase + sim.Time(payload)*o.PerByte
	case rpcproto.OpSet:
		d = o.SetBase + sim.Time(payload)*o.PerByte
	case rpcproto.OpScan:
		d = sim.Time(o.ScanEntries) * o.PerEntry
	default:
		d = o.GetBase
	}
	if migrated {
		d += o.RemotePenalty
	}
	return d
}
