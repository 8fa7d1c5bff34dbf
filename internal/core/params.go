// Package core implements the paper's primary contribution: the
// ALTOCUMULUS scheduler — a decentralized two-tier runtime (global
// d-FCFS across manager-led groups, local c-FCFS within a group) that
// proactively migrates predicted-SLO-violating RPCs between manager
// tiles using the hardware messaging mechanism of internal/hwmsg over
// the NoC of internal/topo (§III–§VI).
package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// LocalDispatch selects how a manager hands requests to its workers.
type LocalDispatch int

const (
	// DispatchHardware is the ACint configuration: a hardware-terminated
	// integrated NIC pushes requests to workers at LLC speed without
	// occupying the manager core.
	DispatchHardware LocalDispatch = iota
	// DispatchSoftware is the ACrss configuration: the manager core
	// dispatches through the cache-coherence protocol (70 cycles per
	// message), serializing on the manager — its throughput ceiling is
	// ~28 MRPS at 2 GHz, as the paper notes.
	DispatchSoftware
)

func (d LocalDispatch) String() string {
	if d == DispatchSoftware {
		return "software"
	}
	return "hardware"
}

// SelectPolicy chooses which queued requests a MIGRATE carries — one of
// the "wide range of new scheduling policies" §XI says the software
// runtime can host without hardware changes.
type SelectPolicy int

const (
	// SelectTail migrates from the NetRX tail: the deepest-queued
	// requests, i.e. the predicted violators (the paper's policy).
	SelectTail SelectPolicy = iota
	// SelectHead migrates from the head: the oldest requests, which are
	// closest to their deadlines but also closest to being served —
	// included as a counterpoint policy for ablation.
	SelectHead
)

func (p SelectPolicy) String() string {
	if p == SelectHead {
		return "head"
	}
	return "tail"
}

// ForwardPolicy chooses the destination group when a finished phase of
// a multi-phase request must move to another core class (DESIGN.md
// §15). All policies fall back to staying local when no group serves
// the next phase's class.
type ForwardPolicy int

const (
	// ForwardStayLocal continues the next phase on the same worker even
	// when its class differs (run-to-completion; affine speedups apply
	// only when the classes happen to match). The degenerate baseline.
	ForwardStayLocal ForwardPolicy = iota
	// ForwardLeastLoaded enqueues the next phase onto the shortest NetRX
	// among the groups of its class (JSQ-in-class).
	ForwardLeastLoaded
	// ForwardPowK samples ForwardK groups of the class and picks the
	// shortest (pow-k-in-class, the rack dispatch machinery reused).
	ForwardPowK
)

func (f ForwardPolicy) String() string {
	switch f {
	case ForwardLeastLoaded:
		return "least-loaded"
	case ForwardPowK:
		return "pow-k"
	default:
		return "stay-local"
	}
}

// Params configures an ALTOCUMULUS scheduler. §III-A lists the system
// parameters (Concurrency, Period, Bulk); the rest describe the machine
// and enable the ablations DESIGN.md calls out.
type Params struct {
	Groups          int // number of manager cores (N)
	WorkersPerGroup int // worker cores per group (k)

	Period      sim.Time // interval between migration decisions (P)
	Bulk        int      // max requests batched per migration
	Concurrency int      // concurrent flows per migration

	MRCapacity   int // migration-register slots per manager tile
	FIFOCapacity int // send/receive FIFO descriptor entries (paper: 16)
	WorkerDepth  int // max outstanding requests per worker (1 = dispatch to idle only)

	SLOMultiplier float64 // L: SLO = L x mean service time

	Iface  fabric.Interface // ISA vs MSR software/hardware interface
	Local  LocalDispatch    // ACint vs ACrss local dispatch
	Select SelectPolicy     // which queued requests MIGRATEs carry

	// Ablation switches.
	SoftwareMessaging bool // case study 1: no hardware mechanism; UPDATE/MIGRATE travel via shared caches
	DisableMigration  bool // runtime ticks but never migrates (baseline replay)
	DisablePatterns   bool // threshold-only prediction, no Hill/Valley/Pairing
	DisableGuard      bool // drop Algorithm 1 line 8's q[j]-S < q[dst]+S check
	AllowRemigration  bool // lift the migrate-at-most-once restriction
	NaiveThreshold    bool // predict with T = k*L+1 instead of the Erlang-C model (§IV's naive baseline)

	// Heterogeneous core groups (DESIGN.md §15). GroupClass assigns a
	// hardware class to each group (nil = all class 0, the homogeneous
	// configuration; len must equal Groups and every class in 0..max
	// must be served by at least one group). Migration (UPDATE/MIGRATE)
	// is scoped to same-class peers; multi-phase requests move between
	// classes through the forwarding seam instead.
	GroupClass []uint8
	// Forward picks the destination group when a finished phase needs
	// another class. ForwardK is the pow-k sample size (default 2) and
	// ForwardSeed seeds its sampling RNG (the server harness defaults
	// it to the run seed).
	Forward     ForwardPolicy
	ForwardK    int
	ForwardSeed uint64
	// ClassPeriods optionally overrides the manager period per class
	// (len = number of classes, every entry > 0). Nil keeps Period for
	// every class.
	ClassPeriods []sim.Time
}

// GroupWidth is the paper's tile width: one manager core plus fifteen
// workers per group (§III). Machine sizes are expressed in multiples of
// it.
const GroupWidth = 16

// GroupLayout resolves a total core count into (groups,
// workersPerGroup) under the paper's fixed 16-core tiling. Counts that
// do not tile evenly are rejected with the remainder named, so a bad
// -cores flag fails loudly instead of silently stranding cores.
func GroupLayout(cores int) (groups, workersPerGroup int, err error) {
	if cores < GroupWidth {
		return 0, 0, fmt.Errorf("core: %d cores cannot form a %d-core group (need a positive multiple of %d)",
			cores, GroupWidth, GroupWidth)
	}
	if rem := cores % GroupWidth; rem != 0 {
		return 0, 0, fmt.Errorf("core: %d cores does not tile into %d-core groups: %d cores left over (use a multiple of %d)",
			cores, GroupWidth, rem, GroupWidth)
	}
	return cores / GroupWidth, GroupWidth - 1, nil
}

// DefaultParams returns the configuration the paper found robust for
// synthetic traffic (§VIII-C): Period 200 ns, Bulk 16, Concurrency 8.
func DefaultParams(groups, workersPerGroup int) Params {
	return Params{
		Groups:          groups,
		WorkersPerGroup: workersPerGroup,
		Period:          200 * sim.Nanosecond,
		Bulk:            16,
		Concurrency:     8,
		MRCapacity:      64,
		FIFOCapacity:    16,
		WorkerDepth:     1,
		SLOMultiplier:   10,
		Iface:           fabric.InterfaceISA,
		Local:           DispatchHardware,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case p.Groups < 1:
		return fmt.Errorf("core: Groups = %d, need >= 1", p.Groups)
	case p.WorkersPerGroup < 1:
		return fmt.Errorf("core: WorkersPerGroup = %d, need >= 1", p.WorkersPerGroup)
	case p.Period <= 0:
		return fmt.Errorf("core: Period = %v, need > 0", p.Period)
	case p.Bulk < 1:
		return fmt.Errorf("core: Bulk = %d, need >= 1", p.Bulk)
	case p.Concurrency < 1:
		return fmt.Errorf("core: Concurrency = %d, need >= 1", p.Concurrency)
	case p.MRCapacity < 1 || p.FIFOCapacity < 1:
		return fmt.Errorf("core: MR/FIFO capacities must be >= 1")
	case p.WorkerDepth < 1 || p.WorkerDepth > maxWorkerDepth:
		return fmt.Errorf("core: WorkerDepth = %d, need 1..%d", p.WorkerDepth, maxWorkerDepth)
	case p.SLOMultiplier <= 0:
		return fmt.Errorf("core: SLOMultiplier = %v, need > 0", p.SLOMultiplier)
	}
	if p.GroupClass != nil {
		if len(p.GroupClass) != p.Groups {
			return fmt.Errorf("core: GroupClass has %d entries for %d groups", len(p.GroupClass), p.Groups)
		}
		seen := make([]bool, p.NumClasses())
		for _, c := range p.GroupClass {
			seen[c] = true
		}
		for c, ok := range seen {
			if !ok {
				return fmt.Errorf("core: class %d has no serving group (classes must be dense 0..%d)", c, len(seen)-1)
			}
		}
	}
	if p.ForwardK < 0 {
		return fmt.Errorf("core: ForwardK = %d, need >= 0", p.ForwardK)
	}
	if p.ClassPeriods != nil {
		if n := p.NumClasses(); len(p.ClassPeriods) != n {
			return fmt.Errorf("core: ClassPeriods has %d entries for %d classes", len(p.ClassPeriods), n)
		}
		for c, d := range p.ClassPeriods {
			if d <= 0 {
				return fmt.Errorf("core: ClassPeriods[%d] = %v, need > 0", c, d)
			}
		}
	}
	return nil
}

// NumClasses returns the number of core classes: max(GroupClass)+1, or
// 1 when GroupClass is nil (homogeneous).
func (p Params) NumClasses() int {
	max := uint8(0)
	for _, c := range p.GroupClass {
		if c > max {
			max = c
		}
	}
	return int(max) + 1
}

// ClassOf returns the class of group g.
func (p Params) ClassOf(g int) uint8 {
	if p.GroupClass == nil {
		return 0
	}
	return p.GroupClass[g]
}

// TotalCores returns the core count including managers.
func (p Params) TotalCores() int { return p.Groups * (p.WorkersPerGroup + 1) }

// Stats counts runtime and messaging activity for the effectiveness and
// overhead analyses (Fig. 11, Fig. 12).
type Stats struct {
	Ticks         uint64 // runtime periods executed (across managers)
	UpdatesSent   uint64 // UPDATE messages injected
	Migrations    uint64 // MIGRATE messages injected
	MigratedReqs  uint64 // requests that changed group
	NackedBatches uint64 // MIGRATE rejected at destination
	NackedReqs    uint64 // requests bounced back by NACK
	MRFullAborts  uint64 // migrations aborted: MR staging full
	FIFOFull      uint64 // migrations aborted: send FIFO full
	GuardSkips    uint64 // destinations skipped by Algorithm 1 line 8
	PredictedReqs uint64 // requests marked as predicted SLO violators
	HillEvents    uint64
	ValleyEvents  uint64
	PairingEvents uint64
	ThresholdEvts uint64 // threshold-exceeded trigger events

	PhaseForwards uint64 // phase boundaries forwarded to another group
	PhaseStays    uint64 // phase boundaries continued on the same worker
}
