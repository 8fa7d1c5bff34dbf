package dist

import (
	"fmt"
	"strings"

	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// PhaseSpec is one stage of a multi-phase RPC (DESIGN.md §15): its
// service-time distribution on a general-purpose core, the core class
// it runs best on, and the xmp_sched_sim-style heterogeneity factors —
// a speedup on the affine class and a one-way offload (transfer) cost
// charged when the phase is forwarded to another group.
type PhaseSpec struct {
	Name string
	Dist ServiceDist

	// Class is the core class this phase is affine to (0 = general).
	Class uint8
	// Speedup divides the drawn base duration when the phase executes
	// on a core of its affine class. Values <= 0 or == 1 are neutral.
	Speedup float64
	// Offload is the transfer cost paid when the finished predecessor
	// phase is enqueued onto a different group for this phase.
	Offload sim.Time
}

// neutral reports whether the spec carries no heterogeneity: class 0,
// no speedup, no offload cost.
func (p PhaseSpec) neutral() bool {
	return p.Class == 0 && (p.Speedup <= 0 || p.Speedup == 1) && p.Offload == 0
}

// PhaseProfile is a request lifecycle as a chain of phases. A profile
// with one neutral phase is the degenerate form of a plain ServiceDist:
// Apply draws exactly one sample from the same stream and the executor
// takes the single-shot path, so runs are byte-identical (the
// refactor's safety net, locked by TestPhaseParity).
type PhaseProfile struct {
	Phases []PhaseSpec
	label  string
}

// NewPhaseProfile validates and builds a profile. It panics on an
// empty chain, a chain beyond rpcproto.MaxPhases, or a nil phase
// distribution — profiles are constructed from literals in experiment
// definitions, so misuse is a programming error.
func NewPhaseProfile(label string, phases ...PhaseSpec) *PhaseProfile {
	if len(phases) == 0 {
		panic("dist: PhaseProfile needs at least one phase")
	}
	if len(phases) > rpcproto.MaxPhases {
		panic(fmt.Sprintf("dist: %d phases exceed rpcproto.MaxPhases = %d", len(phases), rpcproto.MaxPhases))
	}
	for i, p := range phases {
		if p.Dist == nil {
			panic(fmt.Sprintf("dist: phase %d (%q) has no distribution", i, p.Name))
		}
	}
	return &PhaseProfile{Phases: phases, label: label}
}

// Len returns the number of phases.
func (p *PhaseProfile) Len() int { return len(p.Phases) }

// Apply draws the profile onto a freshly generated request: one base
// sample per phase, in phase order (the RNG sequence golden traces
// lock down), affine durations pre-scaled by the speedup, and Service
// set to the base sum. A one-phase profile consumes exactly one draw —
// the same stream a bare ServiceDist would. The vectors go to r's phase
// sidecar: the server's generator attaches an arena-owned one first, and
// a request that comes without gets one from the heap.
//
//altolint:hotpath
func (p *PhaseProfile) Apply(r *rpcproto.Request, rng *sim.RNG) {
	r.EnsurePhases()
	r.NumPhases = uint8(len(p.Phases))
	var total sim.Time
	for i, ph := range p.Phases {
		base := ph.Dist.Sample(rng)
		acc := base
		if ph.Speedup > 0 && ph.Speedup != 1 {
			acc = sim.Time(float64(base) / ph.Speedup)
		}
		r.PhaseSvc[i] = base
		r.PhaseAcc[i] = acc
		r.PhaseOffload[i] = ph.Offload
		r.PhaseClass[i] = ph.Class
		total += base
	}
	r.Service = total
}

// Sample implements ServiceDist: the total base duration of one drawn
// chain (len(Phases) draws). Servers apply profiles through Apply —
// Sample exists so rate/load helpers (LoadForRate) and dispersion
// tooling treat a profile like any other distribution.
func (p *PhaseProfile) Sample(rng *sim.RNG) sim.Time {
	var total sim.Time
	for _, ph := range p.Phases {
		total += ph.Dist.Sample(rng)
	}
	return total
}

// Mean implements ServiceDist: the sum of the base phase means.
func (p *PhaseProfile) Mean() sim.Time {
	var total sim.Time
	for _, ph := range p.Phases {
		total += ph.Dist.Mean()
	}
	return total
}

// MeanOn returns the mean chain duration when every phase runs on its
// affine class — the effective service time of a fully offloaded
// request, used by experiments to reason about accelerated capacity.
func (p *PhaseProfile) MeanOn() sim.Time {
	var total float64
	for _, ph := range p.Phases {
		m := float64(ph.Dist.Mean())
		if ph.Speedup > 0 && ph.Speedup != 1 {
			m /= ph.Speedup
		}
		total += m
	}
	return sim.Time(total)
}

// Classes returns the highest class index referenced plus one.
func (p *PhaseProfile) Classes() int {
	max := uint8(0)
	for _, ph := range p.Phases {
		if ph.Class > max {
			max = ph.Class
		}
	}
	return int(max) + 1
}

// Neutral reports whether the whole chain is class-0 with no speedups
// or offload costs — the shape whose 1-phase form must replay a bare
// ServiceDist byte for byte.
func (p *PhaseProfile) Neutral() bool {
	for _, ph := range p.Phases {
		if !ph.neutral() {
			return false
		}
	}
	return true
}

// Name implements ServiceDist.
func (p *PhaseProfile) Name() string {
	if p.label != "" {
		return p.label
	}
	var b strings.Builder
	b.WriteString("phases(")
	for i, ph := range p.Phases {
		if i > 0 {
			b.WriteByte('>')
		}
		if ph.Name != "" {
			b.WriteString(ph.Name)
		} else {
			b.WriteString(ph.Dist.Name())
		}
	}
	b.WriteByte(')')
	return b.String()
}

var _ ServiceDist = (*PhaseProfile)(nil)
