package dist

import (
	"fmt"
	"math"
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

// accelerates reports whether the spec's speedup changes its duration
// on the affine class. Values <= 0 and exactly 1 are neutral.
func (p PhaseSpec) accelerates() bool { return p.Speedup > 0 && p.Speedup != 1 }

// neutral reports whether the spec carries no heterogeneity: class 0,
// no speedup, no offload cost.
func (p PhaseSpec) neutral() bool {
	return p.Class == 0 && !p.accelerates() && p.Offload == 0
}

// PhaseProfile is a request lifecycle as a chain of phases. A profile
// with one neutral phase is the degenerate form of a plain ServiceDist:
// Apply draws exactly one sample from the same stream and the executor
// takes the single-shot path, so runs are byte-identical (the
// refactor's safety net, locked by TestPhaseParity).
//
// Build one with NewPhaseProfile and treat Phases as read-only after
// that: the per-phase constants are frozen into the profile's plan.
type PhaseProfile struct {
	Phases []PhaseSpec
	label  string
	plan   rpcproto.PhasePlan // Class/Speedup/Offload per phase; every drawn request points here
}

// NewPhaseProfile validates and builds a profile and its plan. It panics
// on an empty chain, a chain beyond rpcproto.MaxPhases, a nil phase
// distribution, a NaN or +Inf speedup, or a negative offload cost —
// profiles are constructed from literals in experiment definitions, so
// misuse is a programming error.
func NewPhaseProfile(label string, phases ...PhaseSpec) *PhaseProfile {
	if len(phases) == 0 {
		panic("dist: PhaseProfile needs at least one phase")
	}
	if len(phases) > rpcproto.MaxPhases {
		panic(fmt.Sprintf("dist: %d phases exceed rpcproto.MaxPhases = %d", len(phases), rpcproto.MaxPhases))
	}
	p := &PhaseProfile{Phases: phases, label: label}
	for i, ph := range phases {
		switch {
		case ph.Dist == nil:
			panic(fmt.Sprintf("dist: phase %d (%q) has no distribution", i, ph.Name))
		case math.IsNaN(ph.Speedup) || math.IsInf(ph.Speedup, 1):
			panic(fmt.Sprintf("dist: phase %d (%q) has speedup %v", i, ph.Name, ph.Speedup))
		case ph.Offload < 0:
			panic(fmt.Sprintf("dist: phase %d (%q) has negative offload %v", i, ph.Name, ph.Offload))
		}
		p.plan.Class[i] = ph.Class
		if ph.accelerates() {
			p.plan.Speedup[i] = ph.Speedup
		}
		p.plan.Offload[i] = ph.Offload
	}
	return p
}

// Len returns the number of phases.
func (p *PhaseProfile) Len() int { return len(p.Phases) }

// Apply draws the profile onto a freshly generated request: one base
// sample per phase, in phase order (the RNG sequence golden traces
// lock down), Service set to the base sum, and the sidecar pointed at
// the profile's plan. A one-phase profile consumes exactly one draw —
// the same stream a bare ServiceDist would. The draws go to r's phase
// sidecar: the server's generator attaches an arena-owned one first, and
// a request that comes without gets one from the heap.
//
//altolint:hotpath
func (p *PhaseProfile) Apply(r *rpcproto.Request, rng *sim.RNG) {
	r.EnsurePhases()
	r.NumPhases = uint8(len(p.Phases))
	r.Plan = &p.plan
	var total sim.Time
	for i, ph := range p.Phases {
		base := ph.Dist.Sample(rng)
		r.PhaseSvc[i] = base
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
		if ph.accelerates() {
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
