// Package nic models the network interface card's receive path: the
// front-end (Ethernet MAC + serial I/O + transport interpretation, ~30 ns
// per the paper) and the steering engine that assigns arriving requests
// to receive queues — Receive Side Scaling (connection-hash), random and
// round-robin, the three policies compared in Fig. 9.
package nic

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// SteerPolicy selects the receive queue for an arriving request.
type SteerPolicy int

const (
	// SteerConnection hashes the connection id, RSS's policy: requests of
	// one flow always land on the same queue.
	SteerConnection SteerPolicy = iota
	// SteerRandom picks a uniformly random queue per request.
	SteerRandom
	// SteerRoundRobin cycles through queues.
	SteerRoundRobin
	// SteerDirect maps connection id modulo queue count, with no hashing.
	// Applications that own the connection-id space (e.g. MICA's EREW
	// partition-to-manager mapping) use it to pin flows to queues.
	SteerDirect
)

func (p SteerPolicy) String() string {
	switch p {
	case SteerRandom:
		return "random"
	case SteerRoundRobin:
		return "round-robin"
	case SteerDirect:
		return "direct"
	default:
		return "connection"
	}
}

// Steerer maps requests to one of n receive queues under a policy.
type Steerer struct {
	Policy SteerPolicy
	N      int
	rr     int
	rng    *sim.RNG
}

// NewSteerer returns a steering engine over n queues. rng is only used by
// SteerRandom; it may be nil for the other policies.
func NewSteerer(policy SteerPolicy, n int, rng *sim.RNG) *Steerer {
	if n <= 0 {
		panic(fmt.Sprintf("nic: steerer over %d queues", n))
	}
	return &Steerer{Policy: policy, N: n, rng: rng}
}

// Steer returns the queue index for r.
func (s *Steerer) Steer(r *rpcproto.Request) int {
	switch s.Policy {
	case SteerRandom:
		return s.rng.Intn(s.N)
	case SteerRoundRobin:
		q := s.rr
		s.rr = (s.rr + 1) % s.N
		return q
	case SteerDirect:
		return int(r.Conn) % s.N
	default:
		return int(FlowHash(r.Conn) % uint32(s.N))
	}
}

// FlowHash is the NIC's flow hash: the finalizer of MurmurHash3, a good
// avalanche mix standing in for the Toeplitz hash real RSS NICs use.
// Reduce it to a queue or bucket in unsigned arithmetic
// (int(h % uint32(n))), so the index cannot go negative where int is
// 32 bits.
func FlowHash(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// RXModel computes the NIC-side latency an arriving request experiences
// before the scheduler sees it: front-end processing plus the transfer to
// the host (PCIe for commodity NICs, LLC-speed for integrated ones).
type RXModel struct {
	Cost   fabric.CostModel
	Attach fabric.Attach
	// HWTerminated marks NICs that run the transport/RPC stack in
	// hardware (Nebula, nanoPU, ACint): stack processing adds pipeline
	// latency here rather than occupying a core.
	HWTerminated bool
	Stack        rpcproto.StackModel
}

// Delay returns the NIC receive-path latency for a request of the given
// wire size.
func (m RXModel) Delay(size int) sim.Time {
	d := m.Cost.NICFrontEnd + m.Cost.NICTransfer(m.Attach, size)
	if m.HWTerminated {
		d += m.Stack.ProcessingTime(size)
	}
	return d
}

// CoreStackCost returns the stack processing time charged on the core for
// software stacks (zero when the NIC terminates the stack in hardware).
func (m RXModel) CoreStackCost(size int) sim.Time {
	if m.HWTerminated {
		return 0
	}
	return m.Stack.ProcessingTime(size)
}
