// Package sched implements the baseline RPC schedulers the paper compares
// against (Table I / §II-D):
//
//   - DFCFS: NIC-RSS distributed FCFS with per-core queues (IX, plain RSS).
//   - Steal: d-FCFS plus idle-core work stealing (ZygOS).
//   - Central: a centralized software dispatcher with preemption
//     (Shinjuku): one dedicated dispatcher core, bounded dispatch
//     throughput, 5 µs-class preemption quantum.
//   - JBSQ: a hardware scheduler with a central NIC-managed queue and
//     bounded per-core queues (RPCValet, Nebula, nanoPU — differing in
//     NIC-to-core transfer cost and preemption support).
//
// The ALTOCUMULUS scheduler itself lives in internal/core.
package sched

import (
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// Scheduler routes delivered requests to cores. Deliver is called by the
// server harness once the NIC receive path has completed; the request's
// Service field already includes any on-core stack processing cost.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Deliver hands an arriving request to the scheduler at engine-now.
	Deliver(r *rpcproto.Request)
	// QueueLensInto writes a snapshot of the scheduler's queue lengths
	// (semantics are scheduler-specific; used for instrumentation) into
	// buf (reused from length 0, growing as needed) and returns it. Hot
	// paths that sample queue lengths every tick pass a per-simulation
	// scratch buffer, and the snapshot is only valid until the next call
	// with the same buffer; a nil buf yields a fresh slice the caller may
	// keep.
	QueueLensInto(buf []int) []int
	// SetProbe installs instrumentation; nil switches it off.
	SetProbe(p Probe)
}

// Done is invoked exactly once per request at completion time, with
// r.Finish set.
type Done func(r *rpcproto.Request)

// RequeueCause says why a request re-entered a queue after its first
// enqueue (OnEnqueue fires exactly once per request, at delivery).
type RequeueCause int

const (
	// RequeueTransfer: a central-to-local (or NetRX-to-worker) transfer
	// landed, placing the request in a per-core queue.
	RequeueTransfer RequeueCause = iota
	// RequeuePreempt: a quantum expired and the remainder re-queued.
	RequeuePreempt
	// RequeueMigrate: an ALTOCUMULUS MIGRATE batch was admitted at the
	// destination NetRX.
	RequeueMigrate
	// RequeueNack: a NACKed (or aborted) MIGRATE returned its requests
	// to the source NetRX.
	RequeueNack
	// RequeueForward: a finished phase of a multi-phase request was
	// enqueued onto the NetRX of the group serving its next phase's
	// core class (DESIGN.md §15).
	RequeueForward
)

func (c RequeueCause) String() string {
	switch c {
	case RequeuePreempt:
		return "preempt"
	case RequeueMigrate:
		return "migrate"
	case RequeueNack:
		return "nack"
	case RequeueForward:
		return "forward"
	default:
		return "transfer"
	}
}

// Probe is the scheduler's one instrumentation seam: every queue
// mutation and core transition a scheduler performs, in the order it
// performs them. The invariant checker (internal/check) implements it.
// A scheduler holds at most one Probe, nil when none is installed, and
// guards every hook with a nil check, so an unprobed run pays one
// predictable branch per event.
//
// Queue ids are scheduler-specific but fixed per instance:
//
//   - DFCFS / Steal / RSSPlus: queue i is core i's private queue.
//   - Central: queue 0 is the single central queue (no owning core).
//   - JBSQ: queue 0 is the central NIC queue; queue 1+i is core i's
//     bounded local queue.
//   - ALTOCUMULUS (internal/core): queue g is group g's NetRX; queue
//     G + g*W + w is worker (g, w)'s local queue, whose core id is
//     g*W + w.
type Probe interface {
	// OnEnqueue fires when r joins queue q whose length (excluding r)
	// was qlen: its first enqueue, at delivery.
	OnEnqueue(r *rpcproto.Request, q, qlen int)
	// OnRequeue fires when r re-joins the tail of queue q for the given
	// cause; qlen is the queue length excluding r.
	OnRequeue(r *rpcproto.Request, q int, cause RequeueCause, qlen int)
	// OnDequeue fires when r is removed from queue q; fromTail reports a
	// tail pop (ALTOCUMULUS tail-selection), otherwise the head.
	OnDequeue(r *rpcproto.Request, q int, fromTail bool)
	// OnRun fires when core begins executing r (including any pickup
	// overhead charged by the core).
	OnRun(r *rpcproto.Request, core int)
	// OnComplete fires when core finishes r, before the scheduler's Done
	// callback.
	OnComplete(r *rpcproto.Request, core int)
	// OnPreempt fires when core's quantum expires on r, before the
	// remainder re-queues.
	OnPreempt(r *rpcproto.Request, core int)
	// OnSteal fires when an idle core (thief) takes r from another
	// core's queue (victim), after the OnDequeue from the victim.
	OnSteal(r *rpcproto.Request, thief, victim int)
	// OnOutstanding reports bounded-queue accounting: after committing r
	// to core, its outstanding count (running + queued + in-flight) is n
	// against the scheduler's bound.
	OnOutstanding(r *rpcproto.Request, core, n, bound int)
	// OnMigrate reports one MIGRATE batch that passed the Algorithm 1
	// line 8 guard: srcLen and dstView are the source queue length and
	// the source's synchronized view of the destination at decision
	// time, batch the configured batch size S, guarded whether the
	// q[src]-S < q[dst]+S check was enabled.
	OnMigrate(src, dst, srcLen, dstView, batch int, guarded bool)
	// OnPhaseDone fires when core finishes a non-final phase of r and
	// the scheduler takes the request off the core to forward it (the
	// back-to-back local continuation emits no event). r.Phase has
	// already advanced to the next phase. Only multi-phase schedulers
	// (internal/core with heterogeneous groups) emit it.
	OnPhaseDone(r *rpcproto.Request, core int)
}

// overheadOrZero guards against negative configured overheads.
func overheadOrZero(d sim.Time) sim.Time {
	if d < 0 {
		return 0
	}
	return d
}
