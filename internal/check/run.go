package check

import (
	"fmt"

	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
)

// hardCap bounds a run's simulated time: a scheduler that is still
// making events but not progress by then is reported, not waited on.
const hardCap = 100 * sim.Second

// RunToLastDone runs eng until the done callback of the n-th completion
// stops it, counting completions in *nDone. The periodic machinery
// (manager ticks, rebalance timers, checker checkpoints) never lets the
// queue drain on its own, so a run ends at its last completion instead:
// no event after it can change a request record. A queue that empties
// first means requests were lost; a clock that reaches hardCap means
// they are stuck behind machinery that still ticks. name labels the
// run in either error.
func RunToLastDone(eng *sim.Engine, name string, n int, nDone *int) error {
	eng.Run(hardCap)
	switch {
	case *nDone >= n:
		return nil
	case eng.Pending() == 0:
		return fmt.Errorf("%s stalled: queue empty with %d requests outstanding (done %d of %d)",
			name, n-*nDone, *nDone, n)
	default:
		return fmt.Errorf("%s did not finish %d requests within %v (done %d)",
			name, n, hardCap, *nDone)
	}
}

// RunOpenLoop is the checked run of a bare scheduler under open-loop
// load: on a fresh engine, build gets done wrapped to count completions
// and, unless checking is disabled process-wide, to feed a checker that
// is then attached to the scheduler build returns. feed drives that
// scheduler to its last completion. The report is nil when checking is
// disabled; a violation comes back as the error, with the report.
func RunOpenLoop(feed sched.OpenLoop, done sched.Done, build func(eng *sim.Engine, done sched.Done) (sched.Scheduler, error)) (*Report, error) {
	eng := sim.NewEngine()
	nDone := 0
	wrapped := sched.Done(func(r *rpcproto.Request) {
		if nDone++; nDone == feed.N {
			eng.Stop()
		}
		done(r)
	})
	var chk *Checker
	if enabled {
		chk = New(Options{Expected: feed.N})
		wrapped = chk.WrapDone(wrapped)
	}
	s, err := build(eng, wrapped)
	if err != nil {
		return nil, err
	}
	if chk != nil {
		chk.Attach(eng, s)
	}
	feed.Start(eng, s)
	if err := RunToLastDone(eng, s.Name(), feed.N, &nDone); err != nil || chk == nil {
		return nil, err
	}
	rep := chk.Finalize()
	return rep, rep.Err()
}
