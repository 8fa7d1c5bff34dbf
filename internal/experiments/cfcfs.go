package experiments

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/sim"
)

// runCentral drives feed through a k-core c-FCFS system until it drains:
// sched.Central with no dispatch cost and no preemption, whose handoff
// charges pickup on each request's critical path. done sees every
// completion. wrap, when non-nil, interposes on the scheduler the feed
// delivers to. With the invariant checker enabled process-wide the run
// is checked against Central's one queue, as server runs are.
func runCentral(k int, pickup sim.Time, feed sched.OpenLoop, wrap func(sched.Scheduler) sched.Scheduler, done sched.Done) error {
	eng := sim.NewEngine()
	completed := 0
	counted := func(r *rpcproto.Request) {
		completed++
		done(r)
	}
	var chk *check.Checker
	if check.Enabled() {
		chk = check.New(check.Options{Expected: feed.N})
		counted = chk.WrapDone(counted)
	}
	var s sched.Scheduler = sched.NewCentral(eng, k, 0, pickup, 0, 0, counted)
	if chk != nil {
		s.SetProbe(chk)
		chk.Attach(eng, []check.QueueSpec{{ID: 0, Core: -1, Lens: 0}}, s.QueueLensInto)
	}
	if wrap != nil {
		s = wrap(s)
	}
	feed.Start(eng, s)
	eng.RunAll()
	if chk != nil {
		if err := chk.Finalize().Err(); err != nil {
			return err
		}
	}
	if completed != feed.N {
		return fmt.Errorf("completed %d of %d", completed, feed.N)
	}
	return nil
}
