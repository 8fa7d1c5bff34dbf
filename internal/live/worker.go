package live

import (
	"repro/internal/policy"
	"repro/internal/rpcproto"
)

// worker is one execution goroutine. The manager is the sole sender on
// ch and never exceeds WorkerDepth outstanding, so its sends cannot
// block; the worker decrements outstanding after the completion
// callback and pokes the manager, closing the dispatch loop.
type worker struct {
	g  *lgroup
	id int // global worker id

	// ch carries dispatched tasks. The sends in dispatch are blocking in
	// form but never in fact: the manager is the sole sender and checks
	// outstanding < WorkerDepth (the channel's capacity) first.
	//altolint:bounded-send manager-only sender never exceeds WorkerDepth outstanding (the JBSQ bound), so capacity is always free
	ch chan *task
	// outstanding is written by the manager (dispatch) and the worker
	// (completion): padded so the two cores do not share its line.
	outstanding paddedInt32

	// lats is the delivery-to-completion profile in picoseconds:
	// worker-owned while running, merged by Report after Close. A
	// fixed-footprint histogram, so recording is allocation-free at any
	// run length (the old per-sample slice grew with the run).
	lats latHist

	// resp is the response scratch an AppendHandler serves into: worker-
	// owned, reused for the next request once done has returned.
	resp []byte
}

func newWorker(g *lgroup, id int) *worker {
	return &worker{g: g, id: id, ch: make(chan *task, g.rt.cfg.WorkerDepth)}
}

func (w *worker) run() {
	rt := w.g.rt
	defer rt.wg.Done()
	for {
		select {
		case <-rt.stop:
			return
		case t := <-w.ch:
			w.serve(t)
		}
	}
}

// serve runs one request: handler, metering, ledger, completion.
//
//altolint:hotpath
func (w *worker) serve(t *task) {
	rt := w.g.rt
	start := rt.clock.Now()
	var payload []byte
	var st rpcproto.Status
	if rt.appender != nil {
		w.resp, st = rt.appender.AppendServe(w.resp[:0], t.req)
		payload = w.resp
	} else {
		payload, st = rt.handler.Serve(t.req)
	}
	end := rt.clock.Now()

	w.g.svcSumNS.Add(int64((end - start) / policy.Nanosecond))
	w.g.svcCount.Add(1)
	w.lats.add(int64(end - t.arrival))

	rt.ledgerMu.Lock()
	rt.ledger.Completed(t.req.ID)
	rt.ledgerMu.Unlock()
	if t.done != nil {
		t.done(t.req, payload, st)
	}
	t.req, t.done = nil, nil
	rt.taskPool.Put(t)
	w.outstanding.Add(-1)
	rt.inflight.Add(-1)
	w.g.poke()
}
