package live

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/mica"
	"repro/internal/rpcproto"
)

// drainCloseReport drains, closes and verifies conservation, failing
// the test on any invariant violation.
func drainCloseReport(t *testing.T, rt *Runtime) *Report {
	t.Helper()
	if err := rt.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	rep := rt.Report()
	if err := rep.Check.Err(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRuntimeDirectSoak drives the runtime without a network: many
// producer goroutines delivering straight into Deliver, all steered to
// group 0 so the managers must migrate to spread the load. Conservation
// and migrate-at-most-once must hold over the full run.
func TestRuntimeDirectSoak(t *testing.T) {
	const producers = 4
	n := 100000
	if testing.Short() {
		n = 20000
	}
	rt, err := New(Config{
		Groups:          4,
		WorkersPerGroup: 2,
		Period:          100 * time.Microsecond,
		Expected:        n,
		// Skew: everything lands on group 0; only migration can move it.
		Steer: func(r *rpcproto.Request) int { return 0 },
	}, SpinHandler{Iters: 200})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()

	var completed sync.WaitGroup
	completed.Add(n)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += producers {
				rt.Deliver(&rpcproto.Request{ID: uint64(i), Conn: uint32(p)},
					func(r *rpcproto.Request, payload []byte, st rpcproto.Status) {
						completed.Done()
					})
			}
		}(p)
	}
	wg.Wait()
	completed.Wait()
	rep := drainCloseReport(t, rt)

	if rep.Stats.Delivered != uint64(n) || rep.Stats.Completed != uint64(n) {
		t.Fatalf("delivered %d completed %d, want %d", rep.Stats.Delivered, rep.Stats.Completed, n)
	}
	if rep.Stats.Migrations == 0 {
		t.Fatal("fully skewed steering produced no migrations; Algorithm 1 never fired")
	}
	if rep.Samples != n {
		t.Fatalf("latency samples %d, want %d", rep.Samples, n)
	}
	t.Logf("direct soak: %s", rep)
}

// TestLiveLoopbackTCP is the acceptance soak: altoserve's full stack —
// TCP loopback, rpcproto frames, open-loop load generator — sustaining
// the required request count with conservation and migrate-once
// verified and tail percentiles reported.
func TestLiveLoopbackTCP(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 20000
	}
	rt, err := New(Config{
		Groups:          2,
		WorkersPerGroup: 2,
		Period:          200 * time.Microsecond,
		Expected:        n,
	}, EchoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(rt)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	res, err := RunLoadgen(LoadgenConfig{
		Addr:     ln.Addr().String(),
		Conns:    8,
		Requests: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := drainCloseReport(t, rt)
	srv.Close()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}

	if res.Received != uint64(n) {
		t.Fatalf("received %d of %d responses", res.Received, n)
	}
	if res.BadStatus != 0 {
		t.Fatalf("%d error responses", res.BadStatus)
	}
	if rep.Stats.Delivered != uint64(n) || rep.Stats.Completed != uint64(n) {
		t.Fatalf("server delivered %d completed %d, want %d", rep.Stats.Delivered, rep.Stats.Completed, n)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.P999 < res.P99 {
		t.Fatalf("implausible percentiles: p50=%v p99=%v p99.9=%v", res.P50, res.P99, res.P999)
	}
	t.Logf("loopback: client %s", res)
	t.Logf("loopback: server %s", rep)
}

// TestKVLoopback runs the MICA service over the live stack: preload,
// then a GET-heavy mix with SETs, checking per-op status correctness
// end to end.
func TestKVLoopback(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 5000
	}
	store, err := mica.NewStore(mica.Config{
		Partitions: 4, BucketsPerPart: 1 << 10, EntriesPerBucket: 8, LogBytesPerPart: 1 << 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 512
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	for i := 0; i < keys; i++ {
		if err := store.Set(key(i), []byte(fmt.Sprintf("val-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}

	rt, err := New(Config{Groups: 2, WorkersPerGroup: 2, Expected: n}, NewKVHandler(store))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(rt)
	go srv.Serve(ln)

	res, err := RunLoadgen(LoadgenConfig{
		Addr:     ln.Addr().String(),
		Conns:    4,
		Requests: n,
		Prepare: func(r *rpcproto.Request, conn, seq int) {
			k := key((conn*7919 + seq) % keys)
			if seq%10 == 0 {
				r.Op = rpcproto.OpSet
				r.Payload = EncodeSet(k, []byte(fmt.Sprintf("new-%06d", seq)))
			} else {
				r.Op = rpcproto.OpGet
				r.Payload = k
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := drainCloseReport(t, rt)
	srv.Close()

	if res.Received != uint64(n) || res.BadStatus != 0 {
		t.Fatalf("received %d bad %d, want %d clean responses", res.Received, res.BadStatus, n)
	}
	st := store.Stats()
	if st.Gets == 0 || st.Sets == 0 {
		t.Fatalf("store never exercised: %+v", st)
	}
	_ = rep
}

// TestKVValuesSurviveScratchReuse pipelines GETs for values of many
// lengths over one connection and checks every response body against
// its key. A worker serves each GET into one scratch buffer it reuses
// for the next request, so a response frame that kept a reference to the
// scratch instead of its bytes — or a value copied from the wrong place
// in the log — shows up here as another key's bytes.
func TestKVValuesSurviveScratchReuse(t *testing.T) {
	const keys, n = 257, 20000
	store, err := mica.NewStore(mica.Config{
		Partitions: 2, BucketsPerPart: 1 << 8, EntriesPerBucket: 8, LogBytesPerPart: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, i*3) } // key 0: empty value
	for i := 0; i < keys; i++ {
		if err := store.Set(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := New(Config{Groups: 2, WorkersPerGroup: 2, WorkerDepth: 8, Expected: n}, NewKVHandler(store))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(rt)
	wait := srv.ServeBackground(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	// id i asks for key i%keys, or for an absent key every 50th request.
	sendErr := make(chan error, 1)
	go func() {
		var buf []byte
		var err error
		for i := 0; i < n && err == nil; i++ {
			r := &rpcproto.Request{ID: uint64(i), Conn: uint32(i % 2), Op: rpcproto.OpGet, Payload: key(i % keys)}
			if i%50 == 49 {
				r.Payload = []byte("absent")
			}
			if buf, err = rpcproto.AppendRequest(buf[:0], r); err == nil {
				_, err = conn.Write(buf)
			}
		}
		sendErr <- err
	}()
	fr := newFrameReader(conn, connReadBuf, rpcproto.ResponseHeaderSize, rpcproto.ResponseFrameSize)
	seen := make([]bool, n)
	for got := 0; got < n; got++ {
		frame, err := fr.next()
		if err != nil {
			t.Fatalf("after %d responses: %v", got, err)
		}
		resp, _, err := rpcproto.DecodeResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		i := int(resp.ID)
		if i >= n || seen[i] {
			t.Fatalf("response for id %d: out of range or repeated", resp.ID)
		}
		seen[i] = true
		if i%50 == 49 {
			if resp.Status != rpcproto.StatusNotFound || len(resp.Payload) != 0 {
				t.Fatalf("id %d (absent key): status %v, %d payload bytes", i, resp.Status, len(resp.Payload))
			}
			continue
		}
		if resp.Status != rpcproto.StatusOK || !bytes.Equal(resp.Payload, val(i%keys)) {
			t.Fatalf("id %d (key %d): status %v, payload %d bytes starting %x; want %d bytes of %#x",
				i, i%keys, resp.Status, len(resp.Payload), resp.Payload[:min(4, len(resp.Payload))], 3*(i%keys), byte(i%keys))
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	conn.Close()
	drainCloseReport(t, rt)
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if leaked, stale := srv.DataPlaneStats(); leaked != 0 || stale != 0 {
		t.Fatalf("data plane: %d leaked slot(s), %d stale release(s)", leaked, stale)
	}
}

// TestKVHandlerServeForms pins the two forms of the handler to each
// other: Serve is AppendServe into a fresh slice, and AppendServe only
// ever extends what it was given.
func TestKVHandlerServeForms(t *testing.T) {
	store, err := mica.NewStore(mica.Config{Partitions: 2, BucketsPerPart: 16, EntriesPerBucket: 4, LogBytesPerPart: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	h := NewKVHandler(store)
	for _, tc := range []struct {
		name    string
		req     rpcproto.Request
		status  rpcproto.Status
		payload string
	}{
		{"set", rpcproto.Request{Op: rpcproto.OpSet, Payload: EncodeSet([]byte("k"), []byte("value"))}, rpcproto.StatusOK, ""},
		{"get", rpcproto.Request{Op: rpcproto.OpGet, Payload: []byte("k")}, rpcproto.StatusOK, "value"},
		{"get absent", rpcproto.Request{Op: rpcproto.OpGet, Payload: []byte("nope")}, rpcproto.StatusNotFound, ""},
		{"set same size", rpcproto.Request{Op: rpcproto.OpSet, Payload: EncodeSet([]byte("k"), []byte("VALUE"))}, rpcproto.StatusOK, ""},
		{"get updated", rpcproto.Request{Op: rpcproto.OpGet, Payload: []byte("k")}, rpcproto.StatusOK, "VALUE"},
		{"set truncated", rpcproto.Request{Op: rpcproto.OpSet, Payload: []byte{9, 0, 'k'}}, rpcproto.StatusError, ""},
		{"set headerless", rpcproto.Request{Op: rpcproto.OpSet, Payload: []byte{1}}, rpcproto.StatusError, ""},
		{"scan", rpcproto.Request{Op: rpcproto.OpScan, Payload: []byte{byte(store.Partition([]byte("k")))}}, rpcproto.StatusOK, "\x01\x00\x00\x00"},
		{"echo", rpcproto.Request{Op: rpcproto.OpEcho, Payload: []byte("ping")}, rpcproto.StatusOK, "ping"},
	} {
		got, st := h.Serve(&tc.req)
		if st != tc.status || string(got) != tc.payload {
			t.Errorf("%s: Serve = %q, %v; want %q, %v", tc.name, got, st, tc.payload, tc.status)
		}
		if tc.req.Op == rpcproto.OpSet {
			continue // a second SET is a different operation on the store
		}
		got, st = h.AppendServe([]byte("dst:"), &tc.req)
		if st != tc.status || string(got) != "dst:"+tc.payload {
			t.Errorf("%s: AppendServe = %q, %v; want %q, %v", tc.name, got, st, "dst:"+tc.payload, tc.status)
		}
	}
}

// TestKVGetThroughWorkerZeroAlloc is the allocation gate on the service
// stage: a GET delivered to a running runtime — Deliver, manager
// dispatch, the worker's AppendServe into its scratch, the completion
// callback — makes no heap allocation once the scratch has grown to
// the value size.
func TestKVGetThroughWorkerZeroAlloc(t *testing.T) {
	const runs = 2000
	store, err := mica.NewStore(mica.Config{Partitions: 2, BucketsPerPart: 16, EntriesPerBucket: 4, LogBytesPerPart: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	key, val := []byte("key-0123456789ab"), bytes.Repeat([]byte{0xa5}, 512)
	if err := store.Set(key, val); err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Groups: 1, WorkersPerGroup: 1, Expected: runs + 2}, NewKVHandler(store))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	served := make(chan int, 1)
	done := DoneFunc(func(_ *rpcproto.Request, payload []byte, st rpcproto.Status) {
		if st != rpcproto.StatusOK {
			payload = nil
		}
		served <- len(payload)
	})
	req := rpcproto.Request{Op: rpcproto.OpGet, Payload: key}
	allocs := testing.AllocsPerRun(runs, func() {
		rt.Deliver(&req, done)
		if n := <-served; n != len(val) {
			t.Fatalf("GET through the worker returned %d bytes, want %d", n, len(val))
		}
		req.ID++
	})
	drainCloseReport(t, rt)
	if allocs != 0 {
		t.Fatalf("a KV GET through a live worker allocates %v times, want 0", allocs)
	}
}

// TestNackRestoresOrder forces a NACK by filling a destination's
// migration FIFO while its manager is wedged behind a slow handler,
// then checks nothing is lost: every request still completes exactly
// once (the ledger would flag duplicates or drops).
func TestNackRestoresOrder(t *testing.T) {
	n := 20000
	rt, err := New(Config{
		Groups:          3,
		WorkersPerGroup: 1,
		WorkerDepth:     1,
		Period:          50 * time.Microsecond,
		MigrateFIFO:     1, // tiny receive FIFO: NACKs under pressure
		Expected:        n,
		Steer:           func(r *rpcproto.Request) int { return 0 },
	}, SpinHandler{Iters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	var completed sync.WaitGroup
	completed.Add(n)
	for i := 0; i < n; i++ {
		rt.Deliver(&rpcproto.Request{ID: uint64(i)},
			func(r *rpcproto.Request, payload []byte, st rpcproto.Status) { completed.Done() })
	}
	completed.Wait()
	rep := drainCloseReport(t, rt)
	if rep.Stats.Completed != uint64(n) {
		t.Fatalf("completed %d, want %d", rep.Stats.Completed, n)
	}
	t.Logf("nack soak: %s", rep)
}

// TestConfigDefaults pins the default sizing and the steer fallback.
func TestConfigDefaults(t *testing.T) {
	rt, err := New(Config{}, EchoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.groups) != 2 || len(rt.groups[0].workers) != 4 {
		t.Fatalf("defaults: %d groups x %d workers", len(rt.groups), len(rt.groups[0].workers))
	}
	if g := rt.steer(&rpcproto.Request{Conn: 5}); g != 1 {
		t.Fatalf("conn-hash steer = %d, want 1", g)
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Fatal("nil handler must be rejected")
	}
}

// TestDequeFIFO pins the run-queue semantics dispatch and migration
// rely on: head pops oldest, tail pops newest, at() indexes from head.
func TestDequeFIFO(t *testing.T) {
	var q taskDeque
	mk := func(id int) *task { return &task{req: &rpcproto.Request{ID: uint64(id)}} }
	for i := 0; i < 200; i++ {
		q.pushTail(mk(i))
	}
	for i := 0; i < 100; i++ {
		if got := q.popHead(); got.req.ID != uint64(i) {
			t.Fatalf("popHead %d = %d", i, got.req.ID)
		}
	}
	if q.at(0).req.ID != 100 || q.at(q.len()-1).req.ID != 199 {
		t.Fatalf("at() misindexed: head %d tail %d", q.at(0).req.ID, q.at(q.len()-1).req.ID)
	}
	for i := 199; i >= 100; i-- {
		if got := q.popTail(); got.req.ID != uint64(i) {
			t.Fatalf("popTail = %d, want %d", got.req.ID, i)
		}
	}
	if q.popHead() != nil || q.popTail() != nil || q.len() != 0 {
		t.Fatal("emptied deque not empty")
	}
}

// TestDataPlaneArenaClean asserts the arena ownership protocol over a
// persistent multi-round session: after the client closes, every
// request slot acquired at decode was released exactly once by its
// completion — no leaks, no stale releases.
func TestDataPlaneArenaClean(t *testing.T) {
	const rounds, n = 3, 5000
	rt, err := New(Config{Groups: 2, WorkersPerGroup: 2, Expected: rounds * n}, EchoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(rt)
	wait := srv.ServeBackground(ln)
	cl, err := NewLoadgenClient(LoadgenConfig{Addr: ln.Addr().String(), Conns: 4})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		res, err := cl.Run(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Received != n || res.Dropped != 0 {
			t.Fatalf("round %d: received %d dropped %d, want %d clean", r, res.Received, res.Dropped, n)
		}
	}
	cl.Close()
	if err := rt.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	drainCloseReport(t, rt)
	if leaked, stale := srv.DataPlaneStats(); leaked != 0 || stale != 0 {
		t.Fatalf("data plane: %d leaked slot(s), %d stale release(s), want 0/0", leaked, stale)
	}
	tot := cl.Totals()
	if tot.Received != rounds*n {
		t.Fatalf("totals received %d, want %d", tot.Received, rounds*n)
	}
}

// TestDataPlaneAbruptClose cuts a connection with requests still in
// flight (full close, no half-close handshake, responses never read):
// the server must complete and release every request it decoded — the
// teardown path may not leak arena slots even when the response stream
// is dead.
func TestDataPlaneAbruptClose(t *testing.T) {
	const n = 2000
	rt, err := New(Config{Groups: 2, WorkersPerGroup: 2, Expected: n}, EchoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(rt)
	wait := srv.ServeBackground(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := 0; i < n; i++ {
		r := &rpcproto.Request{ID: uint64(i), Conn: 1, Op: rpcproto.OpEcho, Payload: []byte("abandoned")}
		buf, err = rpcproto.AppendRequest(buf, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	conn.Close() // never reads a single response
	if err := rt.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if leaked, stale := srv.DataPlaneStats(); leaked != 0 || stale != 0 {
		t.Fatalf("abrupt close: %d leaked slot(s), %d stale release(s), want 0/0", leaked, stale)
	}
}
