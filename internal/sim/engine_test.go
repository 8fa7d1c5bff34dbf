package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Fatal("ns != 1000ps")
	}
	if Second != 1e12*Picosecond {
		t.Fatal("second mismatch")
	}
	if got := FromNanos(2.5); got != 2500*Picosecond {
		t.Fatalf("FromNanos(2.5) = %d", got)
	}
	if got := FromNanos(-1); got != 0 {
		t.Fatalf("negative clamp: %d", got)
	}
	if got := (3 * Nanosecond).Nanoseconds(); got != 3 {
		t.Fatalf("Nanoseconds = %v", got)
	}
	if got := FromSeconds(1e-6); got != Microsecond {
		t.Fatalf("FromSeconds: %v", got)
	}
}

func TestCycles(t *testing.T) {
	// 70 cycles at 2 GHz = 35 ns, the paper's coherence-message cost.
	if got := Cycles(70, 2e9); got != 35*Nanosecond {
		t.Fatalf("Cycles(70, 2GHz) = %v, want 35ns", got)
	}
	if got := Cycles(100, 2e9); got != 50*Nanosecond {
		t.Fatalf("Cycles(100, 2GHz) = %v, want 50ns", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{3 * Nanosecond, "3.000ns"},
		{2 * Microsecond, "2.000us"},
		{5 * Millisecond, "5.000ms"},
		{Second, "1.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*Nanosecond, func() { order = append(order, 3) })
	e.At(10*Nanosecond, func() { order = append(order, 1) })
	e.At(20*Nanosecond, func() { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("bad order: %v", order)
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Nanosecond, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10*Nanosecond, func() { fired++ })
	e.At(20*Nanosecond, func() { fired++ })
	e.At(30*Nanosecond, func() { fired++ })
	n := e.Run(20 * Nanosecond)
	if n != 2 || fired != 2 {
		t.Fatalf("Run(20ns) executed %d events (fired=%d)", n, fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.RunAll()
	if fired != 3 {
		t.Fatalf("fired = %d after RunAll", fired)
	}
}

func TestEngineAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.After(5*Nanosecond, func() {
		at = append(at, e.Now())
		e.After(7*Nanosecond, func() { at = append(at, e.Now()) })
	})
	e.RunAll()
	if len(at) != 2 || at[0] != 5*Nanosecond || at[1] != 12*Nanosecond {
		t.Fatalf("nested scheduling times: %v", at)
	}
}

func TestEnginePastClamped(t *testing.T) {
	e := NewEngine()
	var got Time = -1
	e.At(10*Nanosecond, func() {
		e.At(1*Nanosecond, func() { got = e.Now() }) // in the past
	})
	e.RunAll()
	if got != 10*Nanosecond {
		t.Fatalf("past event ran at %v, want clamped to 10ns", got)
	}
}

func TestEngineSlotRecycling(t *testing.T) {
	// A fired event's slot is recycled: two sequential events, one slot.
	e := NewEngine()
	e.At(Nanosecond, func() {})
	e.RunAll()
	fired := false
	e.At(2*Nanosecond, func() { fired = true })
	e.RunAll()
	if !fired {
		t.Fatal("event in a recycled slot did not fire")
	}
	if len(e.events) != 1 {
		t.Fatalf("slab grew to %d slots for sequential events", len(e.events))
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n == 5 {
			e.Stop()
		}
		e.After(Nanosecond, tick)
	}
	e.After(Nanosecond, tick)
	e.Run(Second)
	if n != 5 {
		t.Fatalf("stopped after %d events", n)
	}
}

// TestEngineStopKeepsClock: a Stop from the last queued event leaves
// the clock at that event, not at the Run horizon (a drained queue
// without Stop still advances it, see TestEngineIdleClockAdvance).
func TestEngineStopKeepsClock(t *testing.T) {
	for _, e := range []*Engine{NewEngine(), newEngineWheel(4, 3)} {
		e.At(7*Nanosecond, e.Stop)
		e.Run(Second)
		if e.Now() != 7*Nanosecond || e.Pending() != 0 {
			t.Fatalf("stopped at %v with %d pending, want 7ns and 0", e.Now(), e.Pending())
		}
	}
}

func TestEngineIdleClockAdvance(t *testing.T) {
	e := NewEngine()
	e.Run(42 * Nanosecond)
	if e.Now() != 42*Nanosecond {
		t.Fatalf("idle run did not advance clock: %v", e.Now())
	}
}

func TestHeapPropertyRandomised(t *testing.T) {
	// Property: events fire in nondecreasing time order regardless of
	// insertion order.
	f := func(raw []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, v := range raw {
			tm := Time(v) * Nanosecond
			e.At(tm, func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	const n = 200000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
		buckets[int(v*10)]++
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v", mean)
	}
	for i, b := range buckets {
		if math.Abs(float64(b)-n/10) > n/10*0.1 {
			t.Fatalf("bucket %d count %d far from uniform", i, b)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exp(500)
		if v < 0 {
			t.Fatal("negative exponential sample")
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-500) > 10 {
		t.Fatalf("exp mean = %v, want ~500", mean)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("norm mean = %v", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("norm stddev = %v", math.Sqrt(variance))
	}
}

func TestRNGIntnAndBernoulli(t *testing.T) {
	r := NewRNG(17)
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		counts[r.Intn(5)]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn bucket %d = %d", i, c)
		}
	}
	heads := 0
	for i := 0; i < 100000; i++ {
		if r.Bernoulli(0.3) {
			heads++
		}
	}
	if heads < 28000 || heads > 32000 {
		t.Fatalf("Bernoulli(0.3) rate = %v", float64(heads)/100000)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFork(t *testing.T) {
	r := NewRNG(1)
	a := r.Fork(1)
	b := r.Fork(2)
	diff := false
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Fatal("forked streams identical")
	}
}

func TestRNGShuffle(t *testing.T) {
	r := NewRNG(5)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), xs...)
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sort.Ints(xs)
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatal("shuffle lost elements")
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	r := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(r.Intn(1000))*Nanosecond, func() {})
		if i%1024 == 1023 {
			e.RunAll()
		}
	}
	e.RunAll()
}

func TestEngineArgEvents(t *testing.T) {
	e := NewEngine()
	type rec struct {
		at  Time
		tag string
		n   int64
	}
	var got []rec
	payload := &struct{ name string }{"p"}
	record := func(arg any, n int64) {
		got = append(got, rec{e.Now(), arg.(*struct{ name string }).name, n})
	}
	// Arg events interleave with plain events in strict (time, seq) order.
	e.AtArg(20*Nanosecond, record, payload, 2)
	e.At(10*Nanosecond, func() { got = append(got, rec{e.Now(), "plain", 0}) })
	e.AfterArg(10*Nanosecond, record, payload, 1) // same time as the plain event, later seq
	e.AfterArg(-5*Nanosecond, record, payload, 0) // negative delay clamps to now
	n := e.RunAll()
	if n != 4 {
		t.Fatalf("RunAll processed %d events, want 4", n)
	}
	want := []rec{
		{0, "p", 0},
		{10 * Nanosecond, "plain", 0},
		{10 * Nanosecond, "p", 1},
		{20 * Nanosecond, "p", 2},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if e.Processed() != 4 {
		t.Fatalf("Processed = %d, want 4", e.Processed())
	}
}

func TestEngineArgPastClamped(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.At(10*Nanosecond, func() {
		e.AtArg(Nanosecond, func(any, int64) { at = e.Now() }, nil, 0)
	})
	e.RunAll()
	if at != 10*Nanosecond {
		t.Fatalf("past arg event ran at %v, want clamped to 10ns", at)
	}
}

func TestEngineArgFiringClearsSlot(t *testing.T) {
	// A fired slot keeps neither its callback nor its payload, whether
	// the payload is an AtArg pointer or an At thunk.
	e := NewEngine()
	payload := &struct{ x int }{1}
	for _, schedule := range []func(){
		func() { e.AtArg(e.Now()+Nanosecond, func(any, int64) {}, payload, 0) },
		func() { e.At(e.Now()+Nanosecond, func() {}) },
	} {
		schedule()
		e.RunAll()
		if len(e.events) != 1 {
			t.Fatalf("slab grew to %d slots for sequential events", len(e.events))
		}
		if ev := &e.events[0]; ev.arg != nil || ev.act != nil {
			t.Fatal("fired event must not retain its payload or callback")
		}
	}
}

func TestEngineArgEventsDoNotAllocate(t *testing.T) {
	// The whole point of AtArg/AfterArg: a bound callback plus a pointer
	// payload plus an int64 side channel schedules with zero allocations
	// (pointers in `any` do not box; the slab recycles slots).
	e := NewEngine()
	f := func(any, int64) {}
	payload := &struct{ x int }{1}
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterArg(Nanosecond, f, payload, 300)
		e.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("arg event schedule+fire allocates %v times per op, want 0", allocs)
	}
}
