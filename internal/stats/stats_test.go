package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func ns(v int64) sim.Time { return sim.Time(v) * sim.Nanosecond }

func TestPercentileNearestRank(t *testing.T) {
	s := NewSample(0)
	for i := int64(1); i <= 100; i++ {
		s.Add(ns(i))
	}
	if got := s.Percentile(50); got != ns(50) {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(99); got != ns(99) {
		t.Fatalf("p99 = %v", got)
	}
	if got := s.Percentile(100); got != ns(100) {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.Percentile(1); got != ns(1) {
		t.Fatalf("p1 = %v", got)
	}
	if got := s.Percentile(0); got != ns(1) {
		t.Fatalf("p0 = %v", got)
	}
}

func TestPercentileEmptyAndSingle(t *testing.T) {
	s := NewSample(0)
	if s.Percentile(99) != 0 || s.Max() != 0 || s.Mean() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	s.Add(ns(7))
	if s.Percentile(99) != ns(7) || s.P50() != ns(7) || s.Max() != ns(7) {
		t.Fatal("single-sample percentiles wrong")
	}
}

func TestAddAfterQueryKeepsCorrectness(t *testing.T) {
	s := NewSample(0)
	s.Add(ns(5))
	_ = s.P99() // forces sort
	s.Add(ns(1))
	if got := s.Percentile(1); got != ns(1) {
		t.Fatalf("min after re-add = %v", got)
	}
}

func TestCountAboveAndFraction(t *testing.T) {
	s := NewSample(0)
	for i := int64(1); i <= 10; i++ {
		s.Add(ns(i))
	}
	if got := s.CountAbove(ns(7)); got != 3 {
		t.Fatalf("CountAbove = %d", got)
	}
	if got := s.CountAbove(ns(10)); got != 0 {
		t.Fatalf("CountAbove(max) = %d", got)
	}
	if got := s.CountAbove(0); got != 10 {
		t.Fatalf("CountAbove(0) = %d", got)
	}
	if got := s.FractionAbove(ns(5)); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("FractionAbove = %v", got)
	}
}

func TestMeanStdDev(t *testing.T) {
	s := NewSample(0)
	for _, v := range []int64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(ns(v))
	}
	if got := s.Mean(); got != ns(5) {
		t.Fatalf("mean = %v", got)
	}
	want := 2 * float64(sim.Nanosecond)
	if got := s.StdDev(); math.Abs(got-want) > 1 {
		t.Fatalf("stddev = %v, want %v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	s := NewSample(0)
	for i := int64(1); i <= 1000; i++ {
		s.Add(ns(i))
	}
	sm := s.Summarize(ns(990))
	if sm.N != 1000 || sm.Violations != 10 {
		t.Fatalf("summary: %+v", sm)
	}
	if math.Abs(sm.VioRatio-0.01) > 1e-12 {
		t.Fatalf("vio ratio = %v", sm.VioRatio)
	}
	if sm.P99 != ns(990) {
		t.Fatalf("p99 = %v", sm.P99)
	}
	if sm.String() == "" {
		t.Fatal("empty summary string")
	}
}

// TestSummarizeUnsortedMatchesSorted is the property behind the
// sort-free summary: on random samples — with ties, a single value, all
// values equal, sizes around the percentile rank boundaries, and an SLO
// equal to a sample value — Summarize and CountAbove on the unsorted
// sample equal the sorted path field for field, and a percentile asked
// afterwards still sorts to the right answer.
func TestSummarizeUnsortedMatchesSorted(t *testing.T) {
	rng := sim.NewRNG(11)
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(3000)
		if trial%4 == 0 {
			n = 1 + rng.Intn(12)
		}
		// Few distinct values force ties; a span of one makes them all equal.
		span := []int{1, 3, 50, 1 << 30}[trial%4]
		raw := make([]sim.Time, n)
		for i := range raw {
			raw[i] = sim.Time(rng.Intn(span))
		}
		slo := raw[rng.Intn(n)]
		if trial%5 == 0 {
			slo += sim.Time(rng.Intn(3)) - 1
		}

		unsorted, sorted := NewSample(n), NewSample(n)
		for _, v := range raw {
			unsorted.Add(v)
			sorted.Add(v)
		}
		_ = sorted.P50() // takes the sorted path below
		if got, want := unsorted.CountAbove(slo), sorted.CountAbove(slo); got != want {
			t.Fatalf("trial %d (n=%d): unsorted CountAbove = %d, sorted %d", trial, n, got, want)
		}
		got, want := unsorted.Summarize(slo), sorted.Summarize(slo)
		if got != want {
			t.Fatalf("trial %d (n=%d, slo=%d):\n unsorted %+v\n sorted   %+v", trial, n, slo, got, want)
		}
		if unsorted.P99() != want.P99 || unsorted.Percentile(37) != sorted.Percentile(37) {
			t.Fatalf("trial %d: percentiles after Summarize disagree with the sorted sample", trial)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if sm := NewSample(0).Summarize(ns(1)); sm != (Summary{}) {
		t.Fatalf("empty summary = %+v", sm)
	}
}

func TestReset(t *testing.T) {
	s := NewSample(4)
	s.Add(ns(1))
	s.Reset()
	if s.Len() != 0 || s.Percentile(99) != 0 {
		t.Fatal("reset did not clear sample")
	}
}

func TestPercentileMonotonic(t *testing.T) {
	// Property: percentiles are nondecreasing in p.
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample(len(raw))
		for _, v := range raw {
			s.Add(sim.Time(v))
		}
		prev := sim.Time(-1)
		for p := 1.0; p <= 100; p += 7 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 5)
	for i := 0; i < 100; i++ {
		h.Add(float64(i)) // 0..99, buckets of width 5, 10 buckets -> 0..49 inside
	}
	if h.Total() != 100 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Overflow() != 50 {
		t.Fatalf("overflow = %d", h.Overflow())
	}
	for i := 0; i < 10; i++ {
		if h.Count(i) != 5 {
			t.Fatalf("bucket %d = %d", i, h.Count(i))
		}
	}
	h.Add(-3) // clamps to bucket 0
	if h.Count(0) != 6 {
		t.Fatalf("negative clamp failed: %d", h.Count(0))
	}
	if h.Buckets() != 10 {
		t.Fatalf("buckets = %d", h.Buckets())
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 7
	}
	slope, intercept, ok := LinearFit(xs, ys)
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(slope-3) > 1e-9 || math.Abs(intercept-7) > 1e-9 {
		t.Fatalf("fit = %v, %v", slope, intercept)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if _, _, ok := LinearFit([]float64{1}, []float64{2}); ok {
		t.Fatal("single point should not fit")
	}
	if _, _, ok := LinearFit([]float64{1, 2}, []float64{2}); ok {
		t.Fatal("mismatched lengths should not fit")
	}
	if _, _, ok := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); ok {
		t.Fatal("vertical line should not fit")
	}
}

func TestLinearFitNoisy(t *testing.T) {
	r := sim.NewRNG(3)
	// norm is a standard normal draw (Box-Muller).
	norm := func() float64 {
		u1 := r.Float64()
		for u1 == 0 {
			u1 = r.Float64()
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
	var xs, ys []float64
	for i := 0; i < 2000; i++ {
		x := r.Float64() * 100
		xs = append(xs, x)
		ys = append(ys, 2.5*x+10+norm())
	}
	slope, intercept, ok := LinearFit(xs, ys)
	if !ok || math.Abs(slope-2.5) > 0.05 || math.Abs(intercept-10) > 1 {
		t.Fatalf("noisy fit = %v, %v (ok=%v)", slope, intercept, ok)
	}
}

func TestMeanHelper(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
}
