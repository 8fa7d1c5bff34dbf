// Package stats provides the measurement machinery for the evaluation:
// latency sample recording, percentile extraction, histograms, linear
// least-squares fitting (used to calibrate the E[T̂] threshold model) and
// small summary helpers.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/policy"
	"repro/internal/sim"
)

// Sample accumulates latency observations (as sim.Time) and answers
// percentile and moment queries. It keeps all samples; the experiments in
// this repository record at most a few million per run, which is cheap.
type Sample struct {
	xs     []sim.Time
	sorted bool
}

// NewSample returns an empty sample with the given capacity hint.
func NewSample(capacity int) *Sample {
	return &Sample{xs: make([]sim.Time, 0, capacity)}
}

// Add records one observation.
func (s *Sample) Add(v sim.Time) {
	s.xs = append(s.xs, v)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Reset discards all observations, retaining capacity.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = true
}

func (s *Sample) sortIfNeeded() {
	if !s.sorted {
		slices.Sort(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, which is what tail-latency SLOs are defined
// against. Returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) sim.Time {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortIfNeeded()
	return s.xs[rankIndex(p, len(s.xs))]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile
// in a sorted sample of n > 0 observations.
func rankIndex(p float64, n int) int {
	if p <= 0 {
		return 0
	}
	return min(max(int(math.Ceil(p/100*float64(n))), 1), n) - 1
}

// P50, P99, P999 are the percentiles the paper reports.
func (s *Sample) P50() sim.Time  { return s.Percentile(50) }
func (s *Sample) P99() sim.Time  { return s.Percentile(99) }
func (s *Sample) P999() sim.Time { return s.Percentile(99.9) }

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() sim.Time {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortIfNeeded()
	return s.xs[len(s.xs)-1]
}

// Mean returns the arithmetic mean. The sum is taken in integer
// picoseconds, so it does not depend on the order of the observations
// (and below 2⁵³ equals a float64 running sum).
func (s *Sample) Mean() sim.Time {
	if len(s.xs) == 0 {
		return 0
	}
	var sum int64
	for _, v := range s.xs {
		sum += int64(v)
	}
	return sim.Time(float64(sum) / float64(len(s.xs)))
}

// StdDev returns the population standard deviation in picoseconds.
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	mean := float64(s.Mean())
	var ss float64
	for _, v := range s.xs {
		d := float64(v) - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// CountAbove returns how many observations exceed the threshold. This is
// the "# SLO violations" counter. An unsorted sample is counted in one
// pass and stays unsorted.
func (s *Sample) CountAbove(thr sim.Time) int {
	if !s.sorted {
		n := 0
		for _, v := range s.xs {
			if v > thr {
				n++
			}
		}
		return n
	}
	// First index with xs[i] > thr.
	i := sort.Search(len(s.xs), func(i int) bool { return s.xs[i] > thr })
	return len(s.xs) - i
}

// FractionAbove returns the ratio of observations exceeding the threshold.
func (s *Sample) FractionAbove(thr sim.Time) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return float64(s.CountAbove(thr)) / float64(len(s.xs))
}

// Summary is a compact digest of a sample, convenient for table rows.
type Summary struct {
	N          int
	Mean       sim.Time
	P50        sim.Time
	P99        sim.Time
	P999       sim.Time
	Max        sim.Time
	Violations int     // observations above SLO
	VioRatio   float64 // Violations / N
}

// Summarize digests the sample against an SLO threshold. An unsorted
// sample is not sorted: one pass takes the violation count, the max and
// the sum, and three nested selections take p50, p99 and p99.9, each
// within the part of the sample the previous one left at or above its
// rank. The sample is left reordered but unsorted, so a later
// Percentile sorts it as before. The digest is the sorted path's, field
// for field.
func (s *Sample) Summarize(slo sim.Time) Summary {
	n := len(s.xs)
	if n == 0 {
		return Summary{}
	}
	if s.sorted {
		v := s.CountAbove(slo)
		return Summary{
			N: n, Mean: s.Mean(),
			P50: s.P50(), P99: s.P99(), P999: s.P999(), Max: s.xs[n-1],
			Violations: v, VioRatio: float64(v) / float64(n),
		}
	}
	sm := Summary{N: n, Max: s.xs[0]}
	var sum int64
	for _, v := range s.xs {
		sum += int64(v)
		sm.Max = max(sm.Max, v)
		if v > slo {
			sm.Violations++
		}
	}
	sm.Mean = sim.Time(float64(sum) / float64(n))
	sm.VioRatio = float64(sm.Violations) / float64(n)
	k50, k99, k999 := rankIndex(50, n), rankIndex(99, n), rankIndex(99.9, n)
	sm.P50 = selectNth(s.xs, k50)
	sm.P99 = selectNth(s.xs[k50:], k99-k50)
	sm.P999 = selectNth(s.xs[k99:], k999-k99)
	return sm
}

// selectNth reorders xs so that xs[k] holds the value sorting would put
// there, with nothing larger before it and nothing smaller after it, and
// returns that value. It is quickselect with a median-of-three pivot and
// a three-way partition, so runs of equal values cost one pass; a
// window that has not narrowed to a few elements after 2·log₂n rounds is
// sorted instead, which bounds the worst case at O(n log n). The pivot
// rule is fixed, so the reordering is deterministic.
func selectNth(xs []sim.Time, k int) sim.Time {
	lo, hi := 0, len(xs)
	for rounds := 2 * bits.Len(uint(len(xs))); hi-lo > 12 && rounds > 0; rounds-- {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		p := max(min(a, b), min(max(a, b), c))
		lt, i, gt := lo, lo, hi // [lo,lt) < p, [lt,i) == p, [gt,hi) > p
		for i < gt {
			switch v := xs[i]; {
			case v < p:
				xs[lt], xs[i] = v, xs[lt]
				lt++
				i++
			case v > p:
				gt--
				xs[i], xs[gt] = xs[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
	slices.Sort(xs[lo:hi])
	return xs[k]
}

func (sm Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p99.9=%v max=%v viol=%d (%.3f%%)",
		sm.N, sm.Mean, sm.P50, sm.P99, sm.P999, sm.Max, sm.Violations, sm.VioRatio*100)
}

// Histogram is a fixed-width bucket histogram over a [0, max) range, used
// for the queue-length-vs-violation analysis (Fig. 7).
type Histogram struct {
	Width    float64
	counts   []uint64
	overflow uint64
	total    uint64
}

// NewHistogram returns a histogram with n buckets of the given width.
func NewHistogram(n int, width float64) *Histogram {
	return &Histogram{Width: width, counts: make([]uint64, n)}
}

// Add records value v.
func (h *Histogram) Add(v float64) {
	h.total++
	if v < 0 {
		v = 0
	}
	i := int(v / h.Width)
	if i >= len(h.counts) {
		h.overflow++
		return
	}
	h.counts[i]++
}

// Count returns the count in bucket i.
func (h *Histogram) Count(i int) uint64 { return h.counts[i] }

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Total returns the total number of observations, including overflow.
func (h *Histogram) Total() uint64 { return h.total }

// Overflow returns the number of observations beyond the last bucket.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// LinearFit performs ordinary least squares y = slope*x + intercept.
// The implementation lives in the engine-agnostic internal/policy
// (policy.Calibrate is its other caller); this delegate keeps the
// historical stats entry point.
func LinearFit(xs, ys []float64) (slope, intercept float64, ok bool) {
	return policy.LinearFit(xs, ys)
}

// Mean returns the mean of a float slice (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
