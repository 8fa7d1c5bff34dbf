package dist

import (
	"math"
	"sort"
	"testing"

	"repro/internal/sim"
)

// Kolmogorov-Smirnov goodness-of-fit tests: every continuous sampler is
// checked against its analytic CDF under three fixed seeds, which tests
// the whole distribution shape rather than the first moments only. The
// critical value 1.95/sqrt(n) corresponds to a ~0.001 significance
// level; with fixed seeds the test is deterministic, so any failure
// means a sampler (or its CDF) is wrong, not bad luck.
const (
	ksN    = 50_000
	ksCrit = 1.95
)

var ksSeeds = []uint64{3, 17, 91}

// ksDistance returns the KS statistic between an empirical sample and a
// continuous CDF.
func ksDistance(samples []float64, cdf func(float64) float64) float64 {
	sort.Float64s(samples)
	n := float64(len(samples))
	var d float64
	for i, x := range samples {
		f := cdf(x)
		if hi := float64(i+1)/n - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/n; lo > d {
			d = lo
		}
	}
	return d
}

func ksCheck(t *testing.T, name string, sample func(*sim.RNG) sim.Time, cdf func(float64) float64) {
	t.Helper()
	thresh := ksCrit / math.Sqrt(ksN)
	for _, seed := range ksSeeds {
		r := sim.NewRNG(seed)
		xs := make([]float64, ksN)
		for i := range xs {
			xs[i] = float64(sample(r))
		}
		if d := ksDistance(xs, cdf); d > thresh {
			t.Errorf("%s seed %d: KS distance %.5f > %.5f", name, seed, d, thresh)
		}
	}
}

func TestKSExponential(t *testing.T) {
	d := Exponential{M: sim.Microsecond}
	m := float64(d.M)
	ksCheck(t, d.Name(), d.Sample, func(x float64) float64 {
		return 1 - math.Exp(-x/m)
	})
}

func TestKSUniform(t *testing.T) {
	d := Uniform{Lo: 500 * sim.Nanosecond, Hi: 1500 * sim.Nanosecond}
	lo, hi := float64(d.Lo), float64(d.Hi)
	ksCheck(t, d.Name(), d.Sample, func(x float64) float64 {
		switch {
		case x < lo:
			return 0
		case x > hi:
			return 1
		default:
			return (x - lo) / (hi - lo)
		}
	})
}

func TestKSPoissonGaps(t *testing.T) {
	p := Poisson{Rate: 1e6} // 1 req/us
	ksCheck(t, "poisson-gaps", p.NextGap, func(x float64) float64 {
		return 1 - math.Exp(-p.Rate*x/float64(sim.Second))
	})
}
