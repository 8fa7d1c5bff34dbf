package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// now is the harness's only wall-clock read: every host-time metric is
// a difference of two of these.
func now() time.Time {
	return time.Now() //altolint:allow detnow the benchmark measures host time; simulated results never see this clock
}

// quartiles returns the first quartile, median and third quartile of
// xs the way Python's statistics.quantiles(xs, n=4) does (exclusive
// method), so the spreads printed here are the ones the acceptance
// check computes. One value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// spread is a sample of one host-time quantity over the reps or rounds
// of a run, printed as median with quartiles and count.
type spread struct {
	Median, Q1, Q3 float64
	N              int
}

func spreadOf(xs []float64) spread {
	q1, med, q3 := quartiles(xs)
	return spread{Median: med, Q1: q1, Q3: q3, N: len(xs)}
}

// allocated is the heap's cumulative allocation counters.
type allocated struct{ objects, bytes uint64 }

func (a allocated) since(b allocated) allocated {
	return allocated{a.objects - b.objects, a.bytes - b.bytes}
}

func (a *allocated) add(b allocated) {
	a.objects += b.objects
	a.bytes += b.bytes
}

// allocations reads the counters. ReadMemStats stops the world, so it
// is only ever called between timed regions.
func allocations() allocated {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocated{ms.Mallocs, ms.TotalAlloc}
}

// mallocs is allocations().objects, for the drives that need only that.
func mallocs() uint64 { return allocations().objects }

// liveHeapMB collects the heap and returns what is still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// The shared boxes this runs on change their clock speed from second to
// second: a dependent multiply-add chain, which touches no memory, took
// 1.03 to 1.62 ns per step over one minute on the box this was written
// on, and every host-time number moved with it. So host time is kept in
// reference time: an interval is scaled by how fast the reference loop
// ran just before and just after it, relative to refStep. What is left
// is interference the loop does not see (a neighbour's cache and memory
// traffic), which medians over reps and over seeds absorb.
const (
	spinSteps = 400000
	refStep   = 1.25 // ns per step of the reference loop on the box at its usual speed
)

var spinSink uint64

// spin runs the reference loop once, about half a millisecond.
func spin() time.Duration {
	t0 := now()
	acc := spinSink
	for i := 0; i < spinSteps; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	spinSink = acc
	return now().Sub(t0)
}

// stopwatch times intervals in raw and in reference time. Intervals that
// follow each other closely share the spin between them.
type stopwatch struct {
	before  time.Duration // the spin that preceded the running interval
	spunAt  time.Time     // when that spin ended
	started time.Time
}

func (s *stopwatch) start() {
	if t := now(); s.spunAt.IsZero() || t.Sub(s.spunAt) > 2*time.Millisecond {
		s.before = spin()
	}
	s.started = now()
}

// stop ends the interval and returns its raw length and the factor that
// turns raw time around it into reference time.
func (s *stopwatch) stop() (raw time.Duration, toRef float64) {
	raw = now().Sub(s.started)
	after := spin()
	s.spunAt = now()
	local := float64((s.before + after).Nanoseconds()) / 2
	s.before = after
	return raw, refStep * spinSteps / local
}

// inRef scales a raw duration into reference time.
func inRef(d time.Duration, toRef float64) time.Duration {
	return time.Duration(float64(d) * toRef)
}

// budget hands out shares of the run's measured seconds. A phase keeps
// going while more() is true; min guarantees a floor of iterations for
// workloads whose single rep is a large part of the share.
type budget struct {
	start time.Time
	limit time.Duration
	min   int
	done  int
}

func newBudget(seconds float64, min int) *budget {
	return &budget{start: now(), limit: time.Duration(seconds * float64(time.Second)), min: min}
}

// once is the budget of exactly one iteration.
func once() *budget { return newBudget(0, 1) }

func (b *budget) more() bool {
	if b.done < b.min || now().Sub(b.start) < b.limit {
		b.done++
		return true
	}
	return false
}

// clockCost measures what one timing-wrapper call adds to its own
// reading: the mean interval between two back-to-back clock reads. The
// wrappers subtract it per call, so a 10 ns draw is not reported as the
// 40 ns the clock itself takes.
func clockCost() time.Duration {
	const n = 200000
	var acc time.Duration
	for i := 0; i < n; i++ {
		t0 := now()
		acc += now().Sub(t0)
	}
	return acc / n
}

// timer accumulates the wrapped calls of one layer inside one run.
type timer struct {
	total time.Duration
	calls int64
}

func (t *timer) add(d time.Duration) {
	t.total += d
	t.calls++
}

// net is the accumulated time with the clock's own cost taken out.
func (t *timer) net(perCall time.Duration) time.Duration {
	d := t.total - time.Duration(t.calls)*perCall
	if d < 0 {
		return 0
	}
	return d
}
