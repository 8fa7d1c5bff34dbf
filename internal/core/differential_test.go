package core

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/nic"
	"repro/internal/policy"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// recordVectors runs a real scheduler under deterministic skewed bursts
// and samples every manager's synchronized queue-length view each
// period, producing the recorded corpus the differential test replays.
func recordVectors(t *testing.T) [][]int {
	t.Helper()
	const groups = 6
	eng := sim.NewEngine()
	p := DefaultParams(groups, 2)
	p.Period = 100 * sim.Nanosecond
	steer := nic.NewSteerer(nic.SteerDirect, groups, nil)
	s, err := New(eng, p, fabric.Default(), steer, func(*rpcproto.Request) {})
	if err != nil {
		t.Fatal(err)
	}

	// Rotating hot group: bursts land on group (burst # mod groups) with
	// service times slow enough that backlogs persist into several
	// ticks, so the sampled views include hills, valleys and staircases.
	var id uint64
	for b := 0; b < 40; b++ {
		hot := uint32(b % groups)
		at := sim.Time(b) * 500 * sim.Nanosecond
		n := 8 + (b%5)*9
		eng.At(at, func() {
			for i := 0; i < n; i++ {
				id++
				s.Deliver(&rpcproto.Request{ID: id, Conn: hot,
					Arrival: eng.Now(), Service: 3 * sim.Microsecond})
			}
		})
	}

	var corpus [][]int
	var sample func()
	sample = func() {
		for g := 0; g < groups; g++ {
			corpus = append(corpus, append([]int(nil), s.GroupView(g)...))
		}
		eng.After(p.Period, sample)
	}
	eng.At(p.Period/2, sample)
	eng.Run(25 * sim.Microsecond)
	s.Stop()
	return corpus
}

// TestDecideDifferentialOnRecordedCorpus replays queue vectors recorded
// from a live simulator run through both the extracted policy.Decide and
// a reference reimplementation of the pre-refactor decision sequence,
// requiring bit-identical triggers, patterns and destination lists. The
// generated-vector differential lives in internal/policy; this one
// checks the states the engine actually produces — synchronized views
// with UPDATE lag, mid-drain staircases — not just synthetic ones.
func TestDecideDifferentialOnRecordedCorpus(t *testing.T) {
	corpus := recordVectors(t)
	if len(corpus) < 200 {
		t.Fatalf("corpus too small: %d vectors", len(corpus))
	}

	order := make([]int, 0, 8)
	dests := make([]int, 0, 8)
	decisions, patternHits := 0, 0
	for _, view := range corpus {
		for self := 0; self < len(view); self++ {
			for _, threshold := range []int{0, 3, 9, 21} {
				for _, patterns := range []bool{true, false} {
					gotT, gotP, gotD := policy.Decide(view, self, threshold, p16Bulk, p16Conc, patterns, order, dests)
					refT, refP, refD := headDecide(view, self, threshold, p16Bulk, p16Conc, patterns)
					if gotT != refT || gotP != refP || !equalInts(gotD, refD) {
						t.Fatalf("recorded view %v self %d t=%d patterns=%v: policy (%v,%v,%v) != pre-refactor (%v,%v,%v)",
							view, self, threshold, patterns, gotT, gotP, gotD, refT, refP, refD)
					}
					if len(gotD) > 0 {
						decisions++
						if gotT == policy.TriggerPattern {
							patternHits++
						}
					}
				}
			}
		}
	}
	// The corpus must actually exercise the logic: a run where nothing
	// ever fires would vacuously pass.
	if decisions == 0 || patternHits == 0 {
		t.Fatalf("degenerate corpus: %d firing decisions, %d pattern roles", decisions, patternHits)
	}
	t.Logf("corpus: %d vectors, %d firing decisions (%d pattern roles)", len(corpus), decisions, patternHits)
}

// Fixed planner knobs for the differential (the defaults the recorded
// run itself used).
const (
	p16Bulk = 16
	p16Conc = 3
)

// headDecide is the pre-refactor Scheduler.decide sequence with the
// classification vendored verbatim from this package's own pre-refactor
// patterns.go (git history) — NOT the delegating aliases above, which
// would make the comparison circular. Do not "fix" bugs here; a
// disagreement means the extraction drifted.
func headDecide(view []int, self, threshold, bulk, conc int, patterns bool) (policy.Trigger, policy.Pattern, []int) {
	if conc > len(view)-1 {
		conc = len(view) - 1
	}
	if patterns {
		pattern, dests := headClassify(view, self, bulk, conc)
		if len(dests) > 0 {
			return policy.TriggerPattern, pattern, dests
		}
	}
	if view[self] > threshold {
		return policy.TriggerThreshold, policy.PatternNone, headShortestOthers(view, self, conc)
	}
	return policy.TriggerNone, policy.PatternNone, nil
}

func headClassify(view []int, self, bulk, conc int) (policy.Pattern, []int) {
	n := len(view)
	if n < 2 || self < 0 || self >= n {
		return policy.PatternNone, nil
	}
	if conc > n-1 {
		conc = n - 1
	}
	if conc < 1 {
		conc = 1
	}
	order := headRankDescending(view)
	longest, second := order[0], order[1]
	shortest, secondShortest := order[n-1], order[n-2]

	switch {
	case view[longest] >= view[second]+bulk:
		if self != longest {
			return policy.PatternHill, nil
		}
		var dests []int
		for i := n - 1; i >= 0 && len(dests) < conc; i-- {
			if d := order[i]; d != self {
				dests = append(dests, d)
			}
		}
		return policy.PatternHill, dests
	case view[shortest]+bulk <= view[secondShortest]:
		if self == shortest {
			return policy.PatternValley, nil
		}
		return policy.PatternValley, []int{shortest}
	case view[longest]-view[shortest] >= bulk:
		for i := 0; i < conc && i < n/2; i++ {
			if order[i] != self {
				continue
			}
			d := order[n-1-i]
			if d != self && view[self] > view[d] {
				return policy.PatternPairing, []int{d}
			}
			return policy.PatternPairing, nil
		}
		return policy.PatternPairing, nil
	}
	return policy.PatternNone, nil
}

func headRankDescending(view []int) []int {
	n := len(view)
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if view[b] > view[a] || (view[b] == view[a] && b < a) {
				order[j-1], order[j] = order[j], order[j-1]
			} else {
				break
			}
		}
	}
	return order
}

func headShortestOthers(view []int, self, k int) []int {
	order := headRankDescending(view)
	var out []int
	for i := len(order) - 1; i >= 0 && len(out) < k; i-- {
		if d := order[i]; d != self {
			out = append(out, d)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
