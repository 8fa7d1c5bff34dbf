package policy

import (
	"testing"
	"testing/quick"
)

func TestClassifyWalkThroughExample(t *testing.T) {
	// §VI walk-through: Bulk=40, Concurrency=4, q=[30,30,70,30]: a Hill.
	// The 3rd queue's manager triggers migrations to QD={0,1,3}.
	view := []int{30, 30, 70, 30}
	pattern, dests := Classify(view, 2, 40, 4)
	if pattern != PatternHill {
		t.Fatalf("pattern = %v, want hill", pattern)
	}
	if len(dests) != 3 {
		t.Fatalf("dests = %v", dests)
	}
	seen := map[int]bool{}
	for _, d := range dests {
		if d == 2 {
			t.Fatal("hill owner cannot be a destination")
		}
		seen[d] = true
	}
	if !seen[0] || !seen[1] || !seen[3] {
		t.Fatalf("QD = %v, want {0,1,3}", dests)
	}
	// Other managers detect the Hill but take no action.
	for _, self := range []int{0, 1, 3} {
		p, d := Classify(view, self, 40, 4)
		if p != PatternHill || len(d) != 0 {
			t.Fatalf("manager %d: %v %v", self, p, d)
		}
	}
}

func TestClassifyValley(t *testing.T) {
	// One dip: everyone else sends one MIGRATE toward it.
	view := []int{100, 100, 100, 20}
	for self := 0; self < 3; self++ {
		p, d := Classify(view, self, 40, 4)
		if p != PatternValley {
			t.Fatalf("manager %d pattern = %v", self, p)
		}
		if len(d) != 1 || d[0] != 3 {
			t.Fatalf("manager %d dests = %v", self, d)
		}
	}
	// The dip's owner does nothing.
	if p, d := Classify(view, 3, 40, 4); p != PatternValley || len(d) != 0 {
		t.Fatalf("dip owner: %v %v", p, d)
	}
}

func TestClassifyPairing(t *testing.T) {
	// Gradual slope: no single peak or dip, but max-min >= bulk.
	view := []int{90, 70, 50, 30}
	// Longest (0) pairs with shortest (3); second longest (1) with
	// second shortest (2).
	p, d := Classify(view, 0, 40, 4)
	if p != PatternPairing || len(d) != 1 || d[0] != 3 {
		t.Fatalf("manager 0: %v %v", p, d)
	}
	p, d = Classify(view, 1, 40, 4)
	if p != PatternPairing {
		t.Fatalf("manager 1 pattern = %v", p)
	}
	// Manager 1 pairs with queue 2 only when conc >= 2 and the pair is
	// strictly shorter.
	if len(d) == 1 && d[0] != 2 {
		t.Fatalf("manager 1 dests = %v", d)
	}
	// The shortest queues do not send.
	if _, d := Classify(view, 3, 40, 4); len(d) != 0 {
		t.Fatalf("manager 3 dests = %v", d)
	}
}

func TestClassifyBalanced(t *testing.T) {
	view := []int{50, 52, 49, 51}
	for self := range view {
		if p, d := Classify(view, self, 16, 4); p != PatternNone || len(d) != 0 {
			t.Fatalf("balanced view classified %v %v", p, d)
		}
	}
}

func TestClassifyDegenerate(t *testing.T) {
	if p, d := Classify([]int{5}, 0, 16, 4); p != PatternNone || d != nil {
		t.Fatal("single queue")
	}
	if p, _ := Classify([]int{5, 5}, -1, 16, 4); p != PatternNone {
		t.Fatal("bad self")
	}
	if p, _ := Classify([]int{100, 0}, 5, 16, 4); p != PatternNone {
		t.Fatal("out-of-range self")
	}
}

func TestClassifyConsistencyProperty(t *testing.T) {
	// Property: for any view, all managers agree on the pattern, exactly
	// one manager acts for a Hill, and destinations never include the
	// sender or exceed conc.
	f := func(raw []uint8, bulkRaw, concRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		view := make([]int, len(raw))
		for i, v := range raw {
			view[i] = int(v)
		}
		bulk := int(bulkRaw)%64 + 1
		conc := int(concRaw)%8 + 1

		var firstPattern Pattern
		hillActors := 0
		for self := range view {
			p, dests := Classify(view, self, bulk, conc)
			if self == 0 {
				firstPattern = p
			} else if p != firstPattern {
				return false
			}
			if len(dests) > conc {
				return false
			}
			for _, d := range dests {
				if d == self || d < 0 || d >= len(view) {
					return false
				}
			}
			if p == PatternHill && len(dests) > 0 {
				hillActors++
			}
		}
		if firstPattern == PatternHill && hillActors != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestShortestOthers(t *testing.T) {
	view := []int{40, 10, 30, 20}
	got := ShortestOthers(view, 0, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("shortest = %v", got)
	}
	// Excludes self even when self is shortest.
	got = ShortestOthers(view, 1, 2)
	if len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Fatalf("shortest excl self = %v", got)
	}
}

func TestPatternStringer(t *testing.T) {
	want := map[Pattern]string{
		PatternNone: "none", PatternHill: "hill",
		PatternValley: "valley", PatternPairing: "pairing",
	}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("%d = %q", p, p.String())
		}
	}
}
