package topo

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestNewMeshShapes(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{16, 4, 4}, {64, 8, 8}, {256, 16, 16}, {17, 5, 4}, {1, 1, 1}, {0, 1, 1},
	}
	for _, c := range cases {
		m := NewMesh(c.n)
		if m.W != c.w || m.H != c.h {
			t.Errorf("NewMesh(%d) = %dx%d, want %dx%d", c.n, m.W, m.H, c.w, c.h)
		}
		if c.n > 0 && m.Tiles() < c.n {
			t.Errorf("NewMesh(%d) too small: %d tiles", c.n, m.Tiles())
		}
	}
}

func TestCoordIDRoundTrip(t *testing.T) {
	m := NewMesh(64)
	for id := 0; id < m.Tiles(); id++ {
		if got := m.ID(m.Coord(id)); got != id {
			t.Fatalf("round trip failed for %d: got %d", id, got)
		}
	}
}

func TestCoordPanics(t *testing.T) {
	m := NewMesh(16)
	for _, f := range []func(){
		func() { m.Coord(-1) },
		func() { m.Coord(16) },
		func() { m.ID(Coord{X: 4, Y: 0}) },
		func() { m.ID(Coord{X: 0, Y: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHops(t *testing.T) {
	m := NewMesh(16) // 4x4
	if got := m.Hops(0, 0); got != 0 {
		t.Fatalf("self hops = %d", got)
	}
	if got := m.Hops(0, 15); got != 6 {
		t.Fatalf("corner-to-corner hops = %d, want 6", got)
	}
	if got := m.Hops(0, 3); got != 3 {
		t.Fatalf("row hops = %d", got)
	}
	if got := m.Hops(0, 12); got != 3 {
		t.Fatalf("column hops = %d", got)
	}
}

func TestHopsSymmetric(t *testing.T) {
	m := NewMesh(64)
	f := func(a, b uint8) bool {
		s, d := int(a)%64, int(b)%64
		return m.Hops(s, d) == m.Hops(d, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteLengthMatchesHops(t *testing.T) {
	m := NewMesh(64)
	f := func(a, b uint8) bool {
		s, d := int(a)%64, int(b)%64
		route := m.Route(s, d)
		if len(route) != m.Hops(s, d) {
			return false
		}
		if len(route) > 0 && route[len(route)-1] != d {
			return false
		}
		// Each step moves exactly one hop.
		prev := s
		for _, tile := range route {
			if m.Hops(prev, tile) != 1 {
				return false
			}
			prev = tile
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteXThenY(t *testing.T) {
	m := NewMesh(16) // 4x4
	// From (0,0) to (2,2): X first -> 1, 2, then Y -> 6, 10.
	route := m.Route(0, 10)
	want := []int{1, 2, 6, 10}
	if len(route) != len(want) {
		t.Fatalf("route = %v", route)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route = %v, want %v", route, want)
		}
	}
}

func TestNoCDelayBasics(t *testing.T) {
	m := NewMesh(16)
	n := NewNoC(m)
	// 0 -> 15 is 6 hops: 18 ns plus serialization of 14 bytes (<1 ns).
	_, d := n.Send(0, 0, 15, 14)
	if d < 18*sim.Nanosecond || d > 19*sim.Nanosecond {
		t.Fatalf("delay = %v, want ~18ns", d)
	}
	// Local delivery still crosses a router once.
	n.Reset()
	if _, got := n.Send(0, 3, 3, 0); got != 3*sim.Nanosecond {
		t.Fatalf("loopback = %v", got)
	}
}

func TestNoCSourceContention(t *testing.T) {
	m := NewMesh(16)
	n := NewNoC(m)
	// Two large back-to-back messages from the same tile: the second
	// waits for the first's serialization.
	size := 6400 // 100 ns at 64 B/ns
	_, d1 := n.Send(0, 0, 1, size)
	_, d2 := n.Send(0, 0, 2, size)
	if d2 <= d1 {
		t.Fatalf("no serialization backpressure: d1=%v d2=%v", d1, d2)
	}
	if d2-d1 < 90*sim.Nanosecond {
		t.Fatalf("backpressure too small: %v", d2-d1)
	}
	// After Reset, occupancy clears.
	n.Reset()
	if _, got := n.Send(0, 0, 1, size); got != d1 {
		t.Fatalf("reset did not clear occupancy: %v != %v", got, d1)
	}
}

func TestNoCSerialization(t *testing.T) {
	n := NewNoC(NewMesh(4))
	if n.Serialization(0) != 0 {
		t.Fatal("zero size serialization")
	}
	if got := n.Serialization(64); got != sim.Nanosecond {
		t.Fatalf("64B serialization = %v", got)
	}
	n.BytesNS = 0
	if n.Serialization(64) != 0 {
		t.Fatal("zero bandwidth should not divide by zero")
	}
}

// TestNoCSendMatchesMapOccupancy replays a random message stream — every
// tile of a 1024-core mesh as a source, bursts and idle gaps — against
// the per-source occupancy rule written out over a map, the NoC's
// original backing: Send must agree to the picosecond, before and after
// an in-place Reset.
func TestNoCSendMatchesMapOccupancy(t *testing.T) {
	m := NewMesh(1024)
	n := NewNoC(m)
	busy := map[int]sim.Time{}
	ref := func(now sim.Time, src, dst, size int) (sim.Time, sim.Time) {
		ser := n.Serialization(size)
		start := now
		if b, ok := busy[src]; ok && b > start {
			start = b
		}
		busy[src] = start + ser
		hops := m.Hops(src, dst)
		if hops == 0 {
			hops = 1
		}
		return start - now + ser, start - now + ser + sim.Time(hops)*n.PerHop
	}
	rng := sim.NewRNG(3)
	var now sim.Time
	for i := 0; i < 20000; i++ {
		if i == 10000 {
			n.Reset()
			clear(busy)
			now = 0
		}
		if rng.Intn(4) == 0 {
			now += sim.Time(rng.Intn(50)) * sim.Nanosecond
		}
		src, dst, size := rng.Intn(m.Tiles()), rng.Intn(m.Tiles()), rng.Intn(4096)
		if i%2 == 0 {
			src = m.Tiles() - 1 - rng.Intn(4) // a few hot sources, last tile included
		}
		wantInject, wantArrive := ref(now, src, dst, size)
		inject, arrive := n.Send(now, src, dst, size)
		if inject != wantInject || arrive != wantArrive {
			t.Fatalf("msg %d: Send(%v, %d, %d, %d) = %v, %v, want %v, %v",
				i, now, src, dst, size, inject, arrive, wantInject, wantArrive)
		}
	}
}

// TestBroadcastMatchesSends holds the closed-form booking to the
// per-message rule: from random instants, prior link occupancy and
// message sizes, one Broadcast of n messages gives every message the
// injection and arrival times of n back-to-back Sends at the same
// instant, and leaves the link busy until the same time.
func TestBroadcastMatchesSends(t *testing.T) {
	m := NewMesh(1024)
	rng := sim.NewRNG(5)
	for _, count := range []int{1, 3, 63, 255} {
		for trial := 0; trial < 50; trial++ {
			closed, ref := NewNoC(m), NewNoC(m)
			src, size := rng.Intn(m.Tiles()), rng.Intn(4096)
			// A prior message holds the link for up to 100 ns, so the
			// burst starts either at now or behind it.
			prior := rng.Intn(6400)
			closed.Send(0, src, src, prior)
			ref.Send(0, src, src, prior)
			now := sim.Time(rng.Intn(200)) * sim.Nanosecond / 2
			dsts := make([]int, count)
			for k := range dsts {
				dsts[k] = rng.Intn(m.Tiles())
			}
			b := closed.Broadcast(now, src, count, size)
			for k, dst := range dsts {
				inject, arrive := ref.Send(now, src, dst, size)
				if got := b.Injected(k); got != inject {
					t.Fatalf("n=%d msg %d: Injected = %v, Send's injection %v", count, k, got, inject)
				}
				if got := b.Injected(k) + closed.Transit(src, dst); got != arrive {
					t.Fatalf("n=%d msg %d: closed-form arrival %v, Send's %v", count, k, got, arrive)
				}
			}
			if closed.busyUntil[src] != ref.busyUntil[src] {
				t.Fatalf("n=%d: link busy until %v, %d Sends leave it busy until %v",
					count, closed.busyUntil[src], count, ref.busyUntil[src])
			}
		}
	}
}
