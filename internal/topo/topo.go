// Package topo models the on-chip topology: a 2-D mesh of core tiles with
// dimension-ordered (X-then-Y) deterministic routing, the routing choice
// the paper makes for ALTOCUMULUS messages (§V-B "we opt for deterministic
// routing since the NoC is often lightly loaded"), plus a light link
// occupancy model so that migration bursts see serialization delay.
package topo

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Coord is a tile position on the mesh.
type Coord struct{ X, Y int }

// Mesh is a W×H grid of tiles, numbered row-major: tile id = y*W + x.
type Mesh struct {
	W, H int
}

// NewMesh returns a mesh large enough for n tiles, as close to square as
// possible (the usual tiled-CMP floorplan: 16 cores → 4×4, 64 → 8×8,
// 256 → 16×16).
func NewMesh(n int) Mesh {
	if n < 1 {
		n = 1
	}
	w := int(math.Ceil(math.Sqrt(float64(n))))
	h := (n + w - 1) / w
	return Mesh{W: w, H: h}
}

// Tiles returns the mesh capacity.
func (m Mesh) Tiles() int { return m.W * m.H }

// Coord returns the position of tile id.
func (m Mesh) Coord(id int) Coord {
	if id < 0 || id >= m.Tiles() {
		panic(fmt.Sprintf("topo: tile %d out of range [0,%d)", id, m.Tiles()))
	}
	return Coord{X: id % m.W, Y: id / m.W}
}

// ID returns the tile id at position c.
func (m Mesh) ID(c Coord) int {
	if c.X < 0 || c.X >= m.W || c.Y < 0 || c.Y >= m.H {
		panic(fmt.Sprintf("topo: coord %v out of mesh %dx%d", c, m.W, m.H))
	}
	return c.Y*m.W + c.X
}

// Hops returns the Manhattan hop count between two tiles under
// dimension-ordered routing.
func (m Mesh) Hops(src, dst int) int {
	a, b := m.Coord(src), m.Coord(dst)
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

// Route returns the sequence of tile ids visited from src to dst under
// X-then-Y dimension-ordered routing, excluding src and including dst.
func (m Mesh) Route(src, dst int) []int {
	a, b := m.Coord(src), m.Coord(dst)
	path := make([]int, 0, m.Hops(src, dst))
	for a.X != b.X {
		a.X += sign(b.X - a.X)
		path = append(path, m.ID(a))
	}
	for a.Y != b.Y {
		a.Y += sign(b.Y - a.Y)
		path = append(path, m.ID(a))
	}
	return path
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	if v > 0 {
		return 1
	}
	return 0
}

// NoC models message delivery over the mesh. Latency = hops × PerHop +
// payload serialization at LinkBandwidth, plus queueing when a source
// link is busy (a simple per-source occupancy model: ALTOCUMULUS traffic
// is injected per manager tile, so source-side serialization is the
// relevant contention point for migration bursts; the paper routes AC
// packets on a dedicated virtual network, so cross-traffic interference
// is excluded by construction).
type NoC struct {
	Mesh    Mesh
	PerHop  sim.Time // per-hop router+link latency (paper: 3 ns)
	BytesNS float64  // link bandwidth in bytes per nanosecond (e.g. 64 B/ns)

	busyUntil []sim.Time // per source tile; zero = never used
}

// NewNoC returns a NoC over the given mesh with the paper's 3 ns per-hop
// latency and a 64 B/cycle-class link (64 bytes/ns at 1 GHz flit clock).
func NewNoC(mesh Mesh) *NoC {
	return &NoC{
		Mesh:      mesh,
		PerHop:    3 * sim.Nanosecond,
		BytesNS:   64,
		busyUntil: make([]sim.Time, mesh.Tiles()),
	}
}

// Serialization returns the time to push size bytes onto a link.
func (n *NoC) Serialization(size int) sim.Time {
	if size <= 0 || n.BytesNS <= 0 {
		return 0
	}
	return sim.FromNanos(float64(size) / n.BytesNS)
}

// Send computes the timing of a message of size bytes injected at tile
// src at time now, destined for dst, recording source-link occupancy.
// It returns two delays from now: when injection completes (the source
// FIFO entry frees) and when the message is fully received at dst.
func (n *NoC) Send(now sim.Time, src, dst, size int) (injectDone, arrive sim.Time) {
	ser := n.Serialization(size)
	start := now
	if b := n.busyUntil[src]; b > start {
		start = b
	}
	n.busyUntil[src] = start + ser
	injectDone = (start - now) + ser
	arrive = injectDone + n.Transit(src, dst)
	return injectDone, arrive
}

// Burst is the timing of messages booked back to back on one source
// link at one instant (see Broadcast).
type Burst struct {
	Base sim.Time // from the booking instant until the link frees
	Step sim.Time // one message's serialization
}

// Injected returns the delay from the booking instant until message k
// (0-based, in booking order) has left the source.
func (b Burst) Injected(k int) sim.Time { return b.Base + sim.Time(k+1)*b.Step }

// Broadcast books count messages of size bytes injected back to back at
// tile src at time now, in closed form: the link occupancy and every
// message's timing equal count calls of Send at now, but the cost is
// O(1). Message k arrives at its destination dst Injected(k) +
// Transit(src, dst) after now. count must be at least 1.
func (n *NoC) Broadcast(now sim.Time, src, count, size int) Burst {
	ser := n.Serialization(size)
	start := now
	if b := n.busyUntil[src]; b > start {
		start = b
	}
	n.busyUntil[src] = start + sim.Time(count)*ser
	return Burst{Base: start - now, Step: ser}
}

// Transit returns the hop latency from src to dst, paid after a message
// has left the source link.
func (n *NoC) Transit(src, dst int) sim.Time {
	hops := n.Mesh.Hops(src, dst)
	if hops == 0 {
		hops = 1 // local loopback still crosses the router once
	}
	return sim.Time(hops) * n.PerHop
}

// Reset clears link occupancy (between runs).
func (n *NoC) Reset() { clear(n.busyUntil) }
