package core

import (
	"testing"

	"repro/internal/sim"
)

// TestFreeWorkerMatchesScan holds freeWorker's depth levels to the scan
// they replace: over random walks of per-worker outstanding counts —
// phases that fill every worker to the bound and phases that drain
// them — the first worker of the lowest non-empty level is the scan's
// first strict minimum below WorkerDepth, or -1 when there is none, for
// group widths on both sides of a 64-bit word boundary.
func TestFreeWorkerMatchesScan(t *testing.T) {
	rng := sim.NewRNG(9)
	for _, workers := range []int{1, 15, 64, 65, 130} {
		for _, depth := range []int{1, 2, 4} {
			g := &group{
				out:    make([]int, workers),
				levels: newDepthSets(make([]uint64, depthSetWords(workers, depth)), workers),
			}
			scan := func() int {
				best, bestN := -1, depth
				for w, n := range g.out {
					if n < bestN {
						best, bestN = w, n
					}
				}
				return best
			}
			full := 0
			for step := 0; step < 16000; step++ {
				fill := step/4000%2 == 0
				if rng.Intn(200) == 0 { // an occasional step against the phase
					fill = !fill
				}
				w := rng.Intn(workers)
				switch {
				case fill && g.out[w] < depth:
					g.hold(w)
				case !fill && g.out[w] > 0:
					g.release(w)
				}
				got, want := g.freeWorker(), scan()
				if got != want {
					t.Fatalf("W=%d depth=%d step %d: outstanding %v: freeWorker %d, scan %d",
						workers, depth, step, g.out, got, want)
				}
				if want < 0 {
					full++
				}
			}
			if full == 0 {
				t.Fatalf("W=%d depth=%d: the walk never filled every worker", workers, depth)
			}
		}
	}
}
