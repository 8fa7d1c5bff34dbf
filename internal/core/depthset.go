package core

import "math/bits"

// maxWorkerDepth bounds Params.WorkerDepth: a group keeps one worker
// bitset per depth level, so the bound caps that memory (8 KB per group
// of up to 64 workers).
const maxWorkerDepth = 1024

// depthSets files a group's workers by outstanding count: level d, for
// d below WorkerDepth, is a bitset of the workers holding exactly d
// requests. A worker at WorkerDepth is in no level. Levels are stored
// back to back in ascending order, so the first set bit of the whole
// slice is the lowest-numbered worker of the lowest non-empty level —
// the first minimum of a scan in worker order.
type depthSets struct {
	words int      // uint64 words per level: ceil(workers/64)
	bits  []uint64 // level d occupies bits[d*words : (d+1)*words]
}

// depthSetWords is the slab length depthSets needs for workers workers
// and depth levels.
func depthSetWords(workers, depth int) int { return depth * ((workers + 63) / 64) }

// newDepthSets files workers workers at level 0 in bits, a zeroed slab
// of depthSetWords(workers, depth) words.
func newDepthSets(bits []uint64, workers int) depthSets {
	d := depthSets{words: (workers + 63) / 64, bits: bits}
	for w := 0; w < workers; w++ {
		d.bits[w/64] |= 1 << (w % 64)
	}
	return d
}

// move refiles worker w from level from to level to; a level at or past
// the depth bound is no level.
func (d depthSets) move(w, from, to int) {
	word, bit := w/64, uint64(1)<<(w%64)
	if i := from*d.words + word; i < len(d.bits) {
		d.bits[i] &^= bit
	}
	if i := to*d.words + word; i < len(d.bits) {
		d.bits[i] |= bit
	}
}

// first returns the lowest-numbered worker of the lowest non-empty
// level, or -1 when every worker is at the depth bound.
func (d depthSets) first() int {
	for i, b := range d.bits {
		if b != 0 {
			return (i%d.words)*64 + bits.TrailingZeros64(b)
		}
	}
	return -1
}
