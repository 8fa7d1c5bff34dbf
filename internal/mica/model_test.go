package mica

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// model drives a one-partition store beside a map oracle. MICA is lossy,
// but not unpredictably so: with an index wide enough never to evict,
// the only way to lose a key is for the log's head to pass its entry.
// The oracle therefore keeps, per key, the most recent value and the
// absolute log offset of the copy that holds it, and knows exactly when
// a Get must hit (offset >= head) and what it must return. Same-size
// Sets must leave the offset alone, every other Set must append.
type model struct {
	tb   testing.TB
	s    *Store
	p    *partition
	want map[string]modelEntry
	log  []uint64 // offsets of every entry appended, oldest first

	// what the run exercised, for the coverage assertions
	straddleHdr, straddleKey, straddleVal int
	inPlace, inPlaceStraddling            int
	recycledUpdates                       int
	zeroLen                               int
}

type modelEntry struct {
	val []byte
	off uint64
}

// modelKeys is the size of the key universe: few enough that one bucket
// holds them all.
const modelKeys = 24

// modelUniverse holds the keys, 5 to 38 bytes long, in pairs: two keys
// of a pair have the same length and the same index tag and differ only
// in their last four bytes, so telling them apart takes the full key
// comparison, to the end, on the log's bytes.
var modelUniverse = func() (keys [][]byte) {
	for len(keys) < modelKeys {
		prefix := bytes.Repeat([]byte{byte('a' + len(keys))}, 1+len(keys)*3/2)
		byTag := map[uint16][]byte{}
		for n := uint32(0); ; n++ {
			k := binary.BigEndian.AppendUint32(append([]byte(nil), prefix...), n)
			if twin, ok := byTag[tagOf(Hash(k))]; ok {
				keys = append(keys, twin, k)
				break
			}
			byTag[tagOf(Hash(k))] = k
		}
	}
	return keys
}()

func modelKey(id int) []byte { return modelUniverse[id%modelKeys] }

func newModel(tb testing.TB, logBytes int64) *model {
	tb.Helper()
	s, err := NewStore(Config{Partitions: 1, BucketsPerPart: 1, EntriesPerBucket: modelKeys, LogBytesPerPart: logBytes})
	if err != nil {
		tb.Fatal(err)
	}
	return &model{tb: tb, s: s, p: s.parts[0], want: map[string]modelEntry{}}
}

// straddles reports whether the n bytes at absolute offset off cross the
// end of the log.
func (m *model) straddles(off, n uint64) bool {
	l := uint64(len(m.p.log))
	return n > 0 && off%l+n > l
}

func (m *model) set(key, val []byte) {
	m.tb.Helper()
	old, had := m.want[string(key)]
	resident := had && old.off >= m.p.head
	tail := m.p.tail
	size := uint64(entryHeader + len(key) + len(val))

	err := m.s.Set(key, val)
	if size > uint64(len(m.p.log)) {
		if err == nil {
			m.tb.Fatalf("Set of a %d-byte entry into a %d-byte log succeeded", size, len(m.p.log))
		}
		if m.p.tail != tail {
			m.tb.Fatal("a rejected Set moved the tail")
		}
		return
	}
	if err != nil {
		m.tb.Fatal(err)
	}

	off := tail
	koff := off + entryHeader
	if resident && len(old.val) == len(val) {
		off = old.off
		koff = off + entryHeader
		if m.p.tail != tail {
			m.tb.Fatalf("same-size Set of resident key %q appended %d bytes", key, m.p.tail-tail)
		}
		m.inPlace++
		if m.straddles(off, size) {
			m.inPlaceStraddling++
		}
	} else {
		if m.p.tail != tail+size {
			m.tb.Fatalf("Set of key %q moved the tail by %d bytes, want %d", key, m.p.tail-tail, size)
		}
		m.log = append(m.log, off)
		if resident && old.off < m.p.head {
			m.recycledUpdates++ // this Set's own reserve passed the old copy
		}
		if m.straddles(off, entryHeader) {
			m.straddleHdr++
		}
		if m.straddles(koff, uint64(len(key))) {
			m.straddleKey++
		}
		if m.straddles(koff+uint64(len(key)), uint64(len(val))) {
			m.straddleVal++
		}
	}
	if len(val) == 0 {
		m.zeroLen++
	}
	if m.p.tail-m.p.head > uint64(len(m.p.log)) {
		m.tb.Fatalf("resident span %d exceeds the %d-byte log", m.p.tail-m.p.head, len(m.p.log))
	}
	m.want[string(key)] = modelEntry{val: append([]byte(nil), val...), off: off}
	m.get(key) // the newest write is always readable
}

func (m *model) get(key []byte) {
	m.tb.Helper()
	e, had := m.want[string(key)]
	wantHit := had && e.off >= m.p.head

	prefix := []byte("dst:")
	got, ok := m.s.AppendGet(prefix, key)
	if ok != wantHit {
		m.tb.Fatalf("Get(%q): hit = %v, want %v (entry at %d, head %d, tail %d)", key, ok, wantHit, e.off, m.p.head, m.p.tail)
	}
	if !bytes.HasPrefix(got, prefix) {
		m.tb.Fatalf("AppendGet(%q) rewrote dst: %q", key, got)
	}
	if got = got[len(prefix):]; ok && !bytes.Equal(got, e.val) {
		m.tb.Fatalf("Get(%q) = %x, want the most recent value %x", key, got, e.val)
	} else if !ok && len(got) != 0 {
		m.tb.Fatalf("AppendGet(%q) missed but appended %d bytes", key, len(got))
	}
	if v, ok2 := m.s.Get(key); ok2 != ok || !bytes.Equal(v, got) {
		m.tb.Fatalf("Get(%q) = %x, %v; AppendGet says %x, %v", key, v, ok2, got, ok)
	}
}

// scan checks that a SCAN walks exactly the resident entries, oldest
// first, with and without a callback, and that an entry which is a
// key's live copy carries that key's current value.
func (m *model) scan() {
	m.tb.Helper()
	for len(m.log) > 0 && m.log[0] < m.p.head {
		m.log = m.log[1:]
	}
	off, i := m.p.head, 0
	n := m.s.Scan(0, len(m.log)+1, func(k, v []byte) {
		if i >= len(m.log) || m.log[i] != off {
			m.tb.Fatalf("scan entry %d at offset %d, model has %v", i, off, m.log)
		}
		if e, ok := m.want[string(k)]; ok && e.off == off && !bytes.Equal(v, e.val) {
			m.tb.Fatalf("scan: live copy of %q holds %x, want %x", k, v, e.val)
		}
		off += uint64(entryHeader + len(k) + len(v))
		i++
	})
	if n != len(m.log) || i != n || off != m.p.tail {
		m.tb.Fatalf("scan visited %d entries (%d callbacks) ending at %d; want %d ending at tail %d", n, i, off, len(m.log), m.p.tail)
	}
	if bare := m.s.Scan(0, len(m.log)+1, nil); bare != n {
		m.tb.Fatalf("scan without a callback visited %d entries, with one %d", bare, n)
	}
	if n > 1 {
		if got := m.s.Scan(0, n-1, nil); got != n-1 {
			m.tb.Fatalf("bounded scan visited %d entries, want %d", got, n-1)
		}
	}
}

func (m *model) checkAll() {
	m.tb.Helper()
	for id := 0; id < modelKeys; id++ {
		m.get(modelKey(id))
	}
	m.get([]byte("never-set"))
	m.scan()
}

func TestStoreMatchesModel(t *testing.T) {
	// Logs of a few entries: every lap of the log puts the wrap point
	// somewhere else in an entry. 1024 is the smallest log NewStore takes.
	for _, logBytes := range []int64{1024, 1031, 1500, 4096} {
		t.Run(fmt.Sprint(logBytes), func(t *testing.T) {
			m := newModel(t, logBytes)
			rng := sim.NewRNG(uint64(logBytes))
			val := make([]byte, 300)
			for step := 0; step < 20000; step++ {
				key := modelKey(rng.Intn(modelKeys))
				switch op := rng.Intn(10); {
				case op < 3:
					m.get(key)
				case op < 6:
					// Same length as the key's current value: in place
					// when the copy is still resident.
					n := len(m.want[string(key)].val)
					for i := range val[:n] {
						val[i] = byte(step + i)
					}
					m.set(key, val[:n])
				default:
					n := rng.Intn(len(val))
					if rng.Intn(8) == 0 {
						n = 0
					}
					for i := range val[:n] {
						val[i] = byte(step ^ i)
					}
					m.set(key, val[:n])
				}
				if step%500 == 0 {
					m.checkAll()
				}
			}
			m.checkAll()
			for what, n := range map[string]int{
				"header straddling the log end":          m.straddleHdr,
				"key straddling the log end":             m.straddleKey,
				"value straddling the log end":           m.straddleVal,
				"in-place update":                        m.inPlace,
				"in-place update of a straddling entry":  m.inPlaceStraddling,
				"update whose old copy reserve recycled": m.recycledUpdates,
				"zero-length value":                      m.zeroLen,
			} {
				if n == 0 {
					t.Errorf("the run never exercised: %s", what)
				}
			}
		})
	}
}

// FuzzStore interprets its input as a program over the model: each op
// byte picks Get, same-size Set, resizing Set or an oversize Set, the
// next bytes the key and the value length.
func FuzzStore(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(7), []byte{2, 0, 200, 2, 1, 200, 2, 2, 200, 2, 3, 200, 2, 4, 200, 2, 5, 200, 0, 0, 0, 1, 3, 0})
	f.Add(uint16(1000), bytes.Repeat([]byte{2, 9, 255, 1, 9, 0, 0, 9, 0}, 40))
	f.Add(uint16(476), bytes.Repeat([]byte{2, 23, 250, 2, 0, 0, 1, 23, 0, 3, 5, 0}, 30))
	f.Fuzz(func(t *testing.T, extra uint16, prog []byte) {
		m := newModel(t, 1024+int64(extra)%3072)
		val := make([]byte, 256)
		for pc := 0; pc+2 < len(prog); pc += 3 {
			key := modelKey(int(prog[pc+1]))
			n := int(prog[pc+2])
			for i := range val {
				val[i] = byte(pc + i)
			}
			switch prog[pc] % 4 {
			case 0:
				m.get(key)
			case 1:
				m.set(key, val[:len(m.want[string(key)].val)])
			case 2:
				m.set(key, val[:n])
			case 3:
				m.set(key, make([]byte, len(m.p.log)))
			}
		}
		m.checkAll()
	})
}
