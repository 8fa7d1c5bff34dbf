package mica

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

func smallStore(t *testing.T, partitions int) *Store {
	t.Helper()
	s, err := NewStore(Config{
		Partitions:       partitions,
		BucketsPerPart:   64,
		EntriesPerBucket: 8,
		LogBytesPerPart:  1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSetGetRoundTrip(t *testing.T) {
	s := smallStore(t, 4)
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v := []byte(fmt.Sprintf("value-%04d", i))
		if err := s.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v, ok := s.Get(k)
		if !ok {
			t.Fatalf("miss for %s", k)
		}
		if string(v) != fmt.Sprintf("value-%04d", i) {
			t.Fatalf("wrong value: %s", v)
		}
	}
	st := s.Stats()
	if st.Sets != 100 || st.GetHits != 100 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestGetMiss(t *testing.T) {
	s := smallStore(t, 1)
	if _, ok := s.Get([]byte("nope")); ok {
		t.Fatal("phantom hit")
	}
}

func TestOverwrite(t *testing.T) {
	// A same-size value is written where the old one lies; any other
	// size appends a new copy and repoints the key's index slot.
	s := smallStore(t, 1)
	k := []byte("k")
	p := s.parts[0]
	for _, tc := range []struct {
		val     string
		inPlace bool
	}{
		{"v1", false}, // first copy
		{"v2", true},
		{"value-3", false},
		{"VALUE-4", true},
		{"", false},
		{"", true},
		{"v7", false},
	} {
		tail := p.tail
		if err := s.Set(k, []byte(tc.val)); err != nil {
			t.Fatal(err)
		}
		if inPlace := p.tail == tail; inPlace != tc.inPlace {
			t.Fatalf("Set(%q): in place = %v, want %v", tc.val, inPlace, tc.inPlace)
		}
		if v, ok := s.Get(k); !ok || string(v) != tc.val {
			t.Fatalf("after Set(%q): got %q ok=%v", tc.val, v, ok)
		}
	}
}

func TestPartitionStability(t *testing.T) {
	s := smallStore(t, 8)
	k := []byte("some-key")
	p := s.Partition(k)
	for i := 0; i < 10; i++ {
		if s.Partition(k) != p {
			t.Fatal("partition not stable")
		}
	}
	if s.Partitions() != 8 {
		t.Fatal("partitions")
	}
	// Keys spread across partitions.
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[s.Partition([]byte(fmt.Sprintf("key-%d", i)))]++
	}
	for i, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("partition %d has %d of 8000", i, c)
		}
	}
}

func TestLogWraparoundIsLossyNotCorrupt(t *testing.T) {
	// Fill a 64KB log several times over; old keys may miss but must
	// never return wrong bytes. Value lengths vary so the wrap point
	// falls at a different place in an entry on every lap.
	s := smallStore(t, 1)
	const n = 1000 // ~520KB total, 8x the log
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	val := func(i int, fill byte) []byte {
		v := make([]byte, 497+i%31)
		for j := range v {
			v[j] = fill
		}
		return v
	}
	check := func(fill func(i int) byte) (hits int) {
		t.Helper()
		for i := 0; i < n; i++ {
			v, ok := s.Get(key(i))
			if !ok {
				continue
			}
			hits++
			if len(v) != 497+i%31 {
				t.Fatalf("key %d: %d value bytes, want %d", i, len(v), 497+i%31)
			}
			for _, b := range v {
				if b != fill(i) {
					t.Fatalf("corrupt value for key %d", i)
				}
			}
		}
		return hits
	}
	for i := 0; i < n; i++ {
		if err := s.Set(key(i), val(i, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	hits := check(func(i int) byte { return byte(i) })
	if hits == 0 {
		t.Fatal("no hits at all after wraparound")
	}
	if hits == n {
		t.Fatal("lossy store retained everything despite 8x overflow")
	}
	// Recent keys must survive.
	if _, ok := s.Get(key(n - 1)); !ok {
		t.Fatal("most recent key evicted")
	}

	// Same-size updates of the survivors are in place, wherever their
	// entries straddle the log end: the tail stays put, no survivor is
	// lost, and neighbours keep their bytes.
	p := s.parts[0]
	tail := p.tail
	for i := 0; i < n; i++ {
		if _, ok := s.Get(key(i)); ok {
			if err := s.Set(key(i), val(i, ^byte(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p.tail != tail {
		t.Fatalf("same-size updates advanced the tail by %d bytes", p.tail-tail)
	}
	if again := check(func(i int) byte { return ^byte(i) }); again != hits {
		t.Fatalf("%d hits after in-place updates, want %d", again, hits)
	}
}

func TestIndexEviction(t *testing.T) {
	// Tiny index (1 bucket x 2 entries) forces evictions.
	s, err := NewStore(Config{Partitions: 1, BucketsPerPart: 1, EntriesPerBucket: 2, LogBytesPerPart: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Set([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	if s.Stats().IndexEvictions == 0 {
		t.Fatal("expected index evictions")
	}
	// The newest key is always retrievable.
	if _, ok := s.Get([]byte("k9")); !ok {
		t.Fatal("newest key lost")
	}
}

func TestScan(t *testing.T) {
	s := smallStore(t, 2)
	for i := 0; i < 50; i++ {
		s.Set([]byte(fmt.Sprintf("key-%02d", i)), []byte("value"))
	}
	seen := 0
	n := s.Scan(0, 1000, func(k, v []byte) {
		seen++
		if string(v) != "value" {
			t.Fatalf("scan got %q", v)
		}
	})
	if n != seen || n == 0 {
		t.Fatalf("scan visited %d (cb %d)", n, seen)
	}
	// Bounded scan.
	if got := s.Scan(0, 3, nil); got > 3 {
		t.Fatalf("bounded scan visited %d", got)
	}
}

func TestOversizeEntryRejected(t *testing.T) {
	s, _ := NewStore(Config{Partitions: 1, BucketsPerPart: 4, EntriesPerBucket: 2, LogBytesPerPart: 2048})
	if err := s.Set([]byte("k"), make([]byte, 4096)); err == nil {
		t.Fatal("oversize set should fail")
	}
}

func TestOversizeKeyRejected(t *testing.T) {
	// The entry header holds the key length in two bytes. A longer key
	// used to be stored under its length mod 65536, so the next walk of
	// the log (reserve, scan) hopped into the middle of it.
	s, err := NewStore(Config{Partitions: 1, BucketsPerPart: 4, EntriesPerBucket: 2, LogBytesPerPart: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		keyLen int
		ok     bool
	}{
		{1, true},
		{65535, true},
		{65536, false},
		{65536 + 16, false},
		{200000, false},
	} {
		key := bytes.Repeat([]byte{'k'}, tc.keyLen)
		err := s.Set(key, []byte("value"))
		if (err == nil) != tc.ok {
			t.Fatalf("Set with a %d-byte key: err = %v, want ok = %v", tc.keyLen, err, tc.ok)
		}
		if _, hit := s.Get(key); hit != tc.ok {
			t.Fatalf("Get of a %d-byte key: hit = %v, want %v", tc.keyLen, hit, tc.ok)
		}
	}
	// The log still walks entry by entry: two entries went in.
	if n := s.Scan(0, 10, nil); n != 2 {
		t.Fatalf("scan visited %d entries, want 2", n)
	}
	if err := s.Set([]byte("after"), make([]byte, 1<<19)); err != nil { // forces reserve to walk
		t.Fatal(err)
	}
	if v, ok := s.Get([]byte("after")); !ok || len(v) != 1<<19 {
		t.Fatalf("entry after the walk: %d bytes, ok=%v", len(v), ok)
	}
}

func TestNewStoreValidation(t *testing.T) {
	bad := []Config{
		{},
		{Partitions: 1},
		{Partitions: 1, BucketsPerPart: 4, EntriesPerBucket: 1, LogBytesPerPart: 10},
	}
	for i, cfg := range bad {
		if _, err := NewStore(cfg); err == nil {
			t.Fatalf("config %d should fail", i)
		}
	}
}

func TestGetAfterSetProperty(t *testing.T) {
	// Property: immediately after Set(k,v), Get(k) returns v (the newest
	// write wins; no interleaving writers in EREW).
	s := smallStore(t, 4)
	f := func(key, val []byte) bool {
		if len(key) == 0 || len(key) > 64 || len(val) > 1024 {
			return true // outside supported shape
		}
		if err := s.Set(key, val); err != nil {
			return false
		}
		got, ok := s.Get(key)
		if !ok {
			return false
		}
		return string(got) == string(val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOpCost(t *testing.T) {
	oc := DefaultOpCost(fabric.Default())
	get := oc.Time(rpcproto.OpGet, 512, false)
	set := oc.Time(rpcproto.OpSet, 512, false)
	scan := oc.Time(rpcproto.OpScan, 0, false)
	// Paper anchors: ~50ns GET/SET, ~50us SCAN.
	if get < 40*sim.Nanosecond || get > 70*sim.Nanosecond {
		t.Fatalf("GET = %v", get)
	}
	if set >= get {
		t.Fatalf("SET (%v) should be cheaper than GET (%v)", set, get)
	}
	if scan < 40*sim.Microsecond || scan > 60*sim.Microsecond {
		t.Fatalf("SCAN = %v", scan)
	}
	// Migrated EREW requests pay a remote access.
	if oc.Time(rpcproto.OpGet, 512, true) <= get {
		t.Fatal("remote penalty missing")
	}
	if oc.Time(rpcproto.OpEcho, 0, false) != oc.GetBase {
		t.Fatal("echo fallback")
	}
}

func TestDataPathZeroAlloc(t *testing.T) {
	// The per-operation contract: a GET into a buffer with room and a
	// same-size SET touch the heap not at all.
	s := smallStore(t, 4)
	key, val := []byte("key-0123456789ab"), make([]byte, 512)
	if err := s.Set(key, val); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, len(val))
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"AppendGet hit", func() {
			if v, ok := s.AppendGet(dst, key); !ok || len(v) != len(val) {
				t.Fatal("miss on a resident key")
			}
		}},
		{"AppendGet miss", func() { s.AppendGet(dst, []byte("absent")) }},
		{"same-size Set", func() {
			if err := s.Set(key, val); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, tc.op); got != 0 {
			t.Errorf("%s: %v allocations per run, want 0", tc.name, got)
		}
	}
}
