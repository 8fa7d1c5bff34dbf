// Package mica implements an in-memory key-value store modelled on MICA
// (Lim et al., NSDI'14), the end-to-end application of §IX: EREW-mode
// partitioned storage where each partition pairs a lossy bucketized hash
// index with a circular append log. GET/SET operations execute for real
// over real bytes; the simulator separately charges a modelled on-CPU
// duration per operation (OpCost).
package mica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Config sizes the store. The paper's defaults: 2M hash buckets and a
// 4 GB circular log overall; tests use much smaller instances.
type Config struct {
	Partitions       int   // EREW key partitions (one per manager thread)
	BucketsPerPart   int   // hash buckets per partition (rounded up to a power of two)
	EntriesPerBucket int   // index slots per bucket
	LogBytesPerPart  int64 // circular log capacity per partition
}

// DefaultConfig returns a laptop-scale configuration preserving MICA's
// structure (lossy index + circular log).
func DefaultConfig(partitions int) Config {
	return Config{
		Partitions:       partitions,
		BucketsPerPart:   1 << 15,
		EntriesPerBucket: 8,
		LogBytesPerPart:  32 << 20,
	}
}

// Stats counts store activity.
type Stats struct {
	Gets, GetHits  uint64
	Sets           uint64
	IndexEvictions uint64 // bucket-full replacements (lossy index)
	LogRecycles    uint64 // entries invalidated by log wraparound on read
}

type indexEntry struct {
	tag    uint16 // partial key hash, 0 means empty
	offset uint64 // log offset of the entry
}

// entry layout in the log: keyLen(2) valLen(4) key val.
const (
	entryHeader = 6
	maxKeyLen   = 1<<16 - 1 // what the 2-byte keyLen field can say
)

type partition struct {
	mask  uint64
	perB  int
	index []indexEntry
	log   []byte
	head  uint64 // oldest complete entry still resident
	tail  uint64 // monotonically increasing append position
	stats Stats
}

// Store is an EREW-partitioned MICA instance. Each partition is owned by
// exactly one manager thread (no concurrency control, matching EREW);
// the Store itself is not safe for concurrent writers to one partition.
type Store struct {
	cfg   Config
	parts []*partition
}

// NewStore builds a store. Errors on nonsensical sizes.
func NewStore(cfg Config) (*Store, error) {
	if cfg.Partitions < 1 {
		return nil, errors.New("mica: need at least one partition")
	}
	if cfg.BucketsPerPart < 1 || cfg.EntriesPerBucket < 1 {
		return nil, errors.New("mica: need positive index dimensions")
	}
	if cfg.LogBytesPerPart < 1024 {
		return nil, errors.New("mica: log too small")
	}
	buckets := 1
	for buckets < cfg.BucketsPerPart {
		buckets <<= 1
	}
	s := &Store{cfg: cfg}
	for i := 0; i < cfg.Partitions; i++ {
		s.parts = append(s.parts, &partition{
			mask:  uint64(buckets - 1),
			perB:  cfg.EntriesPerBucket,
			index: make([]indexEntry, buckets*cfg.EntriesPerBucket),
			log:   make([]byte, cfg.LogBytesPerPart),
		})
	}
	return s, nil
}

// Partitions returns the partition count.
func (s *Store) Partitions() int { return len(s.parts) }

// Hash is the 64-bit key hash every placement decision derives from:
// the EREW partition, the index bucket and the slot tag. A caller that
// needs the partition before the operation (the live handler takes the
// partition's lock first) hashes once and passes the hash along.
func Hash(key []byte) uint64 {
	// FNV-1a: adequate avalanche for partitioning and tags.
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// PartitionOf returns the EREW owner partition of a key hash.
func (s *Store) PartitionOf(hash uint64) int {
	return int(hash % uint64(len(s.parts)))
}

// Partition returns the EREW owner partition of a key.
func (s *Store) Partition(key []byte) int { return s.PartitionOf(Hash(key)) }

// Set stores key -> value in the key's partition. A resident key whose
// value has the same length is overwritten where it lies (MICA's rule
// for same-size updates): nothing is appended, so the entry keeps its
// place in the log's recycling order.
func (s *Store) Set(key, value []byte) error { return s.SetHashed(Hash(key), key, value) }

// SetHashed is Set for a caller that already holds Hash(key).
//
//altolint:hotpath
func (s *Store) SetHashed(hash uint64, key, value []byte) error {
	return s.parts[s.PartitionOf(hash)].set(hash, key, value)
}

// Get fetches the value for key into a fresh slice; ok is false on miss
// (never stored, index entry evicted, or log entry recycled — MICA is
// lossy by design).
func (s *Store) Get(key []byte) (value []byte, ok bool) { return s.AppendGet(nil, key) }

// AppendGet appends the value for key to dst, copying it straight from
// the log, and returns the extended slice; on a miss it returns dst
// unchanged and false. With enough capacity in dst it does not allocate.
func (s *Store) AppendGet(dst, key []byte) ([]byte, bool) {
	return s.AppendGetHashed(dst, Hash(key), key)
}

// AppendGetHashed is AppendGet for a caller that already holds
// Hash(key).
//
//altolint:hotpath
func (s *Store) AppendGetHashed(dst []byte, hash uint64, key []byte) ([]byte, bool) {
	return s.parts[s.PartitionOf(hash)].appendGet(dst, hash, key)
}

// Scan walks up to n live log entries of a partition, oldest first,
// invoking fn for each (the long-running SCAN of §IX-D), and returns
// the number of entries visited. The slices fn receives are scratch,
// valid only during the call; a nil fn walks the entry headers alone.
func (s *Store) Scan(partition, n int, fn func(key, value []byte)) int {
	return s.parts[partition].scan(n, fn)
}

// Stats returns the aggregate counters across partitions.
func (s *Store) Stats() Stats {
	var out Stats
	for _, p := range s.parts {
		out.Gets += p.stats.Gets
		out.GetHits += p.stats.GetHits
		out.Sets += p.stats.Sets
		out.IndexEvictions += p.stats.IndexEvictions
		out.LogRecycles += p.stats.LogRecycles
	}
	return out
}

func (p *partition) bucket(h uint64) []indexEntry {
	b := int(h & p.mask)
	return p.index[b*p.perB : (b+1)*p.perB]
}

func tagOf(h uint64) uint16 {
	t := uint16(h >> 48)
	if t == 0 {
		t = 1 // 0 marks an empty slot
	}
	return t
}

// admit rejects an entry the header or the log cannot hold. It stays
// out of set so the hot path carries no error formatting.
func (p *partition) admit(klen, vlen int) error {
	if klen > maxKeyLen {
		return fmt.Errorf("mica: key of %d bytes exceeds the %d-byte limit of the entry header", klen, maxKeyLen)
	}
	if size := entryHeader + klen + vlen; int64(size) > int64(len(p.log)) {
		return fmt.Errorf("mica: entry of %d bytes exceeds log capacity", size)
	}
	return nil
}

//altolint:hotpath
func (p *partition) set(h uint64, key, value []byte) error {
	if err := p.admit(len(key), len(value)); err != nil {
		return err
	}
	tag := tagOf(h)
	b := p.bucket(h)
	// Prefer the slot already holding this key (update), then an empty
	// slot, else evict the entry with the oldest offset (lossy index).
	victim := 0
	for i := range b {
		if b[i].tag == tag {
			koff := b[i].offset + entryHeader
			if klen, vlen, ok := p.resident(b[i].offset); ok && p.holds(koff, klen, key) {
				if vlen == uint64(len(value)) {
					p.write(koff+klen, value) // same size: update in place
					p.stats.Sets++
					return nil
				}
				victim = i
				break
			}
		}
		if b[i].tag == 0 {
			victim = i
			break
		}
		if b[i].offset < b[victim].offset {
			victim = i
		}
	}

	p.reserve(uint64(entryHeader + len(key) + len(value)))
	off := p.tail
	var hdr [entryHeader]byte
	binary.LittleEndian.PutUint16(hdr[0:2], uint16(len(key)))
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(value)))
	p.append(hdr[:])
	p.append(key)
	p.append(value)

	if b[victim].tag != 0 {
		p.stats.IndexEvictions++
	}
	b[victim] = indexEntry{tag: tag, offset: off}
	p.stats.Sets++
	return nil
}

//altolint:hotpath
func (p *partition) appendGet(dst []byte, h uint64, key []byte) ([]byte, bool) {
	p.stats.Gets++
	tag := tagOf(h)
	for _, e := range p.bucket(h) {
		if e.tag != tag {
			continue
		}
		klen, vlen, ok := p.resident(e.offset)
		if !ok {
			p.stats.LogRecycles++
			continue
		}
		koff := e.offset + entryHeader
		if !p.holds(koff, klen, key) {
			continue
		}
		p.stats.GetHits++
		n := len(dst)
		dst = slices.Grow(dst, int(vlen))[:n+int(vlen)]
		p.copyOut(dst[n:], koff+klen)
		return dst, true
	}
	return dst, false
}

// reserve advances head past whole entries until size bytes can be
// appended without clobbering the oldest resident entry. Called before
// the append, while the header bytes at head are still intact.
func (p *partition) reserve(size uint64) {
	logSize := uint64(len(p.log))
	for p.tail+size-p.head > logSize {
		klen, vlen := p.header(p.head)
		p.head += entryHeader + klen + vlen
		if p.head > p.tail { // corrupt walk guard; cannot happen with intact heads
			p.head = p.tail
			return
		}
	}
}

// header decodes the key and value lengths of the entry at absolute log
// offset off.
func (p *partition) header(off uint64) (klen, vlen uint64) {
	var hdr [entryHeader]byte
	p.copyOut(hdr[:], off)
	return uint64(binary.LittleEndian.Uint16(hdr[0:2])), uint64(binary.LittleEndian.Uint32(hdr[2:6]))
}

// resident decodes the header of the entry an index slot or a scan
// points at. ok is false when log wraparound has recycled the entry.
func (p *partition) resident(off uint64) (klen, vlen uint64, ok bool) {
	if off < p.head || off+entryHeader > p.tail {
		return 0, 0, false
	}
	klen, vlen = p.header(off)
	return klen, vlen, off+entryHeader+klen+vlen <= p.tail
}

// holds reports whether the klen key bytes at absolute log offset koff
// equal key, comparing them where they lie.
func (p *partition) holds(koff, klen uint64, key []byte) bool {
	if klen != uint64(len(key)) {
		return false
	}
	first, second := p.segments(koff, klen)
	return bytes.Equal(first, key[:len(first)]) && bytes.Equal(second, key[len(first):])
}

func (p *partition) scan(n int, fn func(key, value []byte)) int {
	visited := 0
	off := p.head
	var buf []byte // fn's key and value, reused across entries
	for off < p.tail && visited < n {
		klen, vlen, ok := p.resident(off)
		if !ok {
			break
		}
		if fn != nil {
			buf = slices.Grow(buf[:0], int(klen+vlen))[:klen+vlen]
			p.copyOut(buf, off+entryHeader)
			fn(buf[:klen:klen], buf[klen:])
		}
		visited++
		off += entryHeader + klen + vlen
	}
	return visited
}

// segments returns the n log bytes at absolute offset off as the (at
// most) two contiguous runs they occupy: entries may straddle the end
// of the circular log, so every access to it goes through here — one
// modulo per access, then plain slices. n must not exceed the log size.
func (p *partition) segments(off, n uint64) (first, second []byte) {
	i := off % uint64(len(p.log))
	if run := uint64(len(p.log)) - i; n > run {
		return p.log[i:], p.log[:n-run]
	}
	return p.log[i : i+n], nil
}

// write copies b into the log at absolute offset off.
func (p *partition) write(off uint64, b []byte) {
	first, second := p.segments(off, uint64(len(b)))
	copy(second, b[copy(first, b):])
}

func (p *partition) append(b []byte) {
	p.write(p.tail, b)
	p.tail += uint64(len(b))
}

// copyOut fills dst from the log at absolute offset off.
func (p *partition) copyOut(dst []byte, off uint64) {
	first, second := p.segments(off, uint64(len(dst)))
	copy(dst[copy(dst, first):], second)
}
