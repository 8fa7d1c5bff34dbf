package rpcproto

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sim"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	in := &Request{
		ID:      12345678901234,
		Conn:    42,
		Op:      OpSet,
		Payload: []byte("key=value"),
	}
	buf, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Conn != in.Conn || out.Op != in.Op {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("payload mismatch: %q", out.Payload)
	}
	if out.Size != len(buf) {
		t.Fatalf("size = %d, want %d", out.Size, len(buf))
	}
}

func TestMarshalUnmarshalProperty(t *testing.T) {
	f := func(id uint64, conn uint32, op uint8, payload []byte) bool {
		if len(payload) > maxPayload {
			payload = payload[:maxPayload]
		}
		in := &Request{ID: id, Conn: conn, Op: Op(op % 4), Payload: payload}
		buf, err := Marshal(in)
		if err != nil {
			return false
		}
		out, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return out.ID == in.ID && out.Conn == in.Conn && out.Op == in.Op &&
			bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); err != ErrShortBuffer {
		t.Fatalf("short header: %v", err)
	}
	// Valid header claiming more payload than present.
	r := &Request{ID: 1, Payload: []byte("abcdef")}
	buf, _ := Marshal(r)
	if _, err := Unmarshal(buf[:len(buf)-2]); err != ErrShortBuffer {
		t.Fatalf("truncated payload: %v", err)
	}
	// Corrupt version byte.
	buf2, _ := Marshal(r)
	buf2[13] = 99
	if _, err := Unmarshal(buf2); err != ErrBadVersion {
		t.Fatalf("bad version: %v", err)
	}
	// Oversized payload rejected at marshal time.
	big := &Request{Payload: make([]byte, maxPayload+1)}
	if _, err := Marshal(big); err != ErrPayloadTooLarge {
		t.Fatalf("oversize: %v", err)
	}
}

func TestDescriptorRoundTrip(t *testing.T) {
	d := Descriptor{Ptr: 0xdeadbeefcafe, Addr: [6]byte{1, 2, 3, 4, 5, 6}}
	got := DecodeDescriptor(EncodeDescriptor(d))
	if got != d {
		t.Fatalf("descriptor round trip: %+v != %+v", got, d)
	}
}

func TestDescriptorSizeIs14Bytes(t *testing.T) {
	// §V-B: 8B pointer + 48-bit address = 14 B per descriptor.
	if DescriptorSize != 14 {
		t.Fatalf("DescriptorSize = %d", DescriptorSize)
	}
	enc := EncodeDescriptor(Descriptor{})
	if len(enc) != 14 {
		t.Fatalf("encoded size = %d", len(enc))
	}
}

func TestDescriptorFor(t *testing.T) {
	r := &Request{ID: 77, Conn: 9, Op: OpGet}
	d := DescriptorFor(r)
	if d.Ptr != 77 {
		t.Fatalf("ptr = %d", d.Ptr)
	}
	if d.Addr[0] != 9 || d.Addr[4] != byte(OpGet) {
		t.Fatalf("addr = %v", d.Addr)
	}
}

func TestLatency(t *testing.T) {
	r := &Request{Arrival: 100 * sim.Nanosecond, Finish: 350 * sim.Nanosecond}
	if got := r.Latency(); got != 250*sim.Nanosecond {
		t.Fatalf("latency = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unfinished latency should panic")
		}
	}()
	(&Request{}).Latency()
}

func TestStackProcessingTimes(t *testing.T) {
	// Fig. 1 anchor points for a 300 B message.
	tcp := NewStack(StackTCPIP).ProcessingTime(300)
	erpc := NewStack(StackERPC).ProcessingTime(300)
	nano := NewStack(StackNanoRPC).ProcessingTime(300)
	if tcp < 10*sim.Microsecond || tcp > 20*sim.Microsecond {
		t.Fatalf("TCP/IP 300B = %v, want ~15us", tcp)
	}
	if erpc < 800*sim.Nanosecond || erpc > 900*sim.Nanosecond {
		t.Fatalf("eRPC 300B = %v, want ~850ns", erpc)
	}
	if nano < 35*sim.Nanosecond || nano > 45*sim.Nanosecond {
		t.Fatalf("nanoRPC 300B = %v, want ~40ns", nano)
	}
	// The paper's ordering: each successive stack is dramatically faster.
	if !(tcp > 10*erpc && erpc > 10*nano) {
		t.Fatalf("stack ordering broken: %v, %v, %v", tcp, erpc, nano)
	}
}

func TestStackNegativeSize(t *testing.T) {
	m := NewStack(StackERPC)
	if m.ProcessingTime(-5) != m.Fixed {
		t.Fatal("negative size should clamp to fixed cost")
	}
}

func TestStringers(t *testing.T) {
	if StackTCPIP.String() != "TCP/IP" || StackERPC.String() != "eRPC" || StackNanoRPC.String() != "nanoRPC" {
		t.Fatal("stack stringer")
	}
	ops := map[Op]string{OpEcho: "ECHO", OpGet: "GET", OpSet: "SET", OpScan: "SCAN"}
	for op, want := range ops {
		if op.String() != want {
			t.Fatalf("op %d stringer = %q", op, op.String())
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	r := &Request{ID: 1, Conn: 2, Op: OpGet, Payload: make([]byte, 284)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	r := &Request{ID: 1, Conn: 2, Op: OpGet, Payload: make([]byte, 284)}
	buf, _ := Marshal(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUnmarshalIntoRoundTrip(t *testing.T) {
	in := &Request{ID: 987654321, Conn: 7, Op: OpGet, Payload: []byte("lookup-key")}
	buf, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := UnmarshalInto(&out, buf); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Conn != in.Conn || out.Op != in.Op || out.Size != len(buf) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("payload mismatch: %q", out.Payload)
	}
}

// TestUnmarshalIntoReusesCapacity is the zero-alloc contract: decoding
// into a request whose payload slice already has capacity must reuse
// that backing array, not allocate a fresh one.
func TestUnmarshalIntoReusesCapacity(t *testing.T) {
	buf, err := Marshal(&Request{ID: 5, Payload: []byte("abcdefgh")})
	if err != nil {
		t.Fatal(err)
	}
	r := &Request{Payload: make([]byte, 0, 64)}
	backing := &r.Payload[:1][0]
	if err := UnmarshalInto(r, buf); err != nil {
		t.Fatal(err)
	}
	if &r.Payload[0] != backing {
		t.Fatal("UnmarshalInto reallocated a payload that had capacity")
	}
	// Stale scheduling state from a recycled slot must not survive.
	r.GroupHint, r.Migrated = 3, true
	if err := UnmarshalInto(r, buf); err != nil {
		t.Fatal(err)
	}
	if r.GroupHint != 0 || r.Migrated {
		t.Fatalf("recycled fields survived decode: %+v", r)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := UnmarshalInto(r, buf); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("UnmarshalInto allocates %.1f times per warm decode, want 0", avg)
	}
}

func TestUnmarshalIntoErrors(t *testing.T) {
	var r Request
	if err := UnmarshalInto(&r, []byte{1, 2, 3}); err != ErrShortBuffer {
		t.Fatalf("short header: %v", err)
	}
	buf, _ := Marshal(&Request{ID: 1, Payload: []byte("abcdef")})
	if err := UnmarshalInto(&r, buf[:len(buf)-2]); err != ErrShortBuffer {
		t.Fatalf("truncated payload: %v", err)
	}
	bad := append([]byte(nil), buf...)
	bad[13] = 99
	if err := UnmarshalInto(&r, bad); err != ErrBadVersion {
		t.Fatalf("bad version: %v", err)
	}
}

// FuzzUnmarshalInto holds UnmarshalInto to Unmarshal's exact behavior
// on arbitrary bytes — same error (or none) and same decoded fields —
// including short, split, and corrupt frames.
func FuzzUnmarshalInto(f *testing.F) {
	seed, _ := Marshal(&Request{ID: 3, Conn: 9, Op: OpSet, Payload: []byte("k=v")})
	f.Add(seed)
	f.Add(seed[:headerSize-1])
	f.Add(seed[:len(seed)-1])
	bad := append([]byte(nil), seed...)
	bad[13] = 0
	f.Add(bad)
	f.Add([]byte{})
	// Rack-forwarded (version-2) frames: a request carrying forwarding
	// provenance, one relayed through AppendForwarded, a v2 header
	// truncated inside the forwarding extension, and one with nonzero
	// reserved bytes.
	fwd, _ := Marshal(&Request{ID: 4, Conn: 11, Op: OpGet, Origin: 0xfeed, Hops: 1, Payload: []byte("rack")})
	f.Add(fwd)
	relayed, _ := AppendForwarded(nil, seed, 77, 0xbeef)
	f.Add(relayed)
	f.Add(fwd[:headerSize+2])
	reserved := append([]byte(nil), fwd...)
	reserved[22] = 1
	f.Add(reserved)
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := Unmarshal(data)
		got := &Request{Payload: make([]byte, 0, 16)}
		gotErr := UnmarshalInto(got, data)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr != gotErr) {
			t.Fatalf("error mismatch: Unmarshal=%v UnmarshalInto=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if got.ID != want.ID || got.Conn != want.Conn || got.Op != want.Op || got.Size != want.Size ||
			got.Origin != want.Origin || got.Hops != want.Hops {
			t.Fatalf("field mismatch: %+v vs %+v", got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("payload mismatch: %q vs %q", got.Payload, want.Payload)
		}
	})
}

// TestRequestFootprint is the tripwire on the hot struct: every arena
// slot and every request a scheduler moves pays for each byte of
// Request, phased or not.
func TestRequestFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got > 160 {
		t.Fatalf("rpcproto.Request is %d bytes, want <= 160: per-phase state belongs in the sidecar (PhaseVec), which only phased requests carry", got)
	}
}

// TestRecordFootprint is the tripwire on what a finished request leaves
// behind: a run keeps one Record per request until its Result is dropped,
// so every byte here is a byte per request of a run's footprint.
func TestRecordFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got > 56 {
		t.Fatalf("rpcproto.Record is %d bytes, want <= 56: in-flight state belongs on Request, not on the completion record", got)
	}
}

// TestPhaseVecFootprint is the tripwire on the sidecar: every phased
// arena slot and every phased record pays for it. It holds one pointer to
// the profile's plan plus what is drawn or stamped per request; a
// per-profile constant copied onto it would cost every phased request.
func TestPhaseVecFootprint(t *testing.T) {
	if got := unsafe.Sizeof(PhaseVec{}); got > 136 {
		t.Fatalf("rpcproto.PhaseVec is %d bytes, want <= 136: per-profile constants belong in the PhasePlan it points at", got)
	}
}

// fillDistinct sets every field reachable from v to a non-zero value,
// integers and floats each to the next value of *next, so no two
// numeric fields hold the same one: pointers get a filled pointee,
// slices one filled element, funcs a no-op.
func fillDistinct(t *testing.T, v reflect.Value, next *uint64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillDistinct(t, v.Index(0), next)
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*next++
		v.SetInt(int64(*next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*next++
		v.SetUint(*next)
	case reflect.Float32, reflect.Float64:
		*next++
		v.SetFloat(float64(*next))
	default:
		t.Fatalf("fillDistinct: no rule for %s", v.Type())
	}
}

// TestRecordFillParity holds Record to Request: every Record field must
// name a Request field, and Fill must carry each one over. A field added
// to Record but not to Fill reads back zero and fails here, as does a
// record whose sidecar aliases the request's instead of holding a copy.
func TestRecordFillParity(t *testing.T) {
	var r Request
	var next uint64
	fillDistinct(t, reflect.ValueOf(&r).Elem(), &next)

	var rec Record
	var side PhaseVec
	rec.Fill(&r, &side)
	if rec.PhaseVec != &side {
		t.Fatalf("phased record's sidecar is %p, want the run-owned copy %p", rec.PhaseVec, &side)
	}

	reqV, recV := reflect.ValueOf(r), reflect.ValueOf(rec)
	for i := 0; i < recV.NumField(); i++ {
		name := recV.Type().Field(i).Name
		sf, ok := reqV.Type().FieldByName(name)
		if !ok || len(sf.Index) != 1 {
			t.Errorf("Record.%s has no field of that name on Request", name)
			continue
		}
		got, want := recV.Field(i), reqV.FieldByIndex(sf.Index)
		var equal bool
		if got.CanInt() && want.CanInt() { // GroupHint narrows int to int32
			equal = got.Int() == want.Int()
		} else {
			equal = got.Type() == want.Type() && reflect.DeepEqual(got.Interface(), want.Interface())
		}
		if !equal {
			t.Errorf("Record.%s = %v after Fill, Request.%s = %v", name, got, name, want)
		}
	}

	r.PhaseVec = nil
	rec.Fill(&r, nil)
	if rec.PhaseVec != nil {
		t.Fatalf("bare request's record kept sidecar %p", rec.PhaseVec)
	}
}
