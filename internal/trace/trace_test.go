package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rpcproto"
	"repro/internal/sim"
)

func mkReqs(n int) []*rpcproto.Record {
	out := make([]*rpcproto.Record, n)
	for i := range out {
		out[i] = &rpcproto.Record{
			ID: uint64(i), Conn: uint32(i % 7), Tenant: uint8(i % 3),
			Op:       rpcproto.Op(i % 4),
			Arrival:  sim.Time(i) * sim.Microsecond,
			Service:  500 * sim.Nanosecond,
			Finish:   sim.Time(i)*sim.Microsecond + sim.Time(i+1)*sim.Nanosecond*100,
			Migrated: i%2 == 0, Predicted: i%5 == 0,
			GroupHint: int32(i % 4),
		}
	}
	return out
}

func TestCSVRoundTrip(t *testing.T) {
	reqs := mkReqs(25)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 25 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, rec := range recs {
		want := FromRecord(reqs[i])
		if rec != want {
			t.Fatalf("record %d: %+v != %+v", i, rec, want)
		}
	}
}

func TestCSVSkipsUnfinished(t *testing.T) {
	reqs := mkReqs(5)
	reqs[2].Finish = 0
	reqs[3] = nil
	var buf bytes.Buffer
	if err := WriteCSV(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty csv should fail")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Fatal("bad header should fail")
	}
	hdr := "id,conn,tenant,op,group,arrival_ns,service_ns,finish_ns,latency_ns,migrated,predicted\n"
	if _, err := ReadCSV(strings.NewReader(hdr + "x,0,0,GET,0,0,0,0,0,false,false\n")); err == nil {
		t.Fatal("bad id should fail")
	}
	if _, err := ReadCSV(strings.NewReader(hdr + "1,0,0,GET,0,0,0,0,0,notabool,false\n")); err == nil {
		t.Fatal("bad bool should fail")
	}
}

func TestJSONL(t *testing.T) {
	reqs := mkReqs(10)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("lines = %d", len(lines))
	}
	var rec Record
	if err := json.Unmarshal([]byte(lines[3]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != 3 || rec.Op != reqs[3].Op.String() {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestCDF(t *testing.T) {
	reqs := mkReqs(100)
	pts := CDF(reqs, 11)
	if len(pts) != 11 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].LatencyNS < pts[i-1].LatencyNS {
			t.Fatal("CDF latencies not nondecreasing")
		}
		if pts[i].Fraction < pts[i-1].Fraction {
			t.Fatal("CDF fractions not nondecreasing")
		}
	}
	if pts[len(pts)-1].Fraction != 1 {
		t.Fatalf("final fraction = %v", pts[len(pts)-1].Fraction)
	}
	if CDF(nil, 5) != nil {
		t.Fatal("empty CDF should be nil")
	}
	if got := CDF(reqs, 0); len(got) != 2 {
		t.Fatalf("n clamp: %d", len(got))
	}
}

func TestCSVPropertyRoundTrip(t *testing.T) {
	f := func(id uint64, conn uint32, tenant uint8, svcNS uint32, latNS uint32, mig, pred bool) bool {
		r := &rpcproto.Record{
			ID: id, Conn: conn, Tenant: tenant,
			Arrival:  sim.Microsecond,
			Service:  sim.Time(svcNS) * sim.Nanosecond,
			Finish:   sim.Microsecond + sim.Time(latNS)*sim.Nanosecond + 1,
			Migrated: mig, Predicted: pred,
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, []*rpcproto.Record{r}); err != nil {
			return false
		}
		recs, err := ReadCSV(&buf)
		if err != nil || len(recs) != 1 {
			return false
		}
		return recs[0] == FromRecord(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
