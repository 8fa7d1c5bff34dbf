package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// phasedRecord builds the completion record of a finished 3-phase
// request with distinct values in every per-phase field of its sidecar
// and its plan.
func phasedRecord() *rpcproto.Record {
	plan := &rpcproto.PhasePlan{
		Class:   [rpcproto.MaxPhases]uint8{0, 1, 0},
		Speedup: [rpcproto.MaxPhases]float64{0, 2, 3},
		Offload: [rpcproto.MaxPhases]sim.Time{0, sim.Nanosecond, 2 * sim.Nanosecond},
	}
	r := &rpcproto.Record{
		ID:        42,
		NumPhases: 3,
		Arrival:   10 * sim.Nanosecond,
		Service:   60 * sim.Nanosecond,
		PhaseVec:  &rpcproto.PhaseVec{Plan: plan},
	}
	for i := 0; i < 3; i++ {
		r.PhaseSvc[i] = sim.Time(20+i) * sim.Nanosecond
		r.PhaseEnd[i] = sim.Time(30*(i+1)) * sim.Nanosecond
	}
	r.Finish = r.PhaseEnd[2]
	return r
}

func TestPhaseCSVRoundTrip(t *testing.T) {
	r := phasedRecord()
	want := PhaseRecordsOf(nil, r)
	if len(want) != 3 {
		t.Fatalf("PhaseRecordsOf returned %d records, want 3", len(want))
	}

	var buf bytes.Buffer
	if err := WritePhaseCSV(&buf, []*rpcproto.Record{r}); err != nil {
		t.Fatalf("WritePhaseCSV: %v", err)
	}
	got, err := ReadPhaseCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadPhaseCSV: %v\ncsv:\n%s", err, buf.String())
	}
	if len(got) != len(want) {
		t.Fatalf("round trip returned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestPhaseCSVSkipsUnphased(t *testing.T) {
	plain := &rpcproto.Record{ID: 1, Finish: sim.Nanosecond}
	unfinished := phasedRecord()
	unfinished.Finish = 0

	var buf bytes.Buffer
	if err := WritePhaseCSV(&buf, []*rpcproto.Record{plain, nil, unfinished}); err != nil {
		t.Fatalf("WritePhaseCSV: %v", err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1 {
		t.Fatalf("want header only, got %d lines:\n%s", lines, buf.String())
	}
}

func TestPhaseJSONLRoundTrip(t *testing.T) {
	r := phasedRecord()
	want := PhaseRecordsOf(nil, r)

	var buf bytes.Buffer
	if err := WritePhaseJSONL(&buf, []*rpcproto.Record{r}); err != nil {
		t.Fatalf("WritePhaseJSONL: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	for i := range want {
		var got PhaseRecord
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got != want[i] {
			t.Errorf("line %d:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
	if dec.More() {
		t.Fatalf("extra JSONL lines:\n%s", buf.String())
	}
}

func TestReadPhaseCSVRejectsWrongHeader(t *testing.T) {
	if _, err := ReadPhaseCSV(strings.NewReader("id,conn,tenant\n")); err == nil {
		t.Fatal("want error for a non-phase header")
	}
	if _, err := ReadPhaseCSV(strings.NewReader("")); err == nil {
		t.Fatal("want error for empty input")
	}
}
