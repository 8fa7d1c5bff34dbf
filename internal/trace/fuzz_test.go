package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// FuzzTraceRoundTrip checks that rpcproto.Record -> CSV -> Record and
// rpcproto.Record -> JSONL -> Record are lossless for any finished
// request. Time fields are clamped below 2^50 ps (~13 days of simulated
// time, far beyond any run) so the fixed three-decimal nanosecond format
// is exact; Finish is forced positive because WriteCSV skips unfinished
// records by contract.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint32(0), uint8(0), uint8(0), int16(0), uint64(0), uint64(1), uint64(1), false, false)
	f.Add(uint64(1), uint32(7), uint8(2), uint8(1), int16(3), uint64(1000), uint64(500), uint64(2500), true, false)
	f.Add(uint64(1<<40), uint32(1<<31), uint8(255), uint8(3), int16(-1),
		uint64(1)<<49, uint64(1)<<49, uint64(1)<<49, true, true)
	f.Add(uint64(12345678901), uint32(4096), uint8(9), uint8(200), int16(512),
		uint64(999999999999), uint64(123456789), uint64(7777777777777), false, true)

	f.Fuzz(func(t *testing.T, id uint64, conn uint32, tenant, op uint8, group int16,
		arrival, service, finish uint64, migrated, predicted bool) {
		const maxPS = uint64(1) << 50
		r := &rpcproto.Record{
			ID:        id,
			Conn:      conn,
			Tenant:    tenant,
			Op:        rpcproto.Op(op % 4),
			GroupHint: int32(group),
			Arrival:   sim.Time(arrival % maxPS),
			Service:   sim.Time(service % maxPS),
			Migrated:  migrated,
			Predicted: predicted,
		}
		// Finish must be positive and late enough that Latency is sane.
		r.Finish = r.Arrival + r.Service + sim.Time(finish%maxPS) + 1
		want := FromRecord(r)

		var csvBuf bytes.Buffer
		if err := WriteCSV(&csvBuf, []*rpcproto.Record{r}); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		recs, err := ReadCSV(bytes.NewReader(csvBuf.Bytes()))
		if err != nil {
			t.Fatalf("ReadCSV: %v\ncsv:\n%s", err, csvBuf.String())
		}
		if len(recs) != 1 {
			t.Fatalf("ReadCSV returned %d records, want 1", len(recs))
		}
		if recs[0] != want {
			t.Fatalf("CSV round trip:\n got %+v\nwant %+v\ncsv:\n%s", recs[0], want, csvBuf.String())
		}

		var jsonBuf bytes.Buffer
		if err := WriteJSONL(&jsonBuf, []*rpcproto.Record{r}); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		var got Record
		if err := json.Unmarshal(jsonBuf.Bytes(), &got); err != nil {
			t.Fatalf("json: %v\nline: %s", err, jsonBuf.String())
		}
		if got != want {
			t.Fatalf("JSONL round trip:\n got %+v\nwant %+v\nline: %s", got, want, jsonBuf.String())
		}
	})
}

// FuzzPhaseRoundTrip checks that the phase sidecar codec
// (PhaseRecordsOf -> CSV/JSONL -> PhaseRecord) is lossless for any
// multi-phase chain. Per-phase values derive deterministically from the
// fuzzed bases via index mixing so each row is distinct: the draws and
// stamps go to the record's sidecar, the class, speedup and offload to
// its plan. speed picks each phase's speedup in 0..31 (0 neutral), so an
// accelerated duration never exceeds its base and the same 2^50 ps clamp
// as FuzzTraceRoundTrip keeps the fixed three-decimal format exact.
func FuzzPhaseRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint8(1), uint8(0), uint64(1), uint64(1), uint64(0), uint64(1))
	f.Add(uint64(7), uint8(4), uint8(1), uint64(38000), uint64(9500), uint64(120), uint64(999999))
	f.Add(uint64(1<<40), uint8(8), uint8(3), uint64(1)<<49, uint64(1)<<48, uint64(1)<<32, uint64(1)<<49)
	f.Add(uint64(12345), uint8(2), uint8(255), uint64(777777), uint64(0), uint64(31415), uint64(271828))

	f.Fuzz(func(t *testing.T, id uint64, nphases, class uint8, svc, speed, off, end uint64) {
		const maxPS = uint64(1) << 50
		n := int(nphases)%rpcproto.MaxPhases + 1
		plan := &rpcproto.PhasePlan{}
		r := &rpcproto.Record{ID: id, NumPhases: uint8(n), PhaseVec: &rpcproto.PhaseVec{Plan: plan}}
		for i := 0; i < n; i++ {
			mix := uint64(i)*0x9E3779B9 + 1
			r.PhaseSvc[i] = sim.Time((svc * mix) % maxPS)
			r.PhaseEnd[i] = sim.Time((end * mix) % maxPS)
			plan.Class[i] = class + uint8(i)
			plan.Speedup[i] = float64((speed * mix) % 32)
			plan.Offload[i] = sim.Time((off * mix) % maxPS)
			r.Service += r.PhaseSvc[i]
		}
		r.Finish = r.PhaseEnd[n-1] + 1 // WritePhaseCSV skips unfinished records
		want := PhaseRecordsOf(nil, r)
		if len(want) != n {
			t.Fatalf("PhaseRecordsOf returned %d records, want %d", len(want), n)
		}

		var csvBuf bytes.Buffer
		if err := WritePhaseCSV(&csvBuf, []*rpcproto.Record{r}); err != nil {
			t.Fatalf("WritePhaseCSV: %v", err)
		}
		recs, err := ReadPhaseCSV(bytes.NewReader(csvBuf.Bytes()))
		if err != nil {
			t.Fatalf("ReadPhaseCSV: %v\ncsv:\n%s", err, csvBuf.String())
		}
		if len(recs) != len(want) {
			t.Fatalf("CSV round trip returned %d records, want %d", len(recs), len(want))
		}
		for i := range want {
			if recs[i] != want[i] {
				t.Fatalf("CSV row %d:\n got %+v\nwant %+v\ncsv:\n%s", i, recs[i], want[i], csvBuf.String())
			}
		}

		var jsonBuf bytes.Buffer
		if err := WritePhaseJSONL(&jsonBuf, []*rpcproto.Record{r}); err != nil {
			t.Fatalf("WritePhaseJSONL: %v", err)
		}
		dec := json.NewDecoder(bytes.NewReader(jsonBuf.Bytes()))
		for i := range want {
			var got PhaseRecord
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("JSONL line %d: %v", i, err)
			}
			if got != want[i] {
				t.Fatalf("JSONL line %d:\n got %+v\nwant %+v", i, got, want[i])
			}
		}
	})
}
