package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/rpcproto"
)

// PhaseRecord is the exported view of one phase of a completed
// multi-phase request (DESIGN.md §15) — one row per phase, keyed by
// (ID, Phase). The main per-request codec (Record) is deliberately
// untouched: phase data travels in its own sidecar file so existing
// golden traces stay byte-identical.
type PhaseRecord struct {
	ID        uint64  `json:"id"`
	Phase     uint8   `json:"phase"`
	Phases    uint8   `json:"phases"`     // chain length, repeated per row for self-containment
	Class     uint8   `json:"class"`      // core-class affinity
	ServiceNS float64 `json:"service_ns"` // base duration on a general-purpose core
	AccNS     float64 `json:"acc_ns"`     // duration on the affine class
	OffloadNS float64 `json:"offload_ns"` // transfer cost when forwarded
	EndNS     float64 `json:"end_ns"`     // phase completion timestamp
}

// PhaseRecordsOf expands a completion record into one row per phase,
// appending to dst: the draws and stamps from its sidecar, the class,
// accelerated duration and offload cost from its profile's plan. A bare
// request (NumPhases == 0) contributes nothing; a 1-phase chain
// contributes one record.
func PhaseRecordsOf(dst []PhaseRecord, r *rpcproto.Record) []PhaseRecord {
	for i := uint8(0); i < r.NumPhases; i++ {
		dst = append(dst, PhaseRecord{
			ID:        r.ID,
			Phase:     i,
			Phases:    r.NumPhases,
			Class:     r.Plan.Class[i],
			ServiceNS: r.PhaseSvc[i].Nanoseconds(),
			AccNS:     r.Plan.Accel(i, r.PhaseSvc[i]).Nanoseconds(),
			OffloadNS: r.Plan.Offload[i].Nanoseconds(),
			EndNS:     r.PhaseEnd[i].Nanoseconds(),
		})
	}
	return dst
}

// phaseCSVHeader matches PhaseRecord's field order.
var phaseCSVHeader = []string{"id", "phase", "phases", "class",
	"service_ns", "acc_ns", "offload_ns", "end_ns"}

// WritePhaseCSV streams the phase rows of a run's phased completion
// records as CSV with a header row. Nil, unfinished, and unphased
// records are skipped.
func WritePhaseCSV(w io.Writer, reqs []*rpcproto.Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(phaseCSVHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	var recs []PhaseRecord
	for _, r := range reqs {
		if r == nil || r.Finish == 0 || r.NumPhases == 0 {
			continue
		}
		recs = PhaseRecordsOf(recs[:0], r)
		for _, rec := range recs {
			row := []string{
				strconv.FormatUint(rec.ID, 10),
				strconv.FormatUint(uint64(rec.Phase), 10),
				strconv.FormatUint(uint64(rec.Phases), 10),
				strconv.FormatUint(uint64(rec.Class), 10),
				f(rec.ServiceNS), f(rec.AccNS), f(rec.OffloadNS), f(rec.EndNS),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadPhaseCSV parses a CSV written by WritePhaseCSV back into records.
func ReadPhaseCSV(r io.Reader) ([]PhaseRecord, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty phase CSV")
	}
	if len(rows[0]) != len(phaseCSVHeader) || rows[0][1] != "phase" {
		return nil, fmt.Errorf("trace: unexpected phase header %v", rows[0])
	}
	out := make([]PhaseRecord, 0, len(rows)-1)
	for i, row := range rows[1:] {
		rec, err := parsePhaseRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: phase row %d: %w", i+2, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

func parsePhaseRow(row []string) (PhaseRecord, error) {
	var rec PhaseRecord
	if len(row) != len(phaseCSVHeader) {
		return rec, fmt.Errorf("want %d fields, got %d", len(phaseCSVHeader), len(row))
	}
	id, err := strconv.ParseUint(row[0], 10, 64)
	if err != nil {
		return rec, err
	}
	var u8 [3]uint8
	for i := 0; i < 3; i++ {
		v, err := strconv.ParseUint(row[1+i], 10, 8)
		if err != nil {
			return rec, err
		}
		u8[i] = uint8(v)
	}
	var fs [4]float64
	for i := 0; i < 4; i++ {
		fs[i], err = strconv.ParseFloat(row[4+i], 64)
		if err != nil {
			return rec, err
		}
	}
	return PhaseRecord{
		ID: id, Phase: u8[0], Phases: u8[1], Class: u8[2],
		ServiceNS: fs[0], AccNS: fs[1], OffloadNS: fs[2], EndNS: fs[3],
	}, nil
}

// WritePhaseJSONL streams the phase rows of a run's phased completion
// records as JSON lines, skipping the records WritePhaseCSV skips.
func WritePhaseJSONL(w io.Writer, reqs []*rpcproto.Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var recs []PhaseRecord
	for _, r := range reqs {
		if r == nil || r.Finish == 0 || r.NumPhases == 0 {
			continue
		}
		recs = PhaseRecordsOf(recs[:0], r)
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
