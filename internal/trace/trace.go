// Package trace exports simulation runs as structured data — per-request
// records (CSV or JSON lines) and latency CDFs — so results can be
// analysed or plotted outside the simulator. Everything the replay
// analyses rely on (service, latency, migration and prediction marks) is
// preserved.
package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// Record is the exported view of one completed request.
type Record struct {
	ID        uint64  `json:"id"`
	Conn      uint32  `json:"conn"`
	Tenant    uint8   `json:"tenant"`
	Op        string  `json:"op"`
	Group     int     `json:"group"`
	ArrivalNS float64 `json:"arrival_ns"`
	ServiceNS float64 `json:"service_ns"`
	FinishNS  float64 `json:"finish_ns"`
	LatencyNS float64 `json:"latency_ns"`
	Migrated  bool    `json:"migrated"`
	Predicted bool    `json:"predicted"`
}

// FromRecord builds the exported record of a completed request from its
// completion record. It panics (via Record.Latency) if the request has
// not finished.
func FromRecord(r *rpcproto.Record) Record {
	return Record{
		ID:        r.ID,
		Conn:      r.Conn,
		Tenant:    r.Tenant,
		Op:        r.Op.String(),
		Group:     int(r.GroupHint),
		ArrivalNS: r.Arrival.Nanoseconds(),
		ServiceNS: r.Service.Nanoseconds(),
		FinishNS:  r.Finish.Nanoseconds(),
		LatencyNS: r.Latency().Nanoseconds(),
		Migrated:  r.Migrated,
		Predicted: r.Predicted,
	}
}

// csvHeader matches Record's field order.
var csvHeader = []string{"id", "conn", "tenant", "op", "group",
	"arrival_ns", "service_ns", "finish_ns", "latency_ns", "migrated", "predicted"}

// WriteCSV streams a run's completion records as CSV with a header row.
// Nil or unfinished records are skipped.
func WriteCSV(w io.Writer, reqs []*rpcproto.Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	for _, r := range reqs {
		if r == nil || r.Finish == 0 {
			continue
		}
		rec := FromRecord(r)
		row := []string{
			strconv.FormatUint(rec.ID, 10),
			strconv.FormatUint(uint64(rec.Conn), 10),
			strconv.FormatUint(uint64(rec.Tenant), 10),
			rec.Op,
			strconv.Itoa(rec.Group),
			f(rec.ArrivalNS), f(rec.ServiceNS), f(rec.FinishNS), f(rec.LatencyNS),
			strconv.FormatBool(rec.Migrated),
			strconv.FormatBool(rec.Predicted),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a CSV written by WriteCSV back into records.
func ReadCSV(r io.Reader) ([]Record, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	if len(rows[0]) != len(csvHeader) || rows[0][0] != "id" {
		return nil, fmt.Errorf("trace: unexpected header %v", rows[0])
	}
	out := make([]Record, 0, len(rows)-1)
	for i, row := range rows[1:] {
		rec, err := parseRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", i+2, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

func parseRow(row []string) (Record, error) {
	var rec Record
	if len(row) != len(csvHeader) {
		return rec, fmt.Errorf("want %d fields, got %d", len(csvHeader), len(row))
	}
	id, err := strconv.ParseUint(row[0], 10, 64)
	if err != nil {
		return rec, err
	}
	conn, err := strconv.ParseUint(row[1], 10, 32)
	if err != nil {
		return rec, err
	}
	tenant, err := strconv.ParseUint(row[2], 10, 8)
	if err != nil {
		return rec, err
	}
	group, err := strconv.Atoi(row[4])
	if err != nil {
		return rec, err
	}
	fs := make([]float64, 4)
	for i := 0; i < 4; i++ {
		fs[i], err = strconv.ParseFloat(row[5+i], 64)
		if err != nil {
			return rec, err
		}
	}
	mig, err := strconv.ParseBool(row[9])
	if err != nil {
		return rec, err
	}
	pred, err := strconv.ParseBool(row[10])
	if err != nil {
		return rec, err
	}
	rec = Record{
		ID: id, Conn: uint32(conn), Tenant: uint8(tenant), Op: row[3], Group: group,
		ArrivalNS: fs[0], ServiceNS: fs[1], FinishNS: fs[2], LatencyNS: fs[3],
		Migrated: mig, Predicted: pred,
	}
	return rec, nil
}

// WriteJSONL streams a run's completion records as JSON lines. Nil or
// unfinished records are skipped.
func WriteJSONL(w io.Writer, reqs []*rpcproto.Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range reqs {
		if r == nil || r.Finish == 0 {
			continue
		}
		if err := enc.Encode(FromRecord(r)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// CDFPoint is one (latency, cumulative fraction) pair.
type CDFPoint struct {
	LatencyNS float64 `json:"latency_ns"`
	Fraction  float64 `json:"fraction"`
}

// CDF condenses a run's completion records into an n-point latency CDF
// (n >= 2; endpoints are the min and max observations).
func CDF(reqs []*rpcproto.Record, n int) []CDFPoint {
	if n < 2 {
		n = 2
	}
	var lats []sim.Time
	for _, r := range reqs {
		if r != nil && r.Finish != 0 {
			lats = append(lats, r.Latency())
		}
	}
	if len(lats) == 0 {
		return nil
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	out := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		idx := int(frac * float64(len(lats)-1))
		out = append(out, CDFPoint{
			LatencyNS: lats[idx].Nanoseconds(),
			Fraction:  float64(idx+1) / float64(len(lats)),
		})
	}
	return out
}
