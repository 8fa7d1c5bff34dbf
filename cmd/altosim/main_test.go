package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestACLayout pins the -cores/-groups resolution: the 16-core tiling
// by default, explicit -groups as an override, and loud failures for
// both bad shapes.
func TestACLayout(t *testing.T) {
	g, wpg, err := acLayout(64, 0)
	if err != nil || g != 4 || wpg != 15 {
		t.Fatalf("acLayout(64, 0) = (%d, %d, %v), want (4, 15, nil)", g, wpg, err)
	}
	g, wpg, err = acLayout(64, 2)
	if err != nil || g != 2 || wpg != 31 {
		t.Fatalf("acLayout(64, 2) = (%d, %d, %v), want (2, 31, nil)", g, wpg, err)
	}
	if _, _, err = acLayout(100, 0); err == nil || !strings.Contains(err.Error(), "4 cores left over") {
		t.Fatalf("acLayout(100, 0) = %v, want remainder-naming error", err)
	}
	if _, _, err = acLayout(8, 0); err == nil {
		t.Fatal("acLayout(8, 0) accepted fewer cores than one group")
	}
	if _, _, err = acLayout(4, 4); err == nil {
		t.Fatal("acLayout(4, 4) accepted groups with zero workers")
	}
}

// TestCoresMustTile runs main with -cores 100 in a subprocess: the flag
// must be rejected through the real flag path with the remainder named.
func TestCoresMustTile(t *testing.T) {
	if os.Getenv("ALTOSIM_TEST_MAIN") == "1" {
		os.Args = []string{"altosim", "-sched", "altocumulus", "-cores", "100"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestCoresMustTile")
	cmd.Env = append(os.Environ(), "ALTOSIM_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("main accepted -cores 100; output:\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("subprocess failed to run: %v", err)
	}
	if ee.ExitCode() != 2 {
		t.Fatalf("exit code %d, want 2; output:\n%s", ee.ExitCode(), out)
	}
	if msg := string(out); !strings.Contains(msg, "4 cores left over") {
		t.Fatalf("error does not name the remainder:\n%s", msg)
	}
}

// TestTraceFlag runs main with -n 2000 -trace in a subprocess, as
// TestCoresMustTile does, and reads the file back: one row per request,
// in ID order, each latency equal to its finish minus its arrival.
func TestTraceFlag(t *testing.T) {
	if path := os.Getenv("ALTOSIM_TRACE_OUT"); path != "" {
		os.Args = []string{"altosim", "-n", "2000", "-trace", path}
		main()
		return
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestTraceFlag$")
	cmd.Env = append(os.Environ(), "ALTOSIM_TRACE_OUT="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("altosim -trace failed: %v\n%s", err, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := trace.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2000 {
		t.Fatalf("trace has %d rows, want 2000", len(recs))
	}
	for i, rec := range recs {
		if rec.ID != uint64(i) {
			t.Fatalf("row %d has id %d, want %d", i, rec.ID, i)
		}
		// The columns are whole picoseconds printed as ns to three
		// decimals; compare them as picoseconds, where the subtraction
		// is exact.
		if lat, fin, arr := ps(rec.LatencyNS), ps(rec.FinishNS), ps(rec.ArrivalNS); lat != fin-arr {
			t.Fatalf("row %d: latency %d ps, finish - arrival %d ps", i, lat, fin-arr)
		}
	}
}

func ps(ns float64) int64 { return int64(math.Round(ns * 1000)) }
