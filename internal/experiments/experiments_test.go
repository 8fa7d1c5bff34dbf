package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/report"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must have a
	// registered experiment, plus the repository's extension studies.
	want := []string{"fig01", "fig03", "fig07", "fig09", "fig10",
		"fig11", "fig12a", "fig12b", "fig13a", "fig13b", "fig13c", "fig14",
		"ablate", "bigtopo", "checks", "efficiency", "isolation", "multiphase", "rack", "stability", "validate"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for _, id := range want {
		e, err := Get(id)
		if err != nil {
			t.Fatalf("missing %s: %v", id, err)
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("%s incomplete: %+v", id, e)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("fig99"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestAllOrdered(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("All() not sorted: %s >= %s", all[i-1].ID, all[i].ID)
		}
	}
}

func TestScale(t *testing.T) {
	if ScaleQuick.String() != "quick" || ScaleFull.String() != "full" {
		t.Fatal("scale stringer")
	}
	if ScaleFull.n(100000) != 100000 {
		t.Fatal("full n")
	}
	if got := ScaleQuick.n(100000); got != 5000 {
		t.Fatalf("quick n = %d", got)
	}
	if got := ScaleQuick.n(1000); got != 2000 {
		t.Fatalf("quick n floor = %d", got)
	}
	if got := ScaleQuick.nForDuration(1e6, 0, 0); got != 20000 {
		t.Fatalf("duration floor = %d", got)
	}
}

func TestFig01Runs(t *testing.T) {
	// The cheapest experiment doubles as the end-to-end test of the
	// experiment machinery: run, render, and check the expected rows.
	e, err := Get("fig01")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(ScaleQuick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	var buf bytes.Buffer
	if err := report.RenderAll(&buf, tables); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"TCP/IP", "eRPC", "nanoRPC", "fig01"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, out)
		}
	}
	if len(tables[0].Rows) != 3 {
		t.Fatalf("rows = %d", len(tables[0].Rows))
	}
}

func TestHeavyExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment regeneration skipped in -short mode")
	}
	// Exercise the remaining experiments at quick scale; outputs are
	// validated structurally (non-empty tables with the declared column
	// counts). Scientific validation lives in EXPERIMENTS.md full runs.
	for _, id := range []string{"fig03", "fig07", "fig09", "fig11", "fig12b", "validate", "isolation"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			tables, err := e.Run(ScaleQuick, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("table %q empty", tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Cols) {
						t.Fatalf("table %q row width %d != %d cols", tb.Title, len(row), len(tb.Cols))
					}
				}
			}
		})
	}
}

// TestExperimentsMatchQuickSuite renders the bare-scheduler experiments
// (fig03, fig07, fig09, validate), the four MICA experiments, and the
// ALTOCUMULUS runs that exercise the manager tick's consumers (ablate's
// software-messaging row, bigtopo's 1024 cores, the migration replays of
// fig11, fig12b and isolation) at quick scale, seed 1, and compares each
// byte for byte with its section of the committed quick-suite output,
// which scripts/check.sh regenerates in full.
func TestExperimentsMatchQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regeneration skipped in -short mode")
	}
	suite, err := os.ReadFile("testdata/quick_seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig03", "fig07", "fig09", "validate", "fig13a", "fig13b", "fig13c", "fig14",
		"ablate", "bigtopo", "fig11", "fig12b", "isolation"} {
		id := id
		t.Run(id, func(t *testing.T) {
			want := quickSection(t, suite, id)
			if got := render(t, id, 1); !bytes.Equal(got, want) {
				t.Fatalf("%s differs from testdata/quick_seed1.txt:\n--- want ---\n%s\n--- got ---\n%s", id, want, got)
			}
		})
	}
}

// quickSection returns experiment id's rendered tables from the quick
// suite's output: the lines between its "# <id> (" header and the next
// "# " line, less the blank line that ends every section.
func quickSection(t *testing.T, suite []byte, id string) []byte {
	t.Helper()
	head := []byte("# " + id + " (")
	start := bytes.Index(suite, head)
	if start < 0 || (start > 0 && suite[start-1] != '\n') {
		t.Fatalf("no %q section", head)
	}
	start += bytes.IndexByte(suite[start:], '\n') + 1
	end := bytes.Index(suite[start:], []byte("\n# "))
	if end < 0 {
		t.Fatalf("%s section has no end", id)
	}
	return suite[start : start+end]
}
