package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/nic"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestScratchReusePurity locks the RunWith contract: a Scratch carried
// across consecutive runs (arena slabs warm, handle table reused) must
// not change any run's trace. This is the serial shape of what each
// fleet.MapWith worker does.
func TestScratchReusePurity(t *testing.T) {
	sc := NewScratch()
	for round := 0; round < 3; round++ {
		for _, kind := range goldenKinds() {
			res, err := RunWith(sc, goldenConfig(kind), goldenWorkload())
			if err != nil {
				t.Fatalf("round %d %s: %v", round, kind, err)
			}
			compareGolden(t, kind, res)
		}
	}
}

func goldenKinds() []SchedulerKind {
	return []SchedulerKind{
		SchedRSS, SchedIX, SchedZygOS, SchedShinjuku,
		SchedRPCValet, SchedNebula, SchedNanoPU,
		SchedAltocumulus, SchedRSSPlus,
	}
}

func goldenConfig(kind SchedulerKind) Config {
	cfg := Config{
		Kind: kind, Cores: 4, Stack: rpcproto.StackNanoRPC,
		Steer: nic.SteerConnection, Seed: 7,
	}
	if kind == SchedAltocumulus {
		cfg.AC = core.DefaultParams(2, 2)
	}
	return cfg
}

func goldenWorkload() Workload {
	svc := dist.Exponential{M: sim.Microsecond}
	return Workload{
		Arrivals: dist.Poisson{Rate: dist.LoadForRate(0.7, 4, svc)},
		Service:  svc,
		N:        250, Warmup: 0, Conns: 8,
	}
}

func compareGolden(t *testing.T, kind SchedulerKind, res *Result) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, res.Requests); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden",
		fmt.Sprintf("%s.csv", sanitize(kind.String())))
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace deviates from %s (%d vs %d bytes)", path, buf.Len(), len(want))
	}
}
