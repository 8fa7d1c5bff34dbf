package server

import (
	"bytes"
	"cmp"
	"slices"
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
// fleet.MapWith worker does. The phased run at the end reuses the slots
// the bare runs warmed, with N far above the arena's high-water mark, so
// every slot and its sidecar serve many requests: a record that still
// pointed into the arena would read a later request's phases.
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

	phased := func(sc *Scratch) []byte {
		cfg, wl := phasesKV4()
		res, err := RunWith(sc, cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		checkPhaseRecords(t, res)
		if hw := inFlightHighWater(res); hw*8 > len(res.Requests) {
			t.Fatalf("%d of %d requests in flight at once: slot reuse is not being exercised", hw, len(res.Requests))
		}
		var buf bytes.Buffer
		if err := trace.WriteCSV(&buf, res.Requests); err != nil {
			t.Fatal(err)
		}
		if err := trace.WritePhaseCSV(&buf, res.Requests); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	warm1, warm2, fresh := phased(sc), phased(sc), phased(NewScratch())
	if !bytes.Equal(warm1, fresh) || !bytes.Equal(warm2, fresh) {
		t.Fatalf("phased traces differ: warm scratch %d and %d bytes, fresh %d", len(warm1), len(warm2), len(fresh))
	}
}

// inFlightHighWater returns the most requests a run had between arrival
// and completion at one instant: the arena slots it needed, give or take
// the one request generated ahead of its arrival.
func inFlightHighWater(res *Result) int {
	type edge struct {
		at sim.Time
		d  int
	}
	edges := make([]edge, 0, 2*len(res.Requests))
	for _, r := range res.Requests {
		edges = append(edges, edge{r.Arrival, +1}, edge{r.Finish, -1})
	}
	slices.SortFunc(edges, func(a, b edge) int { return cmp.Compare(a.at, b.at) })
	live, high := 0, 0
	for _, e := range edges {
		if live += e.d; live > high {
			high = live
		}
	}
	return high
}

// checkPhaseRecords audits a finished phased run's records: each owns
// its sidecar, whose stamps end at Finish, never run backwards from
// Arrival, and whose base durations still sum to Service.
func checkPhaseRecords(t *testing.T, res *Result) {
	t.Helper()
	owner := make(map[*rpcproto.PhaseVec]uint64, len(res.Requests))
	for _, r := range res.Requests {
		if r.NumPhases == 0 || r.PhaseVec == nil {
			t.Fatalf("request %d: NumPhases %d, sidecar %p", r.ID, r.NumPhases, r.PhaseVec)
		}
		if other, dup := owner[r.PhaseVec]; dup {
			t.Fatalf("requests %d and %d share one phase sidecar", other, r.ID)
		}
		owner[r.PhaseVec] = r.ID
		if end := r.PhaseEnd[r.NumPhases-1]; end != r.Finish {
			t.Fatalf("request %d: last phase ends %v, finish %v", r.ID, end, r.Finish)
		}
		prev, sum := r.Arrival, sim.Time(0)
		for i := 0; i < int(r.NumPhases); i++ {
			if r.PhaseEnd[i] < prev {
				t.Fatalf("request %d: phase %d ends %v before %v", r.ID, i, r.PhaseEnd[i], prev)
			}
			prev = r.PhaseEnd[i]
			sum += r.PhaseSvc[i]
		}
		if sum != r.Service {
			t.Fatalf("request %d: phase durations sum to %v, service %v", r.ID, sum, r.Service)
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
