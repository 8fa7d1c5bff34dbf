package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The tests run every workload at the -smoke scale, in process. They
// are this module's own (`cd bench && go test ./...`); the repository's
// tier-1 `go test ./...` does not descend into a nested module.

const benchmarkJSON = "../BENCHMARK.json"

// smoke runs one workload at the smoke scale and returns its result
// line and everything it printed.
func smoke(t *testing.T, workload string, seed string, trace string, outDir string) (resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", seed, "-seconds", "0.2",
		"-trace", trace, "-smoke", "-out", outDir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%s: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res, stdout.String()
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the harness defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	same := func(kind string, declared []metricDef, name func(i int) (string, string, string), n int) {
		if n != len(declared) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness declares %d", kind, n, len(declared))
		}
		for i := 0; i < n && i < len(declared); i++ {
			gotName, unit, better := name(i)
			d := declared[i]
			if gotName != d.Name || unit != d.Unit || better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the harness declares %s/%s/%s",
					kind, i, gotName, unit, better, d.Name, d.Unit, d.Better)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: bad metric name %q", kind, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s: metric %q declared twice", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	same("end_to_end", endToEnd, func(i int) (string, string, string) {
		m := bf.EndToEnd[i]
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		return m.Name, m.Unit, m.Better
	}, len(bf.EndToEnd))
	same("per_layer", perLayer, func(i int) (string, string, string) {
		m := bf.PerLayer[i]
		return m.Name, m.Unit, m.Better
	}, len(bf.PerLayer))

	registered := workloads()
	if len(bf.Workloads) != len(registered) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(registered))
	}
	for _, w := range bf.Workloads {
		if _, ok := registered[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the harness", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestSmoke runs every workload untraced and traced: each prints every
// declared metric exactly once; simulated results and exact counts
// repeat for a seed and move with it; the span arithmetic holds and the
// per-layer budget closes.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			out := t.TempDir()
			e2e, printed := smoke(t, name, "1", "0", out)
			checkMetrics(t, endToEnd, e2e, printed)
			for _, d := range endToEnd {
				if v := e2e.Metrics[d.Name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, v)
				}
			}
			layers, printed := smoke(t, name, "1", "1", out)
			checkMetrics(t, perLayer, layers, printed)
			checkSpans(t, filepath.Join(out, name+".trace.jsonl"))

			if !strings.HasPrefix(name, "sim-") {
				return
			}
			again, _ := smoke(t, name, "1", "0", out)
			other, _ := smoke(t, name, "2", "0", out)
			for _, m := range []string{"p50_us", "p99_us"} {
				if again.Metrics[m].Value != e2e.Metrics[m].Value {
					t.Errorf("%s: %v then %v for one seed", m, e2e.Metrics[m].Value, again.Metrics[m].Value)
				}
			}
			if other.Metrics["p99_us"].Value == e2e.Metrics["p99_us"].Value {
				t.Errorf("p99_us = %v for seeds 1 and 2: the seed does not reach the inputs", e2e.Metrics["p99_us"].Value)
			}
			layersAgain, _ := smoke(t, name, "1", "1", out)
			for _, d := range perLayer {
				exact := strings.HasPrefix(d.Name, "core.") || strings.HasPrefix(d.Name, "hwmsg.") ||
					d.Name == "check.checks_per_req" || d.Name == "sim.slo_viol_pct" || d.Name == "sim.tput_at_slo_mrps"
				if exact && layers.Metrics[d.Name].Value != layersAgain.Metrics[d.Name].Value {
					t.Errorf("%s: %v then %v for one seed", d.Name, layers.Metrics[d.Name].Value, layersAgain.Metrics[d.Name].Value)
				}
			}
			// Attributed layers and the remainder sum to the rep.
			m := layers.Metrics
			perReq := m["sim.rep_ms"].Value * 1e6 / m["sim.requests_per_rep"].Value
			sum := m["sim.attributed_ns_per_req"].Value + m["sim.remainder_ns_per_req"].Value
			if math.Abs(sum-perReq) > 0.01*perReq {
				t.Errorf("budget does not close: attributed + remainder = %v ns, rep = %v ns per request", sum, perReq)
			}
		})
	}
}

// checkMetrics verifies the result line holds exactly the declared
// metrics and that the table printed each once.
func checkMetrics(t *testing.T, defs []metricDef, res resultLine, printed string) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("result line has %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("result line lacks %s", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
		rows := 0
		for _, line := range strings.Split(printed, "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == d.Name {
				rows++
			}
		}
		if rows != 1 {
			t.Errorf("%s printed %d times, want once", d.Name, rows)
		}
	}
}

// checkSpans reads a span file back: children lie inside their parents
// and no span has negative self time.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := &tracer{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		tr.spans = append(tr.spans, s)
	}
	if len(tr.spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	if err := tr.check(); err != nil {
		t.Error(err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 29, 2, 4, 37, 7, 11, 22, 16})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, reqPerS float64) string {
		var b strings.Builder
		for _, w := range workloadNames() {
			for seed := 1; seed <= 4; seed++ {
				row := setRow{Workload: w, Seed: uint64(seed), Result: resultLine{Correct: true, Attempted: 1, Metrics: map[string]reading{}}}
				for _, d := range endToEnd {
					row.Result.Metrics[d.Name] = reading{Value: 100 + float64(seed), Unit: d.Unit}
				}
				row.Result.Metrics["req_per_s"] = reading{Value: reqPerS + float64(seed), Unit: "1/s"}
				line, err := json.Marshal(row)
				if err != nil {
					t.Fatal(err)
				}
				b.Write(line)
				b.WriteByte('\n')
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slower := write("a.jsonl", 1000), write("b.jsonl", 500)
	var stdout, stderr bytes.Buffer
	if code := compareSets(&stdout, &stderr, benchmarkJSON, base, base); code != 0 {
		t.Errorf("A/A compare: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if strings.Contains(stdout.String(), "worse") && !strings.Contains(stdout.String(), "# 0 worse, 0 unresolved") {
		t.Errorf("A/A compare reports a difference:\n%s", stdout.String())
	}
	stdout.Reset()
	if code := compareSets(&stdout, &stderr, benchmarkJSON, base, slower); code != 1 {
		t.Errorf("halved req_per_s: exit %d, want 1\n%s", code, stdout.String())
	}
}
