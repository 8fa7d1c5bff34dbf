package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// setRow is one line of a result-set file, as `run.sh -set` writes it:
// the workload and seed of one untraced run beside its result line.
type setRow struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Result   resultLine `json:"result"`
}

// resultSet holds, per workload and metric, the values of its runs.
type resultSet struct {
	values map[string]map[string][]float64
	failed map[string]int64
}

func readSet(path string) (*resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &resultSet{values: map[string]map[string][]float64{}, failed: map[string]int64{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var row setRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if rs.values[row.Workload] == nil {
			rs.values[row.Workload] = map[string][]float64{}
		}
		for _, d := range endToEnd {
			if m, ok := row.Result.Metrics[d.Name]; ok {
				rs.values[row.Workload][d.Name] = append(rs.values[row.Workload][d.Name], m.Value)
			}
		}
		rs.failed[row.Workload] += row.Result.Failed
	}
	return rs, sc.Err()
}

// compareSets prints one row per workload and end-to-end metric: both
// sets' medians and quartiles, b's median over a's, and a verdict
// under BENCHMARK.json's bound. It returns 1 when any row is worse.
//
// A row is unresolved when either set's own spread — the distance
// between its quartiles over its median — exceeds the bound, because
// then the sets cannot tell a change of that size from noise. setup_s
// is exempt from that rule, as it is in the acceptance check.
func compareSets(stdout, stderr io.Writer, benchmarkPath, pathA, pathB string) int {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "# a = %s, b = %s; ratio = median(b) / median(a); spread = (q3 - q1) / median\n", pathA, pathB)
	fmt.Fprintf(stdout, "%-18s %-15s %13s %8s %3s %13s %8s %3s %8s %6s  %s\n",
		"workload", "metric", "median(a)", "spread", "n", "median(b)", "spread", "n", "ratio", "bound", "verdict")
	worse, unresolved := 0, 0
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			xa, xb := a.values[w.Name][m.Name], b.values[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(stdout, "%-18s %-15s missing from a set\n", w.Name, m.Name)
				unresolved++
				continue
			}
			sa, sb := spreadOf(xa), spreadOf(xb)
			spreadA, spreadB := (sa.Q3-sa.Q1)/sa.Median, (sb.Q3-sb.Q1)/sb.Median
			ratio := sb.Median / sa.Median
			worsening := ratio - 1
			if m.Better == "higher" {
				worsening = 1 - ratio
			}
			verdict := "same"
			switch {
			case m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound):
				verdict = "unresolved"
				unresolved++
			case worsening > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(stdout, "%-18s %-15s %13.6g %7.2f%% %3d %13.6g %7.2f%% %3d %8.4f %5.0f%%  %s\n",
				w.Name, m.Name, sa.Median, 100*spreadA, sa.N, sb.Median, 100*spreadB, sb.N, ratio, 100*m.Bound, verdict)
		}
		if a.failed[w.Name] > 0 || b.failed[w.Name] > 0 {
			fmt.Fprintf(stdout, "%-18s failed operations: a %d, b %d\n", w.Name, a.failed[w.Name], b.failed[w.Name])
			worse++
		}
	}
	fmt.Fprintf(stdout, "# %d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return 1
	}
	return 0
}
