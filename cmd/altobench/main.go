// Command altobench regenerates the paper's tables and figures.
//
// Usage:
//
//	altobench -list
//	altobench -exp fig10 [-scale quick|full] [-seed N] [-par N]
//	altobench -exp all -scale full | tee experiments.txt
//
// Independent runs inside an experiment (load sweeps, seed grids)
// execute on a worker pool sized by -par (default GOMAXPROCS); output
// is byte-identical at every width, -par 1 being strictly serial.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/report"
)

// renderCharts draws any table shaped like (system, MRPS, p99, ...) as a
// log-y ASCII chart — the terminal rendition of the paper's
// latency-throughput figures.
func renderCharts(tables []report.Table) {
	for _, t := range tables {
		if len(t.Cols) < 3 || t.Cols[1] != "MRPS" || !strings.HasPrefix(t.Cols[2], "p99") {
			continue
		}
		series := map[string]*report.Series{}
		var order []string
		for _, row := range t.Rows {
			x, err1 := strconv.ParseFloat(row[1], 64)
			y, err2 := strconv.ParseFloat(row[2], 64)
			if err1 != nil || err2 != nil {
				continue
			}
			sr, ok := series[row[0]]
			if !ok {
				sr = &report.Series{Name: row[0]}
				series[row[0]] = sr
				order = append(order, row[0])
			}
			sr.Points = append(sr.Points, [2]float64{x, y})
		}
		if len(order) == 0 {
			continue
		}
		c := report.Chart{Title: t.Title, XLabel: "MRPS", YLabel: "p99 us", LogY: true}
		for _, name := range order {
			c.Series = append(c.Series, *series[name])
		}
		c.SortSeriesPoints()
		if err := c.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "altobench: chart:", err)
		}
	}
}

func main() {
	var (
		expID = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale = flag.String("scale", "quick", "run scale: quick or full")
		seed  = flag.Uint64("seed", 1, "simulation seed")
		list  = flag.Bool("list", false, "list available experiments")
		chart = flag.Bool("chart", false, "also render latency-throughput tables as ASCII charts")
		par   = flag.Int("par", 0, "cross-run parallelism: worker-pool width for independent runs (0 = GOMAXPROCS, 1 = fully serial); tables are byte-identical at any width")
		chk   = flag.Bool("check", true, "run every simulation under the online invariant checker (internal/check); -check=false disables it")
	)
	flag.Parse()
	fleet.SetParallelism(*par)
	check.SetEnabled(*chk)

	if *list || *expID == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-8s %-14s %s\n", e.ID, "("+e.Paper+")", e.Title)
		}
		if *expID == "" && !*list {
			fmt.Fprintln(os.Stderr, "\nusage: altobench -exp <id|all> [-scale quick|full] [-seed N]")
			os.Exit(2)
		}
		return
	}

	sc := experiments.ScaleQuick
	switch *scale {
	case "quick":
	case "full":
		sc = experiments.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "altobench: unknown scale %q (quick|full)\n", *scale)
		os.Exit(2)
	}

	var todo []experiments.Experiment
	if *expID == "all" {
		todo = experiments.All()
	} else {
		e, err := experiments.Get(*expID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "altobench:", err)
			os.Exit(2)
		}
		todo = []experiments.Experiment{e}
	}

	for _, e := range todo {
		// Wall-clock here measures how long the experiment takes to
		// simulate, not anything inside the simulation — the one place
		// real time is legitimate.
		start := time.Now() //altolint:allow detnow wall-clock runtime of the experiment itself, not simulated time
		fmt.Printf("# %s (%s) — %s [scale=%s seed=%d]\n", e.ID, e.Paper, e.Title, sc, *seed)
		tables, err := e.Run(sc, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "altobench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		if err := report.RenderAll(os.Stdout, tables); err != nil {
			fmt.Fprintln(os.Stderr, "altobench:", err)
			os.Exit(1)
		}
		if *chart {
			renderCharts(tables)
		}
		fmt.Printf("# %s completed in %v\n\n", //altolint:allow detnow wall-clock runtime of the experiment itself, not simulated time
			e.ID, time.Since(start).Round(time.Millisecond))
	}

	if runs, checks, violations := check.Totals(); runs > 0 {
		fmt.Printf("# simcheck: %d runs, %d invariant checks, %d violations\n", runs, checks, violations)
		if violations > 0 {
			os.Exit(1)
		}
	}
}
