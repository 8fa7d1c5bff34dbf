// Command bench is the repository's benchmark: six workloads over both
// engines — the deterministic simulator and the live goroutine/TCP
// runtime — driven only through their public functions. One process
// measures one workload: with -trace 0 the end-to-end metrics a user
// feels, with -trace 1 the per-layer metrics measured from outside
// (timing wrappers, isolated drives, twin runs, exact counts) and a span
// file. README.md defines every name; ../BENCHMARK.json registers them.
//
//	bash bench/run.sh -workload sim-grid-short -seed 1 -seconds 14 -trace 0
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// defaultSeconds is BENCHMARK.json's run_seconds (the tests hold the two
// together): what a run measures for when -seconds is not given.
const defaultSeconds = 14

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

// outcome is what a workload hands back: the counts of the result
// line, the metric values, and notes for the human-readable part.
type outcome struct {
	attempted, failed int64
	errs              []error
	e2e               values // untraced run
	layers            values // traced run
	notes             []string
}

func newOutcome() *outcome { return &outcome{layers: values{}} }

// tally counts operations into the result line; err, when set, is why
// some of them failed.
func (o *outcome) tally(attempted, failed int64, err error) {
	o.attempted += attempted
	o.failed += failed
	if err != nil {
		o.fail(err)
	}
}

// fail marks the run incorrect.
func (o *outcome) fail(err error) {
	if len(o.errs) < 8 {
		o.errs = append(o.errs, err)
	}
}

func (o *outcome) correct() bool { return len(o.errs) == 0 && o.failed == 0 }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// finishTrace checks the span arithmetic and writes the span file.
func (o *outcome) finishTrace(tr *tracer, opt options, workload string) error {
	if err := tr.check(); err != nil {
		return err
	}
	path := filepath.Join(opt.outDir, workload+".trace.jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	o.notef("%d spans written to %s", len(tr.spans), path)
	return nil
}

// workloads maps every workload's name to the function that measures it.
func workloads() map[string]func(options) (*outcome, error) {
	m := make(map[string]func(options) (*outcome, error))
	for _, s := range simSpecs {
		m[s.name] = func(opt options) (*outcome, error) { return runSim(s, opt) }
	}
	for _, s := range liveSpecs {
		m[s.name] = func(opt options) (*outcome, error) { return runLive(s, opt) }
	}
	return m
}

func workloadNames() []string {
	var names []string
	for name := range workloads() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames()))
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed: same seed, same inputs (2 is the held-out seed)")
	fs.Float64Var(&opt.seconds, "seconds", defaultSeconds, "length of the measured region")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/<workload>.trace.jsonl")
	fs.BoolVar(&opt.smoke, "smoke", false, "tiny scale, for tests")
	fs.StringVar(&opt.outDir, "out", filepath.Join("bench", "out"), "directory for span files")
	list := fs.Bool("list", false, "print the workload names, one per line")
	compare := fs.Bool("compare", false, "compare two result sets: bench -compare a.jsonl b.jsonl")
	benchmarkJSON := fs.String("benchmark", "BENCHMARK.json", "path of BENCHMARK.json (bounds for -compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, name := range workloadNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result-set files")
			return 2
		}
		return compareSets(stdout, stderr, *benchmarkJSON, fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	opt.trace = *trace == 1
	fn, ok := workloads()[opt.workload]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q; have %v\n", opt.workload, workloadNames())
		return 2
	}
	if opt.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}

	fmt.Fprintf(stdout, "# bench workload=%s seed=%d seconds=%g trace=%d smoke=%v GOMAXPROCS=%d nproc=%d go=%s commit=%s\n",
		opt.workload, opt.seed, opt.seconds, *trace, opt.smoke,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())
	out, err := fn(opt)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", opt.workload, err)
		return 1
	}
	defs, vals := endToEnd, out.e2e
	if opt.trace {
		defs, vals = perLayer, out.layers
		vals["proc.peak_rss_mb"] = peakRSSMB()
	}
	metrics, err := readings(defs, vals, !opt.trace)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", opt.workload, err)
		return 1
	}
	for _, note := range out.notes {
		fmt.Fprintf(stdout, "# %s\n", note)
	}
	for _, e := range out.errs {
		fmt.Fprintf(stdout, "# FAILED: %v\n", e)
	}
	fmt.Fprintf(stdout, "# fail_pct %.6f %% (%d of %d)\n",
		100*float64(out.failed)/float64(max(out.attempted, 1)), out.failed, out.attempted)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-34s %16.6g %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(resultLine{
		Correct: out.correct(), Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.correct() {
		return 1
	}
	return 0
}

// commit is the revision run.sh read from git, when there is one.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
