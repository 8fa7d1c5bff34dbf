// Command altolint runs the repository's domain-specific static
// analyzers (see internal/lint). It enforces the simulator determinism
// contract — no wall-clock reads, no global RNG, no concurrency in
// sim-driven packages, no order-leaking map iteration, no exact float
// equality, no bare literals posing as sim.Time — and the live
// runtime's concurrency contract: all-or-nothing atomic field access,
// non-blocking or capacity-blessed channel sends, an acyclic lock
// order, and cache-line padding around contended atomic counters.
//
// Usage:
//
//	altolint [-json] [packages]
//	altolint -escapes [-escapes-write] [-escapes-gate <prefix>] [packages]
//
// Packages may be "./..." (default, the whole module), a directory, or
// a directory with a /... suffix. Exit status: 0 clean, 1 findings,
// 2 usage or load failure. Suppress an individual finding with
//
//	//altolint:allow <analyzer> <reason>
//
// on the offending line or the line above it.
//
// The -escapes mode is a compiler-diagnostics gate instead of an AST
// pass: it rebuilds the hotpath packages (default: internal/policy,
// internal/arena, internal/live) with -gcflags='-m=1
// -d=ssa/check_bce/debug=1' and fails on any heap escape or bounds
// check inside a //altolint:hotpath function that is not covered by
// the checked-in allowlist (internal/lint/testdata/escapes/allow.txt).
// -escapes-write regenerates the allowlist from the current build.
//
// Because the diagnostics depend on the compiler version, the gate's
// severity is split by package: with -escapes-gate <import-path-prefix>
// only findings inside matching packages fail the run (exit 1); the
// rest print as warnings. check.sh gates repro/internal/live this way —
// the live data plane's zero-alloc contract is load-bearing — while the
// sim-side hotpaths stay warn-only across toolchain bumps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

// escapesDefaultPatterns are the hotpath packages the -escapes gate
// covers when no patterns are given: the policy core and arena (shared
// per-request code), the live runtime and the MICA store its KV service
// runs on, and the simulator's event engine (the timer wheel's push/pop
// fast paths carry every simulated event).
var escapesDefaultPatterns = []string{"internal/policy", "internal/arena", "internal/live", "internal/mica", "internal/sim"}

// escapesAllowFile is the checked-in allowlist, relative to the module
// root.
const escapesAllowFile = "internal/lint/testdata/escapes/allow.txt"

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON (for CI)")
	listAnalyzers := flag.Bool("list", false, "list analyzers and exit")
	escapes := flag.Bool("escapes", false, "run the compiler-diagnostics hotpath gate instead of the AST analyzers")
	escapesWrite := flag.Bool("escapes-write", false, "with -escapes: regenerate the allowlist from the current diagnostics")
	escapesGate := flag.String("escapes-gate", "",
		"with -escapes: only findings in packages matching this import-path prefix fail the run; the rest are warnings")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: altolint [-json] [-list] [-escapes [-escapes-write] [-escapes-gate prefix]] [packages]")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *listAnalyzers {
		for _, a := range analyzers {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-11s %s\n", "escapes", "compiler-diagnostics gate: no heap escapes or bounds checks in hotpath functions (-escapes)")
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fatal(err)
	}

	if *escapes {
		runEscapes(loader, flag.Args(), *jsonOut, *escapesWrite, *escapesGate)
		return
	}

	pkgs, err := lint.LoadPatterns(loader, flag.Args())
	if err != nil {
		fatal(err)
	}

	diags := lint.Run(pkgs, analyzers)
	emit(diags, *jsonOut, len(pkgs))
}

// runEscapes drives the compiler-diagnostics gate and exits.
func runEscapes(loader *lint.Loader, patterns []string, jsonOut, write bool, gate string) {
	if len(patterns) == 0 {
		patterns = escapesDefaultPatterns
	}
	diags, err := lint.RunEscapes(loader, patterns)
	if err != nil {
		fatal(err)
	}
	allowPath := filepath.Join(loader.Root, filepath.FromSlash(escapesAllowFile))
	if write {
		if err := os.WriteFile(allowPath, []byte(lint.FormatEscapeAllow(diags)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("altolint: wrote %d hotpath diagnostic(s) to %s\n", len(diags), escapesAllowFile)
		return
	}
	data, err := os.ReadFile(allowPath)
	if err != nil && !os.IsNotExist(err) {
		fatal(err)
	}
	findings := lint.CheckEscapes(diags, lint.ParseEscapeAllow(string(data)), escapesAllowFile)
	if gate == "" {
		emit(findings, jsonOut, len(patterns))
		return
	}
	// Split by the gating prefix: matching packages hard-fail, the rest
	// warn. A finding with no package attribution gates — better a loud
	// false positive than a silent hole in the gated set.
	var gated, warned []lint.Diagnostic
	for _, d := range findings {
		if d.PkgPath == "" || strings.HasPrefix(d.PkgPath, gate) {
			gated = append(gated, d)
		} else {
			warned = append(warned, d)
		}
	}
	for _, d := range warned {
		fmt.Println("warning:", d)
	}
	if len(warned) > 0 {
		fmt.Fprintf(os.Stderr, "altolint: %d warn-only escape finding(s) outside %s\n", len(warned), gate)
	}
	emit(gated, jsonOut, len(patterns))
}

func emit(diags []lint.Diagnostic, jsonOut bool, pkgCount int) {
	if diags == nil {
		diags = []lint.Diagnostic{} // -json emits [] rather than null
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "altolint: %d finding(s) in %d package(s)\n", len(diags), pkgCount)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "altolint:", err)
	os.Exit(2)
}
