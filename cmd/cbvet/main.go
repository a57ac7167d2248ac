// Command cbvet is the multichecker driver for the static analyzers
// under internal/analysis: breakpoint-key hygiene (bpkeys), shared
// cells with inconsistent locksets (conflicts), predicate purity
// (predpure), raw-sync usage in app packages (rawsync), static
// lock-order cycles (lockorder), timer leaks in loops (timerleak), and
// exported declarations that nothing reaches (unused).
//
// Standalone use:
//
//	cbvet ./...            # human-readable findings, exit 1 when any,
//	                       # exit 2 when a package does not type-check
//	cbvet -json ./... > cbvet.json
//	cbvet -run bpkeys,lockorder ./internal/apps/...
//
// It also speaks the go vet driver protocol, so it can run as
//
//	go vet -vettool=$(which cbvet) ./...
//
// In that mode each package is analyzed in isolation with the build
// cache's export data, and the whole-program checks (orphaned
// breakpoint keys, unreached declarations) are disabled — see docs/USAGE.md, "Static analysis
// with cbvet".
//
// Findings are suppressed with a trailing or preceding comment:
//
//	//cbvet:ignore <analyzer> <reason>
//
// The reason is mandatory and the analyzer name must exist ("all"
// matches every analyzer); malformed directives are themselves
// findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cbreak/internal/analysis"
	"cbreak/internal/analysis/bpkeys"
	"cbreak/internal/analysis/conflicts"
	"cbreak/internal/analysis/load"
	"cbreak/internal/analysis/lockorder"
	"cbreak/internal/analysis/predpure"
	"cbreak/internal/analysis/rawsync"
	"cbreak/internal/analysis/timerleak"
	"cbreak/internal/analysis/unused"
)

// all is the registered analyzer suite, alphabetical.
var all = []*analysis.Analyzer{
	bpkeys.Analyzer,
	conflicts.Analyzer,
	lockorder.Analyzer,
	predpure.Analyzer,
	rawsync.Analyzer,
	timerleak.Analyzer,
	unused.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	// The go vet driver protocol: `cbvet -V=full` prints an identity
	// line, `cbvet <file>.cfg` analyzes one compilation unit.
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			printVersion(stdout)
			return 0
		case args[0] == "-flags":
			// go vet queries the tool's flag set before running it;
			// cbvet exposes no analyzer flags in driver mode.
			fmt.Fprintln(stdout, "[]")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return unitcheck(args[0], stderr)
		}
	}

	fs := flag.NewFlagSet("cbvet", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON artifact on stdout")
	list := fs.Bool("list", false, "list analyzers and exit")
	runSel := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectAnalyzers(*runSel)
	if err != nil {
		fmt.Fprintln(stderr, "cbvet:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "cbvet:", err)
		return 2
	}
	loader, err := load.New(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "cbvet:", err)
		return 2
	}
	units, err := loader.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "cbvet:", err)
		return 2
	}
	// The analyzers would run on partial types, so a type error fails
	// the run.
	typeErrors := 0
	for _, u := range units {
		for _, e := range u.TypeErrors {
			fmt.Fprintf(stderr, "cbvet: %s: type error: %v\n", u.Path, e)
			typeErrors++
		}
	}
	if typeErrors > 0 {
		return 2
	}

	runner := &analysis.Runner{Analyzers: analyzers, Known: analyzerNames(all)}
	res, err := runner.Run(units)
	if err != nil {
		fmt.Fprintln(stderr, "cbvet:", err)
		return 2
	}

	if *jsonOut {
		report := analysis.NewReport(analyzers, res, loader.ModuleRoot())
		out, err := report.Encode()
		if err != nil {
			fmt.Fprintln(stderr, "cbvet:", err)
			return 2
		}
		stdout.Write(out)
	} else {
		for _, f := range res.Findings {
			f.File = relTo(cwd, f.File)
			fmt.Fprintln(stdout, f)
		}
		if n := len(res.Suppressed); n > 0 {
			fmt.Fprintf(stderr, "cbvet: %d finding(s) suppressed by //cbvet:ignore\n", n)
		}
	}
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}

func analyzerNames(as []*analysis.Analyzer) []string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return names
}

func selectAnalyzers(sel string) ([]*analysis.Analyzer, error) {
	if sel == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(sel, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
