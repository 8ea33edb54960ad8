// Command zbpcheck is the multichecker for the simulator's
// domain-specific analyzer suite (internal/check/...): it mechanically
// enforces determinism, the paper's address bit-geometry, every
// declared packed bit-layout (//zbp:layout pack/unpack codecs, proven
// against the declaration and against each other), the
// zero-allocation hot-path contract, metrics registration, error
// handling, the shard scheduler's state-ownership discipline, loop
// cancellation, the service layer's locking discipline (deadlock-free
// acquisition order, no blocking under a mutex, guarded-field access),
// the crash-durability effect order, and the freshness of every //zbp:
// directive. CI runs it on every build; run it locally with
//
//	go run ./cmd/zbpcheck ./...
//
// Diagnostics print as file:line:col: [analyzer] message, and the exit
// status is 1 when any diagnostic (including an unused //zbp:allow) is
// reported. With -json the findings are emitted as one JSON object on
// stdout (and, under GITHUB_ACTIONS, as ::error workflow commands on
// stderr so they surface as inline PR annotations). See
// docs/STATIC_ANALYSIS.md for the analyzer catalogue and the
// //zbp:hotpath, //zbp:wallclock, //zbp:allow, //zbp:bounded,
// //zbp:locked, //zbp:guardedby, //zbp:caller-holds, //zbp:durable,
// and //zbp:layout annotations.
//
// The checker loads packages offline: module and vendored packages by
// path mapping, standard-library imports from GOROOT source. Packages
// are analyzed in dependency order so analyzers that export facts
// (lockorder, guardedby, packlayout) see their dependencies' facts,
// exactly as upstream go/analysis drivers schedule them. It analyzes
// non-test files (the contracts it enforces are production ones;
// fixtures under testdata are exercised by the analysistest suite
// instead).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"bulkpreload/internal/check/bitrange"
	"bulkpreload/internal/check/ctxflow"
	"bulkpreload/internal/check/determinism"
	"bulkpreload/internal/check/durable"
	"bulkpreload/internal/check/erring"
	"bulkpreload/internal/check/facts"
	"bulkpreload/internal/check/guardedby"
	"bulkpreload/internal/check/hotalloc"
	"bulkpreload/internal/check/load"
	"bulkpreload/internal/check/lockorder"
	"bulkpreload/internal/check/obsreg"
	"bulkpreload/internal/check/packlayout"
	"bulkpreload/internal/check/sharedstate"
	"bulkpreload/internal/check/staledirective"
)

// Suite is the full analyzer suite, in reporting order.
var suite = []*analysis.Analyzer{
	determinism.Analyzer,
	bitrange.Analyzer,
	packlayout.Analyzer,
	hotalloc.Analyzer,
	obsreg.Analyzer,
	erring.Analyzer,
	sharedstate.Analyzer,
	ctxflow.Analyzer,
	lockorder.Analyzer,
	guardedby.Analyzer,
	durable.Analyzer,
	staledirective.Analyzer,
}

func main() {
	listOnly := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout (plus GitHub ::error annotations when GITHUB_ACTIONS is set)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: zbpcheck [-list] [-json] [packages]\n\nAnalyzes the module's packages (default ./...).\nPatterns: ./... or package directories relative to the module root.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *listOnly {
		for _, a := range suite {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}
	if err := run(flag.Args(), *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "zbpcheck:", err)
		os.Exit(2)
	}
}

type diag struct {
	pos      token.Position
	analyzer string
	d        analysis.Diagnostic
}

// jsonFinding is the -json wire form of one diagnostic.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(patterns []string, jsonOut bool) error {
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	root, modPath, err := load.FindModule(wd)
	if err != nil {
		return err
	}
	l := load.New(root, modPath)
	pkgs, err := l.ModulePackages()
	if err != nil {
		return err
	}
	// Facts flow from a package to its importers, so analysis must
	// respect the import graph even when the user narrows the reported
	// set: analyze everything in dependency order, filter afterwards.
	pkgs = load.DependencyOrder(pkgs)
	selected := make(map[*load.Package]bool)
	for _, pkg := range filterPackages(pkgs, root, wd, patterns) {
		selected[pkg] = true
	}
	if len(selected) == 0 {
		return fmt.Errorf("no packages match %v", patterns)
	}

	store := facts.NewStore()
	var diags []diag
	seen := map[string]bool{} // dedupe identical cross-analyzer reports (malformed allows)
	for _, pkg := range pkgs {
		pkg := pkg
		pass := &analysis.Pass{
			Fset:       pkg.Fset,
			Files:      pkg.Syntax,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.TypesInfo,
			TypesSizes: pkg.TypeSizes,
		}
		facts.Bind(pass, store)
		for _, a := range suite {
			pass.Analyzer = a
			pass.Report = func(d analysis.Diagnostic) {
				if !selected[pkg] {
					return // analyzed for facts only
				}
				pos := pkg.Fset.Position(d.Pos)
				key := fmt.Sprintf("%s:%d:%d:%s", pos.Filename, pos.Line, pos.Column, d.Message)
				if seen[key] {
					return
				}
				seen[key] = true
				diags = append(diags, diag{pos: pos, analyzer: a.Name, d: d})
			}
			if _, err := a.Run(pass); err != nil {
				return fmt.Errorf("%s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].pos, diags[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	if jsonOut {
		return emitJSON(wd, diags)
	}
	for _, d := range diags {
		fmt.Printf("%s:%d:%d: [%s] %s\n", relTo(wd, d.pos.Filename), d.pos.Line, d.pos.Column, d.analyzer, d.d.Message)
		for _, fix := range d.d.SuggestedFixes {
			fmt.Printf("\tsuggested fix: %s\n", fix.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Printf("zbpcheck: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
	return nil
}

// emitJSON writes the machine-readable findings report and exits 1 when
// it is non-empty, mirroring the human-readable path's gating.
func emitJSON(wd string, diags []diag) error {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			File:     relTo(wd, d.pos.Filename),
			Line:     d.pos.Line,
			Col:      d.pos.Column,
			Analyzer: d.analyzer,
			Message:  d.d.Message,
		})
	}
	names := make([]string, len(suite))
	for i, a := range suite {
		names[i] = a.Name
	}
	out := struct {
		Analyzers []string      `json:"analyzers"`
		Findings  []jsonFinding `json:"findings"`
		Count     int           `json:"count"`
	}{Analyzers: names, Findings: findings, Count: len(findings)}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	if os.Getenv("GITHUB_ACTIONS") != "" {
		for _, f := range findings {
			// GitHub workflow command: renders as an inline annotation.
			fmt.Fprintf(os.Stderr, "::error file=%s,line=%d,col=%d::[%s] %s\n",
				f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
	return nil
}

func relTo(wd, file string) string {
	if r, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return file
}

// filterPackages applies the command-line patterns: "./..." (or no
// patterns) keeps everything; "./dir/..." keeps the subtree under the
// working directory's dir; other patterns match package directories
// exactly (relative to the working directory).
func filterPackages(pkgs []*load.Package, root, wd string, patterns []string) []*load.Package {
	if len(patterns) == 0 {
		return pkgs
	}
	var out []*load.Package
	for _, pkg := range pkgs {
		for _, pat := range patterns {
			if matchPattern(pkg, wd, pat) {
				out = append(out, pkg)
				break
			}
		}
	}
	return out
}

func matchPattern(pkg *load.Package, wd, pat string) bool {
	if pat == "all" {
		return true
	}
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive = true
		pat = rest
		if pat == "." || pat == "" {
			return strings.HasPrefix(pkg.Dir+string(filepath.Separator), wd+string(filepath.Separator)) || pkg.Dir == wd
		}
	}
	abs := pat
	if !filepath.IsAbs(pat) {
		abs = filepath.Join(wd, pat)
	}
	if pkg.Dir == abs {
		return true
	}
	return recursive && strings.HasPrefix(pkg.Dir, abs+string(filepath.Separator))
}
