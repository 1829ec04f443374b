// Package runner drives the full simlint suite over type-checked packages:
// it loads targets in dependency order (imports before importers, so
// analyzer facts flow across package boundaries), applies the per-package
// scoping rules from internal/lint/scope, and — because it is the only
// component that observes the whole run — reports stale //simlint:allow
// directives afterwards: a well-formed directive that suppressed nothing
// anywhere in the suite is dead weight that hides the next real finding on
// its line, so the suppression list can only shrink.
//
// cmd/simlint is a thin wrapper around Run.
package runner

import (
	"fmt"
	"go/token"

	"repro/internal/lint/analysis"
	"repro/internal/lint/detclock"
	"repro/internal/lint/directivecheck"
	"repro/internal/lint/loader"
	"repro/internal/lint/maporder"
	"repro/internal/lint/noalloc"
	"repro/internal/lint/nogoroutine"
	"repro/internal/lint/procstart"
	"repro/internal/lint/scope"
	"repro/internal/lint/seedrand"
	"repro/internal/lint/sharedstate"
	"repro/internal/lint/timeunits"
	"repro/internal/lint/tracekeys"
)

// All is the full suite, in reporting order.
var All = []*analysis.Analyzer{
	detclock.Analyzer,
	maporder.Analyzer,
	nogoroutine.Analyzer,
	timeunits.Analyzer,
	tracekeys.Analyzer,
	sharedstate.Analyzer,
	noalloc.Analyzer,
	seedrand.Analyzer,
	procstart.Analyzer,
	directivecheck.Analyzer,
}

// AnalyzersFor applies the scoping rules from internal/lint/scope.
func AnalyzersFor(importPath string) []*analysis.Analyzer {
	var as []*analysis.Analyzer
	switch {
	case scope.InSimDomain(importPath):
		as = append(as, detclock.Analyzer, maporder.Analyzer, nogoroutine.Analyzer, timeunits.Analyzer)
	case scope.InCmdDomain(importPath):
		// The tools keep every contract except detclock: wall-clock reads
		// are their legitimate business (ETAs, benchmark timing) and never
		// feed simulated results.
		as = append(as, maporder.Analyzer, nogoroutine.Analyzer, timeunits.Analyzer)
	}
	if scope.WantsTraceKeys(importPath) {
		as = append(as, tracekeys.Analyzer)
	}
	if scope.WantsModuleWide(importPath) {
		as = append(as, sharedstate.Analyzer, seedrand.Analyzer, noalloc.Analyzer, procstart.Analyzer)
	}
	if scope.WantsDirectiveCheck(importPath) {
		as = append(as, directivecheck.Analyzer)
	}
	return as
}

// Options configures a suite run.
type Options struct {
	Dir      string   // directory to resolve patterns in; "" means cwd
	Tests    bool     // also analyze in-package _test.go files
	Patterns []string // package patterns; defaults to ./...
}

// Result is the outcome of a suite run.
type Result struct {
	Fset  *token.FileSet
	Diags []analysis.Diagnostic
}

// Run loads the targeted packages and applies the scoped suite to each,
// then appends stale-directive diagnostics. Diagnostics keep package order
// (dependency order); cmd/simlint sorts by position before printing.
func Run(opts Options) (*Result, error) {
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(loader.Config{Dir: opts.Dir, Tests: opts.Tests}, patterns...)
	if err != nil {
		return nil, err
	}

	facts := analysis.NewFactStore()
	use := analysis.NewDirectiveUse()
	res := &Result{}

	type seeded struct {
		pos   token.Pos
		file  string
		line  int
		check string
	}
	var directives []seeded
	seenFile := make(map[string]bool)

	for _, p := range pkgs {
		res.Fset = p.Fset
		for _, f := range p.Files {
			fname := p.Fset.Position(f.Pos()).Filename
			if seenFile[fname] {
				continue
			}
			seenFile[fname] = true
			for _, d := range analysis.Directives(p.Fset, f) {
				if d.Check != "" && d.Reason != "" && scope.KnownCheck(d.Check) {
					dp := p.Fset.Position(d.Pos)
					directives = append(directives, seeded{d.Pos, dp.Filename, dp.Line, d.Check})
				}
			}
		}
		for _, a := range AnalyzersFor(p.ImportPath) {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      p.Fset,
				Files:     p.Files,
				Pkg:       p.Types,
				TypesInfo: p.TypesInfo,
				Report:    func(d analysis.Diagnostic) { res.Diags = append(res.Diags, d) },
				Facts:     facts,
				Use:       use,
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, p.ImportPath, err)
			}
		}
	}

	// Staleness is judged against the whole run: the directive had every
	// chance, in every package that shares the file, to suppress something.
	for _, d := range directives {
		if !use.Used(d.file, d.line) {
			res.Diags = append(res.Diags, analysis.Diagnostic{
				Pos:      d.pos,
				Message:  fmt.Sprintf("stale //simlint:allow %s directive: it no longer suppresses any diagnostic; remove it", d.check),
				Analyzer: directivecheck.Analyzer,
			})
		}
	}
	return res, nil
}
