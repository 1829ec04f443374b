// Command simlint enforces the simulator's determinism, shard-safety and
// zero-alloc contracts with the analyzer suite under internal/lint (see
// docs/static-analysis.md). `make lint` runs
//
//	simlint [-tests=false] [-vet] [packages]
//
// which analyzes the named packages (default ./...) through
// internal/lint/runner — dependency-ordered so analyzer facts flow across
// packages — and exits 2 if any diagnostic is reported, stale
// //simlint:allow directives included. -vet additionally runs the standard
// `go vet` suite over the same patterns first.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/runner"
)

func main() {
	tests := flag.Bool("tests", true, "also analyze in-package _test.go files")
	vet := flag.Bool("vet", false, "additionally run the standard `go vet` suite")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-tests=false] [-vet] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Analyzers (see docs/static-analysis.md):\n")
		for _, a := range runner.All {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	status := 0
	if *vet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			status = 2
		}
	}

	res, err := runner.Run(runner.Options{Tests: *tests, Patterns: patterns})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(1)
	}
	if print(res.Fset, res.Diags) {
		status = 2
	}
	os.Exit(status)
}

// print writes diagnostics in file order and reports whether there were any.
func print(fset *token.FileSet, diags []analysis.Diagnostic) bool {
	if len(diags) == 0 || fset == nil {
		return len(diags) > 0
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	cwd, _ := os.Getwd()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		name := pos.Filename
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s (%s)\n", name, pos.Line, pos.Column, d.Message, d.Analyzer.Name)
	}
	return true
}
