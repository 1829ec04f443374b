// Package lint anchors the simulator's static-analysis toolchain. The
// analyzers live in subpackages (detclock, maporder, nogoroutine, timeunits,
// tracekeys, sharedstate, noalloc, seedrand, procstart, directivecheck) on
// a small stdlib-only framework (analysis, loader, analysistest) and are
// wired together by runner; cmd/simlint is the command-line entry point. See
// docs/static-analysis.md for the contracts they enforce.
//
// This package itself holds the directive inventory: AllowDirectives parses
// the tree for //simlint:allow suppressions so the budget test can pin how
// many audited exceptions exist per check. A suppression is a reviewed
// exception, not an escape hatch; growing the count is a deliberate act that
// shows up in the diff of the budget.
package lint

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
)

// AllowDirective is one //simlint:allow suppression found in the tree.
type AllowDirective struct {
	Path  string // root-relative, slash-separated
	Line  int
	Check string // the suppressed check's name
}

// AllowDirectives parses every .go file under root and returns each
// //simlint:allow directive. testdata trees are skipped — their directives
// are analyzer-fixture inputs, not suppressions in shipping code — as are
// dot-directories. Prose mentions of the directive syntax inside comments do
// not count: only a comment that starts with the marker is a directive,
// matching how the analysis framework itself parses them.
func AllowDirectives(root string) ([]AllowDirective, error) {
	var out []AllowDirective
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//simlint:allow ")
				if !ok {
					continue
				}
				check, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
				rel, rerr := filepath.Rel(root, path)
				if rerr != nil {
					rel = path
				}
				out = append(out, AllowDirective{
					Path:  filepath.ToSlash(rel),
					Line:  fset.Position(c.Pos()).Line,
					Check: check,
				})
			}
		}
		return nil
	})
	return out, err
}
