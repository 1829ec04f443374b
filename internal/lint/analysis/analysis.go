// Package analysis is a compact, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects the
// type-checked syntax of one package and reports Diagnostics through a Pass.
//
// The repo is built offline (stdlib only, see README), so it cannot vendor
// x/tools. This package keeps the same shape — Name/Doc/Run, Pass with
// Fset/Files/Pkg/TypesInfo, Reportf — so the simlint analyzers read like
// ordinary go/analysis analyzers and could be ported to the real framework
// by swapping the import.
//
// One extension is built in: source-level suppression directives. A comment
// of the form
//
//	//simlint:allow <check> <reason>
//
// placed on the offending line, or on the line immediately above it,
// suppresses diagnostics of the named check for that line only. The reason
// is mandatory; the directive analyzer (internal/lint/directivecheck) flags
// bare or malformed directives. Suppression is applied inside Pass.Reportf,
// so it behaves identically under cmd/simlint and under analysistest.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //simlint:allow directives. It must be a valid Go identifier.
	Name string

	// Doc is the help text: one summary line, then detail.
	Doc string

	// Run applies the analyzer to a single package.
	Run func(*Pass) (any, error)
}

// A Diagnostic is a message associated with a source location.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer *Analyzer
}

// A Pass provides one analyzer with the type-checked syntax of one package
// and collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives every non-suppressed diagnostic. The driver
	// (cmd/simlint or analysistest) installs it.
	Report func(Diagnostic)

	// Facts, when installed by the driver, carries analyzer facts across
	// packages (see facts.go). Nil under a driver that analyzes packages
	// in isolation.
	Facts *FactStore

	// Use, when installed by the driver, records which allow directives
	// actually suppressed something, so stale directives can be reported
	// after the whole suite has run (see DirectiveUse).
	Use *DirectiveUse

	allowed map[string]map[int]int // file name -> covered line -> directive line
}

// Reportf reports a formatted diagnostic at pos, unless an
// //simlint:allow directive for this analyzer covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Suppressed(pos) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t, ok := p.TypesInfo.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Suppressed reports whether an //simlint:allow directive for this pass's
// analyzer covers the position's line. Interprocedural analyzers use it to
// honor audited exceptions while computing summaries and facts, not just at
// report time. A positive answer is recorded with the driver's DirectiveUse
// tracker: the directive did useful work, so it is not stale.
func (p *Pass) Suppressed(pos token.Pos) bool {
	if p.allowed == nil {
		p.allowed = make(map[string]map[int]int)
		for _, f := range p.Files {
			for _, d := range Directives(p.Fset, f) {
				if d.Check != p.Analyzer.Name || d.Reason == "" {
					continue
				}
				dp := p.Fset.Position(d.Pos)
				lines := p.allowed[dp.Filename]
				if lines == nil {
					lines = make(map[int]int)
					p.allowed[dp.Filename] = lines
				}
				// A directive covers its own line (trailing comment) and
				// the next line (comment-above style) — nothing else, so
				// one directive excuses exactly one site.
				lines[dp.Line] = dp.Line
				lines[dp.Line+1] = dp.Line
			}
		}
	}
	dg := p.Fset.Position(pos)
	dline, ok := p.allowed[dg.Filename][dg.Line]
	if ok {
		p.Use.MarkUsed(dg.Filename, dline)
	}
	return ok
}

// A DirectiveUse tracks which //simlint:allow directives suppressed at
// least one diagnostic across an entire run of the suite. The runner seeds
// it with every well-formed directive it sees and reports the unused ones
// as stale, so the suppression list can only shrink.
type DirectiveUse struct {
	used map[string]map[int]bool // file -> directive line -> suppressed something
}

// NewDirectiveUse returns an empty tracker.
func NewDirectiveUse() *DirectiveUse {
	return &DirectiveUse{used: make(map[string]map[int]bool)}
}

// MarkUsed records that the directive at (file, line) suppressed a
// diagnostic. Nil-safe: drivers that do not track staleness install no
// tracker.
func (u *DirectiveUse) MarkUsed(file string, line int) {
	if u == nil {
		return
	}
	lines := u.used[file]
	if lines == nil {
		lines = make(map[int]bool)
		u.used[file] = lines
	}
	lines[line] = true
}

// Used reports whether the directive at (file, line) suppressed anything.
func (u *DirectiveUse) Used(file string, line int) bool {
	if u == nil {
		return false
	}
	return u.used[file][line]
}

// A Directive is a parsed //simlint:allow comment.
type Directive struct {
	Pos    token.Pos
	Check  string // named check; "" for a bare directive
	Reason string // justification text; "" when missing
}

// DirectivePrefix is the comment marker shared by all simlint directives.
const DirectivePrefix = "//simlint:allow"

// Directives returns all simlint directives in f, in source order,
// including malformed ones (empty Check or Reason) so that the directive
// analyzer can flag them.
func Directives(fset *token.FileSet, f *ast.File) []Directive {
	var ds []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			// Strip a trailing analysistest expectation ("... // want `rx`")
			// so directives under test parse exactly like production ones.
			if i := strings.Index(text[1:], "// want "); i >= 0 {
				text = strings.TrimRight(text[:i+1], " \t")
			}
			rest, ok := strings.CutPrefix(text, DirectivePrefix)
			if !ok {
				continue
			}
			// Require an exact marker: "//simlint:allowx" is not a directive.
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue
			}
			fields := strings.Fields(rest)
			d := Directive{Pos: c.Pos()}
			if len(fields) > 0 {
				d.Check = fields[0]
			}
			if len(fields) > 1 {
				d.Reason = strings.Join(fields[1:], " ")
			}
			ds = append(ds, d)
		}
	}
	return ds
}

// NoallocPrefix marks a function whose whole call tree must be free of
// allocating constructs (see internal/lint/noalloc). It is a function
// directive: it appears in (or immediately forms) the doc comment of a
// function declaration, on its own line:
//
//	// schedule queues fn at now+after and returns the node.
//	//
//	//simlint:noalloc
//	func (e *Engine) schedule(...)
const NoallocPrefix = "//simlint:noalloc"

// HasNoallocDirective reports whether fd carries the //simlint:noalloc
// function directive in its doc comment.
func HasNoallocDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimRight(c.Text, " \t")
		if text == NoallocPrefix {
			return true
		}
	}
	return false
}

// RawDirectives returns the text and position of every "//simlint:..."
// comment in f, whatever the verb, so the directive validator can flag
// unknown or misplaced ones. A trailing analysistest expectation is
// stripped, as in Directives.
func RawDirectives(fset *token.FileSet, f *ast.File) []Directive {
	var ds []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if i := strings.Index(text[1:], "// want "); i >= 0 {
				text = strings.TrimRight(text[:i+1], " \t")
			}
			rest, ok := strings.CutPrefix(text, "//simlint:")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			d := Directive{Pos: c.Pos()}
			if len(fields) > 0 {
				d.Check = fields[0]
			}
			if len(fields) > 1 {
				d.Reason = strings.Join(fields[1:], " ")
			}
			ds = append(ds, d)
		}
	}
	return ds
}

// WalkStack traverses the AST rooted at root in depth-first order, calling
// fn for every node with the stack of its ancestors (outermost first, not
// including n itself). If fn returns false the node's children are skipped.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}
