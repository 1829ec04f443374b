// Package nogoroutine flags concurrency primitives inside the
// single-threaded engine domain.
//
// The simulation engine executes exactly one cooperative process at a
// time; determinism follows from that total order. A stray `go` statement
// or channel operation reintroduces scheduler nondeterminism. The domain
// has no exceptions: the engine's own processes are iter.Pull coroutines
// (internal/sim/proc.go), which switch control directly without a go
// statement or a channel. Packages that are concurrent by design sit outside
// the domain (scope.ConcurrencyExempt).
package nogoroutine

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer flags go statements, channel operations and select statements.
var Analyzer = &analysis.Analyzer{
	Name: "nogoroutine",
	Doc:  "flag go statements and channel operations in the single-threaded engine domain",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in the single-threaded engine domain; schedule work with Engine.Go/Engine.Schedule instead")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send in the single-threaded engine domain; use sim.Queue or sim.Completion instead")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive in the single-threaded engine domain; use sim.Queue or sim.Completion instead")
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select statement in the single-threaded engine domain; the engine dispatches events in a deterministic total order")
			case *ast.RangeStmt:
				if t := pass.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						pass.Reportf(n.Pos(), "range over channel in the single-threaded engine domain; use sim.Queue or sim.Completion instead")
					}
				}
			}
			return true
		})
	}
	return nil, nil
}
