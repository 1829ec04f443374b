// Package procstart keeps processes for programs. A simulation process is
// a program a driver starts: a benchmark's ranks, an example's main loop,
// a command's workload. Model and protocol code — NICs, stacks, MPI's
// internal protocols — runs as event handlers (sim.Stage, AfterArg, the
// Then forms), so a world ends when its programs do and a program still
// parked after the heap drains is a deadlock (cluster.Testbed.Run).
//
// The analyzer flags every use of (*sim.Engine).Go (a call or a method
// value) outside test files, except where scope.MayStartPrograms allows
// it: in the driver packages and in cluster's Testbed.Go, the shard-aware
// start the drivers call.
package procstart

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/scope"
)

// Analyzer flags process starts outside the program drivers.
var Analyzer = &analysis.Analyzer{
	Name: "procstart",
	Doc:  "flag (*sim.Engine).Go outside the program drivers; model code runs as event handlers",
	Run:  run,
}

// enginePkg is the import path of the package that defines Engine.
const enginePkg = scope.ModulePath + "/internal/sim"

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fn := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = funcName(fd)
			}
			if scope.MayStartPrograms(pass.Pkg.Path(), fn) {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && isEngineGo(pass.TypesInfo.Uses[sel.Sel]) {
					pass.Reportf(sel.Pos(), "Engine.Go outside a program driver; model and protocol code runs as event handlers (sim.Stage, AfterArg, the Then forms), and programs start through cluster.Testbed.Go")
				}
				return true
			})
		}
	}
	return nil, nil
}

// isEngineGo reports whether obj is the method Go of sim.Engine.
func isEngineGo(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "Go" || fn.Pkg() == nil || fn.Pkg().Path() != enginePkg {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Engine"
}

// funcName returns "Recv.Name" for a method, "Name" for a function.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
