// Package loader type-checks the module's packages for static analysis
// without importing golang.org/x/tools/go/packages (the build is offline).
//
// It shells out to the go command twice:
//
//  1. `go list -deps -test -export -json` compiles every dependency —
//     stdlib included — and reports the path of each package's export
//     data file in the build cache.
//  2. `go list -json` enumerates the target packages and their source
//     files.
//
// Each target package is then parsed and type-checked from source with
// go/types, resolving every import through the export data gathered in
// step 1. In-package _test.go files are checked together with the package
// proper, mirroring `go vet`. An external test package (package x_test) is
// checked as a package of its own, after every target, with its imports
// resolved through the test variants ("p [x.test]") the go command
// compiles for it, so it sees x with x's in-package test files.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one type-checked target package.
type Package struct {
	ImportPath string
	Dir        string
	Imports    []string // direct imports, as listed by the go command
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// A Config controls loading.
type Config struct {
	Dir   string // directory to run the go command in; "" means cwd
	Tests bool   // also type-check in-package _test.go files
}

type listPkg struct {
	ImportPath    string
	Dir           string
	Name          string
	Export        string
	GoFiles       []string
	TestGoFiles   []string
	XTestGoFiles  []string
	Imports       []string
	TestImports   []string
	XTestImports  []string
	Error         *struct{ Err string }
	DepOnly       bool
	ForTest       string
	Incomplete    bool
	IgnoredGoFile []string
}

func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %s: decoding output: %v", strings.Join(args, " "), err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load type-checks the packages matched by patterns (e.g. "./...").
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
	}

	// Pass 1: export data for every (test-)dependency, compiled on demand.
	deps, err := goList(cfg.Dir, append([]string{"-deps", "-test", "-export", "-json=ImportPath,Export,ForTest,Error"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, p := range deps {
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		// Test variants ("pkg [x.test]") keep their bracketed path: only
		// the external test package of x resolves imports through them.
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	// Pass 2: the target packages and their sources. Targets are sorted
	// into dependency order (imports before importers) so that analyzer
	// facts exported while checking a package are available to every
	// package that imports it.
	targets, err := goList(cfg.Dir, append([]string{"-json=ImportPath,Dir,Name,GoFiles,TestGoFiles,XTestGoFiles,Imports,TestImports,XTestImports,Error"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	targets = depOrder(targets, cfg.Tests)

	fset := token.NewFileSet()
	var out, xtests []*Package
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("package %s: %s", t.ImportPath, t.Error.Err)
		}
		names := t.GoFiles
		if cfg.Tests {
			names = append(names[:len(names):len(names)], t.TestGoFiles...)
		}
		p, err := load(fset, t.ImportPath, t.ImportPath, t.Dir, names, t.Imports, exports, "")
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		if cfg.Tests && len(t.XTestGoFiles) > 0 {
			// The scoping rules follow the package under test.
			xp, err := load(fset, t.ImportPath, t.ImportPath+"_test", t.Dir, t.XTestGoFiles, t.XTestImports, exports, " ["+t.ImportPath+".test]")
			if err != nil {
				return nil, err
			}
			xtests = append(xtests, xp)
		}
	}
	return append(out, xtests...), nil
}

// load parses the named files of dir and type-checks them as package
// typesPath, reported under importPath. Imports resolve to the variant
// compiled with the given suffix where there is one.
func load(fset *token.FileSet, importPath, typesPath, dir string, names, imports []string, exports map[string]string, variant string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, info, err := check(fset, typesPath, files, exports, variant)
	if err != nil {
		return nil, fmt.Errorf("package %s: %v", typesPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Imports:    imports,
		Fset:       fset,
		Files:      files,
		Types:      pkg,
		TypesInfo:  info,
	}, nil
}

// depOrder topologically sorts the target packages so that every package
// appears after all of its (test-)imports that are themselves targets.
// Edges to packages outside the target set (stdlib) are ignored. The sort
// is stable and deterministic: ties keep go list's alphabetical order.
func depOrder(targets []listPkg, tests bool) []listPkg {
	index := make(map[string]int, len(targets))
	for i, t := range targets {
		index[t.ImportPath] = i
	}
	state := make([]int, len(targets)) // 0 unvisited, 1 visiting, 2 done
	out := make([]listPkg, 0, len(targets))
	var visit func(i int)
	visit = func(i int) {
		if state[i] != 0 {
			return // visiting (an import cycle would fail go list anyway) or done
		}
		state[i] = 1
		deps := targets[i].Imports
		if tests {
			deps = append(deps[:len(deps):len(deps)], targets[i].TestImports...)
		}
		for _, imp := range deps {
			if j, ok := index[imp]; ok {
				visit(j)
			}
		}
		state[i] = 2
		out = append(out, targets[i])
	}
	for i := range targets {
		visit(i)
	}
	return out
}

func check(fset *token.FileSet, path string, files []*ast.File, exports map[string]string, variant string) (*types.Package, *types.Info, error) {
	imp := importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		f, ok := exports[p+variant]
		if !ok {
			f, ok = exports[p]
		}
		if !ok {
			return nil, fmt.Errorf("no export data for %q", p)
		}
		return os.Open(f)
	})
	info := NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	return pkg, info, err
}

// ListExports compiles the named packages (typically standard-library
// import paths) and returns the export data file for each of them and
// their dependencies.
func ListExports(patterns []string) (map[string]string, error) {
	pkgs, err := goList("", append([]string{"-deps", "-export", "-json=ImportPath,Export,Error"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" && !strings.Contains(p.ImportPath, " [") {
			out[p.ImportPath] = p.Export
		}
	}
	return out, nil
}

// NewInfo returns a types.Info with all maps that analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
