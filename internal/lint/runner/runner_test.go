package runner

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestAnalyzersForScoping pins the scope wiring: the sim domain carries the
// full determinism contract and cmd tools everything but detclock.
func TestAnalyzersForScoping(t *testing.T) {
	names := func(path string) map[string]bool {
		out := map[string]bool{}
		for _, a := range AnalyzersFor(path) {
			out[a.Name] = true
		}
		return out
	}

	sim := names("repro/internal/sim")
	for _, want := range []string{"detclock", "maporder", "nogoroutine", "timeunits", "tracekeys", "sharedstate", "seedrand", "noalloc", "procstart", "directive"} {
		if !sim[want] {
			t.Errorf("internal/sim: missing analyzer %s", want)
		}
	}

	cmd := names("repro/cmd/figures")
	if cmd["detclock"] {
		t.Error("cmd tools must not carry detclock: wall-clock ETAs and benchmark timing are legitimate there")
	}
	for _, want := range []string{"maporder", "nogoroutine", "timeunits", "sharedstate", "seedrand", "noalloc", "procstart", "directive"} {
		if !cmd[want] {
			t.Errorf("cmd/figures: missing analyzer %s", want)
		}
	}

	if len(AnalyzersFor("fmt")) != 0 {
		t.Error("packages outside the module must get no analyzers")
	}
}

// TestStaleDirectiveReporting builds a throwaway module and checks the
// whole-run staleness pass: an allow directive that suppresses a live
// diagnostic stays, one that suppresses nothing is reported for removal.
func TestStaleDirectiveReporting(t *testing.T) {
	dir := t.TempDir()
	simDir := filepath.Join(dir, "internal", "sim")
	if err := os.MkdirAll(simDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// The module must be named repro so the scope rules apply to it.
	writeFile(t, filepath.Join(dir, "go.mod"), "module repro\n\ngo 1.22\n")
	writeFile(t, filepath.Join(simDir, "sim.go"), `package sim

func keys(m map[string]bool) []string {
	var out []string
	//simlint:allow maporder callers sort the result; collection order is irrelevant
	for k := range m {
		out = append(out, k)
	}
	return out
}

func pure(x int) int {
	//simlint:allow maporder nothing on this line ever triggered maporder
	return x + 1
}
`)

	res, err := Run(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var stale []string
	for _, d := range res.Diags {
		if strings.Contains(d.Message, "stale //simlint:allow") {
			pos := res.Fset.Position(d.Pos)
			stale = append(stale, pos.Filename+":"+strconv.Itoa(pos.Line))
			continue
		}
		t.Errorf("unexpected diagnostic: %s: %s", res.Fset.Position(d.Pos), d.Message)
	}
	if len(stale) != 1 {
		t.Fatalf("want exactly 1 stale-directive diagnostic, got %d: %v", len(stale), stale)
	}
	if !strings.HasSuffix(stale[0], "sim.go:13") {
		t.Errorf("stale diagnostic at %s, want the directive line sim.go:13", stale[0])
	}
}

// TestExternalTestPackage checks that an external test package is
// analyzed under its package's scope rules, and that it sees what the
// package's in-package test files export.
func TestExternalTestPackage(t *testing.T) {
	dir := t.TempDir()
	simDir := filepath.Join(dir, "internal", "sim")
	if err := os.MkdirAll(simDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "go.mod"), "module repro\n\ngo 1.22\n")
	writeFile(t, filepath.Join(simDir, "sim.go"), "package sim\n\nfunc one() int { return 1 }\n")
	writeFile(t, filepath.Join(simDir, "export_test.go"), "package sim\n\nfunc One() int { return one() }\n")
	writeFile(t, filepath.Join(simDir, "x_test.go"), `package sim_test

import "repro/internal/sim"

func values(m map[int]int) []int {
	out := []int{sim.One()}
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
`)

	res, err := Run(Options{Dir: dir, Tests: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Diags) != 1 || res.Diags[0].Analyzer.Name != "maporder" {
		t.Fatalf("want one maporder diagnostic, got %d: %v", len(res.Diags), res.Diags)
	}
	if pos := res.Fset.Position(res.Diags[0].Pos); !strings.HasSuffix(pos.Filename, "x_test.go") || pos.Line != 7 {
		t.Errorf("diagnostic at %s, want x_test.go:7", pos)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
