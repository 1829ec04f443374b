package lint

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/lint/scope"
)

// repoRoot locates the module root from this source file (two levels up from
// internal/lint), so the budget walks the same tree in any working
// directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate source file")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
}

// TestAllowDirectiveBudget pins the number of //simlint:allow suppressions
// per check across the shipping tree (testdata excluded). Every suppression
// is an audited exception; adding one must update this budget in the same
// change, which makes the new exception — and its written justification —
// visible in review instead of slipping in silently. Shrinking a number here
// when directives are removed is equally deliberate: the stale-directive
// check in directivecheck reports suppressions that stopped doing anything.
func TestAllowDirectiveBudget(t *testing.T) {
	ds, err := AllowDirectives(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, d := range ds {
		got[d.Check]++
		if !scope.KnownCheck(d.Check) {
			t.Errorf("%s:%d suppresses unknown check %q", d.Path, d.Line, d.Check)
		}
	}
	// The audited-exception budget. The bulk is the engine and fabric hot
	// paths: noalloc's amortized-growth and callback-dispatch points,
	// tracekeys' once-per-run indexed gauge names. The engine's two
	// coroutine switches (dispatch's next, park's yield) are calls through
	// func fields that noalloc cannot resolve, so each carries a noalloc
	// directive; processes are iter.Pull coroutines, so nogoroutine has no
	// exceptions at all. The fabric's hop pipeline accounts for the
	// amortized free-list and pending-list growth and the DropFn, endpoint
	// and cross-shard handoff dispatch points; Run and RunBefore share one
	// event loop.
	want := map[string]int{
		"maporder":    0,
		"noalloc":     14,
		"nogoroutine": 0,
		"sharedstate": 1,
		"tracekeys":   8,
	}
	for check, n := range want {
		if got[check] != n {
			t.Errorf("%s: %d allow directives, budget is %d", check, got[check], n)
		}
	}
	for check, n := range got {
		if _, budgeted := want[check]; !budgeted {
			t.Errorf("%s: %d allow directives but no budget entry", check, n)
		}
	}
	if t.Failed() {
		for _, d := range ds {
			t.Logf("  %s:%d %s", d.Path, d.Line, d.Check)
		}
	}
}
