package scope

import (
	"os"
	"path/filepath"
	"testing"
)

// The concurrency exemption is an explicit record, so it must stay
// consistent: an exempt package must not simultaneously be inside the
// determinism scope, and every listed package must actually exist (a
// renamed directory silently un-exempting — or un-linting — nothing).
func TestConcurrencyExemptIsConsistent(t *testing.T) {
	inSim := make(map[string]bool)
	for _, p := range SimDomain {
		inSim[p] = true
	}
	inModel := make(map[string]bool)
	for _, p := range ModelPackages {
		inModel[p] = true
	}
	for _, p := range ConcurrencyExempt {
		if inSim[p] {
			t.Errorf("%s is both ConcurrencyExempt and in SimDomain", p)
		}
		if inModel[p] {
			t.Errorf("%s is both ConcurrencyExempt and a ModelPackage", p)
		}
		if dir := filepath.Join("..", "..", "..", filepath.FromSlash(p)); !dirExists(dir) {
			t.Errorf("ConcurrencyExempt lists %s but %s does not exist", p, dir)
		}
	}
}

func TestPackageListsExist(t *testing.T) {
	for _, list := range [][]string{SimDomain, ModelPackages, ProgramStarters} {
		for _, p := range list {
			if dir := filepath.Join("..", "..", "..", filepath.FromSlash(p)); !dirExists(dir) {
				t.Errorf("scope lists %s but %s does not exist", p, dir)
			}
		}
	}
}

func TestIsConcurrencyExempt(t *testing.T) {
	for _, tc := range []struct {
		path string
		want bool
	}{
		{ModulePath + "/internal/parallel", true},
		{ModulePath + "/internal/simd", true},
		{ModulePath + "/internal/simd/spec", true},
		{ModulePath + "/cmd/simd", false}, // the binary stays linted
		{ModulePath + "/internal/sim", false},
		{"other.example/pkg", false},
	} {
		if got := IsConcurrencyExempt(tc.path); got != tc.want {
			t.Errorf("IsConcurrencyExempt(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

func dirExists(dir string) bool {
	fi, err := os.Stat(dir)
	return err == nil && fi.IsDir()
}

func TestMayStartPrograms(t *testing.T) {
	for _, tc := range []struct {
		path, fn string
		want     bool
	}{
		{ModulePath + "/internal/bench", "runLatency", true},
		{ModulePath + "/cmd/netbench", "main", true},
		{ModulePath + "/examples/quickstart", "", true},
		{ModulePath + "/internal/cluster", "Testbed.Go", true},
		{ModulePath + "/internal/cluster", "Build", false},
		{ModulePath + "/internal/sockets", "Testbed.Go", false},
		{ModulePath + "/internal/benchmark", "main", false}, // not a subtree of internal/bench
		{"other.example/cmd/tool", "main", false},
	} {
		if got := MayStartPrograms(tc.path, tc.fn); got != tc.want {
			t.Errorf("MayStartPrograms(%q, %q) = %v, want %v", tc.path, tc.fn, got, tc.want)
		}
	}
}
