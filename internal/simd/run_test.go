package simd

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/simd/spec"
)

// TestStackAndModeNames pins the one name table the CLIs, the job server's
// spec validation and the figure identifiers share: every stack's Slug
// parses back to it, the slugs are exactly spec.Nets in order, and every
// spec.Modes entry names a bandwidth mode.
func TestStackAndModeNames(t *testing.T) {
	var slugs []string
	for _, k := range cluster.Kinds {
		got, ok := cluster.ParseKind(k.Slug())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.Slug(), got, ok, k)
		}
		slugs = append(slugs, k.Slug())
	}
	if !slices.Equal(slugs, spec.Nets) {
		t.Errorf("stack slugs %v != spec.Nets %v", slugs, spec.Nets)
	}
	for alias, want := range map[string]cluster.Kind{"infiniband": cluster.IB, "myrinet": cluster.MXoM, "iWARP": cluster.IWARP} {
		if got, ok := cluster.ParseKind(alias); !ok || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", alias, got, ok, want)
		}
	}
	if _, ok := cluster.ParseKind("ethernet"); ok {
		t.Error(`ParseKind("ethernet") accepted an unknown stack`)
	}
	modes := map[bench.BandwidthMode]bool{}
	for _, name := range spec.Modes {
		m, ok := bench.ParseMode(name)
		if !ok {
			t.Errorf("ParseMode(%q) rejected a spec mode", name)
		}
		modes[m] = true
	}
	if len(modes) != len(spec.Modes) {
		t.Errorf("spec.Modes %v name %d distinct modes", spec.Modes, len(modes))
	}
	if _, ok := bench.ParseMode("both-way"); ok {
		t.Error(`ParseMode("both-way") accepted a caption, not a mode name`)
	}
}
