package simd

import (
	"slices"
	"strconv"
	"strings"
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

// A custom job's fault windows start with its workload on every benchmark:
// a NIC stall of 9 us in every 10 us over the first second must slow the
// 1 KiB iWARP MPI ping-pong, not just an idle MPI_Init.
func TestCustomFaultWindowsStartWithWorkload(t *testing.T) {
	latency := func(faults string) float64 {
		t.Helper()
		s, err := spec.Parse([]byte(`{"custom": {"net": "iwarp", "benchmark": "mpi-latency", "size": 1024` + faults + `}}`))
		if err != nil {
			t.Fatal(err)
		}
		res, err := executeSpec(s, nil, "test")
		if err != nil {
			t.Fatal(err)
		}
		_, row, _ := strings.Cut(strings.TrimSpace(res.CSVs[0].Content), "\n")
		_, v, _ := strings.Cut(row, ",")
		us, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("CSV %q: %v", res.CSVs[0].Content, err)
		}
		return us
	}
	clean := latency("")
	stalled := latency(`, "faults": {"clauses": [{"kind": "nic-stall", "port": 0, "period": "10us", "stall": "9us", "from": "0s", "until": "1s"}]}`)
	if stalled <= clean {
		t.Errorf("stalled latency %.3f us, want more than the clean %.3f us", stalled, clean)
	}
}
