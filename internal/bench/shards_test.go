package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// withShards runs build at each shard count and requires byte-identical
// output: the shard count is an execution hint, so one engine (-shards 0
// or 1) and N shard engines must compute the same bytes.
func withShards(t *testing.T, counts []int, build func() string) {
	t.Helper()
	defer SetShards(Shards())
	SetShards(counts[0])
	want := build()
	for _, n := range counts[1:] {
		SetShards(n)
		if got := build(); got != want {
			t.Fatalf("figure output differs between -shards %d and -shards %d:\n--- %d ---\n%s\n--- %d ---\n%s",
				counts[0], n, counts[0], want, n, got)
		}
	}
}

// The fig1 family: two-host ping-pong worlds across all four stacks. The
// verbs stacks pin to one shard (connection setup mutates the remote NIC
// synchronously), the MX stacks genuinely split across two engines.
func TestFig1ByteIdenticalAcrossShards(t *testing.T) {
	withShards(t, []int{0, 1, 4, 8}, func() string {
		fig := Fig1Latency([]int{4, 1 << 10, 64 << 10})
		return fig.Table()
	})
}

// The topo family: the 64-rank leaf-spine collective worlds sharded by
// whole leaves — the workload the conservative runtime exists for.
func TestTopoByteIdenticalAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("64-rank collective worlds in -short")
	}
	spec := fabric.LeafSpine(8, 2)
	withShards(t, []int{0, 1, 2, 4, 8}, func() string {
		res, err := AlltoallScale(cluster.MXoE, 64, 512, 2, ScaleOpts{Topology: spec})
		if err != nil {
			t.Fatalf("alltoall: %v", err)
		}
		return fmt.Sprintf("%v|%d", res.Time, res.TrunkUtilBP)
	})
}

// The faults family: per-port RNG streams, sharded window events and
// per-shard drop accounting must all merge back byte-identically.
func TestFaultsByteIdenticalAcrossShards(t *testing.T) {
	withShards(t, []int{0, 1, 4}, func() string {
		flap := FaultsFlapRecovery([]sim.Time{20 * sim.Microsecond})
		loss := FaultsFig1Latency([]float64{0, 0.01})
		return flap.Table() + loss.Table()
	})
}

// A sharded world must report its effective shard count and still satisfy
// the testbed's run/teardown contract.
func TestEffectiveShardsClamps(t *testing.T) {
	// MX single-switch world: shards clamp to the host count.
	tb := cluster.NewWithOptions(cluster.MXoE, 2, cluster.Options{Shards: 8})
	if got := tb.Shards(); got != 2 {
		t.Fatalf("MXoE 2-host world at -shards 8: got %d shards, want 2", got)
	}
	tb.Close()
	// Verbs worlds pin to one shard: lazy connection setup reaches across
	// hosts with zero lookahead.
	tb = cluster.NewWithOptions(cluster.IWARP, 4, cluster.Options{Shards: 8})
	if got := tb.Shards(); got != 1 {
		t.Fatalf("IWARP world at -shards 8: got %d shards, want 1", got)
	}
	tb.Close()
	// Shards 0 and 1 mean the same thing: one engine, no barriers.
	for _, req := range []int{0, 1} {
		tb = cluster.NewWithOptions(cluster.MXoE, 2, cluster.Options{Shards: req})
		if got := tb.Shards(); got != 1 {
			t.Fatalf("MXoE world at -shards %d: got %d shards, want 1", req, got)
		}
		tb.Close()
	}
}

// A one-shard world is a plain one-engine world, so it can dump its
// metrics registry the way netbench -metrics does — and the dump must be
// byte-identical to the -shards 0 one.
func TestMetricsDumpAtOneShard(t *testing.T) {
	dump := func(shards int) string {
		defer SetShards(Shards())
		SetShards(shards)
		var tb *cluster.Testbed
		cluster.OnNew = func(b *cluster.Testbed) { tb = b }
		defer func() { cluster.OnNew = nil }()
		if _, err := AlltoallScale(cluster.MXoE, 16, 512, 2, ScaleOpts{Topology: fabric.LeafSpine(8, 2)}); err != nil {
			t.Fatalf("alltoall at -shards %d: %v", shards, err)
		}
		if got := tb.Shards(); got != 1 {
			t.Fatalf("-shards %d world runs on %d engines, want 1", shards, got)
		}
		tb.Fabric.PublishLinkMetrics()
		var buf bytes.Buffer
		if err := tb.Eng.Metrics().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one := dump(1)
	for _, name := range []string{`"fabric.trunk_frames"`, `"mpi.eager_sends"`, `"fabric.trunk.l0s0.up_util_bp"`} {
		if !strings.Contains(one, name) {
			t.Errorf("-shards 1 metrics dump lacks %s", name)
		}
	}
	if zero := dump(0); zero != one {
		t.Fatalf("metrics dump differs between -shards 0 and -shards 1:\n--- 0 ---\n%s\n--- 1 ---\n%s", zero, one)
	}
}
