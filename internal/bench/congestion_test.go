package bench

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/congestion"
	"repro/internal/fabric"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// The congestion family: a victim collective, an aggressor tenant, bounded
// queues, ECN echoes and a throttling NIC — every piece of per-shard state
// the feature added must merge back byte-identically at any shard count.
// MXoE is the stack under test because it both genuinely shards (the verbs
// stacks pin to one shard) and exercises marking plus the uplink throttle.
func TestCongestionByteIdenticalAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("loaded 16-rank collective worlds in -short")
	}
	withShards(t, []int{0, 1, 4, 8}, func() string {
		res, err := AlltoallScale(cluster.MXoE, CongestionRanks, CongestionMsg, 2,
			congestionScaleOpts(cluster.MXoE, 2, 0.2))
		if err != nil {
			t.Fatalf("loaded alltoall: %v", err)
		}
		if res.ECNMarks == 0 {
			t.Fatal("no ECN marks; the congested cell is vacuous")
		}
		if res.BgFrames == 0 {
			t.Fatal("aggressor sent nothing; the congested cell is vacuous")
		}
		return fmt.Sprintf("%v|%d|%d|%d|%d",
			res.Time, res.TrunkUtilBP, res.TailDrops, res.ECNMarks, res.BgFrames)
	})
}

// TestShardedCongestionCountersMerge drives an aggressor-only sharded world
// into its queue caps and checks the per-shard loss ledgers merge correctly:
// every loss is a tail drop (attributed to congestion, not to injected
// filter loss), totals satisfy Dropped = Filter + Tail, and the merged
// counters are identical at every shard count.
func TestShardedCongestionCountersMerge(t *testing.T) {
	withShards(t, []int{0, 1, 4, 8}, func() string {
		opt := shardOpts()
		opt.Topology = topoSpec(2)
		opt.Congestion = &fabric.CongestionConfig{QueueCapBytes: 32 << 10, ECNMarkBytes: 8 << 10}
		tb := cluster.NewWithOptions(cluster.MXoE, 16, opt)
		defer tb.Close()
		tr := congestion.Start(tb.Fabric, congestion.TrafficConfig{
			Shape: congestion.Incast,
			Load:  0.3,
			Seed:  0x5eed,
		})
		for r := 0; r < 16; r++ {
			r := r
			tb.Go(r, fmt.Sprintf("stopper%d", r), func(p *sim.Proc) {
				p.Sleep(500 * sim.Microsecond)
				tr.Stop(fabric.NodeID(r))
			})
		}
		if err := tb.Run(); err != nil {
			t.Fatalf("background-only world: %v", err)
		}
		f := tb.Fabric
		if f.TailDropped() == 0 {
			t.Fatal("caps never engaged; the merge test is vacuous")
		}
		if f.FilterDropped() != 0 {
			t.Errorf("no DropFn installed, yet FilterDropped = %d", f.FilterDropped())
		}
		if f.Dropped() != f.FilterDropped()+f.TailDropped() {
			t.Errorf("Dropped=%d != Filter %d + Tail %d", f.Dropped(), f.FilterDropped(), f.TailDropped())
		}
		// Conservation: every offered background frame either reached its
		// destination or was tail-dropped.
		if got := f.BackgroundDelivered() + f.TailDropped(); got != tr.FramesSent() {
			t.Errorf("bg delivered %d + tail dropped %d != %d offered",
				f.BackgroundDelivered(), f.TailDropped(), tr.FramesSent())
		}
		return fmt.Sprintf("%d|%d|%d|%d|%d",
			tr.FramesSent(), f.BackgroundDelivered(), f.TailDropped(), f.ECNMarked(), f.Dropped())
	})
}

// TestCongestionFiguresByteIdenticalAcrossJobs: one loaded congestion cell
// per stack, built sequentially and with 8 workers, must render the exact
// same bytes — the -j contract extended to the reacting stacks.
func TestCongestionFiguresByteIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full congestion figure grid in -short")
	}
	build := func() string {
		figs := CongestionFigures(CongestionRanks, []int{2}, []float64{0, 0.2}, CongestionMsg)
		var s string
		for _, f := range figs {
			s += f.Table()
		}
		return s
	}
	old := parallel.Jobs()
	defer parallel.SetJobs(old)
	parallel.SetJobs(1)
	seq := build()
	parallel.SetJobs(8)
	par := build()
	if seq != par {
		t.Fatalf("congestion figures differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", seq, par)
	}
}
