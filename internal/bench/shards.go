package bench

import (
	"sync/atomic"

	"repro/internal/cluster"
)

// shardCount is the within-world shard count the shard-aware drivers pass
// to cluster.NewWithOptions, mirroring parallel's jobs knob: 0 (the
// default) and 1 build one-engine worlds, n >= 2 splits each world across
// n engines under the conservative parallel runtime (see internal/pdes).
// It is process-wide and atomic for the same reason parallel.SetJobs is:
// figure cells run on pool workers, and every world of a comparison must
// shard identically.
//
// Sharding is orthogonal to the -j worker pool: -j runs independent worlds
// concurrently, -shards splits each world across cores. The output
// identity guarantee extends to both: any (-j, -shards) combination
// produces tables byte-identical to (-j 1, -shards 0).
var shardCount atomic.Int64

// SetShards sets the per-world shard count for subsequent worlds built by
// the shard-aware figure families (fig1, topo, faults). Values below zero
// clamp to 0 (one engine).
func SetShards(n int) {
	if n < 0 {
		n = 0
	}
	shardCount.Store(int64(n))
}

// Shards returns the current per-world shard count (0 and 1 both mean one
// engine per world).
func Shards() int { return int(shardCount.Load()) }

// shardOpts is the cluster option set the shard-aware drivers build
// testbeds with.
func shardOpts() cluster.Options {
	return cluster.Options{Shards: Shards()}
}
