package mpi

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/sim"
)

// lazyConfig is the lean many-rank profile the scaling drivers use: small
// rings, and no QP pairs until a pair actually communicates.
func lazyConfig(kind cluster.Kind) Config {
	cfg := ConfigFor(kind)
	cfg.EagerCredits = 4
	cfg.EagerThreshold = 2 << 10
	cfg.LazyConnect = true
	return cfg
}

// runLazy spawns fn on every rank of an n-node lazy world and returns it.
func runLazy(t *testing.T, kind cluster.Kind, n int, fn func(pr *sim.Proc, p *Process)) *World {
	t.Helper()
	tb := cluster.New(kind, n)
	t.Cleanup(tb.Close)
	w := NewWorld(tb, lazyConfig(kind))
	for r := 0; r < n; r++ {
		p := w.Rank(r)
		tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) { fn(pr, p) })
	}
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestLazyWorldWiresOnlyTouchedPairs(t *testing.T) {
	const n = 8
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.IB} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			tb := cluster.New(kind, n)
			defer tb.Close()
			w := NewWorld(tb, lazyConfig(kind))
			if got := w.ConnectedPairs(); got != 0 {
				t.Fatalf("lazy world born with %d QP pairs", got)
			}
			for r := 0; r < n; r++ {
				p := w.Rank(r)
				tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
					// Ring traffic: every rank talks to its two neighbours
					// only.
					buf := p.Host().Mem.Alloc(256)
					p.Sendrecv(pr, (p.Rank()+1)%n, 7, buf, 0, 128,
						(p.Rank()-1+n)%n, 7, buf, 128, 128)
				})
			}
			if err := tb.Run(); err != nil {
				t.Fatal(err)
			}
			// A ring over n ranks is exactly n distinct pairs; the full
			// mesh would be n(n-1)/2 = 28.
			if got := w.ConnectedPairs(); got != n {
				t.Errorf("ring traffic wired %d pairs, want %d", got, n)
			}
		})
	}
}

func TestLazyWorldDeliversCorrectData(t *testing.T) {
	const n = 6
	runLazy(t, cluster.IWARP, n, func(pr *sim.Proc, p *Process) {
		// Every rank sends its rank byte to every other rank (eager and
		// rendezvous sizes), so lazy wiring happens under fire from both
		// sides of each pair at once.
		for _, size := range []int{64, 8 << 10} {
			send := p.Host().Mem.Alloc(size)
			send.Fill(byte(p.Rank()))
			recvs := make([]*mem.Buffer, n)
			reqs := make([]Request, 0, 2*(n-1))
			for peer := 0; peer < n; peer++ {
				if peer == p.Rank() {
					continue
				}
				recvs[peer] = p.Host().Mem.Alloc(size)
				reqs = append(reqs,
					p.Isend(pr, peer, 3, send, 0, size),
					p.Irecv(pr, peer, 3, recvs[peer], 0, size))
			}
			p.WaitAll(pr, reqs)
			for peer := 0; peer < n; peer++ {
				if peer == p.Rank() {
					continue
				}
				if !recvs[peer].Equal(byte(peer), 0, size) {
					t.Errorf("rank %d: bad data from %d at size %d", p.Rank(), peer, size)
				}
			}
			p.Barrier(pr)
		}
	})
}

func TestLazyWorldIsDeterministic(t *testing.T) {
	run := func() sim.Time {
		tb := cluster.New(cluster.IB, 12)
		defer tb.Close()
		w := NewWorld(tb, lazyConfig(cluster.IB))
		for r := 0; r < 12; r++ {
			p := w.Rank(r)
			tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
				buf := p.Host().Mem.Alloc(4 << 10)
				p.Alltoall(pr, buf, buf, 256)
				p.Barrier(pr)
			})
		}
		if err := tb.Run(); err != nil {
			t.Fatal(err)
		}
		return tb.Eng.Now()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical lazy runs ended at %v and %v", a, b)
	}
}

// worldAllocBytes reports the heap bytes allocated while constructing (and
// tearing down) one n-rank world with the given config.
func worldAllocBytes(kind cluster.Kind, n int, cfg Config) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tb := cluster.New(kind, n)
	NewWorld(tb, cfg)
	runtime.ReadMemStats(&after)
	tb.Close()
	return after.TotalAlloc - before.TotalAlloc
}

func TestLazyWorldConstructionStaysSmall(t *testing.T) {
	// The regression this pins: eager NewWorld allocates rings for all
	// n(n-1)/2 pairs up front — real backing memory, quadratic in ranks —
	// while a lazy world must stay near-constant regardless of rank count.
	// 10x is far coarser than the measured gap (~100x at 24 ranks) but
	// catches any slide back to up-front per-pair allocation.
	cfg := lazyConfig(cluster.IWARP)
	lazy := worldAllocBytes(cluster.IWARP, 24, cfg)
	eagerCfg := cfg
	eagerCfg.LazyConnect = false
	eager := worldAllocBytes(cluster.IWARP, 24, eagerCfg)
	if lazy*10 > eager {
		t.Errorf("lazy 24-rank world allocated %d bytes, eager %d; want at least 10x headroom", lazy, eager)
	}
}

func TestLazy128RankNeighborWorld(t *testing.T) {
	// 128 ranks is out of reach for eager worlds (8128 pairs of real
	// buffer rings); with lazy wiring a neighbour-only workload touches
	// just 256 pairs and runs in moderate memory.
	const n = 128
	w := runLazy(t, cluster.IWARP, n, func(pr *sim.Proc, p *Process) {
		buf := p.Host().Mem.Alloc(512)
		p.Sendrecv(pr, (p.Rank()+1)%n, 1, buf, 0, 256,
			(p.Rank()-1+n)%n, 1, buf, 256, 256)
		p.Barrier(pr)
	})
	// The ring wires n pairs; the dissemination barrier adds its
	// log-distance partners (7 rounds, two directions).
	if got, limit := w.ConnectedPairs(), 15*n; got > limit {
		t.Errorf("neighbour workload wired %d pairs, want <= %d", got, limit)
	}
}
