package mpi

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// These tests push the collectives past the cozy 4-rank power-of-two worlds
// the rest of the suite uses: non-power-of-two communicator sizes exercise
// the ragged last round of the binomial/dissemination schedules, and
// non-zero roots exercise the rank-rotation arithmetic. All run on the lean
// lazy-connect profile the topology benchmarks use, so they double as
// large-world wiring tests.

func TestBcastNonPowerOfTwoNonZeroRoot(t *testing.T) {
	const ranks = 18
	const n = 4 << 10
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.IB} {
		kind := kind
		for _, root := range []int{5, 17} {
			root := root
			t.Run(fmt.Sprintf("%s/root%d", kind, root), func(t *testing.T) {
				runLazy(t, kind, ranks, func(pr *sim.Proc, p *Process) {
					buf := p.Host().Mem.Alloc(n)
					if p.Rank() == root {
						buf.Fill(byte(root))
					}
					p.Bcast(pr, root, buf, 0, n)
					if !buf.Equal(byte(root), 0, n) {
						t.Errorf("rank %d: bcast from root %d corrupt", p.Rank(), root)
					}
				})
			})
		}
	}
}

func TestReduceNonPowerOfTwoNonZeroRoot(t *testing.T) {
	const ranks = 18
	const elems = 32
	const root = 11
	runLazy(t, cluster.IB, ranks, func(pr *sim.Proc, p *Process) {
		buf := p.Host().Mem.Alloc(elems * 8)
		for i := 0; i < elems; i++ {
			putF(buf, i, float64(p.Rank()+1)+float64(i))
		}
		p.Reduce(pr, root, SumFloat64, buf, 0, elems*8)
		if p.Rank() == root {
			// sum over r of (r+1) = ranks(ranks+1)/2, plus ranks copies of i.
			base := float64(ranks*(ranks+1)) / 2
			for i := 0; i < elems; i++ {
				want := base + float64(ranks*i)
				if got := getF(buf, i); got != want {
					t.Errorf("elem %d = %v, want %v", i, got, want)
				}
			}
		}
	})
}

func TestAlltoallNonPowerOfTwoWorld(t *testing.T) {
	const ranks = 18
	const n = 256
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.MXoE} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			runLazy(t, kind, ranks, func(pr *sim.Proc, p *Process) {
				send := p.Host().Mem.Alloc(ranks * n)
				recv := p.Host().Mem.Alloc(ranks * n)
				out := make([]byte, ranks*n)
				for dst := 0; dst < ranks; dst++ {
					for i := 0; i < n; i++ {
						out[dst*n+i] = byte(p.Rank()*37 + dst*5 + i%7)
					}
				}
				send.Store(0, out)
				p.Alltoall(pr, send, recv, n)
				got := contents(recv)
				for src := 0; src < ranks; src++ {
					for i := 0; i < n; i++ {
						want := byte(src*37 + p.Rank()*5 + i%7)
						if got[src*n+i] != want {
							t.Fatalf("rank %d: block from %d corrupt at %d", p.Rank(), src, i)
						}
					}
				}
			})
		})
	}
}

func TestBarrierNonPowerOfTwoWorld(t *testing.T) {
	// The dissemination barrier's round count is ceil(log2(n)); 18 ranks
	// forces the wrap-around partner arithmetic in every round.
	const ranks = 18
	runLazy(t, cluster.MXoM, ranks, func(pr *sim.Proc, p *Process) {
		for i := 0; i < 3; i++ {
			p.Barrier(pr)
		}
	})
}

// TestFullMeshProcsScaleWithRanks runs an Alltoall over 64 ranks, which
// wires a queue pair (or, on MX, message traffic) between every pair of
// ranks. NIC stages are event handlers, so the processes a world runs are
// its programs, a few per rank: live and started processes stay O(ranks)
// although the mesh has O(ranks^2) connections and messages.
func TestFullMeshProcsScaleWithRanks(t *testing.T) {
	const ranks = 64
	const n = 64
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.IB, cluster.MXoE} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			var eng *sim.Engine
			peakLive := 0
			w := runLazy(t, kind, ranks, func(pr *sim.Proc, p *Process) {
				eng = pr.Engine()
				send := p.Host().Mem.Alloc(ranks * n)
				recv := p.Host().Mem.Alloc(ranks * n)
				p.Alltoall(pr, send, recv, n)
				peakLive = max(peakLive, pr.Engine().LiveProcs())
			})
			if !kind.IsMX() {
				if got, want := w.ConnectedPairs(), ranks*(ranks-1)/2; got != want {
					t.Fatalf("%d connected pairs, want a full mesh of %d", got, want)
				}
			}
			started := eng.Metrics().Snapshot().Counters["sim.procs_started"]
			t.Logf("%d live processes at peak, %d started", peakLive, started)
			if peakLive > 2*ranks || started > 4*ranks {
				t.Errorf("%d ranks: %d live processes at peak and %d started, want O(ranks): at most %d and %d",
					ranks, peakLive, started, 2*ranks, 4*ranks)
			}
		})
	}
}
