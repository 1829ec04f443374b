package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/sim"
)

// runN spawns fn on every rank of an n-node world.
func runN(t *testing.T, kind cluster.Kind, n int, fn func(pr *sim.Proc, p *Process)) {
	t.Helper()
	tb, w := DefaultWorld(kind, n)
	t.Cleanup(tb.Close)
	for r := 0; r < n; r++ {
		p := w.Rank(r)
		tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) { fn(pr, p) })
	}
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.IB, cluster.MXoM} {
		kind := kind
		for _, root := range []int{0, 2} {
			root := root
			t.Run(fmt.Sprintf("%s/root%d", kind, root), func(t *testing.T) {
				const n = 4096
				runN(t, kind, 4, func(pr *sim.Proc, p *Process) {
					buf := p.Host().Mem.Alloc(n)
					if p.Rank() == root {
						buf.Fill(42)
					}
					p.Bcast(pr, root, buf, 0, n)
					if !buf.Equal(42, 0, n) {
						t.Errorf("rank %d: bcast data corrupt", p.Rank())
					}
				})
			})
		}
	}
}

func putF(b *mem.Buffer, i int, v float64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
	b.Store(i*8, w[:])
}

func getF(b *mem.Buffer, i int) float64 {
	var w [8]byte
	b.Load(w[:], i*8)
	return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
}

// contents returns a copy of b's bytes.
func contents(b *mem.Buffer) []byte {
	p := make([]byte, b.Len())
	b.Load(p, 0)
	return p
}

func TestReduceSum(t *testing.T) {
	const elems = 64
	runN(t, cluster.IB, 4, func(pr *sim.Proc, p *Process) {
		buf := p.Host().Mem.Alloc(elems * 8)
		for i := 0; i < elems; i++ {
			putF(buf, i, float64(p.Rank()+1)*float64(i))
		}
		p.Reduce(pr, 0, SumFloat64, buf, 0, elems*8)
		if p.Rank() == 0 {
			for i := 0; i < elems; i++ {
				want := float64(1+2+3+4) * float64(i)
				if got := getF(buf, i); got != want {
					t.Errorf("elem %d = %v, want %v", i, got, want)
				}
			}
		}
	})
}

func TestAllreduceMax(t *testing.T) {
	const elems = 16
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.MXoE} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			runN(t, kind, 4, func(pr *sim.Proc, p *Process) {
				buf := p.Host().Mem.Alloc(elems * 8)
				for i := 0; i < elems; i++ {
					putF(buf, i, float64((p.Rank()*7+i*3)%11))
				}
				p.Allreduce(pr, MaxFloat64, buf, 0, elems*8)
				for i := 0; i < elems; i++ {
					want := 0.0
					for r := 0; r < 4; r++ {
						want = math.Max(want, float64((r*7+i*3)%11))
					}
					if got := getF(buf, i); got != want {
						t.Errorf("rank %d elem %d = %v, want %v", p.Rank(), i, got, want)
					}
				}
			})
		})
	}
}

func TestAllgather(t *testing.T) {
	const n = 1024
	for _, kind := range []cluster.Kind{cluster.IB, cluster.MXoM} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			runN(t, kind, 4, func(pr *sim.Proc, p *Process) {
				buf := p.Host().Mem.Alloc(4 * n)
				// Each rank fills its own block with a rank-specific pattern.
				block := make([]byte, n)
				for i := range block {
					block[i] = byte(p.Rank()*31 + i)
				}
				buf.Store(p.Rank()*n, block)
				p.Allgather(pr, buf, n)
				got := contents(buf)
				for r := 0; r < 4; r++ {
					for i := 0; i < n; i++ {
						if got[r*n+i] != byte(r*31+i) {
							t.Fatalf("rank %d: block %d corrupt at %d", p.Rank(), r, i)
						}
					}
				}
			})
		})
	}
}

func TestAllgatherLargeRendezvous(t *testing.T) {
	const n = 64 << 10 // rendezvous on all stacks
	runN(t, cluster.IWARP, 4, func(pr *sim.Proc, p *Process) {
		buf := p.Host().Mem.Alloc(4 * n)
		block := make([]byte, n)
		for i := range block {
			block[i] = byte(p.Rank() + i)
		}
		buf.Store(p.Rank()*n, block)
		p.Allgather(pr, buf, n)
		got := contents(buf)
		for r := 0; r < 4; r++ {
			for i := 0; i < n; i += 997 {
				if got[r*n+i] != byte(r+i) {
					t.Fatalf("rank %d: block %d corrupt", p.Rank(), r)
				}
			}
		}
	})
}

func TestAlltoall(t *testing.T) {
	const n = 512
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.IB, cluster.MXoM} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			runN(t, kind, 4, func(pr *sim.Proc, p *Process) {
				send := p.Host().Mem.Alloc(4 * n)
				recv := p.Host().Mem.Alloc(4 * n)
				out := make([]byte, 4*n)
				for dst := 0; dst < 4; dst++ {
					for i := 0; i < n; i++ {
						out[dst*n+i] = byte(p.Rank()*16 + dst*4 + i%4)
					}
				}
				send.Store(0, out)
				p.Alltoall(pr, send, recv, n)
				got := contents(recv)
				for src := 0; src < 4; src++ {
					for i := 0; i < n; i++ {
						want := byte(src*16 + p.Rank()*4 + i%4)
						if got[src*n+i] != want {
							t.Fatalf("rank %d: block from %d corrupt at %d", p.Rank(), src, i)
						}
					}
				}
			})
		})
	}
}

func TestCollectiveTimingSane(t *testing.T) {
	// A 4-node 1KB broadcast should cost on the order of a couple of
	// point-to-point latencies (binomial tree depth 2), not more.
	var took sim.Time
	runN(t, cluster.IB, 4, func(pr *sim.Proc, p *Process) {
		buf := p.Host().Mem.Alloc(1024)
		p.Barrier(pr)
		start := p.Wtime(pr)
		for i := 0; i < 10; i++ {
			p.Bcast(pr, 0, buf, 0, 1024)
			p.Barrier(pr)
		}
		if p.Rank() == 0 {
			took = (p.Wtime(pr) - start) / 10
		}
	})
	if took <= 0 || took > 200*sim.Microsecond {
		t.Errorf("per-bcast+barrier time = %v, want O(10us..200us)", took)
	}
}
