package mpi

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TestPropertyRandomTraffic: a randomized message plan (sizes straddling
// the eager/rendezvous threshold, tags, receive order permutations) is
// delivered exactly once with correct contents on every stack.
func TestPropertyRandomTraffic(t *testing.T) {
	kinds := cluster.Kinds
	f := func(rawSizes []uint16, seed uint64, kindPick uint8) bool {
		if len(rawSizes) == 0 {
			return true
		}
		if len(rawSizes) > 12 {
			rawSizes = rawSizes[:12]
		}
		kind := kinds[int(kindPick)%len(kinds)]
		rng := sim.NewRNG(seed)

		type msg struct {
			tag, n int
			seed   byte
		}
		msgs := make([]msg, len(rawSizes))
		for i, r := range rawSizes {
			msgs[i] = msg{
				tag:  100 + i,
				n:    int(r)%150_000 + 1, // 1B .. ~146KB: eager and rendezvous
				seed: byte(rng.Intn(200) + 1),
			}
		}
		// Receive in a random permutation of tags: unexpected-queue traffic.
		perm := rng.Perm(len(msgs))

		tb, w := DefaultWorld(kind, 2)
		defer tb.Close()
		ok := true
		tb.Eng.Go("sender", func(pr *sim.Proc) {
			p := w.Rank(0)
			for _, m := range msgs {
				buf := p.Host().Mem.Alloc(m.n)
				buf.Fill(m.seed)
				p.Send(pr, 1, m.tag, buf, 0, m.n)
			}
		})
		tb.Eng.Go("receiver", func(pr *sim.Proc) {
			p := w.Rank(1)
			for _, idx := range perm {
				m := msgs[idx]
				buf := p.Host().Mem.Alloc(m.n)
				st := p.Recv(pr, 0, m.tag, buf, 0, m.n)
				if st.Count != m.n || st.Tag != m.tag || !buf.Equal(m.seed, 0, m.n) {
					ok = false
				}
			}
		})
		if err := tb.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestStressManyToOne: three ranks flood rank 0 with interleaved tagged
// traffic; wildcard receives must account for every message exactly once.
func TestStressManyToOne(t *testing.T) {
	const perSender = 20
	const n = 2048
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.MXoM} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			tb, w := DefaultWorld(kind, 4)
			defer tb.Close()
			counts := map[int]int{}
			for r := 1; r < 4; r++ {
				r := r
				p := w.Rank(r)
				tb.Eng.Go(fmt.Sprintf("sender%d", r), func(pr *sim.Proc) {
					buf := p.Host().Mem.Alloc(n)
					buf.Fill(byte(r))
					for i := 0; i < perSender; i++ {
						p.Send(pr, 0, r, buf, 0, n)
					}
				})
			}
			tb.Eng.Go("sink", func(pr *sim.Proc) {
				p := w.Rank(0)
				buf := p.Host().Mem.Alloc(n)
				for i := 0; i < 3*perSender; i++ {
					st := p.Recv(pr, AnySource, AnyTag, buf, 0, n)
					if !buf.Equal(byte(st.Source), 0, n) {
						t.Errorf("message from %d corrupt", st.Source)
					}
					counts[st.Source]++
				}
			})
			if err := tb.Run(); err != nil {
				t.Fatal(err)
			}
			for r := 1; r < 4; r++ {
				if counts[r] != perSender {
					t.Errorf("rank %d delivered %d/%d", r, counts[r], perSender)
				}
			}
		})
	}
}

// TestStressBidirectionalMixedSizes: both ranks blast mixed eager and
// rendezvous traffic at each other simultaneously.
func TestStressBidirectionalMixedSizes(t *testing.T) {
	sizes := []int{1, 64, 4 << 10, 100 << 10, 8, 64 << 10}
	for _, kind := range cluster.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			tb, w := DefaultWorld(kind, 2)
			defer tb.Close()
			for r := 0; r < 2; r++ {
				r := r
				p := w.Rank(r)
				tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
					peer := 1 - r
					var bufs []*mem.Buffer
					var reqs []Request
					for i, n := range sizes {
						b := p.Host().Mem.Alloc(n)
						b.Fill(byte(r*10 + i))
						reqs = append(reqs, p.Isend(pr, peer, i, b, 0, n))
						bufs = append(bufs, b)
					}
					for i, n := range sizes {
						b := p.Host().Mem.Alloc(n)
						st := p.Recv(pr, peer, i, b, 0, n)
						if st.Count != n || !b.Equal(byte(peer*10+i), 0, n) {
							t.Errorf("rank %d msg %d corrupt", r, i)
						}
					}
					p.WaitAll(pr, reqs)
				})
			}
			if err := tb.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
