package mpi

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/sim"
)

// run spawns fn as rank procs on a fresh 2-node world of the given kind and
// drives the simulation to completion.
func run2(t *testing.T, kind cluster.Kind, fn func(pr *sim.Proc, p *Process, peer int)) *World {
	t.Helper()
	tb, w := DefaultWorld(kind, 2)
	t.Cleanup(tb.Close)
	for r := 0; r < 2; r++ {
		p := w.Rank(r)
		peer := 1 - r
		tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) { fn(pr, p, peer) })
	}
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	return w
}

// MPI_Init never runs the engine: right after NewWorld an eagerly connected
// world of any stack reads t = 0 with no process started and no event
// fired, so its workload and any fault windows start together.
func TestNewWorldLeavesClockAtZero(t *testing.T) {
	for _, kind := range cluster.Kinds {
		tb, _ := DefaultWorld(kind, 2)
		c := tb.Eng.Metrics().Snapshot().Counters
		if now := tb.Eng.Now(); now != 0 {
			t.Errorf("%v: clock reads %v after NewWorld, want 0", kind, now)
		}
		if p, e := c["sim.procs_started"], c["sim.events_fired"]; p != 0 || e != 0 {
			t.Errorf("%v: NewWorld started %d processes and fired %d events, want none", kind, p, e)
		}
		tb.Close()
	}
}

func TestPingPongAllKindsEager(t *testing.T) {
	for _, kind := range cluster.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const n = 1024
			done := false
			run2(t, kind, func(pr *sim.Proc, p *Process, peer int) {
				buf := p.Host().Mem.Alloc(n)
				if p.Rank() == 0 {
					buf.Fill(7)
					p.Send(pr, peer, 5, buf, 0, n)
					st := p.Recv(pr, peer, 6, buf, 0, n)
					if st.Count != n || st.Source != 1 || st.Tag != 6 {
						t.Errorf("status = %+v", st)
					}
					if !buf.Equal(8, 0, n) {
						t.Error("reply data corrupt")
					}
					done = true
				} else {
					st := p.Recv(pr, peer, 5, buf, 0, n)
					if st.Count != n {
						t.Errorf("recv count = %d", st.Count)
					}
					if !buf.Equal(7, 0, n) {
						t.Error("request data corrupt")
					}
					buf.Fill(8)
					p.Send(pr, peer, 6, buf, 0, n)
				}
			})
			if !done {
				t.Fatal("ping-pong did not complete")
			}
		})
	}
}

func TestRendezvousAllKinds(t *testing.T) {
	for _, kind := range cluster.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const n = 256 << 10 // rendezvous everywhere
			run2(t, kind, func(pr *sim.Proc, p *Process, peer int) {
				buf := p.Host().Mem.Alloc(n)
				if p.Rank() == 0 {
					buf.Fill(3)
					p.Send(pr, peer, 1, buf, 0, n)
				} else {
					st := p.Recv(pr, peer, 1, buf, 0, n)
					if st.Count != n {
						t.Errorf("count = %d", st.Count)
					}
					if !buf.Equal(3, 0, n) {
						t.Error("data corrupt")
					}
				}
			})
		})
	}
}

func TestUnexpectedMessages(t *testing.T) {
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.IB, cluster.MXoM} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const n = 512
			run2(t, kind, func(pr *sim.Proc, p *Process, peer int) {
				buf := p.Host().Mem.Alloc(n)
				if p.Rank() == 0 {
					buf.Fill(9)
					for i := 0; i < 8; i++ {
						p.Send(pr, peer, 100+i, buf, 0, n)
					}
				} else {
					pr.Sleep(sim.Millisecond) // let everything arrive unexpected
					// Receive in reverse order: each Recv digs through the
					// unexpected queue.
					for i := 7; i >= 0; i-- {
						st := p.Recv(pr, peer, 100+i, buf, 0, n)
						if st.Tag != 100+i || st.Count != n {
							t.Errorf("status = %+v", st)
						}
						if !buf.Equal(9, 0, n) {
							t.Errorf("message %d corrupt", i)
						}
					}
				}
			})
		})
	}
}

func TestNonOvertakingOrder(t *testing.T) {
	for _, kind := range cluster.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const count = 16
			var got []int
			run2(t, kind, func(pr *sim.Proc, p *Process, peer int) {
				buf := p.Host().Mem.Alloc(8)
				if p.Rank() == 0 {
					for i := 0; i < count; i++ {
						buf.Store(0, []byte{byte(i)})
						p.Send(pr, peer, 3, buf, 0, 8)
					}
				} else {
					for i := 0; i < count; i++ {
						p.Recv(pr, peer, 3, buf, 0, 8)
						got = append(got, int(contents(buf)[0]))
					}
				}
			})
			for i, v := range got {
				if v != i {
					t.Fatalf("message order violated: got %v", got)
				}
			}
		})
	}
}

func TestWildcards(t *testing.T) {
	for _, kind := range []cluster.Kind{cluster.IB, cluster.MXoE} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			run2(t, kind, func(pr *sim.Proc, p *Process, peer int) {
				buf := p.Host().Mem.Alloc(64)
				if p.Rank() == 0 {
					buf.Fill(2)
					p.Send(pr, peer, 42, buf, 0, 64)
				} else {
					st := p.Recv(pr, AnySource, AnyTag, buf, 0, 64)
					if st.Source != 0 || st.Tag != 42 || st.Count != 64 {
						t.Errorf("status = %+v", st)
					}
				}
			})
		})
	}
}

func TestSsendWaitsForMatch(t *testing.T) {
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.IB, cluster.MXoM} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			var sendDone, recvPosted sim.Time
			run2(t, kind, func(pr *sim.Proc, p *Process, peer int) {
				buf := p.Host().Mem.Alloc(64)
				if p.Rank() == 0 {
					buf.Fill(1)
					p.Ssend(pr, peer, 9, buf, 0, 64)
					sendDone = pr.Now()
				} else {
					pr.Sleep(500 * sim.Microsecond)
					recvPosted = pr.Now()
					p.Recv(pr, peer, 9, buf, 0, 64)
				}
			})
			if sendDone < recvPosted {
				t.Errorf("Ssend completed at %v before matching recv at %v", sendDone, recvPosted)
			}
		})
	}
}

func TestIsendIrecvWindow(t *testing.T) {
	for _, kind := range cluster.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const window = 32
			const n = 2048
			run2(t, kind, func(pr *sim.Proc, p *Process, peer int) {
				buf := p.Host().Mem.Alloc(n)
				reqs := make([]*Request, window)
				if p.Rank() == 0 {
					buf.Fill(4)
					for i := range reqs {
						reqs[i] = p.Isend(pr, peer, 7, buf, 0, n)
					}
					p.WaitAll(pr, reqs)
				} else {
					for i := range reqs {
						reqs[i] = p.Irecv(pr, peer, 7, buf, 0, n)
					}
					p.WaitAll(pr, reqs)
					if !buf.Equal(4, 0, n) {
						t.Error("windowed data corrupt")
					}
				}
			})
		})
	}
}

func TestBarrier(t *testing.T) {
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.MXoM} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			tb, w := DefaultWorld(kind, 4)
			defer tb.Close()
			var after [4]sim.Time
			for r := 0; r < 4; r++ {
				r := r
				p := w.Rank(r)
				tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
					pr.Sleep(sim.Time(r) * 100 * sim.Microsecond) // skewed arrival
					p.Barrier(pr)
					after[r] = pr.Now()
				})
			}
			if err := tb.Run(); err != nil {
				t.Fatal(err)
			}
			// Nobody leaves the barrier before the last arrival (300us).
			for r, at := range after {
				if at < 300*sim.Microsecond {
					t.Errorf("rank %d left barrier at %v", r, at)
				}
			}
		})
	}
}

func TestMPILatencyCalibration(t *testing.T) {
	// Short-message MPI half-round-trip targets from Fig. 3: iWARP ~10.7us,
	// IB ~4.8us, MXoM ~3.3us, MXoE ~3.6us (±20% here; EXPERIMENTS.md tracks
	// the tighter comparison).
	want := map[cluster.Kind]float64{
		cluster.IWARP: 10.7,
		cluster.IB:    4.8,
		cluster.MXoM:  3.3,
		cluster.MXoE:  3.6,
	}
	for _, kind := range cluster.Kinds {
		kind, target := kind, want[kind]
		t.Run(kind.String(), func(t *testing.T) {
			const iters = 50
			var lat sim.Time
			run2(t, kind, func(pr *sim.Proc, p *Process, peer int) {
				buf := p.Host().Mem.Alloc(64)
				buf.Fill(1)
				if p.Rank() == 0 {
					p.Barrier(pr)
					start := p.Wtime(pr)
					for i := 0; i < iters; i++ {
						p.Send(pr, peer, 1, buf, 0, 4)
						p.Recv(pr, peer, 2, buf, 0, 4)
					}
					lat = (p.Wtime(pr) - start) / (2 * iters)
				} else {
					p.Barrier(pr)
					for i := 0; i < iters; i++ {
						p.Recv(pr, peer, 1, buf, 0, 4)
						p.Send(pr, peer, 2, buf, 0, 4)
					}
				}
			})
			got := lat.Micros()
			if got < target*0.8 || got > target*1.2 {
				t.Errorf("%s short-message MPI latency = %.2fus, want ~%.1fus", kind, got, target)
			}
		})
	}
}

func TestRegCacheDrivesBufferReuseCost(t *testing.T) {
	// Rendezvous ping-pong over 64 distinct buffers must be slower than over
	// one buffer (pin-down cache thrash), for the verbs bindings.
	for _, kind := range []cluster.Kind{cluster.IWARP, cluster.IB} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			elapsed := func(nbufs int) sim.Time {
				const n = 64 << 10
				const iters = 16
				var total sim.Time
				run2(t, kind, func(pr *sim.Proc, p *Process, peer int) {
					bufs := make([]*mem.Buffer, nbufs)
					for i := range bufs {
						bufs[i] = p.Host().Mem.Alloc(n)
						bufs[i].Fill(1)
					}
					if p.Rank() == 0 {
						p.Barrier(pr)
						start := pr.Now()
						for i := 0; i < iters; i++ {
							b := bufs[i%nbufs]
							p.Send(pr, peer, 1, b, 0, n)
							p.Recv(pr, peer, 2, b, 0, n)
						}
						total = pr.Now() - start
					} else {
						p.Barrier(pr)
						for i := 0; i < iters; i++ {
							b := bufs[i%nbufs]
							p.Recv(pr, peer, 1, b, 0, n)
							p.Send(pr, peer, 2, b, 0, n)
						}
					}
				})
				return total
			}
			reuse := elapsed(1)
			fresh := elapsed(64)
			if fresh <= reuse {
				t.Errorf("no-reuse (%v) not slower than full reuse (%v)", fresh, reuse)
			}
			ratio := float64(fresh) / float64(reuse)
			if ratio < 1.2 {
				t.Errorf("buffer re-use ratio = %.2f, want > 1.2", ratio)
			}
		})
	}
}

func TestProbeAndIprobe(t *testing.T) {
	for _, kind := range cluster.VerbsKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			run2(t, kind, func(pr *sim.Proc, p *Process, peer int) {
				buf := p.Host().Mem.Alloc(256)
				if p.Rank() == 0 {
					buf.Fill(3)
					pr.Sleep(50 * sim.Microsecond)
					p.Send(pr, peer, 77, buf, 0, 256)
				} else {
					// Nothing there yet.
					if _, ok := p.Iprobe(pr, 0, 77); ok {
						t.Error("Iprobe found a message before it was sent")
					}
					st := p.Probe(pr, 0, 77)
					if st.Count != 256 || st.Tag != 77 || st.Source != 0 {
						t.Errorf("probe status = %+v", st)
					}
					// Probing must not consume: the receive still works.
					st = p.Recv(pr, 0, 77, buf, 0, 256)
					if st.Count != 256 || !buf.Equal(3, 0, 256) {
						t.Error("message consumed or corrupted by Probe")
					}
					if _, ok := p.Iprobe(pr, 0, 77); ok {
						t.Error("Iprobe found the message after Recv")
					}
				}
			})
		})
	}
}

func TestSendrecvExchange(t *testing.T) {
	for _, kind := range cluster.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const n = 100 << 10 // rendezvous: head-to-head deadlock risk
			run2(t, kind, func(pr *sim.Proc, p *Process, peer int) {
				sbuf := p.Host().Mem.Alloc(n)
				rbuf := p.Host().Mem.Alloc(n)
				sbuf.Fill(byte(10 + p.Rank()))
				st := p.Sendrecv(pr, peer, 5, sbuf, 0, n, peer, 5, rbuf, 0, n)
				if st.Count != n || !rbuf.Equal(byte(10+peer), 0, n) {
					t.Errorf("rank %d sendrecv corrupt", p.Rank())
				}
			})
		})
	}
}
