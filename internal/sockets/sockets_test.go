package sockets

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/sim"
)

// pingPong measures the one-way latency of a socket pair inside eng.
func pingPong(t *testing.T, eng *sim.Engine, a, b Endpoint, amem, bmem *mem.Memory, size, iters int) sim.Time {
	t.Helper()
	bufA := amem.Alloc(size)
	bufB := bmem.Alloc(size)
	bufA.Fill(3)
	var rtt sim.Time
	eng.Go("side-a", func(p *sim.Proc) {
		for i := 0; i < 2+iters; i++ {
			if i == 2 {
				rtt = -p.Now()
			}
			a.Send(p, bufA, 0, size)
			a.Recv(p, bufA, 0, size)
		}
		rtt += p.Now()
	})
	eng.Go("side-b", func(p *sim.Proc) {
		for i := 0; i < 2+iters; i++ {
			b.Recv(p, bufB, 0, size)
			b.Send(p, bufB, 0, size)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return rtt / sim.Time(2*iters)
}

// streamBW measures one-way streaming bandwidth in MB/s.
func streamBW(t *testing.T, eng *sim.Engine, a, b Endpoint, amem, bmem *mem.Memory, chunk, count int) float64 {
	t.Helper()
	bufA := amem.Alloc(chunk)
	bufB := bmem.Alloc(chunk)
	bufA.Fill(1)
	var start, end sim.Time
	eng.Go("tx", func(p *sim.Proc) {
		start = p.Now()
		for i := 0; i < count; i++ {
			a.Send(p, bufA, 0, chunk)
		}
	})
	eng.Go("rx", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			b.Recv(p, bufB, 0, chunk)
		}
		end = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return sim.MBpsOf(int64(chunk)*int64(count), end-start)
}

func TestStreamPrimitive(t *testing.T) {
	eng := sim.NewEngine()
	m := mem.NewMemory(eng, "host")
	s := newStream(eng)
	src := m.Alloc(6)
	src.Store(0, []byte{1, 2, 3, 4, 5, 6})
	dst := m.Alloc(5)
	eng.Go("reader", func(p *sim.Proc) {
		s.await(p, 5)
		s.take(dst, 0, 5)
	})
	push := func(off, n int) {
		v := src.View(off, n)
		s.push(v)
		v.Release()
	}
	eng.Schedule(sim.Microsecond, func() { push(0, 2) })
	eng.Schedule(2*sim.Microsecond, func() { push(2, 4) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	dst.Load(got, 0)
	if fmt.Sprint(got) != "[1 2 3 4 5]" || s.Len() != 1 {
		t.Errorf("got %v, remaining %d", got, s.Len())
	}
}

// TestSourceWriteAfterPostKeepsPostedBytes pins the copy-out semantics of
// the sockets stacks that carry copy-on-write views: once Send returns,
// overwriting the user buffer must not reach the receiver, and it costs
// exactly one freeze of the one in-flight chunk.
func TestSourceWriteAfterPostKeepsPostedBytes(t *testing.T) {
	stacks := []struct {
		name string
		pair func(*sim.Engine) (Endpoint, Endpoint)
	}{
		{"hostTCP", func(e *sim.Engine) (Endpoint, Endpoint) { return NewHostTCPPair(e, DefaultHostTCPConfig()) }},
		{"toe", func(e *sim.Engine) (Endpoint, Endpoint) { return NewTOEPair(e, DefaultTOEConfig()) }},
	}
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			eng := sim.NewEngine()
			defer eng.Close()
			a, b := st.pair(eng)
			const n = 32 << 10 // one socket-buffer chunk
			src := a.Mem().Alloc(n)
			dst := b.Mem().Alloc(n)
			src.Fill(7)
			eng.Go("tx", func(p *sim.Proc) {
				a.Send(p, src, 0, n)
				src.Fill(99)
			})
			eng.Go("rx", func(p *sim.Proc) {
				p.Sleep(sim.Millisecond) // the chunk is buffered by now
				b.Recv(p, dst, 0, n)
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if !dst.Equal(7, 0, n) {
				t.Error("receiver saw bytes written after Send returned")
			}
			if got := eng.Metrics().Counter("mem.view_freezes").Value(); got != 1 {
				t.Errorf("mem.view_freezes = %d, want 1", got)
			}
		})
	}
}

func TestHostTCPDataIntegrity(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	a, b := NewHostTCPPair(eng, DefaultHostTCPConfig())
	am := a.(*hostTCP).mem
	bm := b.(*hostTCP).mem
	const n = 200_000
	src := am.Alloc(n)
	dst := bm.Alloc(n)
	src.Fill(7)
	eng.Go("tx", func(p *sim.Proc) { a.Send(p, src, 0, n) })
	eng.Go("rx", func(p *sim.Proc) { b.Recv(p, dst, 0, n) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(7, 0, n) {
		t.Error("host TCP corrupted the stream")
	}
}

func TestHostTCPLatencyRange(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	a, b := NewHostTCPPair(eng, DefaultHostTCPConfig())
	lat := pingPong(t, eng, a, b, a.(*hostTCP).mem, b.(*hostTCP).mem, 64, 20)
	// Kernel TCP on 10GigE, 2006: ~12-20us one way.
	if lat < sim.Micros(10) || lat > sim.Micros(22) {
		t.Errorf("host TCP one-way latency = %v, want ~15us", lat)
	}
}

func TestHostTCPBandwidthCPUBound(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	a, b := NewHostTCPPair(eng, DefaultHostTCPConfig())
	bw := streamBW(t, eng, a, b, a.(*hostTCP).mem, b.(*hostTCP).mem, 64<<10, 64)
	// Far below line rate: the CPU checksum+copy pass is the bottleneck.
	if bw < 230 || bw > 700 {
		t.Errorf("host TCP stream bandwidth = %.0f MB/s, want ~250-650 (CPU bound)", bw)
	}
}

func TestTOEFasterThanHostTCP(t *testing.T) {
	e1 := sim.NewEngine()
	defer e1.Close()
	ha, hb := NewHostTCPPair(e1, DefaultHostTCPConfig())
	hostLat := pingPong(t, e1, ha, hb, ha.(*hostTCP).mem, hb.(*hostTCP).mem, 64, 20)
	hostBW := streamBW(t, e1, ha, hb, ha.(*hostTCP).mem, hb.(*hostTCP).mem, 64<<10, 64)

	e2 := sim.NewEngine()
	defer e2.Close()
	ta, tb := NewTOEPair(e2, DefaultTOEConfig())
	toeLat := pingPong(t, e2, ta, tb, ta.(*toe).mem, tb.(*toe).mem, 64, 20)
	toeBW := streamBW(t, e2, ta, tb, ta.(*toe).mem, tb.(*toe).mem, 64<<10, 64)

	if toeLat >= hostLat {
		t.Errorf("TOE latency (%v) not below host TCP (%v)", toeLat, hostLat)
	}
	if toeBW <= hostBW*12/10 {
		t.Errorf("TOE bandwidth (%.0f) not well above host TCP (%.0f)", toeBW, hostBW)
	}
}

func TestTOEDataIntegrity(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	a, b := NewTOEPair(eng, DefaultTOEConfig())
	am, bm := a.(*toe).mem, b.(*toe).mem
	const n = 500_000
	src := am.Alloc(n)
	dst := bm.Alloc(n)
	src.Fill(5)
	eng.Go("tx", func(p *sim.Proc) { a.Send(p, src, 0, n) })
	eng.Go("rx", func(p *sim.Proc) { b.Recv(p, dst, 0, n) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(5, 0, n) {
		t.Error("TOE corrupted the stream")
	}
}

func TestSDPBcopyAndZcopy(t *testing.T) {
	for _, kind := range cluster.VerbsKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			tb, a, b := NewSDPPair(kind, DefaultSDPConfig())
			defer tb.Close()
			am, bm := tb.Hosts[0].Mem, tb.Hosts[1].Mem
			// bcopy-size and zcopy-size messages back to back, in order.
			sizes := []int{512, 4 << 10, 256 << 10, 64, 1 << 20}
			tb.Eng.Go("tx", func(p *sim.Proc) {
				for i, n := range sizes {
					src := am.Alloc(n)
					src.Fill(byte(10 + i))
					a.Send(p, src, 0, n)
				}
			})
			tb.Eng.Go("rx", func(p *sim.Proc) {
				for i, n := range sizes {
					dst := bm.Alloc(n)
					b.Recv(p, dst, 0, n)
					if !dst.Equal(byte(10+i), 0, n) {
						t.Errorf("message %d (%dB) corrupt", i, n)
					}
				}
			})
			if err := tb.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// SDP setup never runs the engine: the pair reads t = 0 with no event
// fired, and its only processes are the two progress threads, not yet run.
func TestSDPPairSetupLeavesClockAtZero(t *testing.T) {
	for _, kind := range cluster.VerbsKinds {
		tb, _, _ := NewSDPPair(kind, DefaultSDPConfig())
		if now := tb.Eng.Now(); now != 0 {
			t.Errorf("%v: clock reads %v after NewSDPPair, want 0", kind, now)
		}
		if e := tb.Eng.Metrics().Snapshot().Counters["sim.events_fired"]; e != 0 {
			t.Errorf("%v: NewSDPPair fired %d events, want none", kind, e)
		}
		if got := fmt.Sprint(tb.Eng.ProcNames()); got != "[sdp0/progress sdp1/progress]" {
			t.Errorf("%v: processes %s, want only the progress threads", kind, got)
		}
		tb.Close()
	}
}

func TestSDPLatencyNearVerbs(t *testing.T) {
	tb, a, b := NewSDPPair(cluster.IWARP, DefaultSDPConfig())
	defer tb.Close()
	lat := pingPong(t, tb.Eng, a, b, tb.Hosts[0].Mem, tb.Hosts[1].Mem, 64, 20)
	// SDP bcopy adds syscalls and a copy to the ~9.8us verbs latency but
	// must stay far below the ~15us kernel path.
	if lat < sim.Micros(10) || lat > sim.Micros(16) {
		t.Errorf("SDP/iWARP one-way latency = %v, want ~11-14us", lat)
	}
}

func TestSDPZcopyBandwidth(t *testing.T) {
	tb, a, b := NewSDPPair(cluster.IWARP, DefaultSDPConfig())
	defer tb.Close()
	bw := streamBW(t, tb.Eng, a, b, tb.Hosts[0].Mem, tb.Hosts[1].Mem, 1<<20, 16)
	// Zero-copy rides the RNIC: near the iWARP one-way ceiling, well above
	// what the copy-bound paths manage.
	if bw < 800 || bw > 1000 {
		t.Errorf("SDP zcopy bandwidth = %.0f MB/s, want ~850-950", bw)
	}
}

func TestSocketsLatencyOrdering(t *testing.T) {
	// The Ethernet-Ethernot story at the sockets API: host TCP slowest;
	// TOE cuts per-packet CPU; SDP bcopy close to TOE.
	e1 := sim.NewEngine()
	defer e1.Close()
	ha, hb := NewHostTCPPair(e1, DefaultHostTCPConfig())
	host := pingPong(t, e1, ha, hb, ha.(*hostTCP).mem, hb.(*hostTCP).mem, 64, 10)

	e2 := sim.NewEngine()
	defer e2.Close()
	ta, tb2 := NewTOEPair(e2, DefaultTOEConfig())
	toeLat := pingPong(t, e2, ta, tb2, ta.(*toe).mem, tb2.(*toe).mem, 64, 10)

	tb3, sa, sb := NewSDPPair(cluster.IWARP, DefaultSDPConfig())
	defer tb3.Close()
	sdpLat := pingPong(t, tb3.Eng, sa, sb, tb3.Hosts[0].Mem, tb3.Hosts[1].Mem, 64, 10)

	if !(toeLat < host && sdpLat < host) {
		t.Errorf("ordering violated: host=%v toe=%v sdp=%v", host, toeLat, sdpLat)
	}
}

// TestSDPBcopyBacklogKeepsBytes lets bcopy messages pile up past the
// private-buffer ring before the reader starts: every ring buffer is
// reposted and refilled while earlier messages still sit in it as views,
// so those views must freeze, and every message must arrive intact.
func TestSDPBcopyBacklogKeepsBytes(t *testing.T) {
	cfg := DefaultSDPConfig()
	tb, a, b := NewSDPPair(cluster.IWARP, cfg)
	defer tb.Close()
	am, bm := tb.Hosts[0].Mem, tb.Hosts[1].Mem
	const n = 1 << 10
	msgs := 3 * cfg.Credits
	tb.Eng.Go("tx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			src := am.Alloc(n)
			src.Fill(byte(i))
			a.Send(p, src, 0, n)
		}
	})
	tb.Eng.Go("rx", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond) // every message has arrived by now
		for i := 0; i < msgs; i++ {
			dst := bm.Alloc(n)
			b.Recv(p, dst, 0, n)
			if !dst.Equal(byte(i), 0, n) {
				t.Errorf("message %d corrupt", i)
			}
		}
	})
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	if tb.Eng.Metrics().Counter("mem.view_freezes").Value() == 0 {
		t.Error("no view froze: the backlog never outgrew the ring")
	}
}
