package sockets

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/sim"
)

// pingPong measures the one-way latency of a socket pair on tb.
func pingPong(t *testing.T, tb *cluster.Testbed, a, b Endpoint, size, iters int) sim.Time {
	t.Helper()
	bufA := tb.Hosts[0].Mem.Alloc(size)
	bufB := tb.Hosts[1].Mem.Alloc(size)
	bufA.Fill(3)
	var rtt sim.Time
	tb.Go(0, "side-a", func(p *sim.Proc) {
		for i := 0; i < 2+iters; i++ {
			if i == 2 {
				rtt = -p.Now()
			}
			a.Send(p, bufA, 0, size)
			a.Recv(p, bufA, 0, size)
		}
		rtt += p.Now()
	})
	tb.Go(1, "side-b", func(p *sim.Proc) {
		for i := 0; i < 2+iters; i++ {
			b.Recv(p, bufB, 0, size)
			b.Send(p, bufB, 0, size)
		}
	})
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	return rtt / sim.Time(2*iters)
}

// streamBW measures one-way streaming bandwidth in MB/s.
func streamBW(t *testing.T, tb *cluster.Testbed, a, b Endpoint, chunk, count int) float64 {
	t.Helper()
	bufA := tb.Hosts[0].Mem.Alloc(chunk)
	bufB := tb.Hosts[1].Mem.Alloc(chunk)
	bufA.Fill(1)
	var start, end sim.Time
	tb.Go(0, "tx", func(p *sim.Proc) {
		start = p.Now()
		for i := 0; i < count; i++ {
			a.Send(p, bufA, 0, chunk)
		}
	})
	tb.Go(1, "rx", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			b.Recv(p, bufB, 0, chunk)
		}
		end = p.Now()
	})
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	return sim.MBpsOf(int64(chunk)*int64(count), end-start)
}

type namedPair struct {
	name string
	pair func() (*cluster.Testbed, Endpoint, Endpoint)
}

// tcpPairs returns the two TCP socket pairs' constructors.
func tcpPairs() []namedPair {
	return []namedPair{
		{"hostTCP", func() (*cluster.Testbed, Endpoint, Endpoint) { return NewHostTCPPair(DefaultHostTCPConfig()) }},
		{"toe", func() (*cluster.Testbed, Endpoint, Endpoint) { return NewTOEPair(DefaultTOEConfig()) }},
	}
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
	for _, st := range tcpPairs() {
		t.Run(st.name, func(t *testing.T) {
			tb, a, b := st.pair()
			defer tb.Close()
			const n = 32 << 10 // one socket-buffer chunk
			src := tb.Hosts[0].Mem.Alloc(n)
			dst := tb.Hosts[1].Mem.Alloc(n)
			src.Fill(7)
			tb.Go(0, "tx", func(p *sim.Proc) {
				a.Send(p, src, 0, n)
				src.Fill(99)
			})
			tb.Go(1, "rx", func(p *sim.Proc) {
				p.Sleep(sim.Millisecond) // the chunk is buffered by now
				b.Recv(p, dst, 0, n)
			})
			if err := tb.Run(); err != nil {
				t.Fatal(err)
			}
			if !dst.Equal(7, 0, n) {
				t.Error("receiver saw bytes written after Send returned")
			}
			if got := tb.Eng.Metrics().Counter("mem.view_freezes").Value(); got != 1 {
				t.Errorf("mem.view_freezes = %d, want 1", got)
			}
		})
	}
}

func TestHostTCPDataIntegrity(t *testing.T) {
	tb, a, b := NewHostTCPPair(DefaultHostTCPConfig())
	defer tb.Close()
	const n = 200_000
	src := tb.Hosts[0].Mem.Alloc(n)
	dst := tb.Hosts[1].Mem.Alloc(n)
	src.Fill(7)
	tb.Go(0, "tx", func(p *sim.Proc) { a.Send(p, src, 0, n) })
	tb.Go(1, "rx", func(p *sim.Proc) { b.Recv(p, dst, 0, n) })
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(7, 0, n) {
		t.Error("host TCP corrupted the stream")
	}
}

func TestHostTCPLatencyRange(t *testing.T) {
	tb, a, b := NewHostTCPPair(DefaultHostTCPConfig())
	defer tb.Close()
	lat := pingPong(t, tb, a, b, 64, 20)
	// Kernel TCP on 10GigE, 2006: ~12-20us one way.
	if lat < sim.Micros(10) || lat > sim.Micros(22) {
		t.Errorf("host TCP one-way latency = %v, want ~15us", lat)
	}
}

func TestHostTCPBandwidthCPUBound(t *testing.T) {
	tb, a, b := NewHostTCPPair(DefaultHostTCPConfig())
	defer tb.Close()
	bw := streamBW(t, tb, a, b, 64<<10, 64)
	// Far below line rate: the CPU checksum+copy pass is the bottleneck.
	if bw < 230 || bw > 700 {
		t.Errorf("host TCP stream bandwidth = %.0f MB/s, want ~250-650 (CPU bound)", bw)
	}
}

func TestTOEFasterThanHostTCP(t *testing.T) {
	tb1, ha, hb := NewHostTCPPair(DefaultHostTCPConfig())
	defer tb1.Close()
	hostLat := pingPong(t, tb1, ha, hb, 64, 20)
	hostBW := streamBW(t, tb1, ha, hb, 64<<10, 64)

	tb2, ta, tbEnd := NewTOEPair(DefaultTOEConfig())
	defer tb2.Close()
	toeLat := pingPong(t, tb2, ta, tbEnd, 64, 20)
	toeBW := streamBW(t, tb2, ta, tbEnd, 64<<10, 64)

	if toeLat >= hostLat {
		t.Errorf("TOE latency (%v) not below host TCP (%v)", toeLat, hostLat)
	}
	if toeBW <= hostBW*12/10 {
		t.Errorf("TOE bandwidth (%.0f) not well above host TCP (%.0f)", toeBW, hostBW)
	}
}

func TestTOEDataIntegrity(t *testing.T) {
	tb, a, b := NewTOEPair(DefaultTOEConfig())
	defer tb.Close()
	const n = 500_000
	src := tb.Hosts[0].Mem.Alloc(n)
	dst := tb.Hosts[1].Mem.Alloc(n)
	src.Fill(5)
	tb.Go(0, "tx", func(p *sim.Proc) { a.Send(p, src, 0, n) })
	tb.Go(1, "rx", func(p *sim.Proc) { b.Recv(p, dst, 0, n) })
	if err := tb.Run(); err != nil {
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
// fired and no process started (the progress engines are event handlers).
func TestSDPPairSetupLeavesClockAtZero(t *testing.T) {
	for _, kind := range cluster.VerbsKinds {
		tb, _, _ := NewSDPPair(kind, DefaultSDPConfig())
		if now := tb.Eng.Now(); now != 0 {
			t.Errorf("%v: clock reads %v after NewSDPPair, want 0", kind, now)
		}
		if e := tb.Eng.Metrics().Snapshot().Counters["sim.events_fired"]; e != 0 {
			t.Errorf("%v: NewSDPPair fired %d events, want none", kind, e)
		}
		if n := tb.Eng.LiveProcs(); n != 0 {
			t.Errorf("%v: processes %v after NewSDPPair, want none", kind, tb.Eng.ProcNames())
		}
		tb.Close()
	}
}

func TestSDPLatencyNearVerbs(t *testing.T) {
	tb, a, b := NewSDPPair(cluster.IWARP, DefaultSDPConfig())
	defer tb.Close()
	lat := pingPong(t, tb, a, b, 64, 20)
	// SDP bcopy adds syscalls and a copy to the ~9.8us verbs latency but
	// must stay far below the ~15us kernel path.
	if lat < sim.Micros(10) || lat > sim.Micros(16) {
		t.Errorf("SDP/iWARP one-way latency = %v, want ~11-14us", lat)
	}
}

func TestSDPZcopyBandwidth(t *testing.T) {
	tb, a, b := NewSDPPair(cluster.IWARP, DefaultSDPConfig())
	defer tb.Close()
	bw := streamBW(t, tb, a, b, 1<<20, 16)
	// Zero-copy rides the RNIC: near the iWARP one-way ceiling, well above
	// what the copy-bound paths manage.
	if bw < 800 || bw > 1000 {
		t.Errorf("SDP zcopy bandwidth = %.0f MB/s, want ~850-950", bw)
	}
}

func TestSocketsLatencyOrdering(t *testing.T) {
	// The Ethernet-Ethernot story at the sockets API: host TCP slowest;
	// TOE cuts per-packet CPU; SDP bcopy close to TOE.
	tb1, ha, hb := NewHostTCPPair(DefaultHostTCPConfig())
	defer tb1.Close()
	host := pingPong(t, tb1, ha, hb, 64, 10)

	tb2, ta, tbEnd := NewTOEPair(DefaultTOEConfig())
	defer tb2.Close()
	toeLat := pingPong(t, tb2, ta, tbEnd, 64, 10)

	tb3, sa, sb := NewSDPPair(cluster.IWARP, DefaultSDPConfig())
	defer tb3.Close()
	sdpLat := pingPong(t, tb3, sa, sb, 64, 10)

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

// socketPairs returns every socket pair's constructor, named as the
// counter goldens key them: the two TCP pairs and SDP over each verbs stack.
func socketPairs() []namedPair {
	pairs := []namedPair{
		{"TCP/host", tcpPairs()[0].pair},
		{"TCP/TOE", tcpPairs()[1].pair},
	}
	for _, kind := range cluster.VerbsKinds {
		kind := kind
		pairs = append(pairs, namedPair{"SDP/" + kind.String(), func() (*cluster.Testbed, Endpoint, Endpoint) {
			return NewSDPPair(kind, DefaultSDPConfig())
		}})
	}
	return pairs
}

// TestSocketPairCountersGolden pins every exact counter of the TCP/host,
// TOE, SDP/iWARP and SDP/IB pairs: a 1 KiB ping-pong and a 16 x 64 KiB
// stream (zero-copy on SDP), each on a fresh pair, must leave the world's
// metrics snapshot equal to testdata/pair-counters.json. A change that
// should not move the stacks' work keeps the file as is, except for the
// process counters and the start events it explains. The stacks run as
// event handlers, so each world also ends with its programs: no process
// is left once the workload is done.
func TestSocketPairCountersGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/pair-counters.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	workloads := []struct {
		name string
		run  func(tb *cluster.Testbed, a, b Endpoint)
	}{
		{"pingpong-1k", func(tb *cluster.Testbed, a, b Endpoint) { pingPong(t, tb, a, b, 1<<10, 20) }},
		{"stream-64k", func(tb *cluster.Testbed, a, b Endpoint) { streamBW(t, tb, a, b, 64<<10, 16) }},
	}
	for _, st := range socketPairs() {
		for _, w := range workloads {
			tb, a, b := st.pair()
			w.run(tb, a, b)
			if n := tb.Eng.LiveProcs(); n != 0 {
				t.Errorf("%s %s: %d processes live after the run: %v", st.name, w.name, n, tb.Eng.ProcNames())
			}
			got, err := json.Marshal(tb.Eng.Metrics().Snapshot())
			tb.Close()
			if err != nil {
				t.Fatal(err)
			}
			want, ok := golden[st.name][w.name]
			if !ok {
				t.Fatalf("%s %s: no golden snapshot", st.name, w.name)
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, compact.Bytes()) {
				t.Errorf("%s %s: counters moved\n got %s\nwant %s", st.name, w.name, got, compact.Bytes())
			}
		}
	}
}

// SDP learns of zero-copy arrival from its own WrCompl message, so its
// queue pairs keep no Placements log: after a zero-copy stream the log of
// either side is empty.
func TestSDPKeepsNoPlacementLog(t *testing.T) {
	for _, kind := range cluster.VerbsKinds {
		tb, a, b := NewSDPPair(kind, DefaultSDPConfig())
		streamBW(t, tb, a, b, 1<<20, 9)
		for _, ep := range []Endpoint{a, b} {
			if n := ep.(*sdp).qp.Placements().Len(); n != 0 {
				t.Errorf("%v %s: %d placements logged", kind, ep.(*sdp).name, n)
			}
		}
		tb.Close()
	}
}
