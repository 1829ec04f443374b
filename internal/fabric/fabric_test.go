package fabric

import (
	"testing"

	"repro/internal/sim"
)

// sink collects delivered frames with their arrival times.
type sink struct {
	eng    *sim.Engine
	frames []*Frame
	times  []sim.Time
}

func (s *sink) Deliver(f *Frame) {
	s.frames = append(s.frames, f)
	s.times = append(s.times, s.eng.Now())
}

func testNet(eng *sim.Engine, cut bool) (*Network, []*sink) {
	cfg := Config{
		Name:          "test",
		LinkRate:      sim.Gbps(10), // 1.25 GB/s
		FrameOverhead: 0,
		HeaderBytes:   64,
		SwitchLatency: 100 * sim.Nanosecond,
		PropDelay:     25 * sim.Nanosecond,
		CutThrough:    cut,
	}
	n := New(eng, cfg)
	sinks := make([]*sink, 4)
	for i := range sinks {
		sinks[i] = &sink{eng: eng}
		n.Attach(sinks[i])
	}
	return n, sinks
}

func TestStoreAndForwardLatency(t *testing.T) {
	eng := sim.NewEngine()
	n, sinks := testNet(eng, false)
	port0 := n.portAt(0)
	// 1250 bytes at 1.25 GB/s = 1us serialization per hop.
	eng.Schedule(0, func() {
		port0.Send(&Frame{Src: 0, Dst: 1, Bytes: 1250})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sinks[1].frames) != 1 {
		t.Fatalf("delivered %d frames", len(sinks[1].frames))
	}
	// tx 1us + prop 25ns + switch 100ns + egress 1us + prop 25ns = 2.15us
	want := 2150 * sim.Nanosecond
	if got := sinks[1].times[0]; got != want {
		t.Errorf("arrival = %v, want %v", got, want)
	}
}

func TestCutThroughLatency(t *testing.T) {
	eng := sim.NewEngine()
	n, sinks := testNet(eng, true)
	port0 := n.portAt(0)
	eng.Schedule(0, func() {
		port0.Send(&Frame{Src: 0, Dst: 1, Bytes: 1250})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// header 64B = 51.2ns; ready = 51.2 + 25 + 100 = 176.2ns;
	// arrival = 176.2 + 1000 + 25 = 1201.2ns
	want := sim.Nanos(1201.2)
	if got := sinks[1].times[0]; got != want {
		t.Errorf("arrival = %v, want %v", got, want)
	}
}

func TestSmallFrameCutThroughUsesWholeFrame(t *testing.T) {
	eng := sim.NewEngine()
	n, sinks := testNet(eng, true)
	port0 := n.portAt(0)
	// 32-byte frame is smaller than HeaderBytes: forwarding waits only for
	// the 32 bytes that exist.
	eng.Schedule(0, func() {
		port0.Send(&Frame{Src: 0, Dst: 1, Bytes: 32})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 32B = 25.6ns; ready = 25.6+25+100 = 150.6; arrival = 150.6+25.6+25
	want := sim.Nanos(201.2)
	if got := sinks[1].times[0]; got != want {
		t.Errorf("arrival = %v, want %v", got, want)
	}
}

func TestSourceLinkSerialization(t *testing.T) {
	eng := sim.NewEngine()
	n, sinks := testNet(eng, false)
	port0 := n.portAt(0)
	eng.Schedule(0, func() {
		port0.Send(&Frame{Src: 0, Dst: 1, Bytes: 1250})
		port0.Send(&Frame{Src: 0, Dst: 2, Bytes: 1250})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Second frame starts serializing at 1us, arrives 1us later than first.
	if got, want := sinks[1].times[0], 2150*sim.Nanosecond; got != want {
		t.Errorf("first arrival = %v, want %v", got, want)
	}
	if got, want := sinks[2].times[0], 3150*sim.Nanosecond; got != want {
		t.Errorf("second arrival = %v, want %v", got, want)
	}
}

func TestOutputPortContention(t *testing.T) {
	eng := sim.NewEngine()
	n, sinks := testNet(eng, false)
	p0, p2 := n.portAt(0), n.portAt(2)
	eng.Schedule(0, func() {
		p0.Send(&Frame{Src: 0, Dst: 1, Bytes: 1250})
		p2.Send(&Frame{Src: 2, Dst: 1, Bytes: 1250})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sinks[1].frames) != 2 {
		t.Fatalf("delivered %d frames", len(sinks[1].frames))
	}
	// Both reach the switch at the same time; the second must wait for the
	// first to finish on the shared output port: exactly 1us later.
	if d := sinks[1].times[1] - sinks[1].times[0]; d != sim.Microsecond {
		t.Errorf("spacing = %v, want 1us", d)
	}
}

// A switch serves the frames contending for an output line in arrival
// order, not send order: a frame sent first but held on a stalled uplink
// must not book the egress line ahead of a frame that reaches the switch
// earlier. Frames arriving at the same instant go in source-port order,
// whatever order their senders ran in.
func TestEgressServesArrivalOrder(t *testing.T) {
	eng := sim.NewEngine()
	n, sinks := testNet(eng, false)
	p0, p2 := n.portAt(0), n.portAt(2)
	p2.StallUp(5 * sim.Microsecond)
	eng.Schedule(0, func() { p2.Send(&Frame{Src: 2, Dst: 1, Bytes: 1250}) })
	eng.Schedule(sim.Microsecond, func() { p0.Send(&Frame{Src: 0, Dst: 1, Bytes: 1250}) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sinks[1].frames) != 2 {
		t.Fatalf("delivered %d frames", len(sinks[1].frames))
	}
	// Port 0's frame: tx 1-2us, switch at 2.125us, egress 2.125-3.125us,
	// delivered at 3.15us, untouched by port 2's earlier send. Port 2's
	// frame: tx 5-6us, egress 6.125-7.125us, delivered at 7.15us.
	if f, at := sinks[1].frames[0], sinks[1].times[0]; f.Src != 0 || at != 3150*sim.Nanosecond {
		t.Errorf("first delivery: src %d at %v, want src 0 at 3.15us", f.Src, at)
	}
	if f, at := sinks[1].frames[1], sinks[1].times[1]; f.Src != 2 || at != 7150*sim.Nanosecond {
		t.Errorf("second delivery: src %d at %v, want src 2 at 7.15us", f.Src, at)
	}

	eng = sim.NewEngine()
	n, sinks = testNet(eng, false)
	p0, p2 = n.portAt(0), n.portAt(2)
	eng.Schedule(0, func() {
		p2.Send(&Frame{Src: 2, Dst: 1, Bytes: 1250})
		p0.Send(&Frame{Src: 0, Dst: 1, Bytes: 1250})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sinks[1].frames) != 2 || sinks[1].frames[0].Src != 0 {
		t.Fatalf("same-instant arrivals not served in source-port order: %d frames, first from %d",
			len(sinks[1].frames), sinks[1].frames[0].Src)
	}
}

func TestFrameOverheadCounted(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{
		Name:     "ovh",
		LinkRate: sim.Rate(1000), // 1000 B/s for easy math
	}
	cfg.FrameOverhead = 24
	n := New(eng, cfg)
	s := &sink{eng: eng}
	p := n.Attach(s)
	n.Attach(&sink{eng: eng})
	var txEnd sim.Time
	eng.Schedule(0, func() {
		txEnd = p.Send(&Frame{Src: 0, Dst: 1, Bytes: 976})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 976+24 = 1000 bytes at 1000 B/s = 1s on the wire.
	if txEnd != sim.Second {
		t.Errorf("txEnd = %v, want 1s", txEnd)
	}
	frames, bytes := p.UpLinkStats()
	if frames != 1 || bytes != 1000 {
		t.Errorf("uplink stats = %d frames, %d bytes", frames, bytes)
	}
}

func TestThroughputSaturatesLineRate(t *testing.T) {
	eng := sim.NewEngine()
	n, sinks := testNet(eng, true)
	p0 := n.portAt(0)
	const nframes = 1000
	const fsize = 9000
	eng.Schedule(0, func() {
		for i := 0; i < nframes; i++ {
			p0.Send(&Frame{Src: 0, Dst: 1, Bytes: fsize})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	last := sinks[1].times[len(sinks[1].times)-1]
	rate := sim.MBpsOf(nframes*fsize, last)
	if rate < 1240 || rate > 1255 {
		t.Errorf("goodput = %.1f MB/s, want ~1250", rate)
	}
}

func TestDropFn(t *testing.T) {
	eng := sim.NewEngine()
	n, sinks := testNet(eng, false)
	p0 := n.portAt(0)
	i := 0
	n.DropFn = func(f *Frame) bool {
		i++
		return i == 2 // drop the second frame
	}
	eng.Schedule(0, func() {
		for j := 0; j < 3; j++ {
			p0.Send(&Frame{Src: 0, Dst: 1, Bytes: 100, Payload: j})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sinks[1].frames) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(sinks[1].frames))
	}
	if sinks[1].frames[0].Payload != 0 || sinks[1].frames[1].Payload != 2 {
		t.Errorf("wrong frames survived: %v, %v", sinks[1].frames[0].Payload, sinks[1].frames[1].Payload)
	}
	if n.Dropped() != 1 || n.Delivered() != 2 {
		t.Errorf("dropped=%d delivered=%d", n.Dropped(), n.Delivered())
	}
}

func TestBadFramePanics(t *testing.T) {
	eng := sim.NewEngine()
	n, _ := testNet(eng, false)
	p0 := n.portAt(0)
	eng.Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("bad dst did not panic")
			}
		}()
		p0.Send(&Frame{Src: 0, Dst: 99, Bytes: 10})
	})
	eng.Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong src did not panic")
			}
		}()
		p0.Send(&Frame{Src: 3, Dst: 1, Bytes: 10})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// portAt gives tests access to ports by index.
func (n *Network) portAt(i int) *Port { return n.ports[i] }
