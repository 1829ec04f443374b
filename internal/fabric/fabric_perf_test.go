package fabric

import (
	"testing"

	"repro/internal/sim"
)

// These tests are the dynamic twins of the //simlint:noalloc annotations on
// Port.Send, the hop pipeline (arrive, drain) and Network.deliver: with
// tracing off and no DropFn installed, the per-frame port and trunk paths
// must not allocate.
// The static analyzer pins the call trees so a new allocation fails `make
// lint` in the file that introduced it; these tests prove the claim holds at
// run time, free list and heap included.

// countSink counts deliveries without retaining the frame, so the endpoint
// side of the cycle cannot allocate either.
type countSink struct{ delivered int }

func (s *countSink) Deliver(f *Frame) { s.delivered++ }

func perfConfig() Config {
	return Config{
		Name:          "perf",
		LinkRate:      sim.Gbps(10),
		HeaderBytes:   64,
		SwitchLatency: 100 * sim.Nanosecond,
		PropDelay:     25 * sim.Nanosecond,
		CutThrough:    true,
	}
}

func TestPortSendZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	n := New(eng, perfConfig())
	snk := &countSink{}
	n.Attach(snk)
	n.Attach(snk)
	p0 := n.Port(0)
	f := &Frame{Src: 0, Dst: 1, Bytes: 1500}
	allocs := testing.AllocsPerRun(1000, func() {
		p0.Send(f)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("single-switch Send→deliver allocates %.1f objects/op, want 0", allocs)
	}
	if snk.delivered == 0 {
		t.Fatal("no frames delivered")
	}
}

func TestTrunkSendZeroAlloc(t *testing.T) {
	// Full-bisection two-leaf fabric; a cross-leaf frame takes the
	// leaf→spine→leaf trunk hops on every send.
	eng := sim.NewEngine()
	defer eng.Close()
	n := NewWithTopology(eng, perfConfig(), FatTree(2))
	snk := &countSink{}
	for i := 0; i < 4; i++ {
		n.Attach(snk)
	}
	p0 := n.Port(0)
	f := &Frame{Src: 0, Dst: 3, Bytes: 1500, Flow: 7}
	allocs := testing.AllocsPerRun(1000, func() {
		p0.Send(f)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cross-leaf Send→deliver allocates %.1f objects/op, want 0", allocs)
	}
	if snk.delivered == 0 {
		t.Fatal("no frames delivered")
	}
	if up, _ := n.Trunk(0, ecmpSpine(0, 3, 7, 2)).UpStats(); up == 0 {
		t.Fatal("frames did not cross the trunk")
	}
}
