package congestion

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// nullEndpoint satisfies fabric.Endpoint; background frames terminate at the
// fabric, so nothing should ever land here.
type nullEndpoint struct{ got int }

func (e *nullEndpoint) Deliver(f *fabric.Frame) { e.got++ }

// trafficNet builds an 8-port single-switch network at 1000 B/s.
func trafficNet(eng *sim.Engine, ports int) (*fabric.Network, []*nullEndpoint) {
	n := fabric.New(eng, fabric.Config{Name: "traffic-test", LinkRate: sim.Rate(1000)})
	eps := make([]*nullEndpoint, ports)
	for i := range eps {
		eps[i] = &nullEndpoint{}
		n.Attach(eps[i])
	}
	return n, eps
}

// runTraffic starts generators with the given config, lets them run until
// stopAt, stops every port, drains, and returns the Traffic plus a signature
// string that pins the whole run: frames offered, frames delivered, ECN
// marks, and the final virtual time (when the last in-flight event settled).
func runTraffic(t *testing.T, cfg TrafficConfig, stopAt sim.Time) (*Traffic, *fabric.Network, string) {
	t.Helper()
	eng := sim.NewEngine()
	n, eps := trafficNet(eng, 8)
	n.SetCongestion(fabric.CongestionConfig{ECNMarkBytes: 500})
	tr := Start(n, cfg)
	eng.Schedule(stopAt, func() {
		for p := 0; p < n.Ports(); p++ {
			tr.Stop(fabric.NodeID(p))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ep := range eps {
		if ep.got != 0 {
			t.Fatalf("endpoint %d received %d background frames; cross-traffic must terminate at the fabric", i, ep.got)
		}
	}
	sig := fmt.Sprintf("sent=%d bg=%d marks=%d end=%v",
		tr.FramesSent(), n.BackgroundDelivered(), n.ECNMarked(), eng.Now())
	return tr, n, sig
}

// TestTrafficDeterministicPerSeed: the same seed reproduces the exact same
// offered sequence, delivery count and end time; a different seed does not.
// This is the property the byte-identity CI check leans on.
func TestTrafficDeterministicPerSeed(t *testing.T) {
	cfg := TrafficConfig{Shape: Incast, Load: 0.5, FrameBytes: 100, Seed: 42, Epoch: 300 * sim.Millisecond}
	_, _, a := runTraffic(t, cfg, 2*sim.Second)
	tr, _, b := runTraffic(t, cfg, 2*sim.Second)
	if a != b {
		t.Errorf("same seed diverged:\n  %s\n  %s", a, b)
	}
	if tr.FramesSent() == 0 {
		t.Fatal("generators sent nothing")
	}
	cfg.Seed = 43
	_, _, c := runTraffic(t, cfg, 2*sim.Second)
	if a == c {
		t.Errorf("different seeds produced identical runs: %s", a)
	}
}

// TestHotspotShape: every port storms the fixed victim, and the victim
// itself stays silent — so after a run, exactly the victim's uplink carries
// zero frames.
func TestHotspotShape(t *testing.T) {
	cfg := TrafficConfig{Shape: Hotspot, Load: 0.5, FrameBytes: 100, Seed: 7}
	tr, n, _ := runTraffic(t, cfg, 2*sim.Second)
	for p := 0; p < n.Ports(); p++ {
		frames, _ := n.Port(fabric.NodeID(p)).UpLinkStats()
		if p == tr.hot {
			if frames != 0 {
				t.Errorf("victim port %d sent %d frames, want 0", p, frames)
			}
		} else if frames == 0 {
			t.Errorf("aggressor port %d sent nothing", p)
		}
	}
}

// TestPermutationShape: the rotation pairs every port with a distinct
// partner, so every uplink carries traffic.
func TestPermutationShape(t *testing.T) {
	cfg := TrafficConfig{Shape: Permutation, Load: 0.5, FrameBytes: 100, Seed: 7}
	tr, n, _ := runTraffic(t, cfg, 2*sim.Second)
	if tr.shift <= 0 || tr.shift >= n.Ports() {
		t.Fatalf("rotation shift %d outside (0, %d)", tr.shift, n.Ports())
	}
	for p := 0; p < n.Ports(); p++ {
		if frames, _ := n.Port(fabric.NodeID(p)).UpLinkStats(); frames == 0 {
			t.Errorf("port %d sent nothing under permutation", p)
		}
	}
}

// TestOutcastShape: only the epoch's speaker transmits, one frame to every
// other port per tick — so the offered total is a multiple of ports-1.
func TestOutcastShape(t *testing.T) {
	cfg := TrafficConfig{Shape: Outcast, Load: 0.3, FrameBytes: 100, Seed: 7, Epoch: 300 * sim.Millisecond}
	tr, n, _ := runTraffic(t, cfg, 2*sim.Second)
	if tr.FramesSent() == 0 {
		t.Fatal("no speaker ever fired")
	}
	if tr.FramesSent()%int64(n.Ports()-1) != 0 {
		t.Errorf("outcast sent %d frames, not a multiple of %d", tr.FramesSent(), n.Ports()-1)
	}
}

// TestVictimRotates: Incast's victim is a pure function of (seed, epoch) and
// actually rotates across epochs.
func TestVictimRotates(t *testing.T) {
	eng := sim.NewEngine()
	n, _ := trafficNet(eng, 8)
	tr := Start(n, TrafficConfig{Shape: Incast, Load: 0.5, Seed: 9, Epoch: 100 * sim.Microsecond})
	seen := map[int]bool{}
	for e := 0; e < 32; e++ {
		now := sim.Time(e) * 100 * sim.Microsecond
		v := tr.victimAt(now)
		if v != tr.victimAt(now+99*sim.Microsecond) {
			t.Fatalf("victim changed within epoch %d", e)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Errorf("victim never rotated across 32 epochs: %v", seen)
	}
	eng.Schedule(0, func() {
		for p := 0; p < n.Ports(); p++ {
			tr.Stop(fabric.NodeID(p))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTrafficConfigValidation pins Start's contract on bad configs.
func TestTrafficConfigValidation(t *testing.T) {
	mustPanic := func(name string, cfg TrafficConfig, ports int) {
		t.Helper()
		eng := sim.NewEngine()
		n, _ := trafficNet(eng, ports)
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		Start(n, cfg)
	}
	mustPanic("zero load", TrafficConfig{Shape: Hotspot}, 4)
	mustPanic("overload", TrafficConfig{Shape: Hotspot, Load: 1.5}, 4)
	mustPanic("negative frame", TrafficConfig{Shape: Hotspot, Load: 0.5, FrameBytes: -1}, 4)
	mustPanic("negative epoch", TrafficConfig{Shape: Incast, Load: 0.5, Epoch: -sim.Second}, 4)
	mustPanic("one port", TrafficConfig{Shape: Hotspot, Load: 0.5}, 1)
}
