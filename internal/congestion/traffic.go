package congestion

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Shape selects a background-traffic pattern. All shapes are classic
// multi-tenant interference patterns from the congestion-characterization
// literature (see PAPERS.md): what differs is *where* the queues build.
type Shape int

const (
	// Permutation: every port streams to one fixed pseudo-random partner
	// (a rotation derived from the seed). Uniform pressure; on an
	// oversubscribed topology the queues build on the trunks.
	Permutation Shape = iota

	// Hotspot: every port streams to one fixed victim port. The victim's
	// switch->endpoint line saturates; everyone sharing it suffers.
	Hotspot

	// Incast: every port storms the current victim, and the victim rotates
	// every Epoch — bursty many-to-one pile-ups that sweep the fabric.
	Incast

	// Outcast: one speaker (rotating every Epoch) bursts one frame to
	// every other port per tick, overloading its own uplink and spraying
	// all spines at once.
	Outcast
)

// String names the shape for flags, figure series and error messages.
func (s Shape) String() string {
	switch s {
	case Permutation:
		return "permutation"
	case Hotspot:
		return "hotspot"
	case Incast:
		return "incast"
	case Outcast:
		return "outcast"
	default:
		return fmt.Sprintf("shape(%d)", int(s))
	}
}

// ParseShape parses a shape name as produced by String.
func ParseShape(s string) (Shape, error) {
	switch s {
	case "permutation":
		return Permutation, nil
	case "hotspot":
		return Hotspot, nil
	case "incast":
		return Incast, nil
	case "outcast":
		return Outcast, nil
	}
	return 0, fmt.Errorf("unknown traffic shape %q (permutation, hotspot, incast, outcast)", s)
}

// TrafficConfig parameterizes a background-traffic run.
type TrafficConfig struct {
	Shape Shape

	// Load is the per-source offered load as a fraction of line rate in
	// (0, 1]. Storm shapes concentrate it: a hotspot victim's egress line
	// sees (ports-1) * Load.
	Load float64

	// FrameBytes is the payload size of each background frame (default
	// 1024, a mid-size frame that builds queues without dominating them).
	FrameBytes int

	// Seed drives every random decision. Same seed, same topology → the
	// exact same offered frame sequence, at any -j and -shards.
	Seed uint64

	// Epoch is the victim/speaker rotation period for Incast and Outcast
	// (default 100 us). Ignored by the static shapes.
	Epoch sim.Time
}

// flowBase keeps background flow ids clear of real transport connection
// ids, so ECMP spreads cross-traffic independently of the workload's flows.
const flowBase = 1 << 20

// Traffic is a set of per-port background generators attached to one
// fabric. Each port runs an independent self-rescheduling tick chain on the
// engine that owns the port (its shard in a sharded world), drawing from a
// per-port RNG stream — no cross-shard events, no shared state, which is
// what keeps sharded runs byte-identical.
type Traffic struct {
	net *fabric.Network
	cfg TrafficConfig

	shift   int // permutation rotation, fixed per run
	hot     int // hotspot victim, fixed per run
	sources []*source
}

// source is one port's generator.
type source struct {
	t       *Traffic
	port    *fabric.Port
	eng     *sim.Engine
	rng     *sim.RNG
	gap     sim.Time // mean inter-tick time at the configured load
	stopped bool
	sent    int64
	tickFn  func(any)
}

// splitmix is the SplitMix64 finalizer: a cheap, well-mixed hash for
// deriving independent decisions (victim rotations, per-port seeds) from
// the run seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Start attaches background generators to every port of the network and
// schedules their first ticks (phase-offset per port so sources do not beat
// in lockstep). Call it during setup, after every endpoint has attached —
// and after Network.Shard in sharded worlds, so ticks land on the owning
// shard's engine.
//
// The chains run until stopped: every port's generator must be stopped (see
// Stop) or the simulation never goes idle. The convention in the benchmarks
// is that rank r stops port r's generator when its collective completes —
// rank and generator share a shard by construction, and per-port stop times
// make the whole event history independent of the shard count.
func Start(n *fabric.Network, cfg TrafficConfig) *Traffic {
	if cfg.Load <= 0 || cfg.Load > 1 {
		panic(fmt.Sprintf("congestion: load %v outside (0, 1]", cfg.Load))
	}
	if cfg.FrameBytes == 0 {
		cfg.FrameBytes = 1024
	}
	if cfg.FrameBytes < 0 {
		panic(fmt.Sprintf("congestion: frame bytes %d", cfg.FrameBytes))
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 100 * sim.Microsecond
	}
	if cfg.Epoch < 0 {
		panic(fmt.Sprintf("congestion: epoch %v", cfg.Epoch))
	}
	ports := n.Ports()
	if ports < 2 {
		panic(fmt.Sprintf("congestion: %d ports; background traffic needs at least 2", ports))
	}
	t := &Traffic{
		net:     n,
		cfg:     cfg,
		shift:   1 + int(splitmix(cfg.Seed)%uint64(ports-1)),
		hot:     int(splitmix(cfg.Seed^0xb0a751c0) % uint64(ports)),
		sources: make([]*source, ports),
	}
	base := sim.Time(float64(n.TxTime(cfg.FrameBytes)) / cfg.Load)
	for p := 0; p < ports; p++ {
		s := &source{
			t:    t,
			port: n.Port(fabric.NodeID(p)),
			eng:  n.PortEngine(fabric.NodeID(p)),
			rng:  sim.NewRNG(splitmix(cfg.Seed + uint64(p)*0x9e3779b97f4a7c15)),
			gap:  base,
		}
		s.tickFn = t.tick
		t.sources[p] = s
		// Random phase in [0, gap): sources start spread across one period.
		s.eng.AtArg(s.eng.Now()+sim.Time(s.rng.Float64()*float64(base)), s.tickFn, s)
	}
	return t
}

// Config returns the generator configuration.
func (t *Traffic) Config() TrafficConfig { return t.cfg }

// Stop halts the given port's generator: its pending tick fires, sees the
// flag and does not reschedule. Must be called from the engine that owns
// the port (in the benchmarks: by the rank running on that port). Stopping
// per port — not per shard — is what keeps stop times, and therefore the
// entire background frame sequence, invariant across shard counts.
func (t *Traffic) Stop(p fabric.NodeID) { t.sources[p].stopped = true }

// FramesSent returns the total background frames offered to the fabric.
// Read it only after the run is quiescent (counters are per-shard state).
func (t *Traffic) FramesSent() int64 {
	var total int64
	for _, s := range t.sources {
		total += s.sent
	}
	return total
}

// victimAt returns the rotating victim/speaker for the epoch containing
// now — a pure function of (seed, now), identical on every shard.
func (t *Traffic) victimAt(now sim.Time) int {
	epoch := uint64(now / t.cfg.Epoch)
	return int(splitmix(t.cfg.Seed^(epoch+1)*0x632be59b) % uint64(len(t.sources)))
}

// tick runs one generator beat: choose targets by shape, send, reschedule.
// It is the AtArg callback bound once per source.
func (t *Traffic) tick(v any) {
	s := v.(*source)
	if s.stopped {
		return
	}
	now := s.eng.Now()
	p := int(s.port.ID())
	n := len(t.sources)
	switch t.cfg.Shape {
	case Permutation:
		t.send(s, (p+t.shift)%n)
	case Hotspot:
		if p != t.hot {
			t.send(s, t.hot)
		}
	case Incast:
		if victim := t.victimAt(now); p != victim {
			t.send(s, victim)
		}
	case Outcast:
		if p == t.victimAt(now) {
			for d := 0; d < n; d++ {
				if d != p {
					t.send(s, d)
				}
			}
		}
	default:
		panic(fmt.Sprintf("congestion: shape %v", t.cfg.Shape))
	}
	// Jittered reschedule: uniform in [0.5, 1.5) of the base gap, mean
	// exactly the configured load. Consumed every tick — including idle
	// ones — so each port's RNG stream depends only on its own history.
	g := sim.Time((0.5 + s.rng.Float64()) * float64(s.gap))
	s.eng.AtArg(now+g, s.tickFn, s)
}

// send offers one background frame to the fabric.
func (t *Traffic) send(s *source, dst int) {
	f := &fabric.Frame{
		Src:        s.port.ID(),
		Dst:        fabric.NodeID(dst),
		Bytes:      t.cfg.FrameBytes,
		Flow:       flowBase + int(s.port.ID()),
		Background: true,
	}
	s.port.Send(f)
	s.sent++
}
