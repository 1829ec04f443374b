package faults

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// EngineStaller is implemented by NIC models whose protocol engine can be
// frozen for a stretch of virtual time (the iWARP RNIC and the IB HCA; the
// MX endpoint model has no modeled engine occupancy to stall).
type EngineStaller interface {
	// StallEngines makes the NIC's protocol engine(s) unavailable for d
	// virtual time starting now. In-flight work finishes; new work waits.
	StallEngines(d sim.Time)
}

// defaultCongestPeriod is the tick granularity of congestion clauses that
// do not set one: short enough to interleave with MTU-sized frames, long
// enough to keep the event count modest.
const defaultCongestPeriod = 10 * sim.Microsecond

// frameClause is one compiled frame-level clause (loss, burst-loss,
// corrupt, drop-mode flap) with one private RNG stream and Gilbert–Elliott
// burst state per SOURCE port (rngs/bads, indexed by f.Src). Frames from
// one port are always filtered on that port's shard in its deterministic
// send order, so each per-port draw sequence — and therefore the whole
// run — is identical however the world is sharded.
type frameClause struct {
	cl   Clause
	rngs []*sim.RNG
	bads []bool // burst state: true while the port's stream is in the bad state
}

// activeAt reports whether the clause window covers virtual time t.
func (fc *frameClause) activeAt(t sim.Time) bool {
	return t >= fc.cl.From.T() && (fc.cl.Until == 0 || t < fc.cl.Until.T())
}

// matches reports whether the clause scopes onto frame f.
func (fc *frameClause) matches(f *fabric.Frame) bool {
	if fc.cl.Kind == KindFlap {
		// A downed link loses traffic in both directions through the port.
		return fc.cl.Port == -1 || int(f.Src) == fc.cl.Port || int(f.Dst) == fc.cl.Port
	}
	return (fc.cl.Src == -1 || int(f.Src) == fc.cl.Src) &&
		(fc.cl.Dst == -1 || int(f.Dst) == fc.cl.Dst)
}

// Injector is a compiled scenario attached to a network. It owns the
// DropFn chain link for frame-level clauses and the scheduled events that
// drive link and NIC clauses.
type Injector struct {
	eng   *sim.Engine
	net   *fabric.Network
	sc    *Scenario
	frame []*frameClause

	// per[s] is shard s's private accounting. Each entry is only touched
	// from its own shard's goroutine; totals are summed at barriers, when
	// no worker runs.
	per []shardCtrs
}

// shardCtrs is one shard's fault accounting. The counters are registered
// on the shard engine's registry; registries dedup by name, so every shard
// reports under the same metric names.
type shardCtrs struct {
	dropped, corrupted int64

	cDropped, cCorrupted, cFlaps, cCongest, cNICStalls, cRateChanges *metrics.Counter
}

// Attach compiles the scenario and hooks it into the network (and, for
// nic-stall clauses, the per-port NIC engine models: nics[i] belongs to
// node i; nil entries mark hosts whose NIC cannot stall). A nil or empty
// scenario attaches nothing at all — no DropFn, no events, no metric
// registrations — so the run stays bit-identical to an un-faulted build;
// Attach then returns (nil, nil), and every Injector method is nil-safe.
func Attach(net *fabric.Network, nics []EngineStaller, sc *Scenario) (*Injector, error) {
	if sc.Empty() {
		return nil, nil
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	eng := net.Engine()
	inj := &Injector{eng: eng, net: net, sc: sc}
	inj.per = make([]shardCtrs, net.ShardCount())
	for s := range inj.per {
		reg := net.ShardEngine(s).Metrics()
		inj.per[s] = shardCtrs{
			cDropped:     reg.Counter("faults.frames_dropped"),
			cCorrupted:   reg.Counter("faults.frames_corrupted"),
			cFlaps:       reg.Counter("faults.link_flaps"),
			cCongest:     reg.Counter("faults.congest_stalls"),
			cNICStalls:   reg.Counter("faults.nic_stalls"),
			cRateChanges: reg.Counter("faults.rate_changes"),
		}
	}

	for i, cl := range sc.Clauses {
		if err := inj.checkScope(i, cl, nics); err != nil {
			return nil, err
		}
		switch cl.Kind {
		case KindLoss, KindBurstLoss, KindCorrupt:
			inj.frame = append(inj.frame, inj.compileFrame(cl, i))
		case KindFlap:
			if cl.Drop {
				inj.frame = append(inj.frame, inj.compileFrame(cl, i))
			} else {
				inj.scheduleFlap(cl)
			}
			inj.scheduleFlapMarks(cl)
		case KindRate:
			inj.scheduleRate(cl)
		case KindCongest:
			inj.scheduleCongest(cl)
		case KindNICStall:
			inj.scheduleNICStall(cl, nics)
		}
	}
	if len(inj.frame) > 0 {
		prev := net.DropFn
		net.DropFn = func(f *fabric.Frame) bool {
			if prev != nil && prev(f) {
				return true
			}
			return inj.filter(f)
		}
	}
	return inj, nil
}

// portClauseRNG derives the stream for (clause i, source port p): the
// scenario seed mixed with the clause index through the SplitMix64 golden
// increment and with the port index through SplitMix64's second mixing
// constant, so reordering unrelated clauses never correlates their draws
// and clause and port dimensions stay independently decorrelated.
func portClauseRNG(seed uint64, i, p int) *sim.RNG {
	return sim.NewRNG(seed + 0x9E3779B97F4A7C15*uint64(i+1) + 0xBF58476D1CE4E5B9*uint64(p+1))
}

// compileFrame builds the compiled clause with its per-source-port streams
// (see the frameClause doc for the determinism argument).
func (inj *Injector) compileFrame(cl Clause, i int) *frameClause {
	nPorts := inj.net.Ports()
	fc := &frameClause{cl: cl, rngs: make([]*sim.RNG, nPorts), bads: make([]bool, nPorts)}
	for p := range fc.rngs {
		fc.rngs[p] = portClauseRNG(inj.sc.Seed, i, p)
	}
	return fc
}

// checkScope validates the clause's port references against the attached
// network and NIC list (the part of validation Validate cannot do).
func (inj *Injector) checkScope(i int, cl Clause, nics []EngineStaller) error {
	nPorts := inj.net.Ports()
	checkPort := func(name string, v int) error {
		if v != -1 && (v < 0 || v >= nPorts) {
			return fmt.Errorf("faults: clause %d (%s): %s %d outside the %d-port network", i, cl.Kind, name, v, nPorts)
		}
		return nil
	}
	if err := checkPort("src", cl.Src); err != nil {
		return err
	}
	if err := checkPort("dst", cl.Dst); err != nil {
		return err
	}
	if err := checkPort("port", cl.Port); err != nil {
		return err
	}
	if cl.Leaf != -1 {
		if inj.net.Topology() == nil {
			return fmt.Errorf("faults: clause %d (%s): trunk (leaf %d, spine %d) on a single-switch network", i, cl.Kind, cl.Leaf, cl.Spine)
		}
		if cl.Leaf >= inj.net.Leaves() || cl.Spine >= inj.net.Spines() {
			return fmt.Errorf("faults: clause %d (%s): trunk (leaf %d, spine %d) outside the %dx%d leaf-spine fabric",
				i, cl.Kind, cl.Leaf, cl.Spine, inj.net.Leaves(), inj.net.Spines())
		}
	}
	if cl.Kind == KindNICStall {
		if cl.Port == -1 {
			for _, s := range nics {
				if s != nil {
					return nil
				}
			}
			return fmt.Errorf("faults: clause %d (nic-stall): no stallable NIC attached", i)
		}
		if cl.Port >= len(nics) || nics[cl.Port] == nil {
			return fmt.Errorf("faults: clause %d (nic-stall): host %d has no stallable NIC engine", i, cl.Port)
		}
	}
	return nil
}

// targetPorts resolves a clause's Port field to concrete attachment points.
func (inj *Injector) targetPorts(port int) []*fabric.Port {
	if port != -1 {
		return []*fabric.Port{inj.net.Port(fabric.NodeID(port))}
	}
	ports := make([]*fabric.Port, inj.net.Ports())
	for i := range ports {
		ports[i] = inj.net.Port(fabric.NodeID(i))
	}
	return ports
}

// linkCtl is the stall/slowdown control surface shared by host ports and
// inter-switch trunks; flap and rate clauses drive either through it.
type linkCtl interface {
	StallUp(until sim.Time)
	StallDown(until sim.Time)
	SetSlowdown(factor float64)
}

// linkTarget pairs a control surface with the shard whose engine owns its
// state. Window events must execute on the owning shard: link
// stall/slowdown fields are read by that shard's event loop, and any other
// engine touching them would race.
type linkTarget struct {
	l     linkCtl
	shard int
}

// targetLinks resolves a flap/rate clause to the links it drives — the
// named trunk for trunk clauses, the host port(s) otherwise — with their
// owning shards.
func (inj *Injector) targetLinks(cl Clause) []linkTarget {
	if cl.Leaf != -1 {
		t := inj.net.Trunk(cl.Leaf, cl.Spine)
		return []linkTarget{{t, inj.net.TrunkShard(t)}}
	}
	ports := inj.targetPorts(cl.Port)
	out := make([]linkTarget, len(ports))
	for i, p := range ports {
		out[i] = linkTarget{p, inj.net.ShardOf(p.ID())}
	}
	return out
}

// home picks the shard that carries a clause's marks (trace instants and
// window counters): the named trunk's or port's owner, or shard 0 for
// network-wide clauses. The choice only routes observability to a stable
// engine — it does not affect simulated behavior — but fixing it
// deterministically keeps every shard's event stream identical across
// shard counts.
func (inj *Injector) home(cl Clause) int {
	if cl.Leaf != -1 {
		return inj.net.TrunkShard(inj.net.Trunk(cl.Leaf, cl.Spine))
	}
	if cl.Port != -1 {
		return inj.net.ShardOf(fabric.NodeID(cl.Port))
	}
	return 0
}

// linkAttrs names the clause's target in trace instants: port for host
// links, leaf+spine for trunks.
func linkAttrs(cl Clause) []trace.Attr {
	if cl.Leaf != -1 {
		return []trace.Attr{trace.I64("leaf", int64(cl.Leaf)), trace.I64("spine", int64(cl.Spine))}
	}
	return []trace.Attr{trace.I64("port", int64(cl.Port))}
}

// startAt clamps a clause timestamp to the current virtual time, so
// scenarios attached mid-run begin immediately rather than panicking on a
// past timestamp.
func (inj *Injector) startAt(d Duration) sim.Time {
	if t := d.T(); t > inj.eng.Now() {
		return t
	}
	return inj.eng.Now()
}

// scheduleFlap arranges a stall-mode flap: at From, both directions of the
// target link(s) — host ports or a leaf/spine trunk — become unavailable
// until Until. Lossless fabrics see this as link-level flow control
// holding the sender off; nothing is lost.
func (inj *Injector) scheduleFlap(cl Clause) {
	until := cl.Until.T()
	// One event per link, on the owning shard's engine.
	start := inj.startAt(cl.From)
	for _, lt := range inj.targetLinks(cl) {
		l := lt.l
		inj.net.ShardEngine(lt.shard).At(start, func() {
			l.StallUp(until)
			l.StallDown(until)
		})
	}
}

// scheduleFlapMarks emits the link-down / link-up trace instants and the
// flap counter for both flap modes, on the clause's home shard.
func (inj *Injector) scheduleFlapMarks(cl Clause) {
	attrs := linkAttrs(cl)
	home := inj.home(cl)
	eng, ctr := inj.net.ShardEngine(home), &inj.per[home]
	eng.At(inj.startAt(cl.From), func() {
		ctr.cFlaps.Inc()
		eng.Trc().Instant("faults", "link-down", append(attrs, trace.Bool("drop", cl.Drop))...)
	})
	eng.At(inj.startAt(cl.Until), func() {
		eng.Trc().Instant("faults", "link-up", attrs...)
	})
}

// scheduleRate degrades the target link(s) to cl.Rate of the configured
// line rate at From and restores full rate at Until (when closed).
func (inj *Injector) scheduleRate(cl Clause) {
	attrs := linkAttrs(cl)
	factor := cl.Rate
	// Slowdown writes land on each link's owning shard; the mark and
	// counter land once, on the clause's home shard.
	start, stop := inj.startAt(cl.From), inj.startAt(cl.Until)
	for _, lt := range inj.targetLinks(cl) {
		l := lt.l
		eng := inj.net.ShardEngine(lt.shard)
		eng.At(start, func() { l.SetSlowdown(factor) })
		if cl.Until != 0 {
			eng.At(stop, func() { l.SetSlowdown(1) })
		}
	}
	home := inj.home(cl)
	eng, ctr := inj.net.ShardEngine(home), &inj.per[home]
	eng.At(start, func() {
		ctr.cRateChanges.Inc()
		eng.Trc().Instant("faults", "rate-degrade", append(attrs, trace.F64("factor", factor))...)
	})
	if cl.Until != 0 {
		eng.At(stop, func() {
			ctr.cRateChanges.Inc()
			eng.Trc().Instant("faults", "rate-restore", attrs...)
		})
	}
}

// scheduleCongest ticks every Period during the window, occupying
// share*Period of the switch egress link toward the target port(s) — the
// backpressure signature of cross-traffic the simulation does not model
// frame-by-frame.
func (inj *Injector) scheduleCongest(cl Clause) {
	period := cl.Period.T()
	if period == 0 {
		period = defaultCongestPeriod
	}
	occupy := sim.Time(float64(period) * cl.Rate)
	until := cl.Until.T()
	// One independent tick chain per target port, on the port's owning
	// shard; the counter ticks once per port per period.
	for _, p := range inj.targetPorts(cl.Port) {
		p := p
		shard := inj.net.ShardOf(p.ID())
		eng, ctr := inj.net.ShardEngine(shard), &inj.per[shard]
		var tick func()
		tick = func() {
			now := eng.Now()
			p.StallDown(now + occupy)
			ctr.cCongest.Inc()
			if next := now + period; next < until {
				eng.At(next, tick)
			} else {
				eng.Trc().Instant("faults", "congest-end", trace.I64("port", int64(p.ID())))
			}
		}
		eng.At(inj.startAt(cl.From), func() {
			eng.Trc().Instant("faults", "congest-begin", trace.I64("port", int64(p.ID())), trace.F64("share", cl.Rate))
			tick()
		})
	}
}

// scheduleNICStall freezes the target NIC engine(s) for Stall every Period
// during the window; with Period zero it fires exactly once at From.
func (inj *Injector) scheduleNICStall(cl Clause, nics []EngineStaller) {
	stall := cl.Stall.T()
	period := cl.Period.T()
	until := cl.Until.T()
	// One chain per NIC on its host's shard: StallEngines mutates NIC model
	// state the host's engine reads on every operation.
	for i, s := range nics {
		if s == nil || (cl.Port != -1 && i != cl.Port) {
			continue
		}
		s := s
		shard := inj.net.ShardOf(fabric.NodeID(i))
		eng, ctr := inj.net.ShardEngine(shard), &inj.per[shard]
		port := int64(i)
		var tick func()
		tick = func() {
			s.StallEngines(stall)
			ctr.cNICStalls.Inc()
			eng.Trc().Instant("faults", "nic-stall", trace.I64("port", port), trace.I64("stall_ps", int64(stall)))
			if period == 0 {
				return
			}
			if next := eng.Now() + period; next < until {
				eng.At(next, tick)
			}
		}
		eng.At(inj.startAt(cl.From), tick)
	}
}

// filter is the compiled frame-level pipeline, consulted from the
// network's DropFn for every frame. Clauses run in scenario order; the
// first drop wins (later clauses then see no frame, mirroring a real wire
// where a frame lost upstream never reaches downstream impairments).
// On a sharded network the filter runs concurrently on every source
// shard's goroutine; all state it touches is keyed by f.Src (per-port RNG
// streams, per-port burst state, the source shard's counters), which only
// that shard's events reach.
func (inj *Injector) filter(f *fabric.Frame) bool {
	shard := inj.net.ShardOf(f.Src)
	eng := inj.net.ShardEngine(shard)
	now := eng.Now()
	for _, fc := range inj.frame {
		if !fc.activeAt(now) || !fc.matches(f) {
			continue
		}
		rng, bad := fc.rngs[f.Src], &fc.bads[f.Src]
		switch fc.cl.Kind {
		case KindLoss:
			if rng.Float64() < fc.cl.Rate {
				inj.drop(eng, shard, f, "loss")
				return true
			}
		case KindBurstLoss:
			if *bad {
				if rng.Float64() < fc.cl.PGood {
					*bad = false
				}
			} else {
				if rng.Float64() < fc.cl.PBad {
					*bad = true
				}
			}
			p := fc.cl.LossGood
			if *bad {
				p = fc.cl.LossBad
			}
			if p > 0 && rng.Float64() < p {
				inj.drop(eng, shard, f, "burst-loss")
				return true
			}
		case KindCorrupt:
			if !f.Corrupt && rng.Float64() < fc.cl.Rate {
				f.Corrupt = true
				ctr := &inj.per[shard]
				ctr.corrupted++
				ctr.cCorrupted.Inc()
				if tr := eng.Trc(); tr.Enabled() {
					tr.Instant("faults", "corrupt", trace.I64("src", int64(f.Src)), trace.I64("dst", int64(f.Dst)), trace.I64("bytes", int64(f.Bytes)))
				}
			}
		case KindFlap: // drop mode: the window check above is the fault
			inj.drop(eng, shard, f, "flap-drop")
			return true
		}
	}
	return false
}

// drop accounts one injected frame loss against the filtering shard.
func (inj *Injector) drop(eng *sim.Engine, shard int, f *fabric.Frame, why string) {
	ctr := &inj.per[shard]
	ctr.dropped++
	ctr.cDropped.Inc()
	if tr := eng.Trc(); tr.Enabled() {
		tr.Instant("faults", "drop",
			trace.Str("why", why), trace.I64("src", int64(f.Src)), trace.I64("dst", int64(f.Dst)), trace.I64("bytes", int64(f.Bytes)))
	}
}

// Dropped returns the number of frames this injector has dropped, summed
// over shards. Call it only while no shard is running (the usual spot is
// after Run returns).
func (inj *Injector) Dropped() int64 {
	if inj == nil {
		return 0
	}
	var n int64
	for i := range inj.per {
		n += inj.per[i].dropped
	}
	return n
}

// Corrupted returns the number of frames this injector has marked corrupt,
// summed over shards (same caveat as Dropped).
func (inj *Injector) Corrupted() int64 {
	if inj == nil {
		return 0
	}
	var n int64
	for i := range inj.per {
		n += inj.per[i].corrupted
	}
	return n
}
