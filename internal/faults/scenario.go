// Package faults is the simulator's deterministic fault-injection and
// network-impairment subsystem. The paper measures three interconnects on a
// pristine testbed; this package lets every experiment re-run under the
// conditions real deployments live with — frame loss, bursty (Gilbert–
// Elliott) loss, frame corruption, link flaps, degraded link rates, switch
// output-port congestion and NIC protocol-engine stalls — without touching
// the models themselves.
//
// A Scenario is a declarative list of timed fault clauses plus one RNG seed.
// Attach compiles it into injectors hooked at existing layer boundaries:
// frame-level clauses ride fabric.Network.DropFn (the single frame-level
// attachment point), link clauses drive Port.StallUp/StallDown/SetSlowdown,
// and NIC clauses call StallEngines on the iWARP RNIC / IB HCA engine
// models. Everything is driven by virtual time and the seeded sim.RNG, so
// the determinism contract extends to faulted runs: same seed + same
// scenario => bit-identical virtual-time results, and a nil or empty
// scenario leaves the simulation bit-identical to a build without fault
// injection.
//
// Scenarios come from three places: the Go builder API in this file
// (faults.New(seed).Add(faults.Loss(0.01), ...)), a JSON file loaded by
// cmd/netbench -faults, and the degraded-mode benchmark drivers in
// internal/bench (cmd/figures -only faults). docs/faults.md documents the
// schema and the fault-kind catalog.
package faults

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Kind names one fault mechanism.
type Kind string

// The fault-kind catalog. docs/faults.md describes each in detail.
const (
	// KindLoss drops frames independently at Rate, scoped by Src/Dst.
	KindLoss Kind = "loss"
	// KindBurstLoss is a two-state Gilbert–Elliott loss process: per frame
	// the chain moves good->bad with probability PBad and bad->good with
	// probability PGood, then drops with probability LossGood or LossBad
	// depending on the state.
	KindBurstLoss Kind = "burst-loss"
	// KindCorrupt marks frames corrupt at Rate. The fabric still delivers
	// them; the iWARP RNIC rejects the FPDU on the MPA CRC and lets the
	// offloaded TCP recover. (The IB and MX models ignore the flag: their
	// link-level CRC retry is below the modeled layers.)
	KindCorrupt Kind = "corrupt"
	// KindFlap takes the link of node Port down for [From, Until). By
	// default the link pauses (lossless fabrics backpressure the sender);
	// with Drop set, frames sent into the window are lost instead (an
	// Ethernet cable pull), leaving recovery to the transport.
	KindFlap Kind = "flap"
	// KindRate degrades the link of node Port to Rate * LinkRate (a
	// renegotiated slower lane, a failing SerDes) during [From, Until).
	KindRate Kind = "rate"
	// KindCongest occupies a Rate share of the switch egress link toward
	// node Port during [From, Until), in slices of Period: cross-traffic
	// from senders outside the simulated cluster (the incast/hotspot
	// companion of the paper's pristine switch).
	KindCongest Kind = "congest"
	// KindNICStall freezes the protocol engine of host Port's NIC for
	// Stall every Period during [From, Until) (firmware housekeeping,
	// thermal throttling) — supported by the iWARP and IB engine models.
	KindNICStall Kind = "nic-stall"
)

// Duration is a sim.Time that marshals as a unit-suffixed string ("250us",
// "1ms") so JSON scenarios are explicit about units, mirroring the simlint
// timeunits rule for Go sources.
type Duration sim.Time

// T returns the duration as a sim.Time.
func (d Duration) T() sim.Time { return sim.Time(d) }

// durationUnits maps suffix to picoseconds, longest suffix first so "ms"
// wins over "s".
//
//simlint:allow sharedstate read-only parse table; ranged over, never written
var durationUnits = []struct {
	suffix string
	unit   sim.Time
}{
	{"ps", sim.Picosecond},
	{"ns", sim.Nanosecond},
	{"us", sim.Microsecond},
	{"ms", sim.Millisecond},
	{"s", sim.Second},
}

// MarshalJSON renders the duration with the largest exact unit.
func (d Duration) MarshalJSON() ([]byte, error) {
	t := sim.Time(d)
	if t < 0 {
		return nil, fmt.Errorf("faults: negative duration %v", t)
	}
	out := "0ps"
	for i := len(durationUnits) - 1; i >= 0; i-- {
		u := durationUnits[i]
		if t%u.unit == 0 {
			out = strconv.FormatInt(int64(t/u.unit), 10) + u.suffix
			break
		}
	}
	if t == 0 {
		out = "0s"
	}
	return json.Marshal(out)
}

// UnmarshalJSON parses a unit-suffixed duration string. Bare numbers are
// rejected: a unit-less duration is exactly the ambiguity the simulator's
// time discipline exists to prevent.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("faults: duration must be a unit-suffixed string like \"250us\": %w", err)
	}
	t, err := ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(t)
	return nil
}

// ParseDuration converts "250us"-style strings (units ps, ns, us, ms, s;
// fractional values allowed) to virtual time.
func ParseDuration(s string) (sim.Time, error) {
	s = strings.TrimSpace(s)
	for _, u := range durationUnits {
		num, ok := strings.CutSuffix(s, u.suffix)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
		if err != nil {
			return 0, fmt.Errorf("faults: bad duration %q: %w", s, err)
		}
		if v < 0 {
			return 0, fmt.Errorf("faults: negative duration %q", s)
		}
		return sim.Time(v * float64(u.unit)), nil
	}
	return 0, fmt.Errorf("faults: duration %q needs a unit suffix (ps|ns|us|ms|s)", s)
}

// Clause is one timed fault. Which fields matter depends on Kind; the
// builder constructors below set the right ones and docs/faults.md has the
// full field-by-kind table.
type Clause struct {
	Kind Kind `json:"kind"`

	// From and Until bound the active window in virtual time. Until zero
	// means open-ended (not allowed for kinds that schedule work per tick:
	// flap, congest and nic-stall need a closed window).
	From  Duration `json:"from,omitempty"`
	Until Duration `json:"until,omitempty"`

	// Src and Dst scope frame-level clauses (loss, burst-loss, corrupt) to
	// frames between specific ports; -1 matches any.
	Src int `json:"src"`
	Dst int `json:"dst"`

	// Port selects the node whose link (flap, rate, congest) or NIC
	// (nic-stall) the clause targets; -1 targets all.
	Port int `json:"port"`

	// Leaf and Spine retarget a flap or rate clause at an inter-switch
	// trunk of a multi-switch fabric (the trunk between leaf switch Leaf
	// and spine switch Spine) instead of a host link. Set both or
	// neither; -1 means "not a trunk clause". Drop-mode flaps cannot
	// target a trunk: frames choose their spine at route time, so
	// "frames through this trunk" is not a frame-level scope.
	Leaf  int `json:"leaf"`
	Spine int `json:"spine"`

	// Rate is the loss/corruption probability per frame (loss, corrupt),
	// the remaining rate fraction (rate: 0.25 = link at a quarter speed),
	// or the egress share consumed by cross-traffic (congest).
	Rate float64 `json:"rate,omitempty"`

	// Gilbert–Elliott parameters (burst-loss).
	PBad     float64 `json:"p_bad,omitempty"`
	PGood    float64 `json:"p_good,omitempty"`
	LossGood float64 `json:"loss_good,omitempty"`
	LossBad  float64 `json:"loss_bad,omitempty"`

	// Period is the tick granularity of congest and nic-stall clauses.
	Period Duration `json:"period,omitempty"`
	// Stall is the per-tick engine freeze of a nic-stall clause.
	Stall Duration `json:"stall,omitempty"`
	// Drop switches a flap clause from pausing the link to losing frames.
	Drop bool `json:"drop,omitempty"`
}

// UnmarshalJSON decodes a clause with -1 ("any") defaults for the port
// scoping fields, so JSON scenarios only name what they constrain.
func (c *Clause) UnmarshalJSON(b []byte) error {
	type alias Clause // drop the method to avoid recursion
	a := alias{Src: -1, Dst: -1, Port: -1, Leaf: -1, Spine: -1}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return fmt.Errorf("faults: bad clause: %w", err)
	}
	*c = Clause(a)
	return nil
}

// Drops reports whether the clause loses frames: loss, burst-loss and a
// dropping flap. Only a stack with a reliability layer under it survives
// that; a link-level lossless fabric has none (see cluster.CheckFaults).
func (c Clause) Drops() bool {
	return c.Kind == KindLoss || c.Kind == KindBurstLoss || c.Kind == KindFlap && c.Drop
}

// Loss returns a clause dropping every frame independently with the given
// probability.
func Loss(rate float64) Clause {
	return Clause{Kind: KindLoss, Rate: rate, Src: -1, Dst: -1, Port: -1, Leaf: -1, Spine: -1}
}

// BurstLoss returns a Gilbert–Elliott clause: pBad and pGood are the
// per-frame good->bad and bad->good transition probabilities; the good
// state is lossless and the bad state drops everything. Tune the loss
// probabilities through the LossGood/LossBad fields if needed.
func BurstLoss(pBad, pGood float64) Clause {
	return Clause{Kind: KindBurstLoss, PBad: pBad, PGood: pGood, LossBad: 1, Src: -1, Dst: -1, Port: -1, Leaf: -1, Spine: -1}
}

// Corrupt returns a clause corrupting frames with the given probability.
func Corrupt(rate float64) Clause {
	return Clause{Kind: KindCorrupt, Rate: rate, Src: -1, Dst: -1, Port: -1, Leaf: -1, Spine: -1}
}

// Flap returns a clause pausing node `port`'s link during [from, until).
func Flap(port int, from, until sim.Time) Clause {
	return Clause{Kind: KindFlap, Port: port, From: Duration(from), Until: Duration(until), Src: -1, Dst: -1, Leaf: -1, Spine: -1}
}

// FlapDrop is Flap in drop mode: frames sent into the window are lost.
func FlapDrop(port int, from, until sim.Time) Clause {
	c := Flap(port, from, until)
	c.Drop = true
	return c
}

// RateLimit returns a clause running node `port`'s link at factor times the
// configured rate (0 < factor < 1).
func RateLimit(port int, factor float64) Clause {
	return Clause{Kind: KindRate, Port: port, Rate: factor, Src: -1, Dst: -1, Leaf: -1, Spine: -1}
}

// Congest returns a clause occupying `share` of the switch egress link
// toward node `port`.
func Congest(port int, share float64) Clause {
	return Clause{Kind: KindCongest, Port: port, Rate: share, Src: -1, Dst: -1, Leaf: -1, Spine: -1}
}

// NICStall returns a clause freezing host `host`'s NIC protocol engine for
// `stall` every `period`.
func NICStall(host int, period, stall sim.Time) Clause {
	return Clause{Kind: KindNICStall, Port: host, Period: Duration(period), Stall: Duration(stall), Src: -1, Dst: -1, Leaf: -1, Spine: -1}
}

// TrunkFlap returns a clause pausing the trunk between leaf switch `leaf`
// and spine switch `spine` during [from, until) — a failing inter-switch
// cable on a multi-switch fabric. Traffic hashed onto other spines is
// untouched; flows pinned to this trunk stall until the window closes.
func TrunkFlap(leaf, spine int, from, until sim.Time) Clause {
	return Clause{Kind: KindFlap, Leaf: leaf, Spine: spine, From: Duration(from), Until: Duration(until), Src: -1, Dst: -1, Port: -1}
}

// TrunkRateLimit returns a clause running the leaf/spine trunk at factor
// times the configured trunk rate (0 < factor < 1).
func TrunkRateLimit(leaf, spine int, factor float64) Clause {
	return Clause{Kind: KindRate, Leaf: leaf, Spine: spine, Rate: factor, Src: -1, Dst: -1, Port: -1}
}

// Between bounds the clause to the [from, until) virtual-time window.
func (c Clause) Between(from, until sim.Time) Clause {
	c.From, c.Until = Duration(from), Duration(until)
	return c
}

// Scoped restricts a frame-level clause to frames from src to dst (-1 = any).
func (c Clause) Scoped(src, dst int) Clause {
	c.Src, c.Dst = src, dst
	return c
}

// validate checks the clause's static invariants (everything not requiring
// the attached network's port count).
func (c Clause) validate(i int) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("faults: clause %d (%s): %s", i, c.Kind, fmt.Sprintf(format, args...))
	}
	if c.From < 0 || c.Until < 0 {
		return bad("negative window [%v, %v)", c.From.T(), c.Until.T())
	}
	if (c.Leaf == -1) != (c.Spine == -1) {
		return bad("trunk targeting needs both leaf and spine (got leaf %d, spine %d)", c.Leaf, c.Spine)
	}
	if c.Leaf != -1 {
		if c.Kind != KindFlap && c.Kind != KindRate {
			return bad("only flap and rate clauses can target a trunk")
		}
		if c.Leaf < 0 || c.Spine < 0 {
			return bad("trunk indices (leaf %d, spine %d) must be >= 0", c.Leaf, c.Spine)
		}
		if c.Drop {
			return bad("drop-mode flap cannot target a trunk: frames pick a spine at route time")
		}
	}
	if c.Until != 0 && c.Until <= c.From {
		return bad("window [%v, %v) is empty", c.From.T(), c.Until.T())
	}
	prob := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return bad("%s %v outside [0, 1]", name, v)
		}
		return nil
	}
	switch c.Kind {
	case KindLoss, KindCorrupt:
		if c.Rate <= 0 || c.Rate > 1 {
			return bad("rate %v outside (0, 1]", c.Rate)
		}
	case KindBurstLoss:
		for _, p := range []struct {
			name string
			v    float64
		}{{"p_bad", c.PBad}, {"p_good", c.PGood}, {"loss_good", c.LossGood}, {"loss_bad", c.LossBad}} {
			if err := prob(p.name, p.v); err != nil {
				return err
			}
		}
		if c.PBad == 0 && c.LossGood == 0 {
			return bad("never leaves the lossless good state")
		}
	case KindFlap:
		if c.Until == 0 {
			return bad("needs a closed window")
		}
	case KindRate:
		if c.Rate <= 0 || c.Rate >= 1 {
			return bad("factor %v outside (0, 1)", c.Rate)
		}
	case KindCongest:
		if c.Rate <= 0 || c.Rate >= 1 {
			return bad("share %v outside (0, 1)", c.Rate)
		}
		if c.Until == 0 {
			return bad("needs a closed window")
		}
	case KindNICStall:
		if c.Stall <= 0 {
			return bad("stall duration %v", c.Stall.T())
		}
		if c.Until == 0 {
			return bad("needs a closed window")
		}
	default:
		return bad("unknown kind")
	}
	if c.Kind == KindCongest || c.Kind == KindNICStall {
		if c.Period < 0 {
			return bad("negative period %v", c.Period.T())
		}
		if c.Period != 0 && c.Kind == KindNICStall && c.Period.T() < c.Stall.T() {
			return bad("period %v shorter than stall %v", c.Period.T(), c.Stall.T())
		}
	}
	return nil
}

// Scenario is one reproducible fault schedule: a seed for every random
// draw the clauses make, plus the clauses themselves.
type Scenario struct {
	Seed    uint64   `json:"seed"`
	Clauses []Clause `json:"clauses"`
}

// New returns an empty scenario with the given seed.
func New(seed uint64) *Scenario { return &Scenario{Seed: seed} }

// Add appends clauses and returns the scenario for chaining.
func (s *Scenario) Add(cs ...Clause) *Scenario {
	s.Clauses = append(s.Clauses, cs...)
	return s
}

// Empty reports whether the scenario injects nothing (nil counts).
func (s *Scenario) Empty() bool { return s == nil || len(s.Clauses) == 0 }

// ShiftedBy returns a copy of the scenario with every clause window moved
// dt later (open Until windows stay open). Clause timestamps are absolute
// virtual time, but a harness usually wants them anchored at the start of
// its measured workload — which is not t=0 when world setup has already
// consumed virtual time (the verbs MPI worlds drain an init run before any
// benchmark traffic). Shifting by the engine's current time at apply point
// re-anchors the schedule there.
func (s *Scenario) ShiftedBy(dt sim.Time) *Scenario {
	if s.Empty() || dt == 0 {
		return s
	}
	out := &Scenario{Seed: s.Seed, Clauses: append([]Clause(nil), s.Clauses...)}
	for i := range out.Clauses {
		c := &out.Clauses[i]
		c.From = Duration(c.From.T() + dt)
		if c.Until != 0 {
			c.Until = Duration(c.Until.T() + dt)
		}
	}
	return out
}

// Validate checks every clause's static invariants.
func (s *Scenario) Validate() error {
	if s == nil {
		return nil
	}
	for i, c := range s.Clauses {
		if err := c.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// Parse decodes and validates a JSON scenario. Unknown fields are errors.
func Parse(b []byte) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("faults: bad scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a JSON scenario file.
func Load(path string) (*Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	s, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	return s, nil
}
