// Package spec defines the experiment specification the simd job server
// accepts, its canonical form, and the content hash the result cache is
// keyed on.
//
// Canonicalization is what makes the cache correct: two submissions that
// mean the same experiment must hash identically however their JSON was
// written. Parse decodes strictly (unknown fields are errors, so a typoed
// field can never silently select a different cache entry), Normalize
// materializes every default, and Canonical re-marshals the normalized
// struct — field order and whitespace of the input are gone by
// construction, and a field that would be ignored at run time is rejected
// rather than hashed.
//
// The hash is SHA-256, deliberately independent of the simulator's
// SplitMix64: the model's hash is a seedable, invertible mixing function
// chosen for determinism inside a world, which is exactly what a
// content-address must not be (cache keys must not collide under
// adversarial or accidental structure, and must not change if the model's
// mixer is ever retuned).
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/faults"
)

// Nets are the accepted network stack names: the cluster.Kind slugs that
// cmd/netbench also accepts (internal/simd pins the two lists equal).
var Nets = []string{"iwarp", "ib", "mxom", "mxoe"}

// Benchmarks are the accepted custom workloads. The latency/bandwidth pair
// mirrors the paper's Figure 1/3/4 micro-benchmarks; the collectives and
// halo kernel are the many-rank drivers behind the topo figure family.
var Benchmarks = []string{
	"latency", "mpi-latency", "mpi-bandwidth",
	"alltoall", "allgather", "allreduce", "halo",
}

// Modes are the accepted mpi-bandwidth modes, as bench.ParseMode names them.
var Modes = []string{"uni", "bidi", "bothway"}

// Limits bound custom workloads to what the simulator can serve
// interactively; they are part of validation, not suggestions.
const (
	MaxSize  = 4 << 20 // the paper's largest message
	MaxIters = 1000
	MaxRanks = 256
)

// Spec is one experiment submission: either a catalogue experiment by ID
// (everything cmd/figures can run) or a custom workload.
type Spec struct {
	// Experiment is a catalogue experiment ID (see core.Catalogue).
	// Mutually exclusive with Custom.
	Experiment string `json:"experiment,omitempty"`
	// Scale thins a catalogue experiment's sweeps like figures -scale;
	// only valid with Experiment. Defaults to 1 (full sweeps).
	Scale int `json:"scale,omitempty"`
	// Seed seeds the custom fault scenario's random draws. Only valid
	// when Custom.Faults is set (an unused seed would split the cache).
	Seed uint64 `json:"seed,omitempty"`
	// Custom is a single-workload experiment. Mutually exclusive with
	// Experiment.
	Custom *Custom `json:"custom,omitempty"`
	// Shards is an EXECUTION HINT, not part of the experiment: it asks the
	// worker to split each world across this many engines via the
	// conservative parallel runtime (internal/pdes), whose whole contract
	// is byte-identical output at any shard count. Because the result
	// cannot depend on it, Canonical zeroes it before marshalling — two
	// submissions differing only in shards share one cache entry.
	Shards int `json:"shards,omitempty"`
}

// Custom is a single workload on one network stack.
type Custom struct {
	// Net is the stack: iwarp | ib | mxom | mxoe.
	Net string `json:"net"`
	// Benchmark selects the workload; see Benchmarks.
	Benchmark string `json:"benchmark"`
	// Size is the message size in bytes (per-pair for alltoall, per-rank
	// for allgather/allreduce, per-face for halo).
	Size int `json:"size,omitempty"`
	// Iters is the measured iteration count.
	Iters int `json:"iters,omitempty"`
	// Ranks is the world size for the collective benchmarks.
	Ranks int `json:"ranks,omitempty"`
	// GridX and GridY shape the halo-exchange process grid.
	GridX int `json:"grid_x,omitempty"`
	GridY int `json:"grid_y,omitempty"`
	// Mode is the mpi-bandwidth direction: uni | bidi | bothway.
	Mode string `json:"mode,omitempty"`
	// Topology, when set, runs the workload on a multi-switch leaf–spine
	// fabric instead of the paper's single switch (collectives and halo
	// only — the two-node micro-benchmarks never cross a trunk).
	Topology *Topology `json:"topology,omitempty"`
	// Faults, when set, is the fault scenario applied to the world,
	// re-anchored at workload start. Its seed field must be left zero;
	// the spec-level Seed is the one the cache key records.
	Faults *faults.Scenario `json:"faults,omitempty"`
}

// Topology mirrors fabric.TopologySpec's JSON-friendly subset.
type Topology struct {
	HostsPerLeaf int `json:"hosts_per_leaf"`
	Spines       int `json:"spines"`
}

// Parse strictly decodes a JSON spec, normalizes defaults and validates.
func Parse(b []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("spec: trailing data after the spec object")
	}
	if err := s.Normalize(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Normalize materializes every default in place and validates the result,
// so that a spec with a field omitted and a spec with the default spelled
// out canonicalize — and therefore hash — identically. It is idempotent.
func (s *Spec) Normalize() error {
	if s.Shards < 0 {
		return fmt.Errorf("spec: shards %d out of range (>= 0)", s.Shards)
	}
	switch {
	case s.Experiment != "" && s.Custom != nil:
		return fmt.Errorf("spec: experiment %q and a custom workload are mutually exclusive", s.Experiment)
	case s.Experiment == "" && s.Custom == nil:
		return fmt.Errorf("spec: need an experiment ID or a custom workload")
	case s.Experiment != "":
		if s.Scale == 0 {
			s.Scale = 1
		}
		if s.Scale < 1 {
			return fmt.Errorf("spec: scale %d out of range (>= 1)", s.Scale)
		}
		if s.Seed != 0 {
			return fmt.Errorf("spec: seed applies only to custom fault scenarios; catalogue experiments carry their own")
		}
		return nil
	}
	if s.Scale != 0 {
		return fmt.Errorf("spec: scale applies only to catalogue experiments")
	}
	c := s.Custom
	if !oneOf(c.Net, Nets) {
		return fmt.Errorf("spec: unknown net %q (valid: %v)", c.Net, Nets)
	}
	if !oneOf(c.Benchmark, Benchmarks) {
		return fmt.Errorf("spec: unknown benchmark %q (valid: %v)", c.Benchmark, Benchmarks)
	}
	if s.Seed != 0 && c.Faults.Empty() {
		return fmt.Errorf("spec: seed requires a fault scenario (an unused seed would split the cache)")
	}
	if c.Faults != nil && c.Faults.Seed != 0 {
		return fmt.Errorf("spec: set the top-level seed, not faults.seed (the cache key records the former)")
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	kind, _ := cluster.ParseKind(c.Net)
	if err := cluster.CheckFaults(kind, c.Faults); err != nil {
		return fmt.Errorf("spec: %w", err)
	}

	collective := c.Benchmark == "alltoall" || c.Benchmark == "allgather" || c.Benchmark == "allreduce"
	halo := c.Benchmark == "halo"
	// Reject fields the selected benchmark would ignore: an ignored field
	// would mint distinct cache entries for byte-identical results.
	if c.Mode != "" && c.Benchmark != "mpi-bandwidth" {
		return fmt.Errorf("spec: mode applies only to mpi-bandwidth")
	}
	if c.Ranks != 0 && !collective {
		return fmt.Errorf("spec: ranks applies only to alltoall/allgather/allreduce")
	}
	if (c.GridX != 0 || c.GridY != 0) && !halo {
		return fmt.Errorf("spec: grid_x/grid_y apply only to halo")
	}
	if c.Topology != nil && !collective && !halo {
		return fmt.Errorf("spec: topology applies only to the many-rank benchmarks (two-node micro-benchmarks never cross a trunk)")
	}

	switch c.Benchmark {
	case "latency", "mpi-latency":
		defaults(&c.Size, 4)
		defaults(&c.Iters, 30)
	case "mpi-bandwidth":
		defaults(&c.Size, 1<<20)
		defaults(&c.Iters, 3)
		if c.Mode == "" {
			c.Mode = "uni"
		}
		if !oneOf(c.Mode, Modes) {
			return fmt.Errorf("spec: unknown mode %q (valid: %v)", c.Mode, Modes)
		}
	default: // collectives and halo
		defaults(&c.Size, 1<<10)
		defaults(&c.Iters, 3)
		if collective {
			defaults(&c.Ranks, 4)
		}
		if halo {
			defaults(&c.GridX, 2)
			defaults(&c.GridY, 2)
		}
	}

	ranks := c.Ranks
	if halo {
		ranks = c.GridX * c.GridY
	}
	if c.Size < 1 || c.Size > MaxSize {
		return fmt.Errorf("spec: size %d out of range [1, %d]", c.Size, MaxSize)
	}
	if c.Iters < 1 || c.Iters > MaxIters {
		return fmt.Errorf("spec: iters %d out of range [1, %d]", c.Iters, MaxIters)
	}
	if collective || halo {
		if ranks < 2 || ranks > MaxRanks {
			return fmt.Errorf("spec: %d ranks out of range [2, %d]", ranks, MaxRanks)
		}
	}
	if t := c.Topology; t != nil {
		if t.HostsPerLeaf < 1 || t.Spines < 1 {
			return fmt.Errorf("spec: topology needs hosts_per_leaf >= 1 and spines >= 1")
		}
		if t.HostsPerLeaf > ranks {
			return fmt.Errorf("spec: hosts_per_leaf %d exceeds the %d-rank world", t.HostsPerLeaf, ranks)
		}
	}
	return nil
}

func defaults(field *int, v int) {
	if *field == 0 {
		*field = v
	}
}

func oneOf(s string, valid []string) bool {
	for _, v := range valid {
		if s == v {
			return true
		}
	}
	return false
}

// Canonical returns the canonical encoding: the normalized spec marshalled
// with fixed field order and no insignificant whitespace. Submissions that
// differ only in JSON field order, whitespace, or spelled-out defaults
// produce identical canonical bytes.
func (s Spec) Canonical() ([]byte, error) {
	c := s // shallow copy; Normalize rewrites scalars in place
	if c.Custom != nil {
		cc := *s.Custom
		c.Custom = &cc
	}
	if err := c.Normalize(); err != nil {
		return nil, err
	}
	// Execution hints never reach the canonical form: the fabric forwards
	// identically on one engine and on N shards, so hashing the hint
	// would split the cache across entries holding identical bytes.
	c.Shards = 0
	return json.Marshal(c)
}

// Hash returns the hex SHA-256 of the canonical encoding.
func (s Spec) Hash() (string, error) {
	b, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Key derives the result-cache key from the (canonical spec hash, seed,
// code version) triple. Seed rides inside the spec hash already; naming it
// in the key keeps the cache layout honest about what identifies a result
// even if the canonical form ever changes.
func Key(specHash string, seed uint64, version string) string {
	h := sha256.New()
	h.Write([]byte("simd-result-v1\x00"))
	h.Write([]byte(specHash))
	h.Write([]byte{0})
	h.Write([]byte(strconv.FormatUint(seed, 10)))
	h.Write([]byte{0})
	h.Write([]byte(version))
	return hex.EncodeToString(h.Sum(nil))
}
