package simd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/simd/spec"
)

// Result is the cached payload of one job: everything a client gets back,
// marshalled once and stored verbatim so repeated submissions are served
// byte-identically. Every field is deterministic for a given (spec, seed,
// code version) — no wall-clock timestamps, no pool timings — which is
// what makes byte-identity achievable at all.
type Result struct {
	// Spec is the canonical spec that produced this result.
	Spec json.RawMessage `json:"spec"`
	// Version is the code version component of the cache key.
	Version string `json:"version"`
	// Table is the text output, formatted like cmd/figures (catalogue
	// experiments) or cmd/netbench (custom workloads).
	Table string `json:"table"`
	// CSVs carries one CSV per rendered figure, in figure order.
	CSVs []CSVFile `json:"csvs,omitempty"`
	// Metrics is the deterministic metrics-registry snapshot of the
	// world's engine (custom single-world runs only; a catalogue sweep
	// spans hundreds of worlds).
	Metrics json.RawMessage `json:"metrics,omitempty"`
	// Worlds counts simulation worlds the worker pool ran for this job.
	// Custom micro-benchmarks build their single world inline and report
	// zero.
	Worlds int64 `json:"worlds"`
}

// CSVFile is one figure's CSV rendering.
type CSVFile struct {
	ID      string `json:"id"`
	Content string `json:"content"`
}

// executeSpec runs a normalized spec to a Result (Worlds left for the
// caller, which owns the pool scope). A cancelled scope surfaces as an
// error wrapping parallel.ErrCanceled via the figure drivers' panic.
func executeSpec(s spec.Spec, canonical []byte, version string) (res *Result, err error) {
	defer func() {
		// The figure drivers report failed worlds — including cancelled
		// batches — by panicking; contain the job like the pool contains
		// a world.
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("simd: job panicked: %v", r)
		}
	}()
	res = &Result{Spec: canonical, Version: version}
	// Apply the execution hint for this job only. Jobs are serialized by
	// the runner, and the shard-count identity guarantee means the
	// hint can only change how fast the result arrives, never its bytes
	// (which is why Canonical excludes it from the cache key).
	oldShards := bench.Shards()
	bench.SetShards(s.Shards)
	defer bench.SetShards(oldShards)
	if s.Experiment != "" {
		e, ok := core.Find(s.Experiment)
		if !ok {
			return nil, fmt.Errorf("simd: unknown experiment %q", s.Experiment)
		}
		var buf bytes.Buffer
		err := core.RunExperiment(&buf, e, s.Scale, func(fig bench.Figure) error {
			res.CSVs = append(res.CSVs, CSVFile{ID: fig.ID, Content: fig.CSV()})
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Table = buf.String()
		return res, nil
	}
	return runCustom(s, res)
}

// runCustom runs a single custom workload. Jobs are serialized by the
// runner, so hooking cluster.OnNew to observe the one world being built —
// the same seam cmd/netbench uses — cannot see anyone else's worlds.
func runCustom(s spec.Spec, res *Result) (*Result, error) {
	c := s.Custom
	// spec.Normalize has already rejected every name outside spec.Nets.
	kind, ok := cluster.ParseKind(c.Net)
	if !ok {
		return nil, fmt.Errorf("simd: unknown net %q", c.Net)
	}
	var scenario *faults.Scenario
	if c.Faults != nil {
		sc := *c.Faults
		sc.Seed = s.Seed
		scenario = &sc
	}

	collective := c.Benchmark == "alltoall" || c.Benchmark == "allgather" || c.Benchmark == "allreduce" || c.Benchmark == "halo"
	var last *cluster.Testbed
	var applyErr error
	cluster.OnNew = func(tb *cluster.Testbed) {
		last = tb
		// The many-rank drivers apply faults themselves (re-anchored at
		// workload start, like the figure families); the two-node
		// micro-benchmarks take them at world build with absolute
		// virtual-time windows, like netbench -faults.
		if scenario != nil && !collective {
			if _, err := tb.ApplyFaults(scenario); err != nil && applyErr == nil {
				applyErr = err
			}
		}
	}
	defer func() { cluster.OnNew = nil }()

	var table strings.Builder
	fmt.Fprintf(&table, "==== custom: %s %s ====\n", c.Net, c.Benchmark)

	opts := bench.ScaleOpts{Faults: scenario}
	if c.Topology != nil {
		opts.Topology = &fabric.TopologySpec{HostsPerLeaf: c.Topology.HostsPerLeaf, Spines: c.Topology.Spines}
	}

	switch c.Benchmark {
	case "latency":
		lat := bench.UserLatency(kind, c.Size, c.Iters)
		fmt.Fprintf(&table, "%s user-level ping-pong latency, %d B: %.3f us\n", kind, c.Size, lat.Micros())
		res.CSVs = append(res.CSVs, customCSV(c, "latency_us", lat.Micros()))
	case "mpi-latency":
		lat := bench.MPILatency(kind, c.Size, c.Iters)
		fmt.Fprintf(&table, "%s MPI ping-pong latency, %d B: %.3f us\n", kind, c.Size, lat.Micros())
		res.CSVs = append(res.CSVs, customCSV(c, "latency_us", lat.Micros()))
	case "mpi-bandwidth":
		mode, ok := bench.ParseMode(c.Mode)
		if !ok {
			return nil, fmt.Errorf("simd: unknown bandwidth mode %q", c.Mode)
		}
		bw := bench.MPIBandwidth(kind, mode, c.Size, c.Iters)
		fmt.Fprintf(&table, "%s MPI %s bandwidth, %d B: %.1f MB/s\n", kind, mode, c.Size, bw)
		res.CSVs = append(res.CSVs, customCSV(c, "bandwidth_mbs", bw))
	case "alltoall", "allgather", "allreduce", "halo":
		var r bench.ScaleResult
		var ranks int
		var err error
		switch c.Benchmark {
		case "alltoall":
			ranks = c.Ranks
			r, err = bench.AlltoallScale(kind, c.Ranks, c.Size, c.Iters, opts)
		case "allgather":
			ranks = c.Ranks
			r, err = bench.AllgatherScale(kind, c.Ranks, c.Size, c.Iters, opts)
		case "allreduce":
			ranks = c.Ranks
			r, err = bench.AllreduceScale(kind, c.Ranks, c.Size, c.Iters, opts)
		case "halo":
			ranks = c.GridX * c.GridY
			r, err = bench.HaloScale(kind, c.GridX, c.GridY, c.Size, c.Iters, opts)
		}
		if err != nil {
			return nil, fmt.Errorf("simd: %s: %w", c.Benchmark, err)
		}
		fmt.Fprintf(&table, "%s %s, %d ranks, %d B: %.3f us/iter (peak trunk util %d bp)\n",
			kind, c.Benchmark, ranks, c.Size, r.Time.Micros(), r.TrunkUtilBP)
		res.CSVs = append(res.CSVs, customCSV(c, "time_us", r.Time.Micros()))
	default:
		return nil, fmt.Errorf("simd: unhandled benchmark %q", c.Benchmark)
	}
	if applyErr != nil {
		return nil, fmt.Errorf("simd: applying faults: %w", applyErr)
	}
	res.Table = table.String()
	if last != nil {
		snap, err := json.Marshal(last.Eng.Metrics().Snapshot())
		if err != nil {
			return nil, fmt.Errorf("simd: metrics snapshot: %w", err)
		}
		res.Metrics = snap
	}
	return res, nil
}

// customCSV renders a one-row CSV for a custom workload result.
func customCSV(c *spec.Custom, column string, v float64) CSVFile {
	return CSVFile{
		ID:      fmt.Sprintf("custom-%s-%s", c.Benchmark, c.Net),
		Content: fmt.Sprintf("size,%s\n%d,%.6g\n", column, c.Size, v),
	}
}
